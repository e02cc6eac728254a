"""Mutant gate: each listed mutant of the package must fail the tests named
for it.

A mutant is a file under ``src/``, an exact source string that occurs in it
once, the string that replaces it, and the test files that must catch it.
The script first runs each distinct set of test files once against an
unmutated copy of ``src/``; if one does not pass, it exits 1 before any
mutant is applied, since a failing test would report every mutant as
killed.  Then, for each mutant, it copies ``src/`` into a temporary
directory, applies the one replacement there, and runs
``python -m pytest -x -q <test files>`` against the copy.  A mutant whose
tests pass has survived.  The script exits 1 if a mutant survives, if a
source string is not found exactly once (so the list follows the code), or
if pytest ends other than by passing or by a failed test.

Every run uses ``OPENBLAS_NUM_THREADS=1``, so that the threaded Monte
Carlo path and the tests that force it run, and a Hypothesis seed and
database of its own, so that a run is repeatable and leaves the
repository's ``.hypothesis`` alone.

Usage, from anywhere:
    python scripts/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    path: str  # under src/
    old: str
    new: str
    tests: tuple[str, ...]  # under tests/, the most likely killer first


MUTANTS = (
    Mutant("mirror keeps wins and losses", "mcmatrix/stats.py",
           "np.where(flip, losses, wins).tolist(),", "wins.tolist(),",
           ("test_mcm.py", "test_end_to_end.py")),
    Mutant("slot decode off by one", "mcmatrix/mcm.py",
           "k = np.abs(slots) - 1", "k = np.abs(slots) - 2",
           ("test_mcm.py", "test_end_to_end.py")),
    Mutant("ranks do not average ties", "mcmatrix/stats.py",
           "1.0 + start + 0.5 * (end - start)", "1.0 + start + 0.0 * (end - start)",
           ("test_end_to_end.py", "test_stats.py")),
    Mutant("reversed direction", "mcmatrix/stats.py",
           "if matrix.direction is Direction.LOWER_IS_BETTER:\n        d = -d",
           "if matrix.direction is Direction.HIGHER_IS_BETTER:\n        d = -d",
           ("test_end_to_end.py", "test_stats.py")),
    Mutant("slice check always passes", "mcmatrix/bayes.py",
           "if not np.array_equal(buf[:hi - lo].view(np.uint64) @ odd, whole[lo:hi]):",
           "if False:",
           ("test_bayes.py",)),
    Mutant("a worker skipped", "mcmatrix/bayes.py",
           "for t in range(share)]", "for t in range(share - 1)]",
           ("test_bayes.py",)),
    Mutant("Holm threshold off by one", "mcmatrix/stats.py",
           "alpha / (f - np.arange(f))", "alpha / (f - np.arange(f) - 1)",
           ("test_end_to_end.py", "test_stability.py")),
    Mutant("exact threshold exclusive", "mcmatrix/stats.py",
           "exact = (k > 0) & (k <= DEFAULT_EXACT_THRESHOLD)",
           "exact = (k > 0) & (k < DEFAULT_EXACT_THRESHOLD)",
           ("test_end_to_end.py", "test_stats.py")),
    Mutant("continuity correction sign", "mcmatrix/stats.py",
           "mean) - 0.5, 0.0)", "mean) + 0.5, 0.0)",
           ("test_end_to_end.py", "test_stats.py")),
    Mutant("tie epsilon inclusive", "mcmatrix/stats.py",
           "np.count_nonzero(d > tie_epsilon, axis=1)",
           "np.count_nonzero(d >= tie_epsilon, axis=1)",
           ("test_end_to_end.py", "test_stats.py")),
    Mutant("ROPE boundary open", "mcmatrix/bayes.py",
           "for region in (sums < -bound, sums > bound):",
           "for region in (sums <= -bound, sums > bound):",
           ("test_bayes.py",)),
    Mutant("reservoir slot off by one", "mcmatrix/stability.py",
           "kept_for[int(slot[row])] = subset", "kept_for[int(slot[row]) - 1] = subset",
           ("test_end_to_end.py", "test_stability.py")),
    Mutant("pattern skips a core pair", "mcmatrix/stability.py",
           "bits[order[t:]] = True", "bits[order[t + 1:]] = True",
           ("test_end_to_end.py", "test_stability.py")),
    Mutant("run start one too low", "mcmatrix/render/cd_view.py",
           "count - np.argmax(apart[::-1], 0)", "count - 1 - np.argmax(apart[::-1], 0)",
           ("test_end_to_end.py", "test_render.py")),
    Mutant("Nemenyi boundary open", "mcmatrix/render/cd_view.py",
           "np.subtract.outer(ars, ars)) <= cd", "np.subtract.outer(ars, ars)) < cd",
           ("test_render.py",)),
    Mutant("critical value not rounded to six decimals", "mcmatrix/stats.py",
           "constant = round(_range_quantile(m, alpha) / math.sqrt(2.0), 6)",
           "constant = _range_quantile(m, alpha) / math.sqrt(2.0)",
           ("test_stats.py",)),
    Mutant("range tail raised to m, not m - 1", "mcmatrix/stats.py",
           "np.expm1((m - 1) * np.log1p(", "np.expm1(m * np.log1p(",
           ("test_stats.py",)),
    Mutant("range tail as one minus a power", "mcmatrix/stats.py",
           "-np.expm1((m - 1) * np.log1p(-upper(q - z) / below))",
           "1 - (1 - upper(q - z) / below) ** (m - 1)",
           ("test_stats.py",)),
    Mutant("Nemenyi alpha above one half accepted", "mcmatrix/stats.py",
           "if alpha > 0.5:", "if False:",
           ("test_stats.py",)),
    Mutant("exact counts' top never refreshed", "mcmatrix/stats.py",
           "top = max(top, peak)", "top = top",
           ("test_end_to_end.py", "test_stats.py")),
    Mutant("enumeration chunk ignores the family size", "mcmatrix/stability.py",
           "chunk = max(1, min(_CHUNK, _CHUNK_ENTRIES // math.comb(len(core) + k_extra, 2)))",
           "chunk = _CHUNK",
           ("test_memory.py",)),
    Mutant("metadata keeps a raw <", "mcmatrix/render/core.py",
           'blob.replace("<", "\\\\u003c").', "blob.",
           ("test_cli.py",)),
    Mutant("output file gets only its first chunk", "mcmatrix/cli.py",
           "for chunk in chunks:", "for chunk in list(chunks)[:1]:",
           ("test_cli.py",)),
    Mutant("a short write's rest is dropped", "mcmatrix/cli.py",
           "view = view[out.write(view):]", "view = view[:0] if out.write(view) else view",
           ("test_cli.py",)),
    Mutant("failed stdout left for the flush at exit", "mcmatrix/cli.py",
           "os.dup2(null.fileno(), sys.stdout.fileno())", "pass",
           ("test_cli.py",)),
    Mutant("closed standard stream read as present", "mcmatrix/cli.py",
           "if stream is None:", "if False:",
           ("test_cli.py",)),
    Mutant("Friedman refusal not caught in stats", "mcmatrix/cli.py",
           "except ValidationError as exc:", "except InternalError as exc:",
           ("test_end_to_end.py",)),
    Mutant("signed-rank block read as one row", "mcmatrix/stats.py",
           "if d.ndim != 1:", "if False:",
           ("test_stats.py",)),
    Mutant("merge keeps a conflicting score", "mcmatrix/data.py",
           "if old != value:", "if False:",
           ("test_data.py",)),
    Mutant("input format read in any case", "mcmatrix/data.py",
           "    text = _as_text(source)\n",
           "    text, format = _as_text(source), str(format).strip().lower()\n",
           ("test_data.py",)),
    Mutant("pairwise method read in any spelling", "mcmatrix/render/cd_view.py",
           '    if pairwise_method not in ("nemenyi", "wilcoxon-holm"):',
           '    pairwise_method = pairwise_method.lower().replace("_", "-")\n'
           '    if pairwise_method not in ("nemenyi", "wilcoxon-holm"):',
           ("test_render.py",)),
)


def pytest(mutant: Mutant | None, tests: tuple[str, ...]) -> int:
    """Exit code of ``tests`` on a copy of ``src/``, with ``mutant`` applied
    if one is given."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        if mutant is not None:
            source = (src / mutant.path).read_text()
            if source.count(mutant.old) != 1:
                raise RuntimeError(f"{mutant.old!r} occurs {source.count(mutant.old)} times "
                                   f"in src/{mutant.path}, not once")
            (src / mutant.path).write_text(source.replace(mutant.old, mutant.new))
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1",
               "HYPOTHESIS_STORAGE_DIRECTORY": str(Path(tmp) / "hypothesis")}
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--hypothesis-seed=0", *(str(ROOT / "tests" / t) for t in tests)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if done.returncode not in (0, 1):
        raise RuntimeError(f"pytest exited {done.returncode}:\n{done.stdout[-2000:]}")
    if done.returncode and mutant is None:
        raise RuntimeError(f"the unmutated code fails:\n{done.stdout[-2000:]}")
    return done.returncode


def main() -> int:
    for tests in dict.fromkeys(m.tests for m in MUTANTS):
        start = time.perf_counter()
        try:
            pytest(None, tests)
        except RuntimeError as exc:
            print(f"baseline error on {' '.join(tests)}: {exc}", file=sys.stderr)
            return 1
        print(f"  passed  {time.perf_counter() - start:5.1f} s  baseline {' '.join(tests)}",
              flush=True)
    bad = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        try:
            verdict = ("survived", "killed")[pytest(mutant, mutant.tests)]
        except RuntimeError as exc:
            verdict = f"error: {exc}"
        bad += verdict != "killed"
        print(f"{verdict:>8}  {time.perf_counter() - start:5.1f} s  {mutant.name}", flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
