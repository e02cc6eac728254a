"""Time the grid commands on one large seeded table, one subprocess each.

Run from the root of a source checkout::

    python3 scripts/grid_scale.py
    python3 scripts/grid_scale.py --root ../other-checkout

It writes an m = 400, n = 60 table of accuracy-like scores, generated from
``random.Random`` seeded with a string (a stream Python keeps stable across
versions), then runs every grid writer on it: ``mcm`` in each of its three
formats, ``stats``, and ``cd --pairwise wilcoxon-holm`` (the all-pairs Holm
path).  It also runs ``mcm --include-bayes --format json`` at the default
100,000 samples on the table's first 20 comparates (190 posteriors), and
``stability enumerate --k-extra 5`` at the exhaustive limit: a core of 4
and a pool of 43 on a second, m = 47, n = 30 table (962,598 subsets), and
``cd --pairwise wilcoxon-holm``, ``mcm --format json`` and ``stats`` on a
third, m = 1,000, n = 108 table: 499,500 pairs, where ranking and the Holm
step-down are a large share of ``cd``, and the JSON writers' output is
over 100 MB.  Each
command is a fresh ``python -m mcmatrix.cli`` process on the ``src``
directory of ``--root``.  It prints a Markdown table with each
command's wall seconds, its peak resident memory (the child's own
``ru_maxrss``, from ``os.wait4``) and its output size.  One run per command
is evidence of scale, not a benchmark.
"""

from __future__ import annotations

import argparse
import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

M, N = 400, 60
BAYES_M = 20
ENUM_M, ENUM_N = 47, 30
LARGE_M, LARGE_N = 1000, 108
# (label, comparates: the first m rows of the m x n table, tasks n, CLI arguments)
COMMANDS = (
    ("mcm --format json", M, N, ["mcm", "--format", "json"]),
    ("mcm --format html", M, N, ["mcm", "--format", "html"]),
    ("mcm --format svg", M, N, ["mcm", "--format", "svg"]),
    ("stats", M, N, ["stats"]),
    ("cd --pairwise wilcoxon-holm", M, N, ["cd", "--pairwise", "wilcoxon-holm"]),
    ("mcm --include-bayes --format json", BAYES_M, N,
     ["mcm", "--include-bayes", "--format", "json"]),
    ("stability enumerate --k-extra 5", ENUM_M, ENUM_N,
     ["stability", "enumerate", "--k-extra", "5", "--core", "c000,c001,c002,c003"]),
    ("cd --pairwise wilcoxon-holm", LARGE_M, LARGE_N, ["cd", "--pairwise", "wilcoxon-holm"]),
    ("mcm --format json", LARGE_M, LARGE_N, ["mcm", "--format", "json"]),
    ("stats", LARGE_M, LARGE_N, ["stats"]),
)


def table_csv(m: int = M, n: int = N) -> bytes:
    """m x n scores: a per-task difficulty every comparate shares, a
    per-comparate skill and independent per-cell noise."""
    rng = random.Random(f"grid_scale:{m}x{n}")
    base = [rng.uniform(0.55, 0.85) for _ in range(n)]
    lines = ["comparate," + ",".join(f"t{j:03d}" for j in range(n))]
    for i in range(m):
        skill = rng.gauss(0.0, 0.02)
        lines.append(f"c{i:03d}," + ",".join(repr(b + skill + rng.gauss(0.0, 0.03))
                                           for b in base))
    return ("\n".join(lines) + "\n").encode("ascii")


def run_child(argv: list[str], env: dict[str, str]) -> tuple[float, float]:
    """Wall seconds and peak RSS in MB of one child process."""
    start = time.perf_counter()
    with subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL) as child:
        # wait4 reaps the child and returns its own resource usage.
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
    seconds = time.perf_counter() - start
    if child.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited with {child.returncode}")
    return seconds, usage.ru_maxrss / 1024.0  # Linux reports KiB


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                        help="source checkout whose src/ is timed (default: this one)")
    args = parser.parse_args()
    env = dict(os.environ, PYTHONPATH=str(args.root.resolve() / "src"))
    print(f"root {args.root}")
    print("| Command | m | n | Time | Peak RSS | Output |")
    print("| --- | --- | --- | --- | --- | --- |")
    lines = {N: table_csv().splitlines(keepends=True),
             ENUM_N: table_csv(ENUM_M, ENUM_N).splitlines(keepends=True),
             LARGE_N: table_csv(LARGE_M, LARGE_N).splitlines(keepends=True)}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        for label, m, n, command in COMMANDS:
            table = Path(tmp) / f"table{m}x{n}.csv"
            table.write_bytes(b"".join(lines[n][:m + 1]))  # the header and m rows
            argv = [sys.executable, "-m", "mcmatrix.cli", *command, "--input", str(table),
                    "--direction", "higher", "--output", str(out)]
            seconds, rss = run_child(argv, env)
            size = out.stat().st_size / 1e6
            print(f"| `{label}` | {m} | {n} | {seconds:.1f} s | {rss:.0f} MB | {size:.1f} MB |",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
