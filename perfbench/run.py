"""Seeded end-to-end and per-layer benchmark of the mcmatrix CLI.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload grid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

The seed picks the generated input tables (see ``workloads.py``).  Each
workload is a list of CLI invocations (ops); one pass runs them all
in-process through ``mcmatrix.cli.main(argv)``.  The first pass is a
discarded warm-up; passes then repeat until ``--seconds`` have passed
since the end of the warm-up.  Every op, warm-up included, is checked: a
non-zero exit code or an output whose SHA-256 differs from the digest
recorded in ``digests.json`` counts as failed.

The speed of a small shared machine drifts by a third or more over tens of
seconds, and process CPU time drifts with it.  So each timed pass also times
a fixed reference kernel (``reference_seconds``) before every op and after
the last, and its seconds are scaled by ``REF_SECONDS`` over the median
reference time of that pass: the pass time at the speed where the kernel
takes ``REF_SECONDS``.  The raw pass and kernel times are in the facts.

``--trace 0`` reports the end-to-end metrics:

* ``scaled_pass_s``: median scaled seconds of one pass;
* ``scaled_items_per_s``: output items (grid cells, cells carrying a
  posterior, evaluated subsets) per scaled second over all timed passes;
* ``peak_rss_mb``: peak resident memory of this process;
* ``setup_s``: median seconds over ``SETUP_STARTS`` cold starts of a fresh
  interpreter importing ``mcmatrix.cli``, scaled by ``REF_SECONDS`` over the
  median reference time of the whole run.  They are spread evenly between
  the timed passes, so they see the same machine state, and take part of
  the ``--seconds`` window.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``spans.layer_metrics`` (medians over traced passes)
with the tracing overhead, traced minus untraced median pass seconds.  The
spans of the last traced pass are written to ``perfbench/out``.  Layers
whose spans were not recorded are named on standard error and in the facts
(``unrecorded_layers``, ``missing_sites``), and their metrics are left out.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the same numbers for reading, with the error rate and the machine
facts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# One BLAS thread unless the caller chose otherwise: on a small shared
# machine a second spinning BLAS thread adds noise and no speed.  Set before
# numpy is imported; recorded in the machine facts.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import spans  # noqa: E402
from workloads import DATASETS, WORKLOADS, Op, Workload  # noqa: E402

DIGESTS = HERE / "digests.json"
OUT = HERE / "out"
SETUP_STARTS = 5
MIN_PASSES = 2

# About what reference_seconds() reads on the 2-vCPU Xeon (2.1 GHz) the
# bounds in BENCHMARK.json were set on.  It only sets the scale: scaled
# seconds are close to wall seconds there.
REF_SECONDS = 0.04

E2E_UNITS = {"scaled_pass_s": "s", "scaled_items_per_s": "1/s", "peak_rss_mb": "MB",
             "setup_s": "s"}


def unit(name: str) -> str:
    return E2E_UNITS.get(name) or spans.layer_unit(name)


class SetupError(Exception):
    """The checkout cannot be benchmarked (missing sources or digests)."""


def import_cli(root: Path):
    """Import ``mcmatrix.cli`` from ``root/src`` and nowhere else."""
    src = root / "src"
    if not (src / "mcmatrix" / "cli.py").is_file():
        raise SetupError(f"no mcmatrix sources under {src}")
    os.environ.pop("MCMATRIX_WORKERS", None)  # the default worker count
    sys.path.insert(0, str(src))
    from mcmatrix import cli

    if Path(cli.__file__).resolve().parent.parent != src.resolve():
        raise SetupError(f"mcmatrix was imported from {cli.__file__}, not {src}")
    return cli


def sha256_file(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except FileNotFoundError:
        return None


_REF_ROWS = np.random.default_rng(0).normal(size=(100, 108))


def reference_seconds() -> float:
    """Time a fixed kernel with the program's mix of work, about 40 ms.

    An interpreted integer loop; building, sorting and formatting a list as
    the renderers do; row-wise ranks of one comparate's differences to the
    rest, as in a grid; and one pair's signed-rank statistic per pair of 36
    rows, gathered into JSON as the CLI does.  Nothing in it calls mcmatrix,
    so a change to the program leaves it unchanged.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(150_000):
        acc += i * i % 7
    values = [(i * 7919) % 100_003 / 7.0 for i in range(12_500)]
    labels = {i: str(x) for i, x in enumerate(values[:4_000])}
    values.sort()
    acc += len(labels) + len("".join(f"<rect x='{x:.3f}'/>" for x in values[:5_000]))
    for _ in range(4):
        for i in range(0, 100, 2):
            acc += int(np.argsort(np.abs(_REF_ROWS[i] - _REF_ROWS[i + 1:]), axis=1)[0, 0])
    cells = []
    for i in range(36):
        for j in range(i + 1, 36):
            diffs = _REF_ROWS[i] - _REF_ROWS[j]
            ranks = np.empty(diffs.size)
            ranks[np.argsort(np.abs(diffs))] = np.arange(1, diffs.size + 1)
            cells.append({"a": i, "b": j, "w": float(ranks[diffs > 0].sum()),
                          "mean": float(diffs.mean())})
    acc += len(json.dumps(cells))
    return time.perf_counter() - start


@dataclass
class PassResult:
    seconds: float
    items: int
    attempted: int
    failed: int
    digests: list[str | None]
    reference: list[float]

    @property
    def scaled_seconds(self) -> float:
        return self.seconds * REF_SECONDS / statistics.median(self.reference)


def run_pass(cli, ops: tuple[Op, ...], tables: dict[str, Path], workdir: Path,
             expected: dict[str, str], tracer: spans.Tracer | None = None,
             calibrate: bool = False) -> PassResult:
    """Run every op once on its table; time each ``main()`` call and check its output.

    With ``calibrate``, the reference kernel is timed before each op and
    after the last; its time is not part of the pass seconds.
    """
    seconds, items, failed, digests, reference = 0.0, 0, 0, [], []
    for index, op in enumerate(ops):
        if calibrate:
            reference.append(reference_seconds())
        output = workdir / f"{op.name}.out"
        output.unlink(missing_ok=True)  # stale bytes must not pass the check
        if tracer is not None:
            tracer.op = index
        start = time.perf_counter()
        try:
            code = cli.main(op.argv(tables[op.table], output))
        except Exception as exc:  # an escaped exception is a failed op
            print(f"op {op.name} raised {exc!r}", file=sys.stderr)
            code = None
        seconds += time.perf_counter() - start
        digest = sha256_file(output)
        digests.append(digest)
        if code != 0 or digest is None or digest != expected.get(op.name):
            failed += 1
            print(f"op {op.name} failed: exit code {code}, sha256 {digest}", file=sys.stderr)
        else:
            items += op.items
    if calibrate:
        reference.append(reference_seconds())
    return PassResult(seconds, items, len(ops), failed, digests, reference)


def cold_start_seconds(root: Path) -> float:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import mcmatrix.cli"], cwd=root, env=env,
                   check=True)
    return time.perf_counter() - start


def machine_facts() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def load_expected(workload: Workload, seed: int) -> dict[str, str]:
    try:
        recorded = json.loads(DIGESTS.read_text())
    except FileNotFoundError:
        raise SetupError(f"missing {DIGESTS}") from None
    return recorded.get(workload.name, {}).get(str(seed % DATASETS), {})


def write_tables(workload: Workload, seed: int, workdir: Path) -> dict[str, Path]:
    """Write the workload's tables for ``seed``; returns their paths by name."""
    tables = {}
    for name, data in workload.tables(seed).items():
        tables[name] = workdir / f"{workload.name}.{name}.csv"
        tables[name].write_bytes(data)
    return tables


def measure(root: Path, workload: Workload, seed: int, seconds: float,
            trace: bool) -> tuple[dict, int, int, dict]:
    """One benchmark run; returns (metrics, attempted, failed, facts)."""
    cli = import_cli(root)
    workdir = OUT / "work"
    workdir.mkdir(parents=True, exist_ok=True)
    tables = write_tables(workload, seed, workdir)
    expected = load_expected(workload, seed)
    ops = workload.ops

    results = [run_pass(cli, ops, tables, workdir, expected, calibrate=not trace)]  # warm-up
    timed: list[PassResult] = []
    traced: list[PassResult] = []
    layer_passes: list[dict] = []
    last = spans.Tracer()
    unrecorded: set[str] = set()
    starts: list[float] = []
    begin = time.perf_counter()

    def elapsed() -> float:
        return time.perf_counter() - begin

    while len(timed) < (1 if trace else MIN_PASSES) or elapsed() < seconds:
        timed.append(run_pass(cli, ops, tables, workdir, expected, calibrate=not trace))
        if trace:  # alternate, so both sides see the same machine state
            last = spans.Tracer()
            with last.installed():
                traced.append(run_pass(cli, ops, tables, workdir, expected, last))
            skipped = spans.unrecorded(last, workload.layers)
            unrecorded |= skipped
            layer_passes.append(spans.layer_metrics(last.spans, [op.pairs for op in ops],
                                                    skipped))
            if traced[-1].digests != timed[-1].digests:
                traced[-1].failed += 1
                print("traced outputs differ from untraced outputs", file=sys.stderr)
        else:  # cold start k falls after k / SETUP_STARTS of the window
            while len(starts) < SETUP_STARTS and elapsed() >= len(starts) * seconds / SETUP_STARTS:
                starts.append(cold_start_seconds(root))
    results += timed + traced

    wall = statistics.median(p.seconds for p in timed)
    scaled = [] if trace else [p.scaled_seconds for p in timed]
    unscaled = {}
    if trace:
        metrics = spans.median_metrics(layer_passes)
        traced_wall = statistics.median(p.seconds for p in traced)
        metrics.update({"trace.wall_s": traced_wall, "trace.untraced_wall_s": wall,
                        "trace.overhead_s": traced_wall - wall})
        spans.write_jsonl(last.spans, OUT / f"{workload.name}-seed{seed}.spans.jsonl")
        if unrecorded:
            print(f"layers not recorded, metrics left out: {sorted(unrecorded)}; "
                  f"missing patch sites: {last.missing}", file=sys.stderr)
    else:
        while len(starts) < SETUP_STARTS:
            starts.append(cold_start_seconds(root))
        unscaled = {"wall_s": wall,
                    "items_per_s": sum(p.items for p in timed) / sum(p.seconds for p in timed),
                    "setup_s": statistics.median(starts)}
        run_reference = statistics.median(t for p in timed for t in p.reference)
        metrics = {
            "scaled_pass_s": statistics.median(scaled),
            "scaled_items_per_s": sum(p.items for p in timed) / sum(scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": unscaled["setup_s"] * REF_SECONDS / run_reference,
        }
    facts = dict(machine_facts(), workload=workload.name, seed=seed,
                 dataset=seed % DATASETS, seconds=seconds, trace=int(trace),
                 pass_seconds=[p.seconds for p in timed], scaled_pass_seconds=scaled,
                 reference_seconds=[p.reference for p in timed],
                 traced_pass_seconds=[p.seconds for p in traced],
                 setup_seconds=starts, unrecorded_layers=sorted(unrecorded),
                 missing_sites=last.missing, **unscaled)
    attempted = sum(p.attempted for p in results)
    failed = sum(p.failed for p in results)
    return metrics, attempted, failed, facts


def report(workload: str, metrics: dict, attempted: int, failed: int, facts: dict) -> dict:
    for name, value in metrics.items():
        print(f"{workload:<12} {name:<36} {value:>16.6f} {unit(name)}")
    for name, unit_name in (("wall_s", "s"), ("items_per_s", "1/s"), ("setup_s", "s")):
        if name in facts:  # unscaled, for reading; not part of the result
            print(f"{workload:<12} {name + ' (unscaled)':<36} {facts[name]:>16.6f} {unit_name}")
    print(f"{workload:<12} {'error_rate':<36} {failed / attempted:>16.6f} "
          f"ratio ({failed} of {attempted} ops failed)")
    print("facts " + json.dumps(facts, sort_keys=True))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }


def run_all(args: argparse.Namespace) -> dict:
    """Run each workload in a fresh process and merge their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise SetupError(f"workload {name} exited with code {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = entry
    return merged


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            result = run_all(args)
        else:
            metrics, attempted, failed, facts = measure(
                Path.cwd(), WORKLOADS[args.workload], args.seed, args.seconds,
                bool(args.trace))
            result = report(args.workload, metrics, attempted, failed, facts)
            (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
                json.dumps(dict(result, facts=facts), indent=2) + "\n")
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
