"""Record the output digests the benchmark checks against.

Run from the root of a source checkout whose outputs are the reference::

    python3 perfbench/record_digests.py

For every workload and every dataset it generates the tables, runs each op
once through ``mcmatrix.cli.main``, checks that the tables have the
properties the workload relies on, and writes the SHA-256 of each output
to ``perfbench/digests.json``.  Re-record only when a change to the
program's output bytes is intended and declared.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import DIGESTS, OUT, import_cli, run_pass, write_tables  # noqa: E402
from workloads import DATASETS, WORKLOADS  # noqa: E402


def _p_methods(path: Path) -> Counter:
    return Counter(cell["p_method"] for cell in json.loads(path.read_bytes())["pairwise"])


def check_properties(name: str, workdir: Path) -> None:
    """Fail unless the outputs show the properties the workload is chosen for."""
    if name == "grid":
        methods = {table: _p_methods(workdir / f"{table}.stats.out")
                   for table in ("approx", "exact")}
        ok = (set(methods["approx"]) == {"normal_approximation"}
              and set(methods["exact"]) == {"exact", "degenerate"})
    elif name == "enumerate":
        methods = {op: len(json.loads((workdir / f"{op}.out").read_bytes())["patterns"])
                   for op in ("exhaustive", "sampled")}
        ok = min(methods.values()) > 1
    else:
        cells = json.loads((workdir / "mcm.out").read_bytes())["cells"]
        methods = Counter("bayes" in cell for cell in cells)
        ok = set(methods) == {True}
    if not ok:
        raise ValueError(f"{name}: outputs lack the workload's properties: {dict(methods)}")


def record_one(task: tuple[str, int]) -> tuple[str, int, dict[str, str]]:
    name, dataset = task
    workload = WORKLOADS[name]
    cli = import_cli(Path.cwd())
    workdir = OUT / f"record-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tables = write_tables(workload, dataset, workdir)
    result = run_pass(cli, workload.ops, tables, workdir, expected={})
    if any(d is None for d in result.digests):
        raise ValueError(f"{name} dataset {dataset}: an op wrote no output")
    check_properties(name, workdir)
    return name, dataset, {op.name: d for op, d in zip(workload.ops, result.digests)}


def main() -> int:
    recorded: dict[str, dict[str, dict[str, str]]] = {name: {} for name in WORKLOADS}
    tasks = [(name, d) for name in WORKLOADS for d in range(DATASETS)]
    with multiprocessing.get_context("spawn").Pool(len(os.sched_getaffinity(0))) as pool:
        for name, dataset, digests in pool.imap_unordered(record_one, tasks):
            recorded[name][str(dataset)] = digests
            print(f"{name} {dataset} {digests}", flush=True)
    ordered = {name: {str(d): recorded[name][str(d)] for d in range(DATASETS)}
               for name in WORKLOADS}
    DIGESTS.write_text(json.dumps(ordered, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
