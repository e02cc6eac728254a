"""Layer spans recorded from outside the package.

``Tracer.installed()`` replaces public functions of the package's modules
with timing wrappers, in the namespace each caller looks them up in (for
example ``mcmatrix.mcm.pairwise_comparison`` as well as
``mcmatrix.cli.pairwise_comparison``), and restores the originals on exit.
Spans are kept in memory; ``layer_metrics`` turns one pass of spans into
the per-layer metrics and ``write_jsonl`` writes spans out.

A layer whose spans were not recorded (its patch site is missing from the
package, or the workload relies on it and it never fired) has no metrics:
they are left out rather than read as zero.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    op: int
    info: dict | None = None

    @property
    def ns(self) -> int:
        return self.end_ns - self.start_ns


def _bytes_in(args, result) -> dict:
    return {"bytes_in": len(args[0])}


def _bytes_out(args, result) -> dict:
    return {"bytes_out": len(result)}


def _cells(args, result) -> dict:
    return {"cells": len(result.cells)}


def _p_method(args, result) -> dict:
    return {"p_method": result.p_method.value}


def _samples(args, result) -> dict:
    return {"samples": result.mc_samples_used}


def _patterns(args, result) -> dict:
    return {"subsets": result.total_subsets, "patterns": len(result.pattern_counts)}


# (module, attribute looked up by that module's code, span name, counters)
PATCHES: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("mcmatrix.cli", "main", "cli.main", None),
    ("mcmatrix.cli", "load_results", "data.load_results", _bytes_in),
    ("mcmatrix.cli", "build_mcm", "mcm.build_mcm", _cells),
    ("mcmatrix.cli", "render_mcm", "render.render_mcm", _bytes_out),
    ("mcmatrix.cli", "render_cd_diagram", "render.render_cd_diagram", _bytes_out),
    ("mcmatrix.cli", "render_pattern_graph", "render.render_pattern_graph", _bytes_out),
    ("mcmatrix.cli", "compute_ranks", "stats.compute_ranks", None),
    ("mcmatrix.cli", "friedman_test", "stats.friedman_test", None),
    ("mcmatrix.cli", "pairwise_comparison", "stats.pairwise_comparison", _p_method),
    ("mcmatrix.cli", "bayesian_signed_rank", "bayes.bayesian_signed_rank", _samples),
    ("mcmatrix.cli", "enumerate_patterns", "stability.enumerate_patterns", _patterns),
    ("mcmatrix.mcm", "pairwise_comparison", "stats.pairwise_comparison", _p_method),
    ("mcmatrix.mcm", "bayesian_signed_rank", "bayes.bayesian_signed_rank", _samples),
    ("mcmatrix.stats", "wilcoxon_signed_rank", "stats.wilcoxon_signed_rank", None),
    ("mcmatrix.stats", "holm_correction", "stats.holm_correction", None),
    ("mcmatrix.stats", "compute_ranks", "stats.compute_ranks", None),
    ("mcmatrix.stability", "wilcoxon_signed_rank", "stats.wilcoxon_signed_rank", None),
    ("mcmatrix.stability", "holm_correction", "stats.holm_correction", None),
    ("mcmatrix.render.cd_view", "compute_ranks", "stats.compute_ranks", None),
    ("mcmatrix.render.cd_view", "holm_significance", "stats.holm_significance", None),
)


# The span names each per-layer metric is computed from.  ``self_s``
# metrics also subtract their children, whatever those are.
SOURCES: dict[str, tuple[str, ...]] = {
    "stats.wilcoxon_signed_rank": ("stats.wilcoxon_calls", "stats.wilcoxon_s",
                                   "stats.us_per_wilcoxon",
                                   "stats.pair_evals_per_unique_pair"),
    "stats.pairwise_comparison": ("stats.exact_cells", "stats.approx_cells",
                                  "stats.degenerate_cells"),
    "stats.holm_correction": ("stats.holm_calls", "stats.holm_s", "stability.holm_s"),
    "stats.compute_ranks": ("stats.ranks_s",),
    "stats.friedman_test": ("stats.ranks_s",),
    "mcm.build_mcm": ("mcm.build_calls", "mcm.build_s", "mcm.self_s", "mcm.cells"),
    "stability.enumerate_patterns": ("stability.subsets", "stability.patterns",
                                     "stability.enum_s", "stability.us_per_subset",
                                     "stability.holm_s", "stability.self_s"),
    "bayes.bayesian_signed_rank": ("bayes.posteriors", "bayes.samples", "bayes.s",
                                   "bayes.ns_per_sample",
                                   "bayes.posteriors_per_unique_pair"),
    "render.render_mcm": ("render.calls", "render.s", "render.bytes_out"),
    "render.render_cd_diagram": ("render.calls", "render.s", "render.bytes_out"),
    "render.render_pattern_graph": ("render.calls", "render.s", "render.bytes_out"),
    "data.load_results": ("data.load_s", "data.bytes_in"),
    "cli.main": ("cli.self_s",),
}


class Tracer:
    """Collects spans from wrapped package functions.

    Spans nest by call order on one thread; ``op`` is set by the caller to
    the index of the CLI invocation in progress.  ``missing`` holds the
    patch sites ``installed()`` did not find, as ``module.attribute``, and
    ``missing_spans`` the span names those sites would have recorded.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.missing_spans: set[str] = set()
        self.op = 0
        self._stack: list[int] = []
        self._next_id = 0

    def wrap(self, fn: Callable, name: str, counters: Callable | None) -> Callable:
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
            info = counters(args, result) if counters is not None else None
            self.spans.append(Span(sid, name, start, end, parent, self.op, info))
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every patch site that exists; restore the originals on exit.

        A site missing from the package is recorded in ``missing``, and the
        metrics of its span name are left out by ``layer_metrics``.
        """
        saved = []
        try:
            for module_name, attr, name, counters in PATCHES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if callable(original):
                    saved.append((module, attr, original))
                    setattr(module, attr, self.wrap(original, name, counters))
                else:
                    self.missing.append(f"{module_name}.{attr}")
                    self.missing_spans.add(name)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def self_ns(spans: Sequence[Span]) -> dict[int, int]:
    """Each span's duration minus the time its direct children cover.

    Spans nest on one thread, so children never overlap each other and
    their durations add up.
    """
    own = {s.id: s.ns for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in own:
            own[s.parent] -= s.ns
    return own


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def unrecorded(tracer: Tracer, expected: Iterable[str]) -> set[str]:
    """Span names whose metrics cannot be trusted for this pass.

    These are the names of missing patch sites, and the names in
    ``expected`` (the layers the workload relies on) that never fired.
    """
    fired = {s.name for s in tracer.spans}
    return tracer.missing_spans | (set(expected) - fired)


def layer_metrics(spans: Sequence[Span], op_pairs: Sequence[int],
                  unmeasured: Iterable[str] = ()) -> dict[str, float]:
    """Per-layer counts and seconds for one pass.

    ``op_pairs[i]`` is the number of distinct unordered pairs op ``i``
    needs; the per-unique-pair ratios report the worst op.  Metrics
    computed from a span name in ``unmeasured`` are left out.  A layer the
    workload does not use, and that is not in ``unmeasured``, reads zero.

    Which end-to-end metric each layer should move, and where:

    * ``stats.*`` (Wilcoxon calls and time, cells by p-method, pair
      evaluations per unique pair, Holm, ranks): ``scaled_pass_s`` and
      ``scaled_items_per_s`` on grid, whose two tables take the normal and
      the exact branch; nothing on bayes or enumerate, which have under
      300 pairs.
    * ``mcm.*``: ``scaled_pass_s`` on grid.
    * ``stability.*``: ``scaled_items_per_s`` on enumerate; nothing on grid.
    * ``bayes.*``: ``scaled_pass_s``, ``scaled_items_per_s`` and
      ``peak_rss_mb`` on bayes; nothing elsewhere.
    * ``render.*``: ``scaled_pass_s`` on grid.
    * ``data.*``: nothing anywhere (load is under 1% of every workload).
    * ``cli.self_s`` (argparse, input hashing, metadata, JSON encoding and
      file writes): ``scaled_pass_s`` on every workload.
    """
    own = self_ns(spans)
    by_id = {s.id: s for s in spans}
    named: dict[str, list[Span]] = {}
    for s in spans:
        named.setdefault(s.name, []).append(s)

    def seconds(group: Sequence[Span]) -> float:
        return sum(s.ns for s in group) / 1e9

    def self_seconds(group: Sequence[Span]) -> float:
        return sum(own[s.id] for s in group) / 1e9

    def info_sum(group: Sequence[Span], key: str) -> int:
        return sum(s.info[key] for s in group)

    def worst_per_pair(group: Sequence[Span]) -> float:
        calls: dict[int, int] = {}
        for s in group:
            calls[s.op] = calls.get(s.op, 0) + 1
        return max((_ratio(c, op_pairs[op]) for op, c in calls.items()), default=0.0)

    def under(group: Sequence[Span], parent_name: str) -> list[Span]:
        return [s for s in group
                if s.parent is not None and by_id[s.parent].name == parent_name]

    wilcoxon = named.get("stats.wilcoxon_signed_rank", [])
    cells = named.get("stats.pairwise_comparison", [])
    holm = named.get("stats.holm_correction", [])
    rank_names = ("stats.compute_ranks", "stats.friedman_test")
    ranks = [s for s in spans if s.name in rank_names
             and not (s.parent is not None and by_id[s.parent].name in rank_names)]
    build = named.get("mcm.build_mcm", [])
    enum = named.get("stability.enumerate_patterns", [])
    posteriors = named.get("bayes.bayesian_signed_rank", [])
    render = [s for s in spans if s.name.startswith("render.")]
    load = named.get("data.load_results", [])
    subsets = info_sum(enum, "subsets")
    samples = info_sum(posteriors, "samples")
    methods = [s.info["p_method"] for s in cells]

    metrics = {
        "stats.wilcoxon_calls": len(wilcoxon),
        "stats.wilcoxon_s": seconds(wilcoxon),
        "stats.us_per_wilcoxon": _ratio(seconds(wilcoxon), len(wilcoxon), 1e6),
        "stats.exact_cells": methods.count("exact"),
        "stats.approx_cells": methods.count("normal_approximation"),
        "stats.degenerate_cells": methods.count("degenerate"),
        "stats.pair_evals_per_unique_pair": worst_per_pair(wilcoxon),
        "stats.holm_calls": len(holm),
        "stats.holm_s": seconds(holm),
        "stats.ranks_s": seconds(ranks),
        "mcm.build_calls": len(build),
        "mcm.build_s": seconds(build),
        "mcm.self_s": self_seconds(build),
        "mcm.cells": info_sum(build, "cells"),
        "stability.subsets": subsets,
        "stability.patterns": info_sum(enum, "patterns"),
        "stability.enum_s": seconds(enum),
        "stability.us_per_subset": _ratio(seconds(enum), subsets, 1e6),
        "stability.holm_s": seconds(under(holm, "stability.enumerate_patterns")),
        "stability.self_s": self_seconds(enum),
        "bayes.posteriors": len(posteriors),
        "bayes.samples": samples,
        "bayes.s": seconds(posteriors),
        "bayes.ns_per_sample": _ratio(seconds(posteriors), samples, 1e9),
        "bayes.posteriors_per_unique_pair": worst_per_pair(posteriors),
        "render.calls": len(render),
        "render.s": seconds(render),
        "render.bytes_out": info_sum(render, "bytes_out"),
        "data.load_s": seconds(load),
        "data.bytes_in": info_sum(load, "bytes_in"),
        "cli.self_s": self_seconds(named.get("cli.main", [])),
    }
    dropped = {metric for name in unmeasured for metric in SOURCES.get(name, ())}
    return {k: v for k, v in metrics.items() if k not in dropped}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, read from its naming convention."""
    leaf = name.split(".", 1)[1]
    if leaf.startswith("us_per_"):
        return "us"
    if leaf.startswith("ns_per_"):
        return "ns"
    if leaf == "s" or leaf.endswith("_s"):
        return "s"
    if leaf.startswith("bytes_"):
        return "B"
    if "_per_" in leaf:
        return "ratio"
    return "count"


def median_metrics(passes: Sequence[dict[str, float]]) -> dict[str, float]:
    """Metric-wise median over passes, of the metrics every pass has."""
    keys = [key for key in passes[0] if all(key in p for p in passes)]
    return {key: statistics.median(p[key] for p in passes) for key in keys}


def write_jsonl(spans: Sequence[Span], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            record = {"id": s.id, "name": s.name, "start_ns": s.start_ns,
                      "end_ns": s.end_ns, "parent": s.parent, "op": s.op}
            if s.info:
                record.update(s.info)
            fh.write(json.dumps(record) + "\n")
