"""Command-line interface.

Subcommands: ``mcm`` (comparison grid), ``cd`` (rank diagram), ``stats``
(full JSON dump), ``stability`` (manipulation experiments), ``selftest``
(embedded oracle suites).  Exit codes: 0 success, 1 usage error, 2
data/validation error, 3 internal invariant violation.

Every output embeds a metadata block with the tool version, a SHA-256 of
the input bytes, and the full effective configuration (including the
seed), and identical invocations on identical input produce byte-identical
outputs.
"""

from __future__ import annotations

import argparse
import errno
import hashlib
import itertools
import json
import os
import sys
from pathlib import Path

from . import __version__
from .bayes import BayesConfig
from .bayes import bayesian_signed_rank  # noqa: F401 -- perfbench/spans.py times it here
from .data import Direction, load_results
from .errors import InternalError, McmatrixError, TooFewComparates, TooFewTasks
from .mcm import (
    MCMConfig,
    build_mcm,
    cell_records_json,
    compare_pairs,
    mcm_report_header,
)
from .render import render_cd_diagram, render_mcm, render_pattern_graph
from .selftest import run_selftest
from .stability import (
    detect_rank_swap,
    enumerate_patterns,
    pattern_from_bitmask,
    weakened_variant_attack,
)
from .stats import (
    DEFAULT_EXACT_THRESHOLD,
    check_alpha,
    compute_ranks,
    friedman_test,
)
from .stats import pairwise_comparison  # noqa: F401 -- perfbench/spans.py times it here


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; the contract reserves 2 for data
    # errors, so usage problems are rethrown and mapped to exit code 1.
    def error(self, message):
        raise _UsageError(message)


def _names(text: str) -> list[str]:
    names = [part.strip() for part in text.split(",") if part.strip()]
    if not names:
        raise _UsageError(f"empty name list {text!r}")
    return names


def _read_input(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise _UsageError(f"cannot read {path!r}: {exc.strerror}") from None


def _check_output(path: str | None) -> None:
    """Refuse an output path whose directory is missing before any work is
    done; ``_write_output`` still reports a write that fails later."""
    if path is None or path == "-":
        return
    parent = Path(path).parent
    if not parent.is_dir():
        code = errno.ENOTDIR if parent.exists() else errno.ENOENT
        raise _UsageError(f"cannot write {path!r}: {os.strerror(code)}")


def _write_output(path: str | None, payload: bytes) -> None:
    if path is None or path == "-":
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
        return
    try:
        Path(path).write_bytes(payload)
    except OSError as exc:
        raise _UsageError(f"cannot write {path!r}: {exc.strerror}") from None


def _guess_format(path: str, explicit: str | None) -> str:
    if explicit:
        return explicit
    if path.endswith(".json"):
        return "json"
    return "csv"


def _metadata(args: argparse.Namespace, payload: bytes, **extra) -> dict:
    config = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in ("func", "input", "output") and value is not None
    }
    config["exact_threshold"] = DEFAULT_EXACT_THRESHOLD
    config.update(extra)
    return {
        "tool": "mcmatrix",
        "version": __version__,
        "input_sha256": hashlib.sha256(payload).hexdigest(),
        "config": config,
    }


class _JsonText(str):
    """A value already written as JSON text, indented as the value of a
    top-level key."""


def _json_bytes(obj: dict) -> bytes:
    """``json.dumps(obj, indent=2)`` and a newline, as UTF-8.

    Each top-level value is dumped on its own and indented one level,
    which gives the same text, since every newline ``json.dumps`` writes
    is an indent; a ``_JsonText`` value goes in as it is.
    """
    items = (
        f"  {json.dumps(key)}: "
        + (value if isinstance(value, _JsonText)
           else json.dumps(value, indent=2).replace("\n", "\n  "))
        for key, value in obj.items()
    )
    return ("{\n" + ",\n".join(items) + "\n}\n").encode("utf-8")


def _float_rows(rows: list[list[float]]) -> _JsonText:
    """JSON text of a non-empty list of non-empty lists of finite floats,
    one ``join`` per row."""
    return _JsonText("[\n    " + ",\n    ".join(
        "[\n      " + ",\n      ".join(map(float.__repr__, row)) + "\n    ]"
        for row in rows
    ) + "\n  ]")


def _bayes_config(args: argparse.Namespace) -> BayesConfig | None:
    """The validated Bayes flags, which reach the output metadata even
    without ``--include-bayes``; the config only when that flag is set."""
    config = BayesConfig(
        rope=args.rope,
        mc_samples=args.mc_samples,
        seed=args.seed,
    )
    config.validate()
    return config if args.include_bayes else None


def _add_input_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", required=True,
                        help="results table path, or '-' for stdin")
    parser.add_argument("--input-format", choices=("csv", "json"), default=None,
                        help="input format (default: by file extension, csv otherwise)")
    parser.add_argument("--direction", required=True, choices=("higher", "lower"),
                        help="whether higher or lower scores are better (required)")


def _add_bayes_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--include-bayes", action="store_true",
                        help="attach Bayesian signed-rank posteriors")
    parser.add_argument("--rope", type=float, default=0.01,
                        help="region of practical equivalence half-width")
    parser.add_argument("--mc-samples", type=int, default=100_000,
                        help="Monte Carlo samples for the Bayesian test")
    parser.add_argument("--seed", type=int, default=0,
                        help="RNG seed (echoed into output metadata)")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="mcmatrix",
        description=(
            "Pairwise benchmark comparison matrices, critical-difference "
            "diagrams, and significance-stability experiments."
        ),
        epilog=(
            "Defaults: alpha 0.05, rope 0.01, mc-samples 100000, seed 0, "
            f"tie-epsilon 0, exact-threshold {DEFAULT_EXACT_THRESHOLD}."
        ),
    )
    parser.add_argument("--version", action="version", version=f"mcmatrix {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    p_mcm = sub.add_parser("mcm", formatter_class=fmt,
                           help="build and render the comparison grid")
    _add_input_flags(p_mcm)
    p_mcm.add_argument("--alpha", type=float, default=0.05,
                       help="per-cell significance level (uncorrected by design)")
    p_mcm.add_argument("--rows", type=_names, default=None,
                       help="comma-separated row comparates (default: all)")
    p_mcm.add_argument("--cols", type=_names, default=None,
                       help="comma-separated column comparates (default: all)")
    p_mcm.add_argument("--tie-epsilon", type=float, default=0.0,
                       help="absolute difference treated as a tie")
    p_mcm.add_argument("--format", choices=("svg", "html", "json"), default="html",
                       help="output format")
    p_mcm.add_argument("--output", default=None, help="output path (default: stdout)")
    _add_bayes_flags(p_mcm)
    p_mcm.set_defaults(func=_cmd_mcm)

    p_cd = sub.add_parser("cd", formatter_class=fmt,
                          help="render the critical-difference diagram (SVG)")
    _add_input_flags(p_cd)
    p_cd.add_argument("--alpha", type=float, default=0.05, help="significance level")
    p_cd.add_argument("--pairwise", choices=("nemenyi", "wilcoxon-holm"),
                      default="nemenyi", help="pairwise test joining the groups")
    p_cd.add_argument("--output", default=None, help="output path (default: stdout)")
    p_cd.set_defaults(func=_cmd_cd)

    p_stats = sub.add_parser("stats", formatter_class=fmt,
                             help="dump ranks, groupwise test, and all pairwise cells as JSON")
    _add_input_flags(p_stats)
    p_stats.add_argument("--alpha", type=float, default=0.05, help="significance level")
    p_stats.add_argument("--tie-epsilon", type=float, default=0.0,
                         help="absolute difference treated as a tie")
    p_stats.add_argument("--output", default=None, help="output path (default: stdout)")
    _add_bayes_flags(p_stats)
    p_stats.set_defaults(func=_cmd_stats)

    p_stab = sub.add_parser("stability", help="comparate-set manipulation experiments")
    stab_sub = p_stab.add_subparsers(dest="experiment", required=True)

    p_enum = stab_sub.add_parser("enumerate", formatter_class=fmt,
                                 help="enumerate corrected significance patterns")
    _add_input_flags(p_enum)
    p_enum.add_argument("--core", type=_names, required=True,
                        help="comma-separated core comparates")
    p_enum.add_argument("--pool", type=_names, default=None,
                        help="extras pool (default: all non-core comparates)")
    p_enum.add_argument("--k-extra", type=int, required=True,
                        help="extras added per study")
    p_enum.add_argument("--alpha", type=float, default=0.05, help="significance level")
    p_enum.add_argument("--sample", type=int, default=None,
                        help="sample this many subsets instead of exhausting")
    p_enum.add_argument("--seed", type=int, default=0,
                        help="seed for sampling and example selection")
    p_enum.add_argument("--render-patterns", default=None, metavar="DIR",
                        help="also write one pattern graph SVG per pattern")
    p_enum.add_argument("--output", default=None, help="output path (default: stdout)")
    p_enum.set_defaults(func=_cmd_enumerate)

    p_swap = stab_sub.add_parser("rank-swap", formatter_class=fmt,
                                 help="compare a pair's rank order between two sets")
    _add_input_flags(p_swap)
    p_swap.add_argument("--pair", type=_names, required=True,
                        help="the two comparates under study, comma-separated")
    p_swap.add_argument("--set-a", type=_names, required=True,
                        help="first comparate set")
    p_swap.add_argument("--set-b", type=_names, required=True,
                        help="second comparate set")
    p_swap.add_argument("--alpha", type=float, default=0.05, help="significance level")
    p_swap.add_argument("--output", default=None, help="output path (default: stdout)")
    p_swap.set_defaults(func=_cmd_rank_swap)

    p_weak = stab_sub.add_parser("weaken", formatter_class=fmt,
                                 help="weakened-variant attack on average ranks")
    _add_input_flags(p_weak)
    p_weak.add_argument("--target", required=True, help="comparate to boost")
    p_weak.add_argument("--reference", required=True,
                        help="weaker comparate blended into the variant")
    p_weak.add_argument("--weights", required=True,
                        help="comma-separated blend weights in [0, 1]")
    p_weak.add_argument("--context", type=_names, required=True,
                        help="study comparates (must include the target)")
    p_weak.add_argument("--alpha", type=float, default=0.05, help="significance level")
    p_weak.add_argument("--output", default=None, help="output path (default: stdout)")
    p_weak.set_defaults(func=_cmd_weaken)

    p_self = sub.add_parser("selftest", formatter_class=fmt,
                            help="run the embedded oracle suites")
    p_self.set_defaults(func=_cmd_selftest)

    return parser


def _load(args: argparse.Namespace) -> tuple:
    _check_output(args.output)
    payload = _read_input(args.input)
    fmt = _guess_format(args.input, args.input_format)
    matrix = load_results(payload, fmt, Direction(args.direction))
    return matrix, payload


def _cmd_mcm(args: argparse.Namespace) -> int:
    bayes = _bayes_config(args)
    matrix, payload = _load(args)
    config = MCMConfig(
        alpha=args.alpha,
        row_comparates=tuple(args.rows) if args.rows else None,
        column_comparates=tuple(args.cols) if args.cols else None,
        tie_epsilon=args.tie_epsilon,
    )
    report = build_mcm(matrix, config, bayes)
    meta = _metadata(args, payload, workers=1)
    if args.format == "json":
        out = {
            "metadata": meta,
            **mcm_report_header(report),
            "cells": _JsonText(
                cell_records_json(report.cells, report.alpha, report.bayes)
            ),
        }
        _write_output(args.output, _json_bytes(out))
    else:
        _write_output(args.output, render_mcm(report, format=args.format, metadata=meta))
    return 0


def _cmd_cd(args: argparse.Namespace) -> int:
    matrix, payload = _load(args)
    meta = _metadata(args, payload)
    _write_output(
        args.output,
        render_cd_diagram(matrix, args.alpha, args.pairwise, metadata=meta),
    )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    bayes_config = _bayes_config(args)
    matrix, payload = _load(args)
    alpha = check_alpha(args.alpha)
    table = compute_ranks(matrix)
    try:
        stat, p = friedman_test(matrix)
        friedman = {"statistic": stat, "p_value": p}
    except (TooFewComparates, TooFewTasks) as exc:
        friedman = {"skipped": str(exc)}

    pairs = list(itertools.combinations(matrix.comparates, 2))
    cells, bayes = compare_pairs(matrix, pairs, args.tie_epsilon, bayes_config)
    out = {
        "metadata": _metadata(args, payload),
        "direction": matrix.direction.value,
        "comparates": list(matrix.comparates),
        "tasks": list(matrix.tasks),
        "ranks": _float_rows(table.ranks.tolist()),
        "average_ranks": dict(zip(matrix.comparates, table.average_ranks.tolist())),
        "friedman": friedman,
        "pairwise": _JsonText(cell_records_json(cells, alpha, bayes)),
    }
    _write_output(args.output, _json_bytes(out))
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    matrix, payload = _load(args)
    core = tuple(args.core)
    pool = tuple(args.pool) if args.pool else tuple(
        c for c in matrix.comparates if c not in set(core)
    )
    if args.render_patterns:
        directory = Path(args.render_patterns)
        try:
            directory.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise _UsageError(
                f"cannot create directory {args.render_patterns!r}: {exc.strerror}"
            ) from None
    enumeration = enumerate_patterns(
        matrix, core, pool, args.k_extra, args.alpha, sample=args.sample, seed=args.seed
    )
    meta = _metadata(args, payload, pool=list(pool), workers=1)
    if args.render_patterns:
        for mask in sorted(enumeration.pattern_counts):
            pattern = pattern_from_bitmask(core, mask)
            svg = render_pattern_graph(pattern, metadata=meta)
            _write_output(str(directory / f"pattern-{mask:#06x}.svg"), svg)
    out = dict(metadata=meta, **enumeration.to_dict())
    _write_output(args.output, _json_bytes(out))
    return 0


def _cmd_rank_swap(args: argparse.Namespace) -> int:
    matrix, payload = _load(args)
    if len(args.pair) != 2:
        raise _UsageError("--pair needs exactly two names")
    report = detect_rank_swap(
        matrix, (args.pair[0], args.pair[1]), args.set_a, args.set_b, args.alpha
    )
    out = {"metadata": _metadata(args, payload), **report.to_dict()}
    _write_output(args.output, _json_bytes(out))
    return 0


def _cmd_weaken(args: argparse.Namespace) -> int:
    matrix, payload = _load(args)
    try:
        weights = [float(w) for w in args.weights.split(",") if w.strip()]
    except ValueError:
        raise _UsageError(f"bad --weights value {args.weights!r}") from None
    if not weights:
        raise _UsageError("--weights must list at least one weight")
    report = weakened_variant_attack(
        matrix, args.target, args.reference, weights, args.context, args.alpha
    )
    out = {"metadata": _metadata(args, payload), **report.to_dict()}
    _write_output(args.output, _json_bytes(out))
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    return 0 if run_selftest() else 3


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except InternalError as exc:
        print(f"internal error (bug): {exc}", file=sys.stderr)
        return 3
    except McmatrixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:  # invariant violations are always bugs
        print(f"internal error (bug): {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
