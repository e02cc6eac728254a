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
import contextlib
import errno
import hashlib
import io
import json
import os
import sys
from collections.abc import Iterable, Iterator
from pathlib import Path

import numpy as np

from . import __version__
from .bayes import BayesConfig
from .bayes import bayesian_signed_rank  # noqa: F401 -- perfbench/spans.py times it here
from .data import Direction, load_results
from .errors import InternalError, McmatrixError, ValidationError
from .mcm import (
    MCMConfig,
    _cell_record_rows,
    build_mcm,
    compare_pairs,
    mcm_report_header,
)
from .render import render_cd_diagram, render_mcm, render_pattern_graph
from .selftest import run_selftest
from .stability import (
    SignificancePattern,
    detect_rank_swap,
    enumerate_patterns,
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


def _open(path: str, mode: str) -> contextlib.AbstractContextManager:
    """``open(path, mode)``, or for ``-`` stdin's (``"rb"``) or stdout's
    (``"wb"``) binary buffer, which the ``with`` leaves open.  A closed
    standard stream raises ``EBADF``, as a closed file would."""
    if path != "-":
        return open(path, mode)
    stream = sys.stdin if mode == "rb" else sys.stdout
    if stream is None:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    return contextlib.nullcontext(stream.buffer)


def _read_input(path: str) -> bytes:
    """The bytes at ``path`` (``-`` is stdin); an ``OSError`` is a usage error."""
    try:
        with _open(path, "rb") as source:
            return source.read()
    except OSError as exc:
        raise _UsageError(f"cannot read {path!r}: {exc.strerror}") from None


def _check_output(path: str) -> None:
    """Refuse an output path whose directory is missing before any work is
    done; ``_write_output`` still reports a write that fails later."""
    if path == "-":
        return
    parent = Path(path).parent
    if not parent.is_dir():
        code = errno.ENOTDIR if parent.exists() else errno.ENOENT
        raise _UsageError(f"cannot write {path!r}: {os.strerror(code)}")


def _write_output(path: str, chunks: Iterable[bytes]) -> None:
    """Write ``bytes`` chunks as they come to ``path`` (``-`` is stdout), and
    flush.  The chunks only format finished work, so a refused input leaves
    no file.  An ``OSError`` is a usage error; a failed stdout is then
    pointed at ``os.devnull``, so that the flush at exit cannot fail again."""
    try:
        with _open(path, "wb") as out:
            for chunk in chunks:
                view = memoryview(chunk)
                while view:  # an unbuffered stdout (python -u) may take a part
                    view = view[out.write(view):]
            out.flush()
    except OSError as exc:
        if path == "-":  # sys.stdout may be None, or a capture with no descriptor
            with contextlib.suppress(AttributeError, OSError), open(os.devnull, "wb") as null:
                os.dup2(null.fileno(), sys.stdout.fileno())
        raise _UsageError(f"cannot write {path!r}: {exc.strerror}") from None


def _guess_format(path: str, explicit: str | None) -> str:
    if explicit:
        return explicit
    if path.lower().endswith(".json"):
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


def _json_chunks(obj: dict) -> Iterator[bytes]:
    """``json.dumps(obj, indent=2)`` and a newline, as UTF-8, in chunks.

    Each top-level value is dumped on its own and indented one level,
    which gives the same text, since every newline ``json.dumps`` writes
    is an indent.  An iterator value is that text already written, in
    ``str`` chunks such as ``_cell_record_rows``' grid rows; each chunk is
    encoded and yielded as it comes, so the document is never held whole.
    """
    separator = b"{\n"
    for key, value in obj.items():
        yield separator + f"  {json.dumps(key)}: ".encode("utf-8")
        if isinstance(value, Iterator):
            yield from map(str.encode, value)
        else:
            yield json.dumps(value, indent=2).replace("\n", "\n  ").encode("utf-8")
        separator = b",\n"
    yield b"\n}\n"


def _float_rows(rows: list[list[float]]) -> Iterator[str]:
    """JSON text of a non-empty list of non-empty lists of finite floats,
    indented as the value of a top-level key, one chunk per row."""
    separator = "[\n    "
    for row in rows:
        yield separator + "[\n      " + ",\n      ".join(map(float.__repr__, row)) + "\n    ]"
        separator = ",\n    "
    yield "\n  ]"


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


def _add_data_flags(parser: argparse.ArgumentParser,
                    alpha_help: str = "significance level") -> None:
    """The flags every data command takes."""
    parser.add_argument("--input", required=True,
                        help="results table path, or '-' for stdin")
    parser.add_argument("--input-format", choices=("csv", "json"), default=None,
                        help="input format (default: by file extension, csv otherwise)")
    parser.add_argument("--direction", required=True, choices=("higher", "lower"),
                        help="whether higher or lower scores are better (required)")
    parser.add_argument("--alpha", type=float, default=0.05,
                        help=alpha_help + " (default: %(default)s)")
    parser.add_argument("--output", default="-",
                        help="output path, or '-' for stdout (the default)")


def _add_bayes_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--include-bayes", action="store_true",
                        help="attach Bayesian signed-rank posteriors")
    parser.add_argument("--rope", type=float, default=0.01,
                        help="region of practical equivalence half-width (default: %(default)s)")
    parser.add_argument("--mc-samples", type=int, default=100_000,
                        help="Monte Carlo samples for the Bayesian test (default: %(default)s)")
    parser.add_argument("--seed", type=int, default=0,
                        help="RNG seed, echoed into output metadata (default: %(default)s)")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="mcmatrix",
        description=(
            "Pairwise benchmark comparison matrices, critical-difference "
            "diagrams, and significance-stability experiments."
        ),
    )
    parser.add_argument("--version", action="version", version=f"mcmatrix {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_mcm = sub.add_parser("mcm", help="build and render the comparison grid")
    _add_data_flags(p_mcm, "per-cell significance level (uncorrected by design)")
    p_mcm.add_argument("--rows", type=_names, default=None,
                       help="comma-separated row comparates (default: all)")
    p_mcm.add_argument("--cols", type=_names, default=None,
                       help="comma-separated column comparates (default: all)")
    p_mcm.add_argument("--tie-epsilon", type=float, default=0.0,
                       help="absolute difference treated as a tie (default: %(default)s)")
    p_mcm.add_argument("--format", choices=("svg", "html", "json"), default="html",
                       help="output format (default: %(default)s)")
    _add_bayes_flags(p_mcm)
    p_mcm.set_defaults(func=_cmd_mcm)

    p_cd = sub.add_parser("cd", help="render the critical-difference diagram (SVG)")
    _add_data_flags(p_cd)
    p_cd.add_argument("--pairwise", choices=("nemenyi", "wilcoxon-holm"), default="nemenyi",
                      help="pairwise test joining the groups (default: %(default)s)")
    p_cd.set_defaults(func=_cmd_cd)

    p_stats = sub.add_parser("stats",
                             help="dump ranks, groupwise test, and all pairwise cells as JSON")
    _add_data_flags(p_stats)
    p_stats.add_argument("--tie-epsilon", type=float, default=0.0,
                         help="absolute difference treated as a tie (default: %(default)s)")
    _add_bayes_flags(p_stats)
    p_stats.set_defaults(func=_cmd_stats)

    p_stab = sub.add_parser("stability", help="comparate-set manipulation experiments")
    stab_sub = p_stab.add_subparsers(dest="experiment", required=True)

    p_enum = stab_sub.add_parser("enumerate", help="enumerate corrected significance patterns")
    _add_data_flags(p_enum)
    p_enum.add_argument("--core", type=_names, required=True,
                        help="comma-separated core comparates")
    p_enum.add_argument("--pool", type=_names, default=None,
                        help="extras pool (default: all non-core comparates)")
    p_enum.add_argument("--k-extra", type=int, required=True,
                        help="extras added per study")
    p_enum.add_argument("--sample", type=int, default=None,
                        help="sample this many subsets instead of exhausting")
    p_enum.add_argument("--seed", type=int, default=0,
                        help="seed for sampling and example selection (default: %(default)s)")
    p_enum.add_argument("--render-patterns", default=None, metavar="DIR",
                        help="also write one pattern graph SVG per pattern")
    p_enum.set_defaults(func=_cmd_enumerate)

    p_swap = stab_sub.add_parser("rank-swap", help="compare a pair's rank order between two sets")
    _add_data_flags(p_swap)
    p_swap.add_argument("--pair", type=_names, required=True,
                        help="the two comparates under study, comma-separated")
    p_swap.add_argument("--set-a", type=_names, required=True,
                        help="first comparate set")
    p_swap.add_argument("--set-b", type=_names, required=True,
                        help="second comparate set")
    p_swap.set_defaults(func=_cmd_rank_swap)

    p_weak = stab_sub.add_parser("weaken", help="weakened-variant attack on average ranks")
    _add_data_flags(p_weak)
    p_weak.add_argument("--target", required=True, help="comparate to boost")
    p_weak.add_argument("--reference", required=True,
                        help="weaker comparate blended into the variant")
    p_weak.add_argument("--weights", required=True,
                        help="comma-separated blend weights in [0, 1]")
    p_weak.add_argument("--context", type=_names, required=True,
                        help="study comparates (must include the target)")
    p_weak.set_defaults(func=_cmd_weaken)

    p_self = sub.add_parser("selftest", help="run the embedded oracle suites")
    p_self.set_defaults(func=_cmd_selftest, output="-")

    return parser


def _load(args: argparse.Namespace) -> tuple:
    _check_output(args.output)
    payload = _read_input(args.input)
    fmt = _guess_format(args.input, args.input_format)
    matrix = load_results(payload, fmt, Direction(args.direction))
    return matrix, payload


def _cmd_mcm(args: argparse.Namespace) -> Iterable[bytes]:
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
            "cells": _cell_record_rows(report.cells, report.alpha, report.bayes),
        }
        return _json_chunks(out)
    return [render_mcm(report, format=args.format, metadata=meta)]


def _cmd_cd(args: argparse.Namespace) -> Iterable[bytes]:
    matrix, payload = _load(args)
    meta = _metadata(args, payload)
    return [render_cd_diagram(matrix, args.alpha, args.pairwise, metadata=meta)]


def _cmd_stats(args: argparse.Namespace) -> Iterable[bytes]:
    bayes_config = _bayes_config(args)
    matrix, payload = _load(args)
    alpha = check_alpha(args.alpha)
    table = compute_ranks(matrix)
    try:
        stat, p = friedman_test(table)
        friedman = {"statistic": stat, "p_value": p}
    except ValidationError as exc:
        friedman = {"skipped": str(exc)}

    names = matrix.comparates
    upper = np.triu(np.ones((matrix.m, matrix.m), dtype=bool), 1)
    cells, bayes = compare_pairs(matrix, names, names, upper, args.tie_epsilon, bayes_config)
    out = {
        "metadata": _metadata(args, payload),
        "direction": matrix.direction.value,
        "comparates": list(matrix.comparates),
        "tasks": list(matrix.tasks),
        "ranks": _float_rows(table.ranks.tolist()),
        "average_ranks": dict(zip(matrix.comparates, table.average_ranks.tolist())),
        "friedman": friedman,
        "pairwise": _cell_record_rows(cells, alpha, bayes),
    }
    return _json_chunks(out)


def _cmd_enumerate(args: argparse.Namespace) -> Iterable[bytes]:
    matrix, payload = _load(args)
    core = tuple(args.core)
    pool = tuple(args.pool) if args.pool else tuple(
        c for c in matrix.comparates if c not in set(core)
    )
    # A file in the way is refused before the work; the directory is made after it.
    directory = Path(args.render_patterns or ".")
    if not next(p for p in (directory, *directory.parents) if p.exists()).is_dir():
        raise _UsageError(f"cannot create directory {args.render_patterns!r}: "
                          f"{os.strerror(errno.ENOTDIR)}")
    enumeration = enumerate_patterns(
        matrix, core, pool, args.k_extra, args.alpha, sample=args.sample, seed=args.seed
    )
    meta = _metadata(args, payload, pool=list(pool), workers=1)
    if args.render_patterns:
        try:
            directory.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise _UsageError(f"cannot create directory {args.render_patterns!r}: "
                              f"{exc.strerror}") from None
        for mask in sorted(enumeration.pattern_counts):
            pattern = SignificancePattern(core, mask)
            _write_output(str(directory / f"pattern-{mask:#06x}.svg"),
                          [render_pattern_graph(pattern, metadata=meta)])
    return _json_chunks(dict(metadata=meta, **enumeration.to_dict()))


def _cmd_rank_swap(args: argparse.Namespace) -> Iterable[bytes]:
    matrix, payload = _load(args)
    if len(args.pair) != 2:
        raise _UsageError("--pair needs exactly two names")
    report = detect_rank_swap(
        matrix, (args.pair[0], args.pair[1]), args.set_a, args.set_b, args.alpha
    )
    return _json_chunks({"metadata": _metadata(args, payload), **report.to_dict()})


def _cmd_weaken(args: argparse.Namespace) -> Iterable[bytes]:
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
    return _json_chunks({"metadata": _metadata(args, payload), **report.to_dict()})


def _cmd_selftest(args: argparse.Namespace) -> Iterator[bytes]:
    """The suites' PASS/FAIL report; a failed suite is a bug (exit 3)."""
    with contextlib.redirect_stdout(io.StringIO()) as report:
        passed = run_selftest()
    yield report.getvalue().encode("utf-8")
    if not passed:
        raise InternalError("a selftest suite failed")


def main(argv: list[str] | None = None) -> int:
    """Run one command, write the ``bytes`` chunks it returns to its
    ``--output`` (or stdout) through ``_write_output``, and return the exit
    code; an error the contract names ends in one line on stderr."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _write_output(args.output, args.func(args))
        return 0
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (InternalError, AssertionError) as exc:  # invariant violations are bugs
        print(f"internal error (bug): {exc}", file=sys.stderr)
        return 3
    except McmatrixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
