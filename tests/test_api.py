"""The public surface, as a literal: every name in ``mcmatrix.__all__`` and
in each submodule's ``__all__``.

A function is recorded by its signature without annotations, so each
settable value shows as a parameter and its default.  A dataclass is
recorded by its fields with their defaults, an enum by its members, any
other class by its bases and ``__init__``, and each class also by its
public methods.  A constant is recorded by its value, and a name that a
module re-exports by where it comes from.  A change that adds or drops a
knob therefore shows up as a diff of ``PUBLIC_SURFACE``.
"""

import dataclasses
import enum
import importlib
import inspect
import pkgutil

import mcmatrix


def _signature(func) -> str:
    sig = inspect.signature(func)
    params = [p.replace(annotation=p.empty) for p in sig.parameters.values()]
    return str(sig.replace(parameters=params, return_annotation=sig.empty))


def _field(field: dataclasses.Field) -> str:
    if field.default is dataclasses.MISSING:
        return field.name
    return f"{field.name}={field.default!r}"


def _methods(cls) -> list[str]:
    out = []
    for name, attr in vars(cls).items():
        if name.startswith("_"):
            continue
        if isinstance(attr, property):
            out.append(f"{name}: property")
        elif isinstance(attr, (classmethod, staticmethod)):
            out.append(f"{name}{_signature(attr.__func__)}: {type(attr).__name__}")
        elif inspect.isfunction(attr):
            out.append(f"{name}{_signature(attr)}")
    return out


def _describe(obj) -> str | tuple[str, ...]:
    if inspect.isclass(obj):
        if issubclass(obj, enum.Enum):
            head = [f"{m.name}={m.value!r}" for m in obj]
        elif dataclasses.is_dataclass(obj):
            head = [_field(f) for f in dataclasses.fields(obj)]
        else:
            head = [f"class({', '.join(b.__name__ for b in obj.__bases__)})"]
            if inspect.isfunction(obj.__init__):
                head.append(f"__init__{_signature(obj.__init__)}")
        return (*head, *_methods(obj))
    if inspect.isfunction(obj):
        return _signature(obj)
    return repr(obj)


def public_surface() -> dict[str, str | tuple[str, ...]]:
    modules = [mcmatrix] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(mcmatrix.__path__, "mcmatrix.")
    ]
    surface = {}
    for module in modules:
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            defined = inspect.isclass(obj) or inspect.isfunction(obj)
            if defined and obj.__module__ != module.__name__:
                surface[f"{module.__name__}.{name}"] = f"= {obj.__module__}.{obj.__name__}"
            else:
                surface[f"{module.__name__}.{name}"] = _describe(obj)
    return surface


def test_public_surface_is_the_recorded_one():
    assert public_surface() == PUBLIC_SURFACE


PUBLIC_SURFACE = {
    "mcmatrix.__version__": "'0.1.0'",
    "mcmatrix.McmatrixError": "= mcmatrix.errors.McmatrixError",
    "mcmatrix.Direction": "= mcmatrix.data.Direction",
    "mcmatrix.ResultsMatrix": "= mcmatrix.data.ResultsMatrix",
    "mcmatrix.load_results": "= mcmatrix.data.load_results",
    "mcmatrix.dump_results": "= mcmatrix.data.dump_results",
    "mcmatrix.restrict_to_complete_tasks": "= mcmatrix.data.restrict_to_complete_tasks",
    "mcmatrix.weaken_comparate": "= mcmatrix.data.weaken_comparate",
    "mcmatrix.PMethod": "= mcmatrix.stats.PMethod",
    "mcmatrix.RankTable": "= mcmatrix.stats.RankTable",
    "mcmatrix.PairwiseComparison": "= mcmatrix.stats.PairwiseComparison",
    "mcmatrix.compute_ranks": "= mcmatrix.stats.compute_ranks",
    "mcmatrix.wilcoxon_signed_rank": "= mcmatrix.stats.wilcoxon_signed_rank",
    "mcmatrix.pairwise_comparison": "= mcmatrix.stats.pairwise_comparison",
    "mcmatrix.friedman_test": "= mcmatrix.stats.friedman_test",
    "mcmatrix.nemenyi_critical_difference": "= mcmatrix.stats.nemenyi_critical_difference",
    "mcmatrix.holm_correction": "= mcmatrix.stats.holm_correction",
    "mcmatrix.BayesConfig": "= mcmatrix.bayes.BayesConfig",
    "mcmatrix.BayesPosterior": "= mcmatrix.bayes.BayesPosterior",
    "mcmatrix.bayesian_signed_rank": "= mcmatrix.bayes.bayesian_signed_rank",
    "mcmatrix.posterior_samples": "= mcmatrix.bayes.posterior_samples",
    "mcmatrix.MCMConfig": "= mcmatrix.mcm.MCMConfig",
    "mcmatrix.MCMReport": "= mcmatrix.mcm.MCMReport",
    "mcmatrix.build_mcm": "= mcmatrix.mcm.build_mcm",
    "mcmatrix.mcm_cell_invariance_check": "= mcmatrix.mcm.mcm_cell_invariance_check",
    "mcmatrix.mcm_report_to_dict": "= mcmatrix.mcm.mcm_report_to_dict",
    "mcmatrix.render_mcm": "= mcmatrix.render.mcm_view.render_mcm",
    "mcmatrix.render_cd_diagram": "= mcmatrix.render.cd_view.render_cd_diagram",
    "mcmatrix.cd_layout": "= mcmatrix.render.cd_view.cd_layout",
    "mcmatrix.render_pattern_graph": "= mcmatrix.render.pattern_view.render_pattern_graph",
    "mcmatrix.SignificancePattern": "= mcmatrix.stability.SignificancePattern",
    "mcmatrix.PatternEnumeration": "= mcmatrix.stability.PatternEnumeration",
    "mcmatrix.significance_pattern": "= mcmatrix.stability.significance_pattern",
    "mcmatrix.enumerate_patterns": "= mcmatrix.stability.enumerate_patterns",
    "mcmatrix.detect_rank_swap": "= mcmatrix.stability.detect_rank_swap",
    "mcmatrix.weakened_variant_attack": "= mcmatrix.stability.weakened_variant_attack",
    "mcmatrix.bayes.BayesConfig": (
        "rope=0.01",
        "prior_strength=1.0",
        "mc_samples=100000",
        "seed=0",
        "validate(self)",
    ),
    "mcmatrix.bayes.BayesPosterior": (
        "theta_left",
        "theta_rope",
        "theta_right",
        "mc_samples_used",
    ),
    "mcmatrix.bayes.PosteriorTable": (
        "theta_left",
        "theta_rope",
        "theta_right",
        "mc_samples_used",
        "oriented(self, k, flip)",
    ),
    "mcmatrix.bayes.bayesian_signed_rank": (
        "(rows, config=BayesConfig(rope=0.01, prior_strength=1.0, mc_samples=100000, "
        "seed=0))"
    ),
    "mcmatrix.bayes.posterior_samples": (
        "(diffs, config=BayesConfig(rope=0.01, prior_strength=1.0, mc_samples=100000, "
        "seed=0))"
    ),
    "mcmatrix.bayes.CHUNK_SIZE": "8192",
    "mcmatrix.data.Direction": (
        "HIGHER_IS_BETTER='higher'",
        "LOWER_IS_BETTER='lower'",
        "parse(cls, value): classmethod",
    ),
    "mcmatrix.data.ResultsMatrix": (
        "comparates",
        "tasks",
        "scores",
        "direction",
        "m: property",
        "n: property",
        "index_of(self, name)",
        "positions(self, names)",
        "check_names(self, names, what)",
        "check_pair(self, pair)",
        "row(self, name)",
        "select_comparates(self, names)",
        "in_matrix_order(self, names)",
    ),
    "mcmatrix.data.load_results": "(source, format, direction)",
    "mcmatrix.data.dump_results": "(matrix, format='csv')",
    "mcmatrix.data.restrict_to_complete_tasks": "(matrices)",
    "mcmatrix.data.weaken_comparate": "(matrix, target, reference, weight, new_name)",
    "mcmatrix.errors.McmatrixError": ("class(Exception)",),
    "mcmatrix.errors.ValidationError": (
        "class(McmatrixError)",
        "__init__(self, message, row=None, column=None)",
    ),
    "mcmatrix.errors.InternalError": ("class(McmatrixError)",),
    "mcmatrix.mcm.MCMConfig": (
        "alpha=0.05",
        "row_comparates=None",
        "column_comparates=None",
        "tie_epsilon=0.0",
    ),
    "mcmatrix.mcm.MCMReport": (
        "row_order",
        "column_order",
        "mean_performance",
        "cells",
        "comparison_count",
        "alpha",
        "direction",
        "n_tasks",
        "tie_epsilon=0.0",
        "bayes=None",
    ),
    "mcmatrix.mcm.PairGrid": ("rows", "columns", "slot", "table", "row(self, i)",
                              "items(self)", "values(self)"),
    "mcmatrix.mcm.build_mcm": (
        "(matrix, config=MCMConfig(alpha=0.05, row_comparates=None, "
        "column_comparates=None, tie_epsilon=0.0), bayes_config=None)"
    ),
    "mcmatrix.mcm.cell_records_json": "(cells, alpha, bayes=None)",
    "mcmatrix.mcm.compare_pairs": (
        "(matrix, rows, columns, mask, tie_epsilon=0.0, bayes_config=None)"
    ),
    "mcmatrix.mcm.mcm_cell_invariance_check": "(matrix, pair, subsets)",
    "mcmatrix.mcm.mcm_report_header": "(report)",
    "mcmatrix.mcm.mcm_report_to_dict": "(report)",
    "mcmatrix.render.diverging_color": "= mcmatrix.render.style.diverging_color",
    "mcmatrix.render.render_mcm": "= mcmatrix.render.mcm_view.render_mcm",
    "mcmatrix.render.render_cd_diagram": "= mcmatrix.render.cd_view.render_cd_diagram",
    "mcmatrix.render.cd_layout": "= mcmatrix.render.cd_view.cd_layout",
    "mcmatrix.render.CdLayout": "= mcmatrix.render.cd_view.CdLayout",
    "mcmatrix.render.contiguous_nonsignificant_runs": (
        "= mcmatrix.render.cd_view.contiguous_nonsignificant_runs"
    ),
    "mcmatrix.render.render_pattern_graph": (
        "= mcmatrix.render.pattern_view.render_pattern_graph"
    ),
    "mcmatrix.render.cd_view.CdLayout": (
        "names",
        "average_ranks",
        "positions",
        "bars",
        "critical_difference",
        "alpha",
        "method",
    ),
    "mcmatrix.render.cd_view.cd_layout": "(matrix, alpha=0.05, pairwise_method='nemenyi')",
    "mcmatrix.render.cd_view.render_cd_diagram": (
        "(matrix, alpha=0.05, pairwise_method='nemenyi', metadata=None)"
    ),
    "mcmatrix.render.cd_view.contiguous_nonsignificant_runs": "(joined)",
    "mcmatrix.render.core.fnum": "(x, places=2)",
    "mcmatrix.render.core.SvgDoc": (
        "class(object)",
        "__init__(self, width, height)",
        "raw(self, fragment)",
        "line(self, x1, y1, x2, y2, stroke='#000000', width=1.0)",
        "text(self, x, y, content, size, anchor='middle')",
        "group_start(self, cls)",
        "group_end(self)",
        "lines(self, metadata=None)",
        "tostring(self, metadata=None)",
    ),
    "mcmatrix.render.mcm_view.render_mcm": "(report, format='svg', metadata=None)",
    "mcmatrix.render.pattern_view.render_pattern_graph": "(pattern, metadata=None)",
    "mcmatrix.render.style.diverging_color": "(value, limit)",
    "mcmatrix.selftest.run_selftest": "()",
    "mcmatrix.selftest.average_ranks": "(x)",
    "mcmatrix.selftest.enumeration_pvalue": "(diffs)",
    "mcmatrix.stability.SignificancePattern": (
        "core",
        "bitmask",
        "non_significant_pairs: property",
        "pair_names(self)",
    ),
    "mcmatrix.stability.PatternEnumeration": (
        "core",
        "pattern_counts",
        "examples_per_pattern",
        "total_subsets",
        "to_dict(self)",
    ),
    "mcmatrix.stability.significance_pattern": "(matrix, core, extra, alpha)",
    "mcmatrix.stability.enumerate_patterns": (
        "(matrix, core, pool, k_extra, alpha, sample=None, seed=0)"
    ),
    "mcmatrix.stability.RankSwapReport": (
        "pair",
        "average_ranks_a",
        "average_ranks_b",
        "better_a",
        "better_b",
        "swapped",
        "significant_a",
        "significant_b",
        "to_dict(self)",
    ),
    "mcmatrix.stability.detect_rank_swap": "(matrix, pair, set_a, set_b, alpha=0.05)",
    "mcmatrix.stability.WeightOutcome": (
        "weight",
        "variant_name",
        "target_average_rank",
        "variant_average_rank",
        "pattern",
        "flipped_pairs",
        "to_dict(self)",
    ),
    "mcmatrix.stability.WeakenedVariantReport": (
        "target",
        "reference",
        "context",
        "alpha",
        "baseline_target_average_rank",
        "baseline_pattern",
        "outcomes",
        "to_dict(self)",
    ),
    "mcmatrix.stability.weakened_variant_attack": (
        "(matrix, target, reference, weights, context, alpha=0.05)"
    ),
    "mcmatrix.stability.DEFAULT_EXHAUSTIVE_LIMIT": "1000000",
    "mcmatrix.stability.SAMPLED_SPACE_LIMIT": "9223372036854775808",
    "mcmatrix.stats.PMethod": (
        "EXACT='exact'",
        "NORMAL_APPROXIMATION='normal_approximation'",
        "DEGENERATE='degenerate'",
    ),
    "mcmatrix.stats.RankTable": ("ranks", "average_ranks", "tie_terms"),
    "mcmatrix.stats.PairwiseComparison": (
        "row",
        "column",
        "mean_difference",
        "wins",
        "ties",
        "losses",
        "p_value",
        "p_method",
    ),
    "mcmatrix.stats.PairTable": (
        "pairs",
        "mean_difference",
        "wins",
        "losses",
        "p_value",
        "p_method",
        "n",
        "oriented(self, k, flip)",
    ),
    "mcmatrix.stats.DEFAULT_EXACT_THRESHOLD": "25",
    "mcmatrix.stats.compute_ranks": "(matrix)",
    "mcmatrix.stats.wilcoxon_signed_rank": "(diffs)",
    "mcmatrix.stats.pairwise_comparison": "(matrix, row, column, tie_epsilon=0.0)",
    "mcmatrix.stats.pair_statistics": "(matrix, pairs, tie_epsilon=0.0)",
    "mcmatrix.stats.oriented_differences": "(matrix, row, column)",
    "mcmatrix.stats.friedman_test": "(ranks)",
    "mcmatrix.stats.nemenyi_critical_difference": "(m, n, alpha=0.05)",
    "mcmatrix.stats.check_alpha": "(alpha)",
    "mcmatrix.stats.holm_correction": "(p, alpha)",
    "mcmatrix.stats.all_pairs_pvalues": "(matrix, names)",
    "mcmatrix.stats.holm_significance": "(matrix, names, alpha)",
}
