"""mcmatrix: stable pairwise evaluation of benchmark results.

Evaluates m comparates on n tasks: per-pair descriptive statistics
(mean difference, win/tie/loss, signed-rank p), groupwise rank statistics,
a Bayesian signed-rank alternative, deterministic figure rendering, and a
stability laboratory showing how corrected-significance conclusions can be
manipulated through the comparate set, which the per-pair grid is immune
to by construction.
"""

from .bayes import BayesConfig, BayesPosterior, bayesian_signed_rank, posterior_samples
from .data import (
    Direction,
    ResultsMatrix,
    dump_results,
    load_results,
    restrict_to_complete_tasks,
    weaken_comparate,
)
from .errors import McmatrixError
from .mcm import MCMConfig, MCMReport, build_mcm, mcm_cell_invariance_check, mcm_report_to_dict
from .render import (
    cd_layout,
    render_cd_diagram,
    render_mcm,
    render_pattern_graph,
)
from .stability import (
    PatternEnumeration,
    SignificancePattern,
    detect_rank_swap,
    enumerate_patterns,
    significance_pattern,
    weakened_variant_attack,
)
from .stats import (
    PairwiseComparison,
    PMethod,
    RankTable,
    compute_ranks,
    friedman_test,
    holm_correction,
    nemenyi_critical_difference,
    pairwise_comparison,
    wilcoxon_signed_rank,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "McmatrixError",
    "Direction",
    "ResultsMatrix",
    "load_results",
    "dump_results",
    "restrict_to_complete_tasks",
    "weaken_comparate",
    "PMethod",
    "RankTable",
    "PairwiseComparison",
    "compute_ranks",
    "wilcoxon_signed_rank",
    "pairwise_comparison",
    "friedman_test",
    "nemenyi_critical_difference",
    "holm_correction",
    "BayesConfig",
    "BayesPosterior",
    "bayesian_signed_rank",
    "posterior_samples",
    "MCMConfig",
    "MCMReport",
    "build_mcm",
    "mcm_cell_invariance_check",
    "mcm_report_to_dict",
    "render_mcm",
    "render_cd_diagram",
    "cd_layout",
    "render_pattern_graph",
    "SignificancePattern",
    "PatternEnumeration",
    "significance_pattern",
    "enumerate_patterns",
    "detect_rank_swap",
    "weakened_variant_attack",
]
