"""Quadratic-form test statistics for linear hypotheses ``H theta = y``.

The Wald-type statistic (and its diagonal-kernel modification) is invariant
under the choice of hypothesis matrix: any two consistent systems with the
same solution set yield the same value, so the cheapest encoding can be used.
The ANOVA-type statistic is not invariant; the safe reductions are dropping
zero rows and collapsing pairwise parallel rows with a square-root weight.
This package computes the statistics, decides solution-set equivalence,
produces canonical and reduced hypothesis forms, and times the computational
payoff of minimal hypothesis matrices.
"""

from .bench import (
    BenchConfig,
    BenchReport,
    emit_report,
    run_benchmark,
)
from .hypothesis import (
    DependenceClass,
    DependencePartition,
    EquivalenceVerdict,
    InconsistentHypothesisError,
    LinearHypothesis,
    ProjectionForm,
    canonical_form,
    dependence_classes,
    equivalent,
    is_consistent,
    projection_form,
    reduce_for_ats,
)
from .linalg import (
    NumericError,
    Tolerance,
    projection,
    rank,
    rref,
)
from .statistics import (
    StatisticInput,
    StatisticResult,
    WtsKernel,
    ats,
    ats_standardized,
    diag_selector,
    mats,
    sample_covariance,
    vech_upper,
    wts,
)

__version__ = "0.1.0"

__all__ = [
    "BenchConfig",
    "BenchReport",
    "DependenceClass",
    "DependencePartition",
    "EquivalenceVerdict",
    "InconsistentHypothesisError",
    "LinearHypothesis",
    "NumericError",
    "ProjectionForm",
    "StatisticInput",
    "StatisticResult",
    "Tolerance",
    "WtsKernel",
    "ats",
    "ats_standardized",
    "canonical_form",
    "dependence_classes",
    "diag_selector",
    "emit_report",
    "equivalent",
    "is_consistent",
    "mats",
    "projection",
    "projection_form",
    "rank",
    "reduce_for_ats",
    "rref",
    "run_benchmark",
    "sample_covariance",
    "vech_upper",
    "wts",
]
