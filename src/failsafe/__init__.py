"""Fail-safe numbers for meta-analysis.

Point estimates of the number of unpublished null studies needed to nullify
a pooled significance test, confidence intervals for them under five
variance models, a one-sided test against the 5k+10 rule of thumb with its
cutoff table, and a Monte Carlo coverage study of the interval estimators.

numpy loads only when something is drawn, inside the function that draws
(the samplers, ``rng``'s generators, the coverage study's replicate loop),
so ``import failsafe`` loads none; the bootstrap interval of ``analyze``
draws its resamples from the standard library's ``random``.
"""

from .core import (
    FailSafeEstimate,
    iyengar_greenhouse_n,
    moments_fixed_table,
    rosenthal_nr,
    true_nr,
)
from .distributions import (
    HalfNormal,
    SkewNormal,
    StandardNormal,
    sample,
    std_normal_cdf,
    std_normal_pdf,
    std_normal_quantile,
)
from .errors import (
    BelowThresholdError,
    DegenerateVarianceError,
    DomainError,
    FailsafeError,
    IngestError,
    InsufficientDataError,
)
from .estimators import (
    ParameterTriple,
    ZSample,
    distributional_params,
    moments_estimate,
)
from .inference import (
    Interval,
    Method,
    TestResult,
    ci_bootstrap,
    ci_normal,
    cutoff_table,
    failsafe_test,
    method_variance,
    parse_method,
)
from .io import AnalysisConfig, analyze, format_report, ingest
from .rng import RandomSource, derive_seed
from .simulation import (
    CoverageCell,
    CoverageReport,
    CoverageScenario,
    coverage_csv,
    coverage_study_grid,
    figure_data_csv,
    run_grid,
    run_scenario,
)

__version__ = "0.1.0"

__all__ = sorted(name for name in dir() if not name.startswith("_"))
