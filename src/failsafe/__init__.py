"""Fail-safe numbers for meta-analysis.

Point estimates of the number of unpublished null studies needed to nullify
a pooled significance test, confidence intervals for them under five
variance models, a one-sided test against the 5k+10 rule of thumb with its
cutoff table, and a Monte Carlo coverage study of the interval estimators.

numpy loads only when something is drawn by the samplers or the coverage
study (``simulation``, imported on first use of its names); the bootstrap
draws its resample indices in pure Python.
"""

from .core import (
    FailSafeEstimate,
    MomentReport,
    invert_nr,
    iyengar_greenhouse_n,
    moments_fixed_exact,
    moments_fixed_largek,
    moments_fixed_table,
    moments_random,
    nr_joint_pdf,
    nr_pdf,
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
    ci_from_point,
    ci_normal,
    cutoff_table,
    failsafe_test,
    method_variance,
    parse_method,
)
from .io import AnalysisConfig, analyze, format_report, ingest
from .rng import RandomSource, derive_seed

__version__ = "0.1.0"

# the coverage study imports numpy at its top, so it loads on first use
_SIMULATION = frozenset((
    "simulation", "CoverageCell", "CoverageReport", "CoverageScenario", "coverage_csv",
    "coverage_study_grid", "figure_data_csv", "run_grid", "run_scenario"))
__all__ = sorted({name for name in dir() if not name.startswith("_")} | _SIMULATION)


def __getattr__(name):
    if name not in _SIMULATION:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    simulation = import_module(f"{__name__}.simulation")
    return simulation if name == "simulation" else getattr(simulation, name)


def __dir__():
    return sorted(set(globals()) | _SIMULATION)
