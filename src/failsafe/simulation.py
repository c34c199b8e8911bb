"""Monte Carlo coverage study for the fail-safe confidence intervals.

Each scenario fixes a data-generating distribution, a CI recipe, and a study
count regime, then scores how often the interval captures the population
value of the estimator.  Replicate *i* of cell *j* always consumes stream
``j * replicates + i`` of the scenario seed: the scenario builds one
generator and ``rng.rewind``s it to key ``(seed, j * replicates + i)`` before
each replicate, so runs are bit-reproducible and any replicate can be rerun
alone from a fresh ``RandomSource(seed, j * replicates + i)``.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .distributions import (
    DistributionSpec,
    HalfNormal,
    SkewNormal,
    StandardNormal,
    _two_sided_z,
    _z_alpha,
)
from .core import _finite_raw_nr, true_nr
from .errors import DomainError, FailsafeError
from .estimators import ParameterTriple, _study_count
from .inference import (
    Method,
    _resample_sd,
    bootstrap_nr_draws,
    method_variance,
    parse_method,
)
from .rng import RandomSource, derive_seed, rewind


@dataclass(frozen=True)
class CoverageScenario:
    """One row of the coverage study: the interval ``ci_method`` applied to
    data from ``data_dist`` at each study count in ``k_values``.

    A ``boot`` method resamples ``boot_replicates`` times, and its own
    replicate count must say the same.  ``truth`` overrides the (mu, sigma2)
    at which the population value is evaluated; when None it comes from the
    study law a ``-dist`` method names, and from the data distribution for
    ``-mom`` and ``boot`` methods.  ``k_draw`` applies to the random regime
    only: 'poisson' draws the study count each replicate (counts below 2 are
    redrawn and tallied), 'nominal' pins it at the rate, which is how the
    reference coverage table was produced.  ``center`` picks the value the
    interval is built around: 'clamped' keeps estimates at zero or above,
    'raw' allows the negative values (and negative resample values) the
    reference table was scored with.  Under a ``-dist`` or ``-mom`` method
    the two centres differ only in replicates whose raw estimate is
    negative; under ``boot`` the clamp can also narrow the resample spread.
    """

    data_dist: DistributionSpec
    ci_method: Method
    k_values: tuple[int, ...] = (5, 15, 30, 50)
    k_model: str = "fixed"
    k_draw: str = "poisson"
    center: str = "clamped"
    replicates: int = 10000
    boot_replicates: int = 1000
    level: float = 0.95
    alpha: float = 0.05
    seed: int = 0
    truth: tuple[float, float] | None = None

    def __post_init__(self):
        if not (isinstance(self.replicates, int) and self.replicates >= 100):
            raise DomainError(f"replicates must be an int >= 100, got {self.replicates!r}")
        if not self.k_values:
            raise DomainError("k_values must be nonempty")
        for k in self.k_values:
            _study_count(k)
        _two_sided_z(self.level)
        _z_alpha(self.alpha)
        RandomSource(self.seed)
        if self.k_model not in ("fixed", "random"):
            raise DomainError(f"unknown k_model {self.k_model!r}")
        if self.k_draw not in ("poisson", "nominal"):
            raise DomainError(f"unknown k_draw {self.k_draw!r}")
        if self.center not in ("clamped", "raw"):
            raise DomainError(f"unknown center {self.center!r}")
        Method("boot", replicates=self.boot_replicates)  # checks the resample count
        if self.ci_method.source == "boot" \
                and self.ci_method.replicates != self.boot_replicates:
            raise DomainError(
                f"{self.ci_method.describe()} resamples {self.ci_method.replicates} "
                f"times but boot_replicates is {self.boot_replicates}")


@dataclass(frozen=True)
class CoverageCell:
    """Coverage at one study count.

    ``failures`` counts the replicates that produced no interval (too few
    studies for the sample moments, a negative or non-finite variance, an
    overflowing estimate); they are left out of the score.
    ``coverage`` is the share of the ``replicates - failures`` completed
    replicates whose interval holds ``true_value``, and ``mc_se`` its Monte
    Carlo standard error over those completed replicates.  ``redraws``
    counts Poisson study counts below 2 that were drawn again.
    """

    k: int
    coverage: float
    mc_se: float
    true_value: float
    failures: int
    replicates: int
    redraws: int = 0


@dataclass(frozen=True)
class CoverageReport:
    data_dist: str
    k_model: str
    ci_method: str
    truth_label: str
    seed: int
    cells: tuple[CoverageCell, ...]
    error: str | None = None


def _truth_params(scenario: CoverageScenario) -> tuple[float, float, str]:
    if scenario.truth is not None:
        mu, s2 = scenario.truth
        return mu, s2, f"explicit({mu:g},{s2:g})"
    law = scenario.ci_method.law
    if law is None:
        law = scenario.data_dist
    return *law.moments(), law.name


def run_scenario(scenario: CoverageScenario) -> CoverageReport:
    """Empirical coverage for every study count in the scenario.

    Raises DomainError for a cell in which no replicate completed.
    """
    mu_t, s2_t, truth_label = _truth_params(scenario)
    method, alpha, reps = scenario.ci_method, scenario.alpha, scenario.replicates
    boot = method.source == "boot"
    za = _z_alpha(alpha)
    q = _two_sided_z(scenario.level)
    draw_k = scenario.k_model == "random" and scenario.k_draw == "poisson"
    clamp = scenario.center == "clamped"
    # a named assumption's half-width depends on the study count alone
    named_hw: dict[int, float] = {}
    g = RandomSource(scenario.seed).generator()

    cells = []
    # an overflowing draw or resample fails its replicate through a typed
    # check (bootstrap_nr_draws, _resample_sd, _finite_raw_nr), not through
    # numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for k_idx, k_nominal in enumerate(scenario.k_values):
            tv = true_nr(ParameterTriple(mu_t, s2_t, float(k_nominal)),
                         scenario.k_model, alpha, k_nominal)
            covered = failures = redraws = 0
            error = None
            for i in range(k_idx * reps, (k_idx + 1) * reps):
                rewind(g, scenario.seed, i)
                k = k_nominal
                if draw_k:
                    k = int(g.poisson(k_nominal))
                    while k < 2:
                        redraws += 1
                        k = int(g.poisson(k_nominal))
                z = scenario.data_dist._draw(k, g)
                try:
                    if boot:
                        draws = bootstrap_nr_draws(z, scenario.boot_replicates, za, g)
                        if clamp:
                            np.maximum(draws, 0.0, out=draws)
                        hw = q * _resample_sd(draws)
                    else:
                        hw = named_hw.get(k)
                        if hw is None:
                            hw = q * math.sqrt(method_variance(method, z.tolist(), k, alpha))
                            if method.source == "dist":
                                named_hw[k] = hw
                    raw = _finite_raw_nr(float(z.sum()), k, za)
                except FailsafeError as exc:
                    failures += 1
                    error = exc
                    continue

                nr = 0.0 if clamp and not raw > 0.0 else raw
                if nr - hw <= tv <= nr + hw:
                    covered += 1

            done = reps - failures
            if done == 0:
                raise DomainError(f"no replicate completed at k={k_nominal}: {error}")
            cov = covered / done
            cells.append(CoverageCell(
                k=k_nominal, coverage=cov, mc_se=math.sqrt(cov * (1.0 - cov) / done),
                true_value=tv, failures=failures, replicates=reps, redraws=redraws))

    return CoverageReport(
        data_dist=scenario.data_dist.name, k_model=scenario.k_model,
        ci_method=method.describe(), truth_label=truth_label,
        seed=scenario.seed, cells=tuple(cells))


def run_grid(scenarios: list[CoverageScenario]) -> list[CoverageReport]:
    """Run a batch of scenarios, each under its own ``seed``.

    A scenario that raises a FailsafeError is recorded as a report with an
    ``error`` field; the rest of the grid still runs.
    """
    reports = []
    for scenario in scenarios:
        try:
            reports.append(run_scenario(scenario))
        except FailsafeError as exc:
            reports.append(CoverageReport(
                data_dist=scenario.data_dist.name,
                k_model=scenario.k_model,
                ci_method=scenario.ci_method.describe(),
                truth_label="", seed=scenario.seed, cells=(),
                error=str(exc)))
    return reports


STUDY_DISTRIBUTIONS: tuple[DistributionSpec, ...] = (
    StandardNormal(),
    HalfNormal(1.0),
    SkewNormal(0.0, 1.0, -0.5),
    SkewNormal(0.0, 1.0, 0.5),
)


def coverage_study_grid(seed: int) -> list[CoverageScenario]:
    """The matched-assumption study plan: four data distributions crossed
    with fixed/random counts and the three interval methods (24 scenarios,
    96 cells), each scored at the data's own moments.

    The plan is the reference coverage table's: 2 000 replicates per cell,
    ``boot:500``, k in {5, 15, 30, 50}, random counts pinned at their rate
    and intervals around unclamped estimates.  Scenario *j* runs under
    ``derive_seed(seed, j)``, the one place scenario seeds are derived.
    """
    scenarios = []
    for data in STUDY_DISTRIBUTIONS:
        for k_model in ("fixed", "random"):
            for head in (f"{k_model}-dist", f"{k_model}-mom", "boot"):
                # each study distribution is named as the assumption it matches
                token = f"{head}:{data.name}" if head.endswith("-dist") else head
                scenarios.append(CoverageScenario(
                    data_dist=data, ci_method=parse_method(token, 500),
                    k_values=(5, 15, 30, 50), k_model=k_model, k_draw="nominal",
                    center="raw", replicates=2000, boot_replicates=500,
                    seed=derive_seed(seed, len(scenarios)), truth=data.moments()))
    return scenarios


def coverage_csv(reports: list[CoverageReport]) -> str:
    """Delimited coverage results, one row per (scenario, k) cell."""
    out = io.StringIO()
    rows = csv.writer(out, lineterminator="\n")
    rows.writerow(("data_dist", "k_model", "ci_method", "k", "coverage", "mc_se",
                   "true_value", "failures", "replicates"))
    rows.writerows((r.data_dist, r.k_model, r.ci_method, c.k, c.coverage, c.mc_se,
                    c.true_value, c.failures, c.replicates)
                   for r in reports for c in r.cells)
    return out.getvalue()


def figure_data_csv(reports: list[CoverageReport]) -> str:
    """Long-format plot data: one panel per (data distribution, truth source)."""
    out = io.StringIO()
    rows = csv.writer(out, lineterminator="\n")
    rows.writerow(("panel", "ci_method", "k", "coverage"))
    rows.writerows((f"{r.data_dist}|{r.truth_label}", f"{r.k_model}/{r.ci_method}", c.k,
                    c.coverage) for r in reports for c in r.cells)
    return out.getvalue()
