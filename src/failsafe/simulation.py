"""Monte Carlo coverage study for the fail-safe confidence intervals.

Each scenario fixes a data-generating distribution, a CI recipe, and a study
count regime, then scores how often the interval captures the population
value of the estimator.  Replicate *i* of cell *j* always consumes stream
``j * replicates + i`` of the scenario seed: a pass builds one generator and
``rng.rewind``s it to key ``(seed, j * replicates + i)`` before each
replicate, so any replicate can be rerun alone from a fresh
``RandomSource(seed, j * replicates + i)``.  A pass runs one scenario, or in
``run_grid`` every scenario with the same intervals, replicate by replicate,
whatever truth each is scored against.  Runs are bit-reproducible under
one numpy build: numpy does not promise the same streams or the same
summation bits across versions.  ``tests/data/coverage_golden.json`` pins
each cell's counts (hits, failures and redraws), not its bits.  numpy loads
when the first pass runs; importing this module loads none.
"""
from __future__ import annotations

import csv
import io
import math

from ._record import record
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


@record
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
    reference coverage table was produced.  A 'poisson' cell is still scored
    against the expectation over the whole Poisson law, counts 0 and 1
    included, not over the counts actually drawn: 4.0 % of draws are redrawn
    at a rate of 5, and 40.6 % at a rate of 2.  ``center`` picks the value the
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


@record
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


@record
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


def _run_pass(scenarios: list[CoverageScenario]
              ) -> list[tuple[CoverageReport, FailsafeError | None]]:
    """The replicate loop of scenarios with the same intervals (``run_grid``
    groups them).  Per member: its report, and the error that ended it, if any."""
    import numpy as np
    s = scenarios[0]
    method, alpha, reps = s.ci_method, s.alpha, s.replicates
    boot = method.source == "boot"
    za = _z_alpha(alpha)
    q = _two_sided_z(s.level)
    draw_k = s.k_model == "random" and s.k_draw == "poisson"
    clamp = s.center == "clamped"
    # a named assumption's half-width depends on the study count alone
    named_hw: dict[int, float] = {}
    g = RandomSource(s.seed).generator()
    truths = [_truth_params(m) for m in scenarios]
    ended: list[FailsafeError | None] = [None] * len(scenarios)
    cells: list[list[CoverageCell]] = [[] for _ in scenarios]

    # an overflowing draw or resample fails its replicate through a typed check
    # (bootstrap_nr_draws, _resample_sd, _finite_raw_nr), not numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for k_idx, k_nominal in enumerate(s.k_values):
            tvs = []   # (member, true value) of each member still running
            for j, (mu_t, s2_t, _) in enumerate(truths):
                if ended[j] is None:
                    try:
                        tvs.append((j, true_nr(ParameterTriple(mu_t, s2_t, float(k_nominal)),
                                               scenarios[j].k_model, alpha, k_nominal)))
                    except FailsafeError as exc:
                        ended[j] = exc
            if not tvs:
                break
            covered = [0] * len(scenarios)
            failures = redraws = 0
            error = None
            for i in range(k_idx * reps, (k_idx + 1) * reps):
                rewind(g, s.seed, i)
                k = k_nominal
                if draw_k:
                    k = int(g.poisson(k_nominal))
                    while k < 2:
                        redraws += 1
                        k = int(g.poisson(k_nominal))
                z = s.data_dist._draw(k, g)
                try:
                    if boot:
                        draws = bootstrap_nr_draws(z, s.boot_replicates, za, g)
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
                for j, tv in tvs:
                    if nr - hw <= tv <= nr + hw:
                        covered[j] += 1

            done = reps - failures
            if done == 0:
                error = DomainError(f"no replicate completed at k={k_nominal}: {error}")
                ended = [exc or error for exc in ended]
                break
            for j, tv in tvs:
                cov = covered[j] / done
                cells[j].append(CoverageCell(
                    k=k_nominal, coverage=cov, mc_se=math.sqrt(cov * (1.0 - cov) / done),
                    true_value=tv, failures=failures, replicates=reps, redraws=redraws))

    return [(CoverageReport(
        data_dist=m.data_dist.name, k_model=m.k_model, ci_method=method.describe(),
        truth_label="" if exc else label, seed=m.seed, cells=() if exc else tuple(mc),
        error=exc and str(exc)), exc)
        for m, (_, _, label), exc, mc in zip(scenarios, truths, ended, cells)]


def run_scenario(scenario: CoverageScenario) -> CoverageReport:
    """Empirical coverage for every study count in the scenario.

    Raises DomainError for a cell in which no replicate completed.
    """
    ((report, error),) = _run_pass([scenario])
    if error:
        raise error
    return report


def run_grid(scenarios: list[CoverageScenario]) -> list[CoverageReport]:
    """Run a batch of scenarios, each under its own ``seed``; the reports
    keep the input order.  Scenarios that differ only in ``k_model`` and
    ``truth``, and draw no study counts, build the same intervals: one pass
    runs them all and scores its intervals against each one's true value.

    A scenario that raises a FailsafeError is recorded as a report with an
    ``error`` field; the rest of the grid still runs.
    """
    passes: dict[tuple, list[int]] = {}
    for j, s in enumerate(scenarios):
        key = (s.data_dist, s.ci_method, s.k_values, s.replicates, s.boot_replicates, s.center,
               s.level, s.alpha, s.seed, s.k_model == "random" and s.k_draw == "poisson")
        passes.setdefault(key, []).append(j)
    results = {}
    for members in passes.values():
        results.update(zip(members, _run_pass([scenarios[j] for j in members])))
    return [results[j][0] for j in range(len(scenarios))]


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
    ``derive_seed(seed, j)``, the one place scenario seeds are derived,
    except that a random ``boot`` scenario takes its fixed twin's seed (three
    places back): their intervals are the same, so ``run_grid`` runs one pass.
    """
    scenarios = []
    for data in STUDY_DISTRIBUTIONS:
        for k_model in ("fixed", "random"):
            for head in (f"{k_model}-dist", f"{k_model}-mom", "boot"):
                # each study distribution is named as the assumption it matches
                token = f"{head}:{data.name}" if head.endswith("-dist") else head
                j = len(scenarios) - 3 * (k_model == "random" and head == "boot")
                scenarios.append(CoverageScenario(
                    data_dist=data, ci_method=parse_method(token, 500),
                    k_values=(5, 15, 30, 50), k_model=k_model, k_draw="nominal",
                    center="raw", replicates=2000, boot_replicates=500,
                    seed=derive_seed(seed, j), truth=data.moments()))
    return scenarios


def coverage_csv(reports: list[CoverageReport]) -> str:
    """Delimited coverage results, one row per (scenario, k) cell.  Columns
    added later trail the older ones, which keep their place."""
    out = io.StringIO()
    rows = csv.writer(out, lineterminator="\n")
    rows.writerow(("data_dist", "k_model", "ci_method", "k", "coverage", "mc_se",
                   "true_value", "failures", "replicates", "redraws", "truth_label"))
    rows.writerows((r.data_dist, r.k_model, r.ci_method, c.k, c.coverage, c.mc_se,
                    c.true_value, c.failures, c.replicates, c.redraws, r.truth_label)
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
