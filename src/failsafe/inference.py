"""Confidence intervals, the 5k+10 hypothesis test, and cutoff tables."""
from __future__ import annotations

import math
from collections.abc import Sequence
from functools import cached_property
from typing import TYPE_CHECKING

from ._record import record
from .core import FailSafeEstimate, _moments_fixed, random_variance, raw_nr, rosenthal_nr
from .distributions import DistributionSpec, _named_law, _two_sided_z, _z_alpha
from .errors import DegenerateVarianceError, DomainError, InsufficientDataError
from .estimators import ZSample, _mean_var, _study_count
from .rng import RandomSource

if TYPE_CHECKING:
    import numpy as np

FIXED_VARIANTS = ("largek", "exact", "table")
HEADS = ("fixed-dist", "fixed-mom", "random-dist", "random-mom", "boot")
# the variance model of the 5k+10 test and its cutoff table: the half-normal
# fixed-count variance in its table variant, which matches the reference
# table entry-for-entry
TEST_METHOD = "fixed-dist:half-normal:table"
_RESAMPLE_BLOCK = 2**14
# the longest cutoff table: 10**5 rows take about 0.5 s and 28 MB on a 2-core
# x86-64 box, and the table is held whole before a row is written
CUTOFF_ROWS_MAX = 10**5


@record
class Method:
    """One interval recipe: a study-count regime (fixed or Poisson), a source
    for the variance parameters and the moment formula they feed.

    ``head`` is the token head, one of ``HEADS``; each source has one kind
    of head.  A ``-dist`` head assumes a study law by name, a ``-mom`` head
    reads the sample's own moments, and ``boot`` resamples.  ``assumption``
    belongs to the ``-dist`` heads: the name of a study law (``std-normal``,
    ``half-normal`` or ``skew-normal(DELTA)``), kept in the form the law
    names itself.  ``variant`` belongs to the ``fixed-`` heads (default
    ``largek``) and ``replicates`` to ``boot`` (default 1000).
    """

    head: str
    assumption: str | None = None
    variant: str | None = None
    replicates: int | None = None

    def __post_init__(self):
        if self.head not in HEADS:
            raise DomainError(f"unknown method {self.head!r}")
        if self.source == "dist":
            object.__setattr__(self, "assumption", self.law.name)
        elif self.assumption is not None:
            raise DomainError(f"{self.head} takes no assumption")
        if self.regime == "fixed":
            if self.variant is None:
                object.__setattr__(self, "variant", "largek")
            if self.variant not in FIXED_VARIANTS:
                raise DomainError(f"unknown variant {self.variant!r}")
        elif self.variant is not None:
            raise DomainError(f"{self.head} takes no variant")
        if self.head == "boot":
            if self.replicates is None:
                object.__setattr__(self, "replicates", 1000)
            if not (isinstance(self.replicates, int) and self.replicates >= 100):
                raise DomainError(f"bootstrap needs at least 100 whole replicates, "
                                  f"got {self.replicates!r}")
        elif self.replicates is not None:
            raise DomainError(f"{self.head} takes no replicate count")

    @cached_property
    def regime(self) -> str:
        """'fixed' or 'random' study count; 'boot' for the bootstrap."""
        return self.head.partition("-")[0]

    @cached_property
    def source(self) -> str:
        """Where the variance comes from: 'dist', 'mom' or 'boot'."""
        return self.head.rpartition("-")[2]

    @cached_property
    def law(self) -> DistributionSpec | None:
        """The study law a ``-dist`` head assumes by name; None where the
        variance parameters come from the sample or from resampling."""
        if self.source != "dist":
            return None
        return _named_law(self.assumption)

    def describe(self) -> str:
        """The method's token; ``parse_method`` inverts it."""
        parts = [self.head]
        if self.source == "dist":
            parts.append(self.assumption)
        if self.regime == "fixed":
            parts.append(self.variant)
        if self.head == "boot":
            parts.append(str(self.replicates))
        return ":".join(parts)


@record
class Interval:
    lower: float
    upper: float
    level: float
    method: str
    variance_used: float

    def __post_init__(self):
        if not -math.inf < self.lower <= self.upper < math.inf:
            raise DomainError(f"interval bounds ({self.lower!r}, {self.upper!r}) "
                              "are not finite or out of order")
        _two_sided_z(self.level)


@record
class TestResult:
    statistic: float
    critical: float
    reject: bool


def method_variance(model: Method, z: Sequence[float] | None, k: int,
                    alpha: float) -> float:
    """Variance of the estimator at ``k`` studies under ``model``, with the
    parameters taken from the model's source: the moments of its named study
    law, or the population-form moments of the z-scores ``z``; ``z`` may be
    None for a named assumption.

    The one route from a method to a variance: intervals, the 5k+10 test,
    the cutoff table and the coverage study all go through it.  Raises
    DegenerateVarianceError for a variance that is negative (the table
    correction can outweigh the large-k term) or not finite.
    """
    _closed_form(model, z is not None)
    _study_count(k)
    mu, s2 = model.law.moments() if model.law is not None else _mean_var(z)
    if model.regime == "random":
        v = random_variance(mu, s2, k, _z_alpha(alpha))
    else:
        v = _moments_fixed(mu, s2, k, alpha, model.variant)[1]
    if not 0.0 <= v < math.inf:
        raise DegenerateVarianceError(
            f"variance {v:.6g} from {model.describe()} is "
            + ("negative" if v < 0.0 else "not finite"))
    return v


def _closed_form(model: Method, with_sample: bool) -> None:
    """Check that ``model`` has a closed-form variance, with or without the sample."""
    if model.source == "boot":
        raise DomainError(f"{model.describe()} has no closed-form variance")
    if not with_sample and model.source == "mom":
        raise DomainError(f"{model.describe()} needs the raw sample")


def ci_normal(estimate: FailSafeEstimate, sample: ZSample | None,
              model: Method, level: float = 0.95) -> Interval:
    """Normal-approximation interval centered at the point estimate.

    The variance formula keeps the fail-safe's own one-sided alpha; only the
    interval width uses the two-sided ``level`` quantile.  The lower endpoint
    is reported as computed and may be negative.  ``sample`` may be None
    under a named assumption.
    """
    q = _two_sided_z(level)
    variance = method_variance(model, None if sample is None else sample.z,
                               estimate.k, estimate.alpha)
    half = q * math.sqrt(variance)
    return Interval(estimate.n_r - half, estimate.n_r + half, level,
                    model.describe(), variance)


def bootstrap_nr_draws(z: np.ndarray, replicates: int, z_alpha: float,
                       g: np.random.Generator) -> np.ndarray:
    """Unclamped fail-safe numbers S*^2/Z_a^2 - k of ``replicates`` resamples
    drawn with replacement; callers that want the clamped estimator apply
    ``np.maximum(draws, 0)``.  A resample whose number overflows raises
    DegenerateVarianceError, not a numpy warning.

    Resamples are drawn in blocks of at most ``_RESAMPLE_BLOCK`` indices.
    Successive blocks continue the generator's stream, and ``einsum`` sums
    each row on its own, in one pass over the block, so the draws equal
    those of one (replicates, k) block whatever a row's block or memory
    offset; the temporaries stay small enough for the allocator to reuse
    them instead of mapping fresh pages on every call.  The sums are not the
    bits of numpy's pairwise ``sum(axis=1)``, which makes one inner-loop call
    per row and takes nearly four times as long at k = 15; both lie within
    the rounding-error bound of a k-term sum of the exact one.
    """
    import numpy as np
    k = len(z)
    sums = np.empty(replicates)
    rows = max(1, _RESAMPLE_BLOCK // k)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, replicates, rows):
            idx = g.integers(0, k, size=(min(rows, replicates - lo), k))
            np.einsum("ij->i", z[idx], out=sums[lo:lo + rows])
        draws = raw_nr(sums, k, z_alpha)
    if not np.isfinite(draws).all():
        raise DegenerateVarianceError("a resampled fail-safe number is not finite")
    return draws


def _resample_sd(draws: np.ndarray) -> float:
    """Sample SD of resampled fail-safe numbers, in numpy's two passes: the
    same bits as ``draws.std(ddof=1)`` without its per-call overhead.
    ``draws`` is overwritten.  Callers silence numpy's overflow warnings: an
    overflowing spread raises DegenerateVarianceError here instead."""
    n = len(draws)
    draws -= draws.sum() / n
    draws *= draws
    sd = math.sqrt(draws.sum() / (n - 1))
    if not math.isfinite(sd):
        raise DegenerateVarianceError(
            f"resample standard deviation {sd!r} is not finite")
    return sd


def ci_bootstrap(sample: ZSample, replicates: int, src: RandomSource,
                 level: float = 0.95) -> tuple[Interval, float, float]:
    """Bootstrap interval plus the resample mean and standard error.

    The interval is centered at the observed estimate; boot_mean is reported
    alongside so a percentile variant can be built on the same draws.
    Deterministic under ``src``.

    It resamples in pure Python, so that ``analyze`` loads no numpy:
    resample r takes ``z[int(u() * k)]`` for draws r k to r k + k - 1 of the
    standard library's ``random.Random(master_seed << 64 | stream_id)``,
    whose ``seed(int)`` and ``random()`` give the same stream on every
    version, and not the draws of ``bootstrap_nr_draws``.  Sums are exactly
    rounded (``math.fsum``).  That costs about 0.2 us per drawn index
    (replicates * k; 6 to 9 ms for 1 000 resamples at k = 30 on a 2-core
    x86-64 box under CPython 3.11), some 15 to 25 times what numpy takes
    once it is loaded.
    """
    import random
    if sample.k < 2:
        raise InsufficientDataError("bootstrap needs at least 2 studies")
    method = Method("boot", replicates=replicates)
    q = _two_sided_z(level)
    est = rosenthal_nr(sample)
    u = random.Random(src.master_seed << 64 | src.stream_id).random
    z, k = sample.z, sample.k
    row = range(k)
    try:
        draws = [raw_nr(math.fsum([z[int(u() * k)] for _ in row]), k, est.z_alpha)
                 for _ in range(replicates)]
        draws = [d if d > 0.0 else 0.0 for d in draws]
        boot_mean = math.fsum(draws) / replicates
        boot_se = math.sqrt(math.fsum([(d - boot_mean) ** 2 for d in draws])
                            / (replicates - 1))
    except (OverflowError, ValueError):
        boot_se = math.inf
    if not math.isfinite(boot_se):
        raise DegenerateVarianceError(
            f"resample standard deviation {boot_se!r} is not finite")
    # identical resamples (constant data) must give width exactly zero
    if min(draws) == max(draws):
        boot_se = 0.0
    iv = Interval(est.n_r - q * boot_se, est.n_r + q * boot_se, level,
                  method.describe(), boot_se * boot_se)
    return iv, boot_mean, boot_se


def failsafe_test(estimate: FailSafeEstimate, variance: float) -> TestResult:
    """One-sided test of whether the fail-safe number exceeds 5k+10, given
    the estimator's ``variance``, at the estimate's own one-sided level: the
    critical value is ``estimate.z_alpha``."""
    if not 0.0 < variance < math.inf:
        raise DegenerateVarianceError(
            f"test needs a positive finite variance, got {variance!r}")
    statistic = (estimate.n_r - estimate.rule_threshold) / math.sqrt(variance)
    return TestResult(statistic, estimate.z_alpha, statistic > estimate.z_alpha)


def parse_method(token: str, boot_replicates: int = 1000) -> Method:
    """Inverse of ``Method.describe()``.

    Grammar: ``fixed-dist:ASSUMPTION[:VARIANT]``, ``fixed-mom[:VARIANT]``,
    ``random-dist:ASSUMPTION``, ``random-mom``, ``boot[:REPLICATES]`` where
    ASSUMPTION is std-normal, half-normal or skew-normal(DELTA) with DELTA a
    float in (-1, 1).  A bare ``boot`` resamples ``boot_replicates`` times.
    ``describe()`` writes DELTA back in its shortest round-tripping form, so
    ``skew-normal(0.50)`` reads as ``skew-normal(0.5)``.
    """
    head, *rest = token.strip().split(":")
    fields: dict = {}
    if head.endswith("-dist"):
        if not rest:
            raise DomainError(f"{token!r}: {head} needs an assumption")
        fields["assumption"] = rest.pop(0)
    if head.startswith("fixed-") and rest:
        fields["variant"] = rest.pop(0)
    if head == "boot":
        try:
            fields["replicates"] = int(rest.pop(0)) if rest else boot_replicates
        except ValueError:
            raise DomainError(f"bad replicate count in {token!r}") from None
    method = Method(head, **fields)
    if rest:
        raise DomainError(f"{token!r}: unexpected field {rest[0]!r}")
    return method


def cutoff_table(k_max: int, alpha: float = 0.05,
                 model: Method | None = None) -> list[tuple[int, int]]:
    """Smallest fail-safe numbers that clear the 5k+10 rule at confidence
    1 - alpha, for k = 1..k_max.

    cutoff(k) = round(5k + 10 + Z_a * sd(k)); the default model is
    ``TEST_METHOD``.  ``k_max`` is at most ``CUTOFF_ROWS_MAX``.
    """
    _cutoff_rows(k_max)
    if model is None:
        model = parse_method(TEST_METHOD)
    za = _z_alpha(alpha)
    rows = []
    for k in range(1, k_max + 1):
        variance = method_variance(model, None, k, alpha)
        cut = int(math.floor(5.0 * k + 10.0 + za * math.sqrt(variance) + 0.5))
        rows.append((k, cut))
    return rows


def _cutoff_rows(k_max: int) -> None:
    """Check that ``k_max`` is a study count that ``cutoff_table`` reaches:
    the one check of its bound, ``CUTOFF_ROWS_MAX`` rows."""
    if _study_count(k_max) > CUTOFF_ROWS_MAX:
        raise DomainError(f"the cutoff table has at most {CUTOFF_ROWS_MAX} rows, "
                          f"got k_max={k_max}")
