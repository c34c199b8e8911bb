"""Estimators for the study-effect mean, variance, and study-count rate.

Three routes produce the (mu, sigma2, lambda) triple that every variance
formula consumes: sample moments, a fixed distributional assumption, or a
skew-normal fit by the method of moments.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .distributions import SQRT_2_OVER_PI, SkewNormal, _named_law, _z_alpha
from .errors import DomainError, FitInfeasibleError, InsufficientDataError

# method-of-moments constants for the skew normal
A1 = SQRT_2_OVER_PI
B1 = (4.0 / math.pi - 1.0) * A1


@dataclass(frozen=True)
class ZSample:
    """Per-study standard normal deviates plus the one-sided alpha level."""

    z: tuple[float, ...]
    alpha: float = 0.05

    def __post_init__(self):
        object.__setattr__(self, "z", tuple(float(v) for v in self.z))
        if not self.z:
            raise InsufficientDataError("a sample needs at least one study")
        for i, v in enumerate(self.z):
            if not math.isfinite(v):
                raise DomainError(f"z[{i}] is not finite: {v!r}")
        _z_alpha(self.alpha)

    @property
    def k(self) -> int:
        return len(self.z)


@dataclass(frozen=True)
class ParameterTriple:
    """The mean ``mu`` and variance ``sigma2`` of the per-study z-scores and
    the study-count rate ``lam`` that every moment formula takes."""

    mu: float
    sigma2: float
    lam: float

    def __post_init__(self):
        if not (math.isfinite(self.mu) and 0.0 <= self.sigma2 < math.inf
                and 0.0 < self.lam < math.inf):
            raise DomainError(f"{self} is not finite, or has sigma2 < 0 or lam <= 0")


def _study_count(k: int) -> int:
    """``k``, a study count: the one check that it is a whole number >= 1
    within the float range."""
    if not (isinstance(k, int) and 1 <= k <= sys.float_info.max):
        # (the repr of an int of thousands of digits raises)
        got = "an int past the float range" if isinstance(k, int) and k > 1 else repr(k)
        raise DomainError(f"k must be at least 1 and whole, got {got}")
    return k


def _mean_var(z) -> tuple[float, float]:
    """Population-form mean and variance of the values in ``z``, by fsum and
    the centred two-pass form of mean(z^2) - mean(z)^2: the same estimator,
    without cancellation on near-constant data.  The variance is inf where
    a square or a partial sum passes the float range (float ``**`` and
    ``fsum`` raise there, while ``+`` and ``*`` give inf), and also where
    ``z`` holds both infinities.  Needs at least two values."""
    k = len(z)
    if k < 2:
        raise InsufficientDataError("method of moments needs at least 2 studies")
    try:
        mu = math.fsum(z) / k
        return mu, math.fsum([(v - mu) ** 2 for v in z]) / k
    except (OverflowError, ValueError):
        # fsum raises ValueError on inf + -inf
        return sum(z) / k, math.inf


def moments_estimate(sample: ZSample) -> ParameterTriple:
    """Method-of-moments triple: population-form mean/variance, lambda = k.

    The fixed- and random-count estimators coincide, so one serves both.
    """
    mu, sigma2 = _mean_var(sample.z)
    return ParameterTriple(mu, sigma2, float(sample.k))


def distributional_params(assumption: str, k: int) -> ParameterTriple:
    """Triple under the study law named ``assumption`` (see ``_named_law``)."""
    return ParameterTriple(*_named_law(assumption).moments(), float(_study_count(k)))


@dataclass(frozen=True)
class SkewNormalFit:
    xi: float
    omega2: float
    delta: float
    triple: ParameterTriple


def skew_normal_mom_fit(sample: ZSample) -> SkewNormalFit:
    """Method-of-moments skew-normal fit from the first three sample moments.

    The sign of delta follows the sign of the third central moment.  Raises
    FitInfeasibleError when the implied scale is nonpositive or |delta| >= 1,
    carrying the intermediates for diagnosis.
    """
    k = sample.k
    if k < 3:
        raise InsufficientDataError("skew-normal fit needs at least 3 studies")
    m1, m2 = _mean_var(sample.z)
    try:
        m3 = math.fsum((v - m1) ** 3 for v in sample.z) / k
    except OverflowError:
        raise FitInfeasibleError("third sample moment overflows",
                                 m1=m1, m2=m2, m3=math.nan) from None

    if m3 == 0.0:
        xi, omega2, delta = m1, m2, 0.0
    else:
        r = abs(m3) / B1
        omega2 = m2 - A1 * A1 * r ** (2.0 / 3.0)
        delta = math.copysign(
            (A1 * A1 + m2 * (B1 / abs(m3)) ** (2.0 / 3.0)) ** -0.5, m3)
        xi = m1 - A1 * math.copysign(r ** (1.0 / 3.0), m3)
    # a constant sample leaves omega^2 = 0 without any skewness; infinite
    # moments leave it nan
    if not omega2 > 0.0:
        raise FitInfeasibleError(
            f"implied omega^2 = {omega2:.6g} <= 0", m1=m1, m2=m2, m3=m3, omega2=omega2)
    if not abs(delta) < 1.0:
        raise FitInfeasibleError(
            f"implied |delta| = {abs(delta):.6g} >= 1",
            m1=m1, m2=m2, m3=m3, omega2=omega2, delta=delta)

    mu, sigma2 = SkewNormal(xi, math.sqrt(omega2), delta).moments()
    return SkewNormalFit(xi, omega2, delta, ParameterTriple(mu, sigma2, float(k)))
