"""Estimators for the study-effect mean, variance, and study-count rate.

Three routes produce the (mu, sigma2, lambda) triple that every variance
formula consumes: sample moments, a fixed distributional assumption, or a
skew-normal fit by the method of moments.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .distributions import SQRT_2_OVER_PI
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
        for i, v in enumerate(self.z):
            if not math.isfinite(v):
                raise DomainError(f"z[{i}] is not finite: {v!r}")
        if not 0.0 < self.alpha <= 0.5:
            raise DomainError(f"alpha must lie in (0, 0.5], got {self.alpha!r}")

    @property
    def k(self) -> int:
        return len(self.z)


@dataclass(frozen=True)
class ParameterTriple:
    """(mu, sigma2, lambda) with a tag recording how it was obtained.

    provenance is one of 'mom', 'std-normal', 'half-normal',
    'skew-normal-fixed', 'skew-normal-fit'; ``delta`` is set for the two
    skew-normal provenances.
    """

    mu: float
    sigma2: float
    lam: float
    provenance: str
    delta: float | None = None

    def __post_init__(self):
        if self.sigma2 < 0:
            raise DomainError("sigma2 must be nonnegative")
        if not self.lam > 0:
            raise DomainError("lambda must be positive")


def moments_estimate(sample: ZSample) -> ParameterTriple:
    """Method-of-moments triple: population-form mean/variance, lambda = k.

    The fixed- and random-count estimators coincide, so one serves both.
    """
    k = sample.k
    if k < 2:
        raise InsufficientDataError("method of moments needs at least 2 studies")
    mu = math.fsum(sample.z) / k
    # centered two-pass form of mean(z^2) - mean(z)^2: same estimator,
    # no cancellation on near-constant data
    sigma2 = math.fsum((v - mu) ** 2 for v in sample.z) / k
    return ParameterTriple(mu, sigma2, float(k), "mom")


def distributional_params(assumption: str, k: int,
                          delta: float | None = None) -> ParameterTriple:
    """Triple under a named distributional assumption for the deviates."""
    if k < 1:
        raise DomainError("k must be at least 1")
    if assumption == "std-normal":
        return ParameterTriple(0.0, 1.0, float(k), "std-normal")
    if assumption == "half-normal":
        return ParameterTriple(A1, 1.0 - 2.0 / math.pi, float(k), "half-normal")
    if assumption == "skew-normal":
        if delta is None or not -1.0 < delta < 1.0:
            raise DomainError("skew-normal assumption needs delta in (-1, 1)")
        return ParameterTriple(delta * A1, 1.0 - 2.0 * delta * delta / math.pi,
                               float(k), "skew-normal-fixed", delta)
    raise DomainError(f"unknown assumption {assumption!r}")


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
    m1 = math.fsum(sample.z) / k
    m2 = math.fsum((v - m1) ** 2 for v in sample.z) / k
    m3 = math.fsum((v - m1) ** 3 for v in sample.z) / k

    if m3 == 0.0:
        xi, omega2, delta = m1, m2, 0.0
    else:
        r = abs(m3) / B1
        omega2 = m2 - A1 * A1 * r ** (2.0 / 3.0)
        if omega2 <= 0.0:
            raise FitInfeasibleError(
                f"sample skewness too large: implied omega^2 = {omega2:.6g} <= 0",
                m1=m1, m2=m2, m3=m3, omega2=omega2)
        delta = math.copysign(
            (A1 * A1 + m2 * (B1 / abs(m3)) ** (2.0 / 3.0)) ** -0.5, m3)
        if abs(delta) >= 1.0:
            raise FitInfeasibleError(
                f"implied |delta| = {abs(delta):.6g} >= 1",
                m1=m1, m2=m2, m3=m3, omega2=omega2, delta=delta)
        xi = m1 - A1 * math.copysign(r ** (1.0 / 3.0), m3)

    omega = math.sqrt(omega2)
    mu = xi + omega * delta * A1
    sigma2 = omega2 * (1.0 - 2.0 * delta * delta / math.pi)
    triple = ParameterTriple(mu, sigma2, float(k), "skew-normal-fit", delta)
    return SkewNormalFit(xi, omega2, delta, triple)
