"""Estimators for the study-effect mean, variance, and study-count rate.

Two routes give the mean and variance of the study z-scores that the
variance formulas take as floats: the sample's own moments (``_mean_var``),
or the moments of a study law assumed by name.  ``ParameterTriple`` adds the
study-count rate, for ``true_nr``.
"""
from __future__ import annotations

import math
import sys

from ._record import record
from .distributions import _named_law, _z_alpha
from .errors import DomainError, InsufficientDataError


@record
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


@record
class ParameterTriple:
    """The mean ``mu`` and variance ``sigma2`` of the per-study z-scores and
    the study-count rate ``lam``, as ``true_nr`` and ``moments_fixed_table``
    take them."""

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
