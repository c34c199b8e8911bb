"""The study distributions, their moments and samplers, and the standard
normal special functions.

The coverage study draws z-scores from three laws: the standard normal, the
half-normal and the skew normal.  Each spec gives its mean and variance in
closed form, draws from a numpy generator, and names itself (``name``) as
the coverage reports label it; ``_named_law``, the one parser of those
names, reads the standard forms back.  The scalar special functions
(`std_normal_cdf` and friends) are built on the C library's erfc and are
accurate to a few ulp.
"""
from __future__ import annotations

import math
import sys
from functools import lru_cache
from typing import TYPE_CHECKING

from ._record import record
from .errors import DomainError
from .rng import RandomSource

if TYPE_CHECKING:
    import numpy as np

SQRT2 = math.sqrt(2.0)
SQRT_2PI = math.sqrt(2.0 * math.pi)
SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


# ---------------------------------------------------------------------------
# standard normal special functions
# ---------------------------------------------------------------------------

def _not_nan(x: float) -> None:
    if x != x:
        raise DomainError("the standard normal is not defined at nan")


def std_normal_pdf(x: float) -> float:
    _not_nan(x)
    return math.exp(-0.5 * x * x) / SQRT_2PI


def std_normal_cdf(x: float) -> float:
    _not_nan(x)
    # erfc keeps full relative accuracy in the lower tail
    return 0.5 * math.erfc(-x / SQRT2)


def std_normal_sf(x: float) -> float:
    """Upper tail P(X > x), accurate for large x."""
    _not_nan(x)
    return 0.5 * math.erfc(x / SQRT2)


# Rational approximation of the probit function (Acklam), |rel err| < 1.2e-9,
# then one Newton step against the erfc-based CDF.
_PROBIT_A = (-3.969683028665376e+01, 2.209460984245205e+02,
             -2.759285104469687e+02, 1.383577518672690e+02,
             -3.066479806614716e+01, 2.506628277459239e+00)
_PROBIT_B = (-5.447609879822406e+01, 1.615858368580409e+02,
             -1.556989798598866e+02, 6.680131188771972e+01,
             -1.328068155288572e+01)
_PROBIT_C = (-7.784894002430293e-03, -3.223964580411365e-01,
             -2.400758277161838e+00, -2.549732539343734e+00,
             4.374664141464968e+00, 2.938163982698783e+00)
_PROBIT_D = (7.784695709041462e-03, 3.224671290700398e-01,
             2.445134137142996e+00, 3.754408661907416e+00)


def _probit_estimate(p: float) -> float:
    a, b, c, d = _PROBIT_A, _PROBIT_B, _PROBIT_C, _PROBIT_D
    if p < 0.02425:
        q = math.sqrt(-2.0 * math.log(p))
        return (((((c[0]*q + c[1])*q + c[2])*q + c[3])*q + c[4])*q + c[5]) / \
            ((((d[0]*q + d[1])*q + d[2])*q + d[3])*q + 1.0)
    if p > 0.97575:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        return -(((((c[0]*q + c[1])*q + c[2])*q + c[3])*q + c[4])*q + c[5]) / \
            ((((d[0]*q + d[1])*q + d[2])*q + d[3])*q + 1.0)
    q = p - 0.5
    r = q * q
    return (((((a[0]*r + a[1])*r + a[2])*r + a[3])*r + a[4])*r + a[5]) * q / \
        (((((b[0]*r + b[1])*r + b[2])*r + b[3])*r + b[4])*r + 1.0)


def std_normal_quantile(p: float) -> float:
    """Inverse of ``std_normal_cdf`` for p in the open interval (0, 1),
    within 1e-15 relative down to p = 2.2e-308, the smallest normal float.
    Below about 6e-310 the pdf at the estimate is subnormal, so the Newton
    step is skipped: Acklam's estimate is 1.8e-9 off at p = 5e-324."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"quantile requires 0 < p < 1, got {p!r}")
    x = _probit_estimate(p)
    pdf = std_normal_pdf(x)
    if pdf > sys.float_info.min:
        # one Newton step; for p above 1/2 work on the complementary tail to
        # avoid cancellation in cdf(x) - p
        if p <= 0.5:
            x -= (std_normal_cdf(x) - p) / pdf
        else:
            x += (std_normal_sf(x) - (1.0 - p)) / pdf
    return x


@lru_cache
def _z_alpha(alpha: float) -> float:
    """Critical value Z_a, and the one check that alpha lies in (0, 1/2)."""
    za = 0.0
    if 0.0 < alpha < 0.5:  # from the lower tail where 1 - alpha drops alpha's digits
        za = -std_normal_quantile(alpha) if alpha < 1e-3 else std_normal_quantile(1.0 - alpha)
    if not za > 0.0:  # it rounds to 0 an ulp below 1/2 as well
        raise DomainError(f"alpha must lie in (0, 0.5), got {alpha!r}")
    return za


@lru_cache
def _two_sided_z(level: float) -> float:
    """Quantile of a two-sided level, and the one check that it lies in (1/2, 1)."""
    p = 0.5 * (1.0 + level)
    if not (0.5 < level and p < 1.0):  # p rounds to 1 an ulp below 1 as well
        raise DomainError(f"level must lie in (0.5, 1), got {level!r}")
    return std_normal_quantile(p)


# ---------------------------------------------------------------------------
# distribution specs
# ---------------------------------------------------------------------------

@record
class StandardNormal:
    name = "std-normal"

    def moments(self) -> tuple[float, float]:
        return 0.0, 1.0

    def _draw(self, n: int, g: np.random.Generator) -> np.ndarray:
        return g.standard_normal(n)


@record
class HalfNormal:
    """|X| for X ~ N(0, sigma_f^2)."""

    sigma_f: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.sigma_f < math.inf:
            raise DomainError("HalfNormal requires a finite sigma_f > 0")

    @property
    def name(self) -> str:
        return "half-normal" if self.sigma_f == 1.0 else f"half-normal({self.sigma_f!r})"

    def moments(self) -> tuple[float, float]:
        s2 = self.sigma_f * self.sigma_f
        return self.sigma_f * SQRT_2_OVER_PI, s2 * (1.0 - 2.0 / math.pi)

    def _draw(self, n, g):
        return abs(g.normal(0.0, self.sigma_f, n))


@record
class SkewNormal:
    """Skew normal with location xi, scale omega, and delta in (-1, 1).

    delta relates to the usual shape parameter by alpha = delta/sqrt(1-delta^2).
    """

    xi: float
    omega: float
    delta: float

    def __post_init__(self):
        if not math.isfinite(self.xi):
            raise DomainError("SkewNormal requires a finite xi")
        if not 0.0 < self.omega < math.inf:
            raise DomainError("SkewNormal requires a finite omega > 0")
        if not -1.0 < self.delta < 1.0:
            raise DomainError(
                f"skew-normal delta must lie in (-1, 1), got {self.delta!r}")

    @property
    def name(self) -> str:
        """``skew-normal(DELTA)`` for the standard law; any other location and
        scale are written in front, as ``XI+OMEGA*skew-normal(DELTA)``."""
        name = f"skew-normal({self.delta!r})"
        if (self.xi, self.omega) == (0.0, 1.0):
            return name
        return f"{self.xi!r}+{self.omega!r}*{name}"

    def moments(self) -> tuple[float, float]:
        mean = self.xi + self.omega * self.delta * SQRT_2_OVER_PI
        try:
            var = self.omega ** 2 * (1.0 - 2.0 * self.delta * self.delta / math.pi)
        except OverflowError:
            # float ** raises where * would give inf
            var = math.inf
        return mean, var

    def _draw(self, n, g):
        # conditioning representation: delta*|U0| + sqrt(1-delta^2)*U1
        u0 = g.standard_normal(n)
        u1 = g.standard_normal(n)
        d = self.delta
        return self.xi + self.omega * (d * abs(u0) + math.sqrt(1.0 - d * d) * u1)


DistributionSpec = StandardNormal | HalfNormal | SkewNormal


def sample(spec: DistributionSpec, n: int,
           src: RandomSource | np.random.Generator) -> np.ndarray:
    """Draw ``n`` values from ``spec``; deterministic under a fixed source."""
    if n < 0:
        raise DomainError("sample size must be nonnegative")
    g = src.generator() if isinstance(src, RandomSource) else src
    return spec._draw(n, g)


def _named_law(name: str) -> DistributionSpec:
    """The standard-form law named ``name``: ``std-normal``, ``half-normal``
    or ``skew-normal(DELTA)``, the inverse of each such spec's ``name``.  The
    name of a law with any other location or scale is a DomainError."""
    if name == "std-normal":
        return StandardNormal()
    if name == "half-normal":
        return HalfNormal()
    if str(name).startswith("skew-normal(") and name.endswith(")"):
        try:
            delta = float(name[len("skew-normal("):-1])
        except ValueError:
            raise DomainError(f"bad delta in {name!r}") from None
        return SkewNormal(0.0, 1.0, delta)
    raise DomainError(f"unknown assumption {name!r}")
