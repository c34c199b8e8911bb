"""Normal-family distributions, special functions, moments, and samplers.

Scalar special functions (`std_normal_cdf` and friends) are built on the C
library's erfc and are accurate to a few ulp.  The three vectorized
functions that need ``ndtr``, ``ndtri`` or ``gammaln`` (`SkewNormal.pdf`,
`TruncatedNormal` sampling and `Poisson.pmf`) import scipy.special when
called, so importing the package does not load scipy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .rng import RandomSource

SQRT2 = math.sqrt(2.0)
SQRT_2PI = math.sqrt(2.0 * math.pi)
SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


# ---------------------------------------------------------------------------
# standard normal special functions
# ---------------------------------------------------------------------------

def std_normal_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / SQRT_2PI


def std_normal_cdf(x: float) -> float:
    # erfc keeps full relative accuracy in the lower tail
    return 0.5 * math.erfc(-x / SQRT2)


def std_normal_sf(x: float) -> float:
    """Upper tail P(X > x), accurate for large x."""
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
    """Inverse of ``std_normal_cdf`` for p in the open interval (0, 1)."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"quantile requires 0 < p < 1, got {p!r}")
    x = _probit_estimate(p)
    pdf = std_normal_pdf(x)
    if pdf > 1e-280:
        # one Newton step; for p above 1/2 work on the complementary tail to
        # avoid cancellation in cdf(x) - p
        if p <= 0.5:
            x -= (std_normal_cdf(x) - p) / pdf
        else:
            x += (std_normal_sf(x) - (1.0 - p)) / pdf
    return x


# ---------------------------------------------------------------------------
# distribution specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StandardNormal:
    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.exp(-0.5 * x * x) / SQRT_2PI

    def moments(self) -> tuple[float, float]:
        return 0.0, 1.0

    def _draw(self, n: int, g: np.random.Generator) -> np.ndarray:
        return g.standard_normal(n)


@dataclass(frozen=True)
class Normal:
    mean: float
    variance: float

    def __post_init__(self):
        if not self.variance > 0:
            raise DomainError("Normal requires variance > 0")

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        sd = math.sqrt(self.variance)
        return np.exp(-0.5 * ((x - self.mean) / sd) ** 2) / (sd * SQRT_2PI)

    def moments(self) -> tuple[float, float]:
        return self.mean, self.variance

    def _draw(self, n, g):
        return g.normal(self.mean, math.sqrt(self.variance), n)


@dataclass(frozen=True)
class FoldedNormal:
    """|X| for X ~ N(mu_f, sigma_f^2)."""

    mu_f: float
    sigma_f: float

    def __post_init__(self):
        if not self.sigma_f > 0:
            raise DomainError("FoldedNormal requires sigma_f > 0")

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        s = self.sigma_f
        a = np.exp(-0.5 * ((-x - self.mu_f) / s) ** 2)
        b = np.exp(-0.5 * ((x - self.mu_f) / s) ** 2)
        out = (a + b) / (s * SQRT_2PI)
        return np.where(x >= 0, out, 0.0)

    def moments(self) -> tuple[float, float]:
        return folded_normal_moments(self.mu_f, self.sigma_f)

    def _draw(self, n, g):
        return np.abs(g.normal(self.mu_f, self.sigma_f, n))


@dataclass(frozen=True)
class HalfNormal:
    """|X| for X ~ N(0, sigma_f^2); the zero-mean folded normal."""

    sigma_f: float = 1.0

    def __post_init__(self):
        if not self.sigma_f > 0:
            raise DomainError("HalfNormal requires sigma_f > 0")

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        s = self.sigma_f
        out = SQRT2 / (s * math.sqrt(math.pi)) * np.exp(-0.5 * (x / s) ** 2)
        return np.where(x >= 0, out, 0.0)

    def moments(self) -> tuple[float, float]:
        s2 = self.sigma_f * self.sigma_f
        return self.sigma_f * SQRT_2_OVER_PI, s2 * (1.0 - 2.0 / math.pi)

    def _draw(self, n, g):
        return np.abs(g.normal(0.0, self.sigma_f, n))


@dataclass(frozen=True)
class SkewNormal:
    """Skew normal with location xi, scale omega, and delta in (-1, 1).

    delta relates to the usual shape parameter by alpha = delta/sqrt(1-delta^2).
    """

    xi: float
    omega: float
    delta: float

    def __post_init__(self):
        if not self.omega > 0:
            raise DomainError("SkewNormal requires omega > 0")
        if not -1.0 < self.delta < 1.0:
            raise DomainError("SkewNormal requires |delta| < 1")

    @property
    def alpha_shape(self) -> float:
        return self.delta / math.sqrt(1.0 - self.delta * self.delta)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        t = (x - self.xi) / self.omega
        base = np.exp(-0.5 * t * t) / SQRT_2PI
        from scipy.special import ndtr
        return (2.0 / self.omega) * base * ndtr(self.alpha_shape * t)

    def moments(self) -> tuple[float, float]:
        mean = self.xi + self.omega * self.delta * SQRT_2_OVER_PI
        var = self.omega ** 2 * (1.0 - 2.0 * self.delta * self.delta / math.pi)
        return mean, var

    def _draw(self, n, g):
        # conditioning representation: delta*|U0| + sqrt(1-delta^2)*U1
        u0 = g.standard_normal(n)
        u1 = g.standard_normal(n)
        d = self.delta
        return self.xi + self.omega * (d * np.abs(u0) + math.sqrt(1.0 - d * d) * u1)


@dataclass(frozen=True)
class TruncatedNormal:
    """N(mu_t, sigma_t^2) conditioned on lower < X < upper."""

    mu_t: float
    sigma_t: float
    lower: float = -math.inf
    upper: float = math.inf

    def __post_init__(self):
        if not self.sigma_t > 0:
            raise DomainError("TruncatedNormal requires sigma_t > 0")
        if not self.lower < self.upper:
            raise DomainError("TruncatedNormal requires lower < upper")

    def _std_bounds(self) -> tuple[float, float]:
        a = (self.lower - self.mu_t) / self.sigma_t
        b = (self.upper - self.mu_t) / self.sigma_t
        return a, b

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        a, b = self._std_bounds()
        mass = std_normal_cdf(b) - std_normal_cdf(a)
        t = (x - self.mu_t) / self.sigma_t
        out = np.exp(-0.5 * t * t) / (self.sigma_t * SQRT_2PI * mass)
        return np.where((x >= self.lower) & (x <= self.upper), out, 0.0)

    def moments(self) -> tuple[float, float]:
        a, b = self._std_bounds()
        mass = std_normal_cdf(b) - std_normal_cdf(a)
        pa = 0.0 if math.isinf(a) else std_normal_pdf(a)
        pb = 0.0 if math.isinf(b) else std_normal_pdf(b)
        apa = 0.0 if math.isinf(a) else a * pa
        bpb = 0.0 if math.isinf(b) else b * pb
        m = (pa - pb) / mass
        mean = self.mu_t + self.sigma_t * m
        var = self.sigma_t ** 2 * (1.0 + (apa - bpb) / mass - m * m)
        return mean, var

    def _draw(self, n, g):
        # inverse-CDF on the truncated region: exact bounds, no rejection
        a, b = self._std_bounds()
        pa = std_normal_cdf(a)
        pb = std_normal_cdf(b)
        u = g.random(n)
        from scipy.special import ndtri
        x = self.mu_t + self.sigma_t * ndtri(pa + u * (pb - pa))
        return np.clip(x, self.lower, self.upper)


@dataclass(frozen=True)
class Poisson:
    lam: float

    def __post_init__(self):
        if not self.lam > 0:
            raise DomainError("Poisson requires lambda > 0")

    def pmf(self, k):
        k = np.asarray(k, dtype=float)
        from scipy.special import gammaln
        return np.exp(k * math.log(self.lam) - self.lam - gammaln(k + 1.0))

    def moments(self) -> tuple[float, float]:
        return self.lam, self.lam

    def _draw(self, n, g):
        return g.poisson(self.lam, n).astype(float)


DistributionSpec = (
    StandardNormal | Normal | FoldedNormal | HalfNormal
    | SkewNormal | TruncatedNormal | Poisson
)


def sample(spec, n: int, src: RandomSource | np.random.Generator) -> np.ndarray:
    """Draw ``n`` values from ``spec``; deterministic under a fixed source."""
    if n < 0:
        raise DomainError("sample size must be nonnegative")
    g = src.generator() if isinstance(src, RandomSource) else src
    return spec._draw(n, g)


# ---------------------------------------------------------------------------
# closed-form moments
# ---------------------------------------------------------------------------

def folded_normal_moments(mu_f: float, sigma_f: float) -> tuple[float, float]:
    """Mean and variance of |X| for X ~ N(mu_f, sigma_f^2)."""
    if not sigma_f > 0:
        raise DomainError("sigma_f must be positive")
    mean = sigma_f * SQRT_2_OVER_PI * math.exp(-mu_f**2 / (2.0 * sigma_f**2)) \
        + mu_f * (1.0 - 2.0 * std_normal_cdf(-mu_f / sigma_f))
    var = mu_f**2 + sigma_f**2 - mean**2
    return mean, max(var, 0.0)


def normal_raw_moment(order: int, mean: float, variance: float) -> float:
    """E[X^order] for X ~ N(mean, variance), order 1..5."""
    if not variance > 0:
        raise DomainError("variance must be positive")
    m, v = mean, variance
    if order == 1:
        return m
    if order == 2:
        return m*m + v
    if order == 3:
        return m**3 + 3.0*m*v
    if order == 4:
        return m**4 + 6.0*m*m*v + 3.0*v*v
    if order == 5:
        return m**5 + 10.0*m**3*v + 15.0*m*v*v
    raise DomainError(f"normal raw moment of order {order} not supported")


def poisson_raw_moment(order: int, lam: float) -> float:
    """E[K^order] for K ~ Poisson(lam), order 1..4."""
    if not lam > 0:
        raise DomainError("lambda must be positive")
    if order == 1:
        return lam
    if order == 2:
        return lam + lam**2
    if order == 3:
        return lam + 3.0*lam**2 + lam**3
    if order == 4:
        return lam + 7.0*lam**2 + 6.0*lam**3 + lam**4
    raise DomainError(f"poisson raw moment of order {order} not supported")
