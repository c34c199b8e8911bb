"""The fail-safe estimator, its sampling distribution, and its moments.

The estimator for k pooled studies is N = S^2/Z_a^2 - k with S the sum of the
per-study z-scores and Z_a the one-sided critical value.  Under a large-k
normal approximation for S, conditioning on N >= 0 makes S a normal truncated
at Z_a sqrt(k).  Its standardized excess W over that point gives the exact
moments for a fixed study count, beside the large-k ones; Poisson counts have
large-k moments of their own.  ``_truncation`` alone evaluates W's law, by a
continued fraction below l* = -4.
"""
from __future__ import annotations

import math

from ._record import record
from .distributions import _z_alpha, std_normal_cdf, std_normal_pdf
from .errors import BelowThresholdError, DegenerateVarianceError, DomainError
from .estimators import ParameterTriple, ZSample, _study_count


@record
class FailSafeEstimate:
    """Point estimate of the fail-safe number for one meta-analysis.

    ``n_r`` is clamped at zero only when the raw value is negative; a sum of
    z-scores below the one-sided threshold (including large negative sums)
    sets ``below_threshold`` without further adjustment, since the estimator
    squares the sum.
    """

    n_r: float
    k: int
    sum_z: float
    stouffer_z: float
    alpha: float
    z_alpha: float
    below_threshold: bool
    rule_threshold: float   # 5k + 10
    rule_exceeded: bool


def raw_nr(sum_z, k: int, z_alpha: float):
    """The estimator S^2/Z_a^2 - k before clamping at zero, for a z-sum given
    as a float or as an array of sums."""
    return sum_z * sum_z / (z_alpha * z_alpha) - k


def _finite_raw_nr(sum_z: float, k: int, z_alpha: float) -> float:
    """``raw_nr`` of one z-sum; raises DomainError where it is not finite."""
    raw = raw_nr(sum_z, k, z_alpha)
    if not math.isfinite(raw):
        raise DomainError(f"fail-safe number overflows for a z-sum of {sum_z!r}")
    return raw


def _z_sum(z: tuple[float, ...]) -> float:
    """``fsum``, or the built-in sum's inf or nan where ``fsum`` overflows."""
    try:
        return math.fsum(z)
    except OverflowError:
        return sum(z)


def rosenthal_nr(sample: ZSample) -> FailSafeEstimate:
    """Fail-safe number with the 5k+10 rule-of-thumb comparison."""
    k = sample.k
    z_alpha = _z_alpha(sample.alpha)
    s = _z_sum(sample.z)
    raw = _finite_raw_nr(s, k, z_alpha)
    n_r = raw if raw > 0.0 else 0.0
    below = s < z_alpha * math.sqrt(k)
    rule = 5.0 * k + 10.0
    return FailSafeEstimate(
        n_r=n_r, k=k, sum_z=s, stouffer_z=s / math.sqrt(k),
        alpha=sample.alpha, z_alpha=z_alpha, below_threshold=below,
        rule_threshold=rule, rule_exceeded=n_r > rule)


def iyengar_greenhouse_n(sample: ZSample) -> float:
    """Unpublished-study count when missing studies average the truncated
    normal mean M(alpha) = -phi(z_a)/Phi(z_a) instead of zero.

    Solves Z_a*sqrt(n+k) = sum(z) + n*M(alpha).  With u = sqrt(n+k) that is
    the quadratic M*u^2 - Z_a*u + (S - k*M) = 0; since M < 0 < S - k*M it has
    exactly one positive root, taken in the rationalized form

        u = 2(S - kM) / (Z_a + sqrt(Z_a^2 - 4MS + 4kM^2)),

    which has no cancellation, and n = u^2 - k.
    """
    k = sample.k
    z_alpha = _z_alpha(sample.alpha)
    s = _z_sum(sample.z)
    if s < z_alpha * math.sqrt(k):
        raise BelowThresholdError(
            "combined z below the significance threshold; no studies are "
            "needed to nullify the result")
    m = -_truncation(z_alpha)[0]
    u = 2.0 * (s - k * m) / (
        z_alpha + math.sqrt(z_alpha * z_alpha - 4.0 * m * s + 4.0 * k * m * m))
    n = u * u - k
    if not math.isfinite(n):
        raise DomainError(f"unpublished-study count overflows for a z-sum of {s!r}")
    # at the threshold itself rounding can leave u^2 a hair below k
    return max(n, 0.0)


# ---------------------------------------------------------------------------
# moments of the estimator
# ---------------------------------------------------------------------------

def _lambda_star(mu: float, sigma: float, k: float, za: float) -> float:
    return (math.sqrt(k) * mu - za) / sigma


_FRACTION_BELOW, _FRACTION_TERMS = -4.0, 80  # full precision from x = 4 on


def _truncation(lam: float) -> tuple[float, float, float, float, float]:
    """h = phi(l)/Phi(l) and rho_n = E[W^n]/E[W^(n-1)], n = 1..4, for the
    excess W = Y - x >= 0 of a standard normal Y >= x = -l.  As E[W^(n+1)] =
    n E[W^(n-1)] + l E[W^n], rho_1 = h + l and rho_(n+1) = n/rho_n + l, run
    forward from phi/Phi (rho_4 within ~1e-11); below _FRACTION_BELOW, where
    h + l cancels, Laplace's continued fraction runs it backward without a
    subtraction: rho_n = n/(x + rho_(n+1)) and h = x + rho_1."""
    if lam >= _FRACTION_BELOW:
        h = std_normal_pdf(lam) / std_normal_cdf(lam)
        r1 = h + lam
        r2 = 1.0 / r1 + lam
        r3 = 2.0 / r2 + lam
        return h, r1, r2, r3, 3.0 / r3 + lam
    x, rho = -lam, [0.0]
    for n in range(_FRACTION_TERMS, 0, -1):
        rho.append(n / (x + rho[-1]))
    return (x + rho[-1], *rho[:-5:-1])


def _fixed_expectation(mu: float, s2: float, k: int, za: float) -> float:
    k = float(k)  # an int's k * k can pass the float range and not convert
    return (k * k * mu * mu + k * s2) / za**2 - k


def _random_expectation(mu: float, s2: float, lam: float, za: float) -> float:
    m2 = mu * mu
    return (lam * lam * m2 + lam * (m2 + s2)) / za**2 - lam


def _moments_fixed(mu: float, s2: float, k: int, alpha: float,
                   variant: str) -> tuple[float, float]:
    """Fixed-k (expectation, variance): the large-k pair, or those of the
    truncated law.

    With sigma = sqrt(k) s, c = Z_a sqrt(k) and S = c + sigma W, W the excess
    of ``_truncation`` (switching at l* = -4), N = (sigma^2 W^2 + 2 c sigma
    W)/Z_a^2.  So 'exact' and 'table' have the mean, and 'exact' the variance,
    in positive sums of W's moment ratios:

        E = (sigma^2 rho1 rho2 + 2 c sigma rho1) / Z_a^2,
        V = (sigma^4 rho1 rho2 (rho3 rho4 - rho1 rho2) + 4 c sigma^3 rho1 rho2
             (rho3 - rho1) + 4 c^2 sigma^2 rho1 (rho2 - rho1)) / Z_a^4.

    'table' adds to V_largek the correction that reproduces the reference
    cutoff table.  Where h underflows to 0 every variant gives the large-k
    pair.  Raises DegenerateVarianceError where the expectation, the
    variance or lambda* is not finite.
    """
    if not s2 > 0:
        raise DegenerateVarianceError("sigma2 must be positive")
    za = _z_alpha(alpha)
    s = math.sqrt(s2)
    lam = _lambda_star(mu, s, _study_count(k), za)
    v = 2.0 * k * k * s2 * (2.0 * k * mu * mu + s2) / za**4
    h, r1, r2, r3, r4 = (0.0,) * 5 if variant == "largek" else _truncation(lam)
    if h == 0.0:
        mean, var = _fixed_expectation(mu, s2, k, za), v
    else:
        sk = math.sqrt(k)
        sig, c = sk * s, za * sk
        mean = sig * r1 * (sig * r2 + 2.0 * c) / za**2
        if variant == "exact":
            var = sig * sig * r1 * (sig * sig * r2 * (r3 * r4 - r1 * r2)
                                    + 4.0 * c * sig * r2 * (r3 - r1)
                                    + 4.0 * c * c * (r2 - r1)) / za**4
        else:
            try:
                var = v + h * (k**2.5 * s**3 * (5.0 * sk * mu + za) ** 2
                               - r1 * k**2 * s2 * (sk * mu + za) ** 2) / za**4
            except OverflowError:  # float ** raises where * would give inf
                var = math.inf
    if not (math.isfinite(mean) and math.isfinite(var)):
        raise DegenerateVarianceError(
            f"fixed-{variant} moments are not finite: expectation {mean:.6g}, "
            f"variance {var:.6g}")
    if not math.isfinite(lam):
        raise DegenerateVarianceError(
            f"fixed-{variant} truncation point is not finite: lambda* {lam:.6g}")
    return mean, var


def moments_fixed_table(params: ParameterTriple, k: int,
                        alpha: float) -> tuple[float, float]:
    """Fixed-k (expectation, variance) with the correction that reproduces
    the cutoff table."""
    return _moments_fixed(params.mu, params.sigma2, k, alpha, "table")


def random_variance(mu: float, s2: float, lam: float, za: float) -> float:
    """Variance of the estimator under Poisson(lam) counts, from plain floats
    and the critical value ``za``; ``method_variance`` checks that it is
    finite.  Returns inf where a power of ``lam`` passes the float range
    (float ``**`` raises there)."""
    if not s2 > 0:
        raise DegenerateVarianceError("sigma2 must be positive")
    m2, s4 = mu * mu, s2 * s2
    try:
        l2, l3 = lam**2, lam**3
        return ((4*l3 + 6*l2 + lam) * m2 * m2
                + (4*l3 + 16*l2 + 6*lam) * m2 * s2
                + (2*l2 + 3*lam) * s4) / za**4 \
            - 2.0 * ((2*l2 + lam) * m2 + lam * s2) / za**2 + lam
    except OverflowError:
        return math.inf


def true_nr(params: ParameterTriple, k_model: str, alpha: float,
            k: int | None = None) -> float:
    """Population value of the estimator, the target of coverage scoring:
    the large-k expectation for a fixed count, the Poisson one for a random
    count.  Raises DegenerateVarianceError where it is not finite; the
    variance, which it does not need, may overflow."""
    za = _z_alpha(alpha)
    if k_model == "fixed":
        e = _fixed_expectation(params.mu, params.sigma2, _study_count(k), za)
    elif k_model == "random":
        e = _random_expectation(params.mu, params.sigma2, params.lam, za)
    else:
        raise DomainError(f"unknown k_model {k_model!r}")
    if not math.isfinite(e):
        raise DegenerateVarianceError(
            f"{k_model}-count population value is not finite: {e:.6g}")
    return e

