"""The fail-safe estimator, its sampling distribution, and its moments.

The estimator for k pooled studies is N = S^2/Z_a^2 - k with S the sum of the
per-study z-scores and Z_a the one-sided critical value.  Under a large-k
normal approximation for S, conditioning on N >= 0 makes S a lower-truncated
normal, which yields a closed-form density plus exact and asymptotic moment
formulas, for both fixed and Poisson-distributed study counts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .distributions import _z_alpha, std_normal_cdf, std_normal_pdf
from .errors import BelowThresholdError, DegenerateVarianceError, DomainError
from .estimators import ParameterTriple, ZSample, _study_count


@dataclass(frozen=True)
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


def rosenthal_nr(sample: ZSample) -> FailSafeEstimate:
    """Fail-safe number with the 5k+10 rule-of-thumb comparison."""
    k = sample.k
    z_alpha = _z_alpha(sample.alpha)
    s = sum(sample.z)
    raw = _finite_raw_nr(s, k, z_alpha)
    n_r = raw if raw > 0.0 else 0.0
    below = s < z_alpha * math.sqrt(k)
    rule = 5.0 * k + 10.0
    return FailSafeEstimate(
        n_r=n_r, k=k, sum_z=s, stouffer_z=s / math.sqrt(k),
        alpha=sample.alpha, z_alpha=z_alpha, below_threshold=below,
        rule_threshold=rule, rule_exceeded=n_r > rule)


def invert_nr(n_r: float, k: int, alpha: float) -> float:
    """Sum of z-scores that reproduces a given fail-safe number."""
    if not 0.0 <= n_r < math.inf:
        raise DomainError(f"n_r must be finite and nonnegative, got {n_r!r}")
    return _z_alpha(alpha) * math.sqrt(n_r + _study_count(k))


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
    s = sum(sample.z)
    if s < z_alpha * math.sqrt(k):
        raise BelowThresholdError(
            "combined z below the significance threshold; no studies are "
            "needed to nullify the result")
    m = -std_normal_pdf(z_alpha) / std_normal_cdf(z_alpha)
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

@dataclass(frozen=True)
class MomentReport:
    """Expectation and variance of the estimator under one model.

    ``lambda_star`` is the standardized distance of the truncation point,
    ``epsilon`` the truncation correction to the mean, and ``delta_star``
    the correction to the variance; the large-k and random-count formulas
    leave the fields they do not use as None.  Raises
    DegenerateVarianceError when the expectation or the variance is not
    finite.
    """

    expectation: float
    variance: float
    formula_tag: str
    lambda_star: float | None = None
    epsilon: float | None = None
    delta_star: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.expectation) and math.isfinite(self.variance)):
            raise DegenerateVarianceError(
                f"{self.formula_tag} moments are not finite: expectation "
                f"{self.expectation:.6g}, variance {self.variance:.6g}")


def _lambda_star(mu: float, sigma: float, k: float, za: float) -> float:
    return (math.sqrt(k) * mu - za) / sigma


def _hazard(lam_star: float) -> float:
    # phi(l)/Phi(l); switch to the asymptotic tail ratio when Phi underflows
    c = std_normal_cdf(lam_star)
    if c > 0.0:
        return std_normal_pdf(lam_star) / c
    return -lam_star


def _fixed_expectation(mu: float, s2: float, k: int, za: float) -> float:
    return (k * k * mu * mu + k * s2) / za**2 - k


def _random_expectation(mu: float, s2: float, lam: float, za: float) -> float:
    m2 = mu * mu
    return (lam * lam * m2 + lam * (m2 + s2)) / za**2 - lam


def _moments_fixed(mu: float, s2: float, k: int, alpha: float,
                   variant: str) -> MomentReport:
    """Fixed-k moments: the large-k pair, to which the 'exact' and 'table'
    variants add epsilon = h k s (sqrt(k) mu + Z_a) / Z_a^2 to the mean and
    delta* to the variance, with h = phi(l*)/Phi(l*).

    'exact' takes delta* from the second cumulant-generating-function
    derivative of the truncated law,

        delta* = h * [k^2 s^3 (3 sqrt(k) mu + Z_a)
                      - (h + l*) k^2 s^2 (sqrt(k) mu + Z_a)^2] / Z_a^4,

    which quadrature and Monte Carlo over the density confirm; printed
    variants circulate with other powers of k and do not integrate
    consistently.  'table' takes the correction that reproduces the
    reference cutoff table, larger at small k and vanishing with it:

        delta* = h * [k^{5/2} s^3 (5 sqrt(k) mu + Z_a)^2
                      - (h + l*) k^2 s^2 (sqrt(k) mu + Z_a)^2] / Z_a^4
    """
    if not s2 > 0:
        raise DegenerateVarianceError("sigma2 must be positive")
    za = _z_alpha(alpha)
    s = math.sqrt(s2)
    lam = _lambda_star(mu, s, k, za)
    e = _fixed_expectation(mu, s2, k, za)
    v = 2.0 * k * k * s2 * (2.0 * k * mu * mu + s2) / za**4
    if variant == "largek":
        return MomentReport(e, v, "fixed-largek", lambda_star=lam,
                            epsilon=0.0, delta_star=0.0)
    h = _hazard(lam)
    sk = math.sqrt(k)
    dp = k * s * (sk * mu + za) / za**2
    eps = h * dp
    try:
        s3 = s ** 3
        if variant == "exact":
            dpp = k * k * s3 * (3.0 * sk * mu + za) / za**4
            d_star = h * (dpp - (h + lam) * dp * dp)
        else:
            d_star = h * (k**2.5 * s3 * (5.0 * sk * mu + za) ** 2
                          - (h + lam) * k**2 * s2 * (sk * mu + za) ** 2) / za**4
    except OverflowError:
        # float ** raises where * would give inf
        raise DegenerateVarianceError(
            f"fixed-{variant} moments are not finite: a power overflows") from None
    return MomentReport(e + eps, v + d_star, f"fixed-{variant}", lambda_star=lam,
                        epsilon=eps, delta_star=d_star)


def moments_fixed_largek(params: ParameterTriple, k: int, alpha: float) -> MomentReport:
    """Asymptotic moments, valid once the truncated mass is negligible."""
    return _moments_fixed(params.mu, params.sigma2, k, alpha, "largek")


def moments_fixed_exact(params: ParameterTriple, k: int, alpha: float) -> MomentReport:
    """Moments of the truncated sampling distribution for fixed k."""
    return _moments_fixed(params.mu, params.sigma2, k, alpha, "exact")


def moments_fixed_table(params: ParameterTriple, k: int, alpha: float) -> MomentReport:
    """Fixed-k moments with the correction that reproduces the cutoff table."""
    return _moments_fixed(params.mu, params.sigma2, k, alpha, "table")


def moments_random(params: ParameterTriple, alpha: float) -> MomentReport:
    """Moments when the study count is Poisson with rate ``params.lam``."""
    za = _z_alpha(alpha)
    mu, s2, lam = params.mu, params.sigma2, params.lam
    return MomentReport(_random_expectation(mu, s2, lam, za),
                        random_variance(mu, s2, lam, za), "random")


def random_variance(mu: float, s2: float, lam: float, za: float) -> float:
    """Variance of the estimator under Poisson(lam) counts, from plain floats
    and the critical value ``za``.  ``moments_random`` wraps it;
    ``method_variance`` calls it directly, as a ``MomentReport`` per coverage
    replicate would dominate the cost.  Returns inf where a power of ``lam``
    passes the float range (float ``**`` raises there)."""
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
        if k is None:
            raise DomainError("fixed k_model needs k")
        e = _fixed_expectation(params.mu, params.sigma2, k, za)
    elif k_model == "random":
        e = _random_expectation(params.mu, params.sigma2, params.lam, za)
    else:
        raise DomainError(f"unknown k_model {k_model!r}")
    if not math.isfinite(e):
        raise DegenerateVarianceError(
            f"{k_model}-count population value is not finite: {e:.6g}")
    return e


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------

def nr_pdf(n_r: float, params: ParameterTriple, k: int, alpha: float,
           variant: str = "exact") -> float:
    """Density of the fail-safe estimator at ``n_r`` for fixed k.

    The exact variant carries the 1/Phi(lambda*) truncation factor; the
    large-k variant omits it.  Zero below the support.  Raises DomainError
    where the density passes the float range.
    """
    if variant not in ("exact", "largek"):
        raise DomainError(f"unknown variant {variant!r}")
    if not params.sigma2 > 0:
        raise DegenerateVarianceError("sigma2 must be positive")
    _study_count(k)
    if n_r < 0.0:
        return 0.0
    za = _z_alpha(alpha)
    mu, s2 = params.mu, params.sigma2
    lam = _lambda_star(mu, math.sqrt(s2), k, za)
    trunc = std_normal_cdf(lam) if variant == "exact" else 1.0
    if trunc == 0.0:
        # Phi(l*) underflows: divide by the tail form phi(l*)/(-l*) that _hazard
        # uses (relative error below 1/l*^2) in log space, where phi's exponent
        # cancels the density's down to d = Z_a n (Z_a r - 2 k mu) / (2 k s2 r)
        r = math.sqrt(n_r + k) + math.sqrt(k)
        d = za * n_r / r * (za * r - 2.0 * k * mu) / (2.0 * k * s2)
        log_dens = math.log(za * -lam / 2.0) - 0.5 * math.log(k * s2 * (n_r + k)) - d
        # past 709.78 exp raises OverflowError
        dens = math.exp(log_dens) if log_dens < 709.0 else math.inf
    else:
        try:
            dens = za / (2.0 * math.sqrt(2.0 * math.pi * k * s2 * (n_r + k))) \
                * math.exp(-(za * math.sqrt(n_r + k) - k * mu) ** 2 / (2.0 * k * s2))
        except OverflowError:
            # the square passes the float range, so the exponential is 0
            return 0.0
        dens /= trunc
    if not math.isfinite(dens):
        raise DomainError(f"density at n_r={n_r!r} is not finite")
    return dens


def nr_joint_pdf(n_r: float, k: int, params: ParameterTriple,
                 alpha: float) -> float:
    """Joint density of (estimator value, study count) under Poisson counts.

    Defined for k >= 1; the conditional density does not exist at k = 0.
    """
    _study_count(k)
    lam = params.lam
    log_pmf = k * math.log(lam) - lam - math.lgamma(k + 1.0)
    return nr_pdf(n_r, params, k, alpha, "exact") * math.exp(log_pmf)
