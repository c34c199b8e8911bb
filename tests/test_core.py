"""Estimator arithmetic and the moments of the truncated and Poisson laws."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize, stats

from failsafe import (
    BelowThresholdError,
    DegenerateVarianceError,
    DomainError,
    InsufficientDataError,
    Method,
    ParameterTriple,
    ZSample,
    distributional_params,
    iyengar_greenhouse_n,
    method_variance,
    moments_fixed_table,
    rosenthal_nr,
    std_normal_cdf,
    std_normal_pdf,
    std_normal_quantile,
    true_nr,
)
from failsafe.core import (
    _lambda_star,
    _moments_fixed,
    _random_expectation,
    _truncation,
    random_variance,
)

Z95 = std_normal_quantile(0.95)
HN = distributional_params("half-normal", 1)


def fixed_moments(params, k, variant, alpha=0.05):
    """(expectation, variance) of the fixed-count formula ``variant``."""
    return _moments_fixed(params.mu, params.sigma2, k, alpha, variant)


def quad_nr_moments(params, k, alpha=0.05):
    """Quadrature oracle: raw moments of the estimator's density by
    integrating over the underlying truncated sum instead of the closed
    forms under test.  The density is scipy's truncated normal density of
    the sum times the Jacobian of the map n = s^2/Z_a^2 - k."""
    za = std_normal_quantile(1.0 - alpha)
    lo = za * math.sqrt(k)
    hi = k * params.mu + 14.0 * math.sqrt(k * params.sigma2)
    m, s = k * params.mu, math.sqrt(k * params.sigma2)
    law = stats.truncnorm((lo - m) / s, np.inf, loc=m, scale=s)

    def g(sv, power):
        n = sv * sv / za**2 - k
        density = law.pdf(sv) * za / (2.0 * math.sqrt(n + k))
        return n**power * density * 2.0 * sv / za**2

    mass, _ = integrate.quad(lambda s: g(s, 0), lo, hi, limit=400)
    m1, _ = integrate.quad(lambda s: g(s, 1), lo, hi, limit=400)
    m2, _ = integrate.quad(lambda s: g(s, 2), lo, hi, limit=400)
    return mass, m1, m2 - m1 * m1


class TestRosenthal:
    def test_all_at_critical_value(self):
        est = rosenthal_nr(ZSample((Z95,) * 10))
        assert est.n_r == pytest.approx(90.0, abs=1e-9)
        assert not est.below_threshold
        assert est.stouffer_z == pytest.approx(Z95 * math.sqrt(10), rel=1e-12)
        assert est.z_alpha == Z95
        assert est.rule_threshold == 60.0
        assert est.rule_exceeded

    def test_single_study_boundary(self):
        est = rosenthal_nr(ZSample((Z95,)))
        assert est.n_r == pytest.approx(0.0, abs=1e-12)
        assert not est.below_threshold

    def test_study1_surrogate(self):
        # z chosen so the 63-study sum inverts the published estimate
        est = rosenthal_nr(ZSample((1.2209871655259548,) * 63))
        assert est.n_r == pytest.approx(2124.0, abs=0.5)

    def test_published_sum_inverts_exactly(self):
        # Z_a sqrt(2124 + 63), carried by one study so the sum is not rounded
        est = rosenthal_nr(ZSample((76.92219142813515,) + (0.0,) * 62))
        assert est.n_r == pytest.approx(2124.0, rel=1e-12)

    @given(st.floats(0.0, 1e5), st.integers(1, 200), st.floats(0.01, 0.49))
    @settings(max_examples=80, deadline=None)
    def test_inverts_the_sum_of_a_given_count(self, n_r, k, alpha):
        # S = Z_a sqrt(N + k), spread evenly over k studies, gives N back
        s = std_normal_quantile(1.0 - alpha) * math.sqrt(n_r + k)
        est = rosenthal_nr(ZSample((s / k,) * k, alpha))
        # the flag can fire one ulp below the threshold when n_r is 0
        if not est.below_threshold:
            assert est.n_r == pytest.approx(n_r, rel=1e-9, abs=1e-9)
        else:
            assert n_r == pytest.approx(0.0, abs=1e-6)

    def test_empty_sample(self):
        with pytest.raises(InsufficientDataError):
            rosenthal_nr(ZSample(()))

    def test_below_threshold_clamps_negative_only(self):
        est = rosenthal_nr(ZSample((0.1,) * 4))
        assert est.n_r == 0.0
        assert est.below_threshold
        # a strongly negative sum squares to a positive raw value, which is
        # kept; only the flag marks the direction problem
        est = rosenthal_nr(ZSample((-3.0,) * 10))
        assert est.below_threshold
        assert est.n_r == pytest.approx(900.0 / Z95**2 - 10.0, rel=1e-12)


    def test_z_sum_is_exactly_rounded(self):
        # the built-in sum gives 5.9999999999999995e+150 here before
        # Python 3.12, which sums with compensation
        sample = ZSample((1e150, 2e150, 3e150))
        assert rosenthal_nr(sample).sum_z == 6e150
        assert iyengar_greenhouse_n(sample) == iyengar_greenhouse_n(ZSample((6e150, 0.0, 0.0)))

    def test_alpha_half_rejected(self):
        with pytest.raises(DomainError):
            rosenthal_nr(ZSample((1.0, 2.0), alpha=0.5))

    @given(st.lists(st.floats(0.5, 4.0), min_size=2, max_size=30),
           st.floats(0.01, 0.2), st.floats(0.21, 0.49))
    @settings(max_examples=60, deadline=None)
    def test_scale_coherence(self, zs, a1, a2):
        e1 = rosenthal_nr(ZSample(tuple(zs), a1))
        e2 = rosenthal_nr(ZSample(tuple(zs), a2))
        if e1.below_threshold or e2.below_threshold:
            return  # identity concerns the unclamped formula only
        lhs = (e1.n_r + e1.k) / (e2.n_r + e2.k)
        rhs = e2.z_alpha**2 / e1.z_alpha**2
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestOverflow:
    def test_non_finite_estimate_raises(self):
        with pytest.raises(DomainError):
            rosenthal_nr(ZSample((1e200, 1e200)))
        with pytest.raises(DomainError):
            rosenthal_nr(ZSample((1e308, 1e308)))

    @pytest.mark.parametrize("z", [(1e200,), (1.7e308, 1.7e308), (-1.7e308, -1.7e308),
                                   (1.7e308, 1.7e308, -1.7e308)],
                             ids=["square", "sum", "negative-sum", "partial-sum"])
    def test_overflowing_estimate_names_the_sum(self, z):
        # the last one overflows fsum's partial sums, not the sum itself
        with pytest.raises(DomainError, match="fail-safe number overflows for a z-sum"):
            rosenthal_nr(ZSample(z))

    # moments that overflow are a typed error, not a silent inf or nan
    def test_exact_moments_overflow_raises(self):
        with pytest.raises(DegenerateVarianceError, match="not finite"):
            fixed_moments(ParameterTriple(1e200, 1.0, 3.0), 3, "exact")

    def test_table_variance_overflow_raises(self):
        with pytest.raises(DegenerateVarianceError, match="not finite"):
            fixed_moments(ParameterTriple(1.0, 1e300, 3.0), 3, "table")

    def test_large_k_pair_overflow_leaves_finite_fields(self):
        # lambda* = -2.2e160: the large-k pair overflows, the truncated
        # moments do not, and neither is returned non-finite
        assert all(map(math.isfinite, fixed_moments(ParameterTriple(-1e160, 1.0, 5.0),
                                                    5, "exact")))

    @pytest.mark.parametrize("variant, mu, s2", [
        ("largek", 1e150, 5e-324), ("exact", 1e150, 5e-324), ("table", 1e150, 5e-324),
        ("largek", -1e150, 5e-324), ("exact", -1e150, 5e-324),
        ("exact", -1.7e308, 0.25)])
    def test_infinite_lambda_star_raises(self, variant, mu, s2):
        # the expectation and the variance are finite, lambda* is +-inf
        with pytest.raises(DegenerateVarianceError, match="lambda\\* -?inf"):
            fixed_moments(ParameterTriple(mu, s2, 1.0), 1, variant)

    def test_true_value_overflow_raises(self):
        with pytest.raises(DegenerateVarianceError, match="not finite"):
            true_nr(ParameterTriple(1e200, 1.0, 3.0), "fixed", 0.05, 3)

    def test_random_moments_overflow_raises(self):
        # lam ** 3 passes the float range: random_variance gives inf, and
        # method_variance raises on it
        params = ParameterTriple(0.5, 1.0, 1e200)
        assert random_variance(params.mu, params.sigma2, params.lam, Z95) == math.inf
        with pytest.raises(DegenerateVarianceError, match="not finite"):
            method_variance(Method("random-dist", "half-normal"), None, 10**200, 0.05)


class TestIyengarGreenhouse:
    def test_boundary_is_zero(self):
        k = 4
        est = iyengar_greenhouse_n(ZSample((Z95 * math.sqrt(k) / k,) * k))
        assert est == pytest.approx(0.0, abs=1e-7)

    def test_against_brentq_oracle(self):
        sample = ZSample((2.0,) * 10)     # sum 20, k 10
        m_alpha = -std_normal_pdf(Z95) / std_normal_cdf(Z95)
        assert m_alpha == pytest.approx(-0.108564, abs=1e-6)
        oracle = optimize.brentq(
            lambda n: Z95 * math.sqrt(n + 10) - 20.0 - n * m_alpha,
            0.0, 200.0, xtol=1e-12)
        got = iyengar_greenhouse_n(sample)
        assert got == pytest.approx(oracle, abs=2e-8)
        assert got == pytest.approx(58.66, abs=0.05)

    def test_below_threshold(self):
        with pytest.raises(BelowThresholdError):
            iyengar_greenhouse_n(ZSample((0.1, 0.1)))

    def test_overflowing_count_is_a_domain_error(self):
        # the root's bracket, s**2 / Z_a**2, passes the float range
        with pytest.raises(DomainError, match="unpublished-study count overflows"):
            iyengar_greenhouse_n(ZSample((1e308,)))

    def test_never_exceeds_rosenthal(self):
        g = np.random.default_rng(5150)
        for _ in range(100):
            k = int(g.integers(2, 60))
            z = np.abs(g.normal(1.0, 0.7, k))
            sample = ZSample(tuple(z))
            est = rosenthal_nr(sample)
            if est.below_threshold:
                continue
            assert iyengar_greenhouse_n(sample) <= est.n_r + 1e-6

    @pytest.mark.parametrize("z", [(1e9,) * 3, (2.5e150, 1e150), (3.0, 0.5, 2.0)])
    def test_large_sums_against_mpmath_root(self, z):
        # a bisection with an absolute stopping width never returned here
        import mpmath as mp
        with mp.workdps(60):
            za = mp.sqrt(2) * mp.erfinv(2 * mp.mpf(0.95) - 1)
            m = -mp.npdf(za) / mp.ncdf(za)
            s, k = mp.fsum(z), len(z)
            # bracketed root of the defining equation on [0, N_R]
            oracle = float(mp.findroot(lambda n: za * mp.sqrt(n + k) - s - n * m,
                                       (mp.mpf(0), s * s / za**2), solver="illinois"))
        assert iyengar_greenhouse_n(ZSample(z)) == pytest.approx(oracle, rel=1e-12)


class TestFixedMoments:
    def test_exact_matches_quadrature_reference_point(self):
        params = ParameterTriple(0.8, 0.36, 10.0)
        e, v = fixed_moments(params, 10, "exact")
        mass, qm, qv = quad_nr_moments(params, 10)
        assert mass == pytest.approx(1.0, abs=1e-8)
        assert e == pytest.approx(qm, rel=1e-6)
        assert v == pytest.approx(qv, rel=1e-6)

    def test_exact_small_k_half_normal(self):
        # frozen from the quadrature oracle; the printed small-sample
        # correction with other k powers does not integrate consistently
        e, v = fixed_moments(HN, 1, "exact")
        assert _lambda_star(HN.mu, math.sqrt(HN.sigma2), 1, Z95) == pytest.approx(
            -1.405, abs=1e-3)
        mass, qm, qv = quad_nr_moments(HN, 1)
        assert mass == pytest.approx(1.0, abs=1e-8)
        assert e == pytest.approx(qm, rel=1e-9)
        assert v == pytest.approx(qv, rel=1e-9)
        assert v == pytest.approx(0.13757008249309563, rel=1e-9)

    def test_exact_large_k_negligible_correction(self):
        v = fixed_moments(HN, 50, "exact")[1]
        ref = fixed_moments(HN, 50, "largek")[1]
        assert _lambda_star(HN.mu, math.sqrt(HN.sigma2), 50, Z95) == pytest.approx(
            6.63, abs=0.01)
        assert abs(v - ref) < 1e-4
        assert ref == pytest.approx(15891.843578162607, rel=1e-9)

    def test_largek_values(self):
        std = distributional_params("std-normal", 63)
        assert fixed_moments(std, 63, "largek")[1] == pytest.approx(1084.4, abs=0.1)
        assert fixed_moments(HN, 5, "largek")[0] == pytest.approx(1.554, abs=0.001)
        one = ParameterTriple(0.0, 1.0, 1.0)
        assert fixed_moments(one, 1, "largek")[0] == pytest.approx(-0.6304, abs=1e-4)

    def test_degenerate_sigma(self):
        flat = ParameterTriple(1.0, 0.0, 5.0)
        for variant in ("exact", "largek", "table"):
            with pytest.raises(DegenerateVarianceError):
                fixed_moments(flat, 5, variant)

    def test_exact_converges_to_largek(self):
        diffs_e, diffs_v = [], []
        for k in (5, 25, 100):
            e = fixed_moments(HN, k, "exact")
            l = fixed_moments(HN, k, "largek")
            diffs_e.append(abs(e[0] - l[0]))
            diffs_v.append(abs(e[1] - l[1]))
        assert diffs_e[0] > diffs_e[1] > diffs_e[2]
        assert diffs_v[0] > diffs_v[1] > diffs_v[2]

    def test_largek_equals_exact_at_extreme_lambda_star(self):
        e = fixed_moments(HN, 50, "exact")
        l = fixed_moments(HN, 50, "largek")
        assert e[0] == pytest.approx(l[0], rel=1e-6)
        assert e[1] == pytest.approx(l[1], rel=1e-6)

    def test_variance_nonnegative_on_grid(self):
        for k in (1, 2, 5, 10, 20, 60):
            for mu in (0.0, 0.2, 0.8, 1.5):
                for s2 in (0.1, 0.36, 1.0, 2.0):
                    p = ParameterTriple(mu, s2, float(k))
                    assert fixed_moments(p, k, "exact")[1] > -1e-9

    def test_monte_carlo_truncated_pipeline(self):
        # independent sampler: scipy truncnorm for the sum, then the
        # quadratic map to the estimator
        for k in (1, 10, 50):
            e, v = fixed_moments(HN, k, "exact")
            m, s = k * HN.mu, math.sqrt(k * HN.sigma2)
            a = (Z95 * math.sqrt(k) - m) / s
            sv = stats.truncnorm.rvs(a, np.inf, loc=m, scale=s, size=10**6,
                                     random_state=np.random.default_rng(k))
            n = sv * sv / Z95**2 - k
            se_mean = n.std(ddof=1) / 1e3
            assert n.mean() == pytest.approx(e, abs=3 * se_mean)
            c = n - n.mean()
            se_var = math.sqrt((np.mean(c**4) - n.var() ** 2) / len(n))
            assert n.var(ddof=1) == pytest.approx(v, abs=3 * se_var)


def _mp_formula_moments(mu, s2, k, variant):
    """The 'exact' or 'table' mean and variance in mpmath at 60 digits, by
    the large-k pair plus the truncation corrections with the exact hazard
    h = phi/Phi: epsilon = h k s (sqrt(k) mu + Z_a)/Z_a^2 and the variance
    correction of the cumulant derivatives ('exact') or of the table."""
    import mpmath as mp
    with mp.workdps(60):
        za, mu, s2 = mp.mpf(Z95), mp.mpf(mu), mp.mpf(s2)
        s, sk = mp.sqrt(s2), mp.sqrt(k)
        lam = (sk * mu - za) / s
        h = mp.npdf(lam) / mp.ncdf(lam)
        dp = k * s * (sk * mu + za) / za**2
        e = (k * k * mu * mu + k * s2) / za**2 - k + h * dp
        v = 2 * k * k * s2 * (2 * k * mu * mu + s2) / za**4
        if variant == "exact":
            v += h * (k * k * s**3 * (3 * sk * mu + za) / za**4 - (h + lam) * dp * dp)
        else:
            v += h * (mp.mpf(k) ** 2.5 * s**3 * (5 * sk * mu + za) ** 2
                      - (h + lam) * k**2 * s2 * (sk * mu + za) ** 2) / za**4
        return float(e), float(v)


def _mp_quadrature_moments(mu, s2, k):
    """Mean and variance of the estimator by quadrature of the truncated
    law in mpmath: with S = c + sigma W, W >= 0 has density proportional to
    exp(-x w - w^2/2), x = -lambda*, and N = (sigma^2 W^2 + 2 c sigma W)/Z_a^2."""
    import mpmath as mp
    with mp.workdps(40):
        za, s2 = mp.mpf(Z95), mp.mpf(s2)
        c, sig = za * mp.sqrt(k), mp.sqrt(k * s2)
        x = -(mp.sqrt(k) * mp.mpf(mu) - za) / mp.sqrt(s2)
        m = [mp.quad(lambda w, n=n: w**n * mp.exp(-x * w - w * w / 2),
                     [0, 1 / (abs(x) + 1), mp.inf]) for n in range(5)]
        m = [v / m[0] for v in m]
        e = (sig**2 * m[2] + 2 * c * sig * m[1]) / za**2
        e2 = (sig**4 * m[4] + 4 * c * sig**3 * m[3] + 4 * c * c * sig**2 * m[2]) / za**4
        return float(e), float(e2 - e * e)


def _mu_at(lam, s2, k):
    """The mean z-score that puts lambda* at ``lam``."""
    return (lam * math.sqrt(s2) + Z95) / math.sqrt(k)


@pytest.mark.parametrize("lam", [8.0, 2.0, 0.0, -1.0, -3.999, -4.0, -4.000000000000001,
                                 -7.5, -40.0, -1e4])
def test_truncation_against_mpmath(lam):
    # h = phi/Phi and rho_n = E[W^n]/E[W^(n-1)] against mpmath quadrature of
    # W's density, proportional to exp(-x w - w^2/2), x = -lambda*, on both
    # sides of the switch; the forward recurrence holds rho_4 to ~1e-11
    import mpmath as mp
    with mp.workdps(40):
        x = -mp.mpf(lam)
        m = [mp.quad(lambda w, n=n: w**n * mp.exp(-x * w - w * w / 2),
                     [0, 1 / (abs(x) + 1), mp.inf]) for n in range(5)]
        want = [mp.npdf(lam) / mp.ncdf(lam)] + [m[n] / m[n - 1] for n in range(1, 5)]
    assert _truncation(lam) == pytest.approx([float(w) for w in want], rel=2e-11)


_LAMBDA_STARS = st.floats(-1e4, 10.0)
_SIGMA2S = st.sampled_from((1e-3, 1.0, 25.0))
_COUNTS = st.sampled_from((1, 5, 50))


class TestTruncationTail:
    """Exact and table moments for lambda* from -1e4 to 10, across the
    continued fraction's switch at -4, against mpmath."""

    def test_far_tail_exact_moments_d10(self):
        # lambda* = -122.7: the variance came out 490x too large (1.2006e-3)
        # and the mean 18 % high, as h = -lambda* left h + lambda* at 0
        got = fixed_moments(ParameterTriple(-1.0, 1e-3, 5.0), 5, "exact")
        e, v = _mp_quadrature_moments(-1.0, 1e-3, 5)
        assert got[0] == pytest.approx(e, rel=1e-10)
        assert got[1] == pytest.approx(v, rel=1e-10)
        assert got[1] == pytest.approx(2.4546e-6, rel=1e-4)

    @pytest.mark.parametrize("lam", [-3.0, -4.5, -40.0, -1000.0])
    def test_exact_moments_against_quadrature(self, lam):
        mu = _mu_at(lam, 1.0, 5)
        got = fixed_moments(ParameterTriple(mu, 1.0, 5.0), 5, "exact")
        e, v = _mp_quadrature_moments(mu, 1.0, 5)
        assert got[0] == pytest.approx(e, rel=1e-10)
        assert got[1] == pytest.approx(v, rel=1e-10)

    @given(_LAMBDA_STARS, _SIGMA2S, _COUNTS)
    @example(-4.0, 25.0, 5).via("the switch")
    @example(-4.000000000000001, 25.0, 50).via("just below the switch")
    @example(-3.999, 1e-3, 1).via("just above the switch")
    @example(-7.5, 25.0, 5).via("where the forward recurrence would lose 1e-9")
    @example(-9990.0, 1e-3, 50).via("the far tail")
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_moments_against_mpmath(self, lam, s2, k):
        mu = _mu_at(lam, s2, k)
        for variant in ("exact", "table"):
            got = fixed_moments(ParameterTriple(mu, s2, float(k)), k, variant)
            e, v = _mp_formula_moments(mu, s2, k, variant)
            assert got[0] == pytest.approx(e, rel=1e-10)
            assert got[1] == pytest.approx(v, rel=1e-10)


class TestTableVariantMoments:
    def test_matches_exact_at_k_one(self):
        # the two corrections coincide when every k power is 1
        assert moments_fixed_table(HN, 1, 0.05)[1] == pytest.approx(1.6783143357519135,
                                                                    rel=1e-9)

    def test_collapses_to_largek(self):
        t = moments_fixed_table(HN, 100, 0.05)
        l = fixed_moments(HN, 100, "largek")
        assert t[1] == pytest.approx(l[1], rel=1e-6)


class TestRandomMoments:
    def test_std_normal_lambda_148(self):
        assert random_variance(0.0, 1.0, 148.0, Z95) == pytest.approx(6084.0, abs=1.0)

    def test_half_normal_lambda_5(self):
        assert _random_expectation(HN.mu, HN.sigma2, 5.0, Z95) == pytest.approx(
            2.731, abs=0.001)

    def test_compound_poisson_normal_increments(self):
        # the closed form rests on the normal approximation of the sum given
        # the count, so the validating simulation draws the sum from that law
        lam = 15.0
        p = ParameterTriple(HN.mu, HN.sigma2, lam)
        e, v = _random_expectation(p.mu, p.sigma2, lam, Z95), random_variance(
            p.mu, p.sigma2, lam, Z95)
        g = np.random.default_rng(303)
        ks = g.poisson(lam, 2 * 10**5).astype(float)
        sums = ks * p.mu + np.sqrt(ks * p.sigma2) * g.standard_normal(len(ks))
        n = sums * sums / Z95**2 - ks
        se_mean = n.std(ddof=1) / math.sqrt(len(n))
        assert n.mean() == pytest.approx(e, abs=4 * se_mean)
        c = n - n.mean()
        se_var = math.sqrt((np.mean(c**4) - n.var() ** 2) / len(n))
        assert n.var(ddof=1) == pytest.approx(v, abs=4 * se_var)

    def test_compound_poisson_exact_increments(self):
        # with true half-normal increments the mean formula is exact while
        # the variance exceeds the closed form by the fourth-moment term the
        # normal approximation drops: [lam(m4 - 3 s^4) + 4 mu m3 (lam+lam^2)]/Z^4
        lam = 15.0
        p = ParameterTriple(HN.mu, HN.sigma2, lam)
        e, v = _random_expectation(p.mu, p.sigma2, lam, Z95), random_variance(
            p.mu, p.sigma2, lam, Z95)
        s2 = p.sigma2
        m3 = (math.sqrt(2.0) * (4.0 - math.pi) / (math.pi - 2.0) ** 1.5) * s2**1.5
        m4 = (3.0 + 8.0 * (math.pi - 3.0) / (math.pi - 2.0) ** 2) * s2**2
        bias = (lam * (m4 - 3.0 * s2 * s2)
                + 4.0 * p.mu * m3 * (lam + lam * lam)) / Z95**4
        g = np.random.default_rng(304)
        ks = g.poisson(lam, 2 * 10**5)
        draws = np.abs(g.standard_normal(int(ks.sum())))
        sums = np.zeros(len(ks))
        nz = ks > 0
        starts = np.cumsum(ks) - ks
        sums[nz] = np.add.reduceat(draws, starts[nz])
        n = sums * sums / Z95**2 - ks
        se_mean = n.std(ddof=1) / math.sqrt(len(n))
        assert n.mean() == pytest.approx(e, abs=4 * se_mean)
        c = n - n.mean()
        se_var = math.sqrt((np.mean(c**4) - n.var() ** 2) / len(n))
        assert n.var(ddof=1) == pytest.approx(v + bias,
                                              abs=4 * se_var)

    @staticmethod
    def _poisson_mixture(mu, s2, lam):
        """Mean and variance of the fixed-count large-k estimator mixed over
        Poisson(lam) counts, zero included, in mpmath: the law of total
        variance over E_k = (k^2 mu^2 + k s2)/Z^2 - k and V_k = 2 k^2 s2
        (2 k mu^2 + s2)/Z^4."""
        import mpmath as mp
        with mp.workdps(40):
            za, m, v, rate = mp.mpf(Z95), mp.mpf(mu), mp.mpf(s2), mp.mpf(lam)
            first = second = 0
            for k in range(int(lam + 40.0 * math.sqrt(lam) + 60.0)):
                pmf = mp.exp(k * mp.log(rate) - rate - mp.loggamma(k + 1))
                e = (k * k * m * m + k * v) / za**2 - k
                first += pmf * e
                second += pmf * (2 * k * k * v * (2 * k * m * m + v) / za**4 + e * e)
            return float(first), float(second - first * first)

    MIXTURES = [(0.0, 1.0, 148.0), (HN.mu, HN.sigma2, 5.0), (HN.mu, HN.sigma2, 0.5),
                (2.0, 0.25, 30.0), (-1.0, 4.0, 2.0)]

    @pytest.mark.parametrize("mu, s2, lam", MIXTURES)
    def test_expectation_mixes_fixed_counts(self, mu, s2, lam):
        want = self._poisson_mixture(mu, s2, lam)[0]
        assert _random_expectation(mu, s2, lam, Z95) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("mu, s2, lam", MIXTURES)
    def test_variance_mixes_fixed_counts(self, mu, s2, lam):
        want = self._poisson_mixture(mu, s2, lam)[1]
        assert random_variance(mu, s2, lam, Z95) == pytest.approx(want, rel=1e-12)

    def test_degenerate_sigma(self):
        with pytest.raises(DegenerateVarianceError, match="sigma2 must be positive"):
            random_variance(0.8, 0.0, 5.0, Z95)

    def test_lambda_validation(self):
        with pytest.raises(DomainError):
            ParameterTriple(0.0, 1.0, 0.0)


class TestTrueValue:
    def test_fixed_half_normal(self):
        assert true_nr(HN, "fixed", 0.05, k=5) == pytest.approx(
            1.5540974477825866, rel=1e-12)

    def test_fixed_std_normal_any_k(self):
        std = distributional_params("std-normal", 7)
        assert true_nr(std, "fixed", 0.05, k=7) == pytest.approx(
            7.0 / Z95**2 - 7.0, rel=1e-12)

    def test_random_half_normal(self):
        p = ParameterTriple(HN.mu, HN.sigma2, 5.0)
        assert true_nr(p, "random", 0.05) == pytest.approx(
            2.730607422892988, rel=1e-12)

    @pytest.mark.parametrize("k_model", ["fixed", "random"])
    def test_finite_value_beside_an_overflowing_variance(self, k_model):
        # the population value needs only the expectation; the variance of
        # the same model overflows
        mu, s2, k = 0.4e150, 0.84e300, 5
        params = ParameterTriple(mu, s2, float(k))
        if k_model == "fixed":
            with pytest.raises(DegenerateVarianceError, match="variance inf"):
                fixed_moments(params, k, "largek")
        else:
            assert random_variance(mu, s2, params.lam, Z95) == math.inf
        m, v, n = Fraction(mu), Fraction(s2), Fraction(k)
        second = n * n * m * m + n * v if k_model == "fixed" \
            else n * n * m * m + n * (m * m + v)
        exact = second / Fraction(stats.norm.ppf(0.95)) ** 2 - n
        assert true_nr(params, k_model, 0.05, k) == pytest.approx(float(exact), rel=1e-13)

    def test_validation(self):
        with pytest.raises(DomainError):
            true_nr(HN, "fixed", 0.05)
        with pytest.raises(DomainError):
            true_nr(HN, "both", 0.05, k=3)
