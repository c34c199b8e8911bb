"""Estimator arithmetic, truncated-law moments, and density identities."""
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
    ParameterTriple,
    ZSample,
    distributional_params,
    invert_nr,
    iyengar_greenhouse_n,
    moments_fixed_exact,
    moments_fixed_largek,
    moments_fixed_table,
    moments_random,
    nr_joint_pdf,
    nr_pdf,
    rosenthal_nr,
    std_normal_cdf,
    std_normal_pdf,
    std_normal_quantile,
    true_nr,
)
from failsafe.core import random_variance

Z95 = std_normal_quantile(0.95)
HN = distributional_params("half-normal", 1)


def quad_nr_moments(params, k, alpha=0.05):
    """Quadrature oracle: raw moments of the estimator's density by
    integrating over the underlying truncated sum instead of the closed
    forms under test."""
    za = std_normal_quantile(1.0 - alpha)
    lo = za * math.sqrt(k)
    hi = k * params.mu + 14.0 * math.sqrt(k * params.sigma2)

    def g(sv, power):
        n = sv * sv / za**2 - k
        return n**power * nr_pdf(n, params, k, alpha, "exact") * 2.0 * sv / za**2

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


class TestInvert:
    def test_zero(self):
        assert invert_nr(0.0, 1, 0.05) == pytest.approx(Z95, rel=1e-12)

    def test_published_study(self):
        assert invert_nr(2124.0, 63, 0.05) == pytest.approx(76.92219142813515,
                                                            rel=1e-12)

    def test_ninety(self):
        assert invert_nr(90.0, 10, 0.05) == pytest.approx(10 * Z95, rel=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            invert_nr(-1.0, 5, 0.05)

    @pytest.mark.parametrize("n_r, k", [(math.inf, 3), (math.nan, 3), (1.0, 0),
                                        (1.0, -5),
                                        pytest.param(1.7e308, 10**308, id="sum-overflows")])
    def test_non_finite_count_or_no_studies_rejected(self, n_r, k):
        # these returned inf or nan, accepted k = 0, or raised math's
        # untyped "math domain error"; the last overflows in n_r + k
        with pytest.raises(DomainError):
            invert_nr(n_r, k, 0.05)

    @given(st.floats(0.0, 1e5), st.integers(1, 200),
           st.floats(0.01, 0.49))
    @settings(max_examples=80, deadline=None)
    def test_roundtrip(self, n_r, k, alpha):
        s = invert_nr(n_r, k, alpha)
        est = rosenthal_nr(ZSample((s / k,) * k, alpha))
        # the flag can fire one ulp below the threshold when n_r is 0
        if not est.below_threshold:
            assert est.n_r == pytest.approx(n_r, rel=1e-9, abs=1e-9)
        else:
            assert n_r == pytest.approx(0.0, abs=1e-6)

    def test_alpha_half_rejected(self):
        with pytest.raises(DomainError):
            rosenthal_nr(ZSample((1.0, 2.0), alpha=0.5))
        with pytest.raises(DomainError):
            invert_nr(1.0, 2, 0.5)

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

    # moments that overflow are a typed error, not a silent inf or nan
    def test_exact_moments_overflow_raises(self):
        with pytest.raises(DegenerateVarianceError, match="not finite"):
            moments_fixed_exact(ParameterTriple(1e200, 1.0, 3.0), 3, 0.05)

    def test_table_variance_overflow_raises(self):
        with pytest.raises(DegenerateVarianceError, match="not finite"):
            moments_fixed_table(ParameterTriple(1.0, 1e300, 3.0), 3, 0.05)

    def test_large_k_pair_overflow_leaves_finite_fields(self):
        # lambda* = -2.2e160: the large-k pair overflows, the truncated
        # moments do not, and the report carries no non-finite field
        rep = moments_fixed_exact(ParameterTriple(-1e160, 1.0, 5.0), 5, 0.05)
        fields = (getattr(rep, f) for f in rep.__match_args__ if f != "formula_tag")
        assert all(map(math.isfinite, fields))

    @pytest.mark.parametrize("moments, mu, s2", [
        (moments_fixed_largek, 1e150, 5e-324), (moments_fixed_exact, 1e150, 5e-324),
        (moments_fixed_table, 1e150, 5e-324), (moments_fixed_largek, -1e150, 5e-324),
        (moments_fixed_exact, -1e150, 5e-324), (moments_fixed_exact, -1.7e308, 0.25)])
    def test_infinite_lambda_star_raises(self, moments, mu, s2):
        # the expectation and the variance are finite, lambda* is +-inf
        with pytest.raises(DegenerateVarianceError, match="lambda\\* -?inf"):
            moments(ParameterTriple(mu, s2, 1.0), 1, 0.05)

    def test_true_value_overflow_raises(self):
        with pytest.raises(DegenerateVarianceError, match="not finite"):
            true_nr(ParameterTriple(1e200, 1.0, 3.0), "fixed", 0.05, 3)

    def test_random_moments_overflow_raises(self):
        # lam ** 3 passes the float range: random_variance gives inf
        params = ParameterTriple(0.5, 1.0, 1e200)
        assert random_variance(params.mu, params.sigma2, params.lam, Z95) == math.inf
        with pytest.raises(DegenerateVarianceError, match="not finite"):
            moments_random(params, 0.05)

    def test_density_far_in_the_tail_is_zero(self):
        assert nr_pdf(1.7e308, HN, 3, 0.05) == 0.0

    @staticmethod
    def _log_density_terms(n_r, mu, s2):
        # log of the untruncated k=1 density, and lambda*, in mpmath (1 + n_r
        # too: rounded in floats, it would move the exponent by 4e-12)
        import mpmath as mp
        za, n_r = mp.mpf(Z95), mp.mpf(n_r)
        log_core = (mp.log(za / mp.sqrt(8 * mp.pi * mp.mpf(s2) * (1 + n_r)))
                    - (za * mp.sqrt(1 + n_r) - mu) ** 2 / (2 * mp.mpf(s2)))
        return log_core, (mu - za) / mp.sqrt(mp.mpf(s2))

    @pytest.mark.parametrize("n_r", [0.0, 2e-4, 1e-3, 1.0])
    def test_density_where_the_truncation_factor_underflows(self, n_r):
        # Phi(lambda*) is 0 in floats at lambda* = -264.5 (mu = -1, sigma2 =
        # 1e-4, k = 1).  The density divides by phi(l)/h with the continued
        # fraction's h in log space; at n_r = 1 it is e^-8830, 0 in floats.
        import mpmath as mp
        with mp.workdps(60):
            log_core, lam = self._log_density_terms(n_r, -1.0, 1e-4)
            want = float(mp.exp(log_core) / mp.ncdf(lam))
        got = nr_pdf(n_r, ParameterTriple(-1.0, 1e-4, 1.0), 1, 0.05)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_density_with_a_subnormal_variance(self):
        # sigma2 = 5e-324 puts lambda* at -7e161, past mpmath's ncdf; the
        # bound Phi(l) >= phi(l)(1/|l| - 1/|l|^3) caps the density at a value
        # that is 0 in floats
        import mpmath as mp
        with mp.workdps(60):
            log_core, lam = self._log_density_terms(1.0, 0.0, 5e-324)
            log_phi = -lam**2 / 2 - mp.log(2 * mp.pi) / 2
            cap = mp.exp(log_core - log_phi - mp.log(1 / -lam - 1 / (-lam) ** 3))
        assert float(cap) == 0.0
        assert nr_pdf(1.0, ParameterTriple(0.0, 5e-324, 1.0), 1, 0.05) == 0.0
        # at the boundary the density itself passes the float range
        with pytest.raises(DomainError, match="not finite"):
            nr_pdf(0.0, ParameterTriple(-1.0, 5e-324, 1.0), 1, 0.05)


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
        rep = moments_fixed_exact(params, 10, 0.05)
        mass, qm, qv = quad_nr_moments(params, 10)
        assert mass == pytest.approx(1.0, abs=1e-8)
        assert rep.expectation == pytest.approx(qm, rel=1e-6)
        assert rep.variance == pytest.approx(qv, rel=1e-6)

    def test_exact_small_k_half_normal(self):
        # frozen from the quadrature oracle; the printed small-sample
        # correction with other k powers does not integrate consistently
        rep = moments_fixed_exact(HN, 1, 0.05)
        assert rep.lambda_star == pytest.approx(-1.405, abs=1e-3)
        mass, qm, qv = quad_nr_moments(HN, 1)
        assert mass == pytest.approx(1.0, abs=1e-8)
        assert rep.expectation == pytest.approx(qm, rel=1e-9)
        assert rep.variance == pytest.approx(qv, rel=1e-9)
        assert rep.variance == pytest.approx(0.13757008249309563, rel=1e-9)

    def test_exact_large_k_negligible_correction(self):
        rep = moments_fixed_exact(HN, 50, 0.05)
        ref = moments_fixed_largek(HN, 50, 0.05)
        assert rep.lambda_star == pytest.approx(6.63, abs=0.01)
        assert abs(rep.variance - ref.variance) < 1e-4
        assert ref.variance == pytest.approx(15891.843578162607, rel=1e-9)

    def test_largek_values(self):
        std = distributional_params("std-normal", 63)
        assert moments_fixed_largek(std, 63, 0.05).variance == pytest.approx(
            1084.4, abs=0.1)
        assert moments_fixed_largek(HN, 5, 0.05).expectation == pytest.approx(
            1.554, abs=0.001)
        one = ParameterTriple(0.0, 1.0, 1.0)
        assert moments_fixed_largek(one, 1, 0.05).expectation == pytest.approx(
            -0.6304, abs=1e-4)

    def test_degenerate_sigma(self):
        flat = ParameterTriple(1.0, 0.0, 5.0)
        for fn in (moments_fixed_exact, moments_fixed_largek,
                   moments_fixed_table):
            with pytest.raises(DegenerateVarianceError):
                fn(flat, 5, 0.05)

    def test_exact_converges_to_largek(self):
        diffs_e, diffs_v = [], []
        for k in (5, 25, 100):
            e = moments_fixed_exact(HN, k, 0.05)
            l = moments_fixed_largek(HN, k, 0.05)
            diffs_e.append(abs(e.expectation - l.expectation))
            diffs_v.append(abs(e.variance - l.variance))
        assert diffs_e[0] > diffs_e[1] > diffs_e[2]
        assert diffs_v[0] > diffs_v[1] > diffs_v[2]

    def test_largek_equals_exact_at_extreme_lambda_star(self):
        e = moments_fixed_exact(HN, 50, 0.05)
        l = moments_fixed_largek(HN, 50, 0.05)
        assert e.expectation == pytest.approx(l.expectation, rel=1e-6)
        assert e.variance == pytest.approx(l.variance, rel=1e-6)

    def test_variance_nonnegative_on_grid(self):
        for k in (1, 2, 5, 10, 20, 60):
            for mu in (0.0, 0.2, 0.8, 1.5):
                for s2 in (0.1, 0.36, 1.0, 2.0):
                    p = ParameterTriple(mu, s2, float(k))
                    assert moments_fixed_exact(p, k, 0.05).variance > -1e-9

    def test_monte_carlo_truncated_pipeline(self):
        # independent sampler: scipy truncnorm for the sum, then the
        # quadratic map to the estimator
        for k in (1, 10, 50):
            rep = moments_fixed_exact(HN, k, 0.05)
            m, s = k * HN.mu, math.sqrt(k * HN.sigma2)
            a = (Z95 * math.sqrt(k) - m) / s
            sv = stats.truncnorm.rvs(a, np.inf, loc=m, scale=s, size=10**6,
                                     random_state=np.random.default_rng(k))
            n = sv * sv / Z95**2 - k
            se_mean = n.std(ddof=1) / 1e3
            assert n.mean() == pytest.approx(rep.expectation, abs=3 * se_mean)
            c = n - n.mean()
            se_var = math.sqrt((np.mean(c**4) - n.var() ** 2) / len(n))
            assert n.var(ddof=1) == pytest.approx(rep.variance, abs=3 * se_var)


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


_LAMBDA_STARS = st.floats(-1e4, 10.0)
_SIGMA2S = st.sampled_from((1e-3, 1.0, 25.0))
_COUNTS = st.sampled_from((1, 5, 50))


class TestTruncationTail:
    """Exact and table moments and the density for lambda* from -1e4 to 10,
    across the continued fraction's switch at -4, against mpmath."""

    def test_far_tail_exact_moments_d10(self):
        # lambda* = -122.7: the variance came out 490x too large (1.2006e-3)
        # and the mean 18 % high, as h = -lambda* left h + lambda* at 0
        rep = moments_fixed_exact(ParameterTriple(-1.0, 1e-3, 5.0), 5, 0.05)
        e, v = _mp_quadrature_moments(-1.0, 1e-3, 5)
        assert rep.expectation == pytest.approx(e, rel=1e-10)
        assert rep.variance == pytest.approx(v, rel=1e-10)
        assert rep.variance == pytest.approx(2.4546e-6, rel=1e-4)

    @pytest.mark.parametrize("lam", [-3.0, -4.5, -40.0, -1000.0])
    def test_exact_moments_against_quadrature(self, lam):
        mu = _mu_at(lam, 1.0, 5)
        rep = moments_fixed_exact(ParameterTriple(mu, 1.0, 5.0), 5, 0.05)
        e, v = _mp_quadrature_moments(mu, 1.0, 5)
        assert rep.expectation == pytest.approx(e, rel=1e-10)
        assert rep.variance == pytest.approx(v, rel=1e-10)

    @given(_LAMBDA_STARS, _SIGMA2S, _COUNTS)
    @example(-4.0, 25.0, 5).via("the switch")
    @example(-4.000000000000001, 25.0, 50).via("just below the switch")
    @example(-3.999, 1e-3, 1).via("just above the switch")
    @example(-7.5, 25.0, 5).via("where the forward recurrence would lose 1e-9")
    @example(-9990.0, 1e-3, 50).via("the far tail")
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_moments_against_mpmath(self, lam, s2, k):
        mu = _mu_at(lam, s2, k)
        for variant, fn in (("exact", moments_fixed_exact), ("table", moments_fixed_table)):
            rep = fn(ParameterTriple(mu, s2, float(k)), k, 0.05)
            e, v = _mp_formula_moments(mu, s2, k, variant)
            assert rep.expectation == pytest.approx(e, rel=1e-10)
            assert rep.variance == pytest.approx(v, rel=1e-10)

    @given(_LAMBDA_STARS, _SIGMA2S, _COUNTS, st.floats(0.0, 5.0))
    @example(-4.0, 25.0, 5, 1.0).via("the switch")
    @example(-4.000000000000001, 1e-3, 50, 0.5).via("just below the switch")
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_density_against_mpmath(self, lam, s2, k, t):
        # a point where the density is far from 0: t spreads of W above the
        # truncation point in the tail, or about W's mode lambda* above it
        import mpmath as mp
        mu = _mu_at(lam, s2, k)
        w = t / max(-lam, 1.0) if lam < 0.0 else max(0.0, lam + t - 2.5)
        n_r = max(((Z95 * math.sqrt(k) + math.sqrt(k * s2) * w) / Z95) ** 2 - k, 0.0)
        with mp.workdps(60):
            za, m, v = mp.mpf(Z95), mp.mpf(mu), k * mp.mpf(s2)
            root = mp.sqrt(mp.mpf(n_r) + k)
            want = (za / (2 * mp.sqrt(2 * mp.pi * v) * root)
                    * mp.exp(-(za * root - k * m) ** 2 / (2 * v))
                    / mp.ncdf((mp.sqrt(k) * m - za) / mp.sqrt(s2)))
        got = nr_pdf(n_r, ParameterTriple(mu, s2, float(k)), k, 0.05)
        assert got == pytest.approx(float(want), rel=1e-12)


class TestTableVariantMoments:
    def test_matches_exact_at_k_one(self):
        # the two corrections coincide when every k power is 1
        t = moments_fixed_table(HN, 1, 0.05)
        assert t.variance == pytest.approx(1.6783143357519135, rel=1e-9)

    def test_collapses_to_largek(self):
        t = moments_fixed_table(HN, 100, 0.05)
        l = moments_fixed_largek(HN, 100, 0.05)
        assert t.variance == pytest.approx(l.variance, rel=1e-6)


class TestRandomMoments:
    def test_std_normal_lambda_148(self):
        p = ParameterTriple(0.0, 1.0, 148.0)
        assert moments_random(p, 0.05).variance == pytest.approx(6084.0, abs=1.0)

    def test_half_normal_lambda_5(self):
        p = ParameterTriple(HN.mu, HN.sigma2, 5.0)
        assert moments_random(p, 0.05).expectation == pytest.approx(2.731,
                                                                    abs=0.001)

    def test_compound_poisson_normal_increments(self):
        # the closed form rests on the normal approximation of the sum given
        # the count, so the validating simulation draws the sum from that law
        lam = 15.0
        p = ParameterTriple(HN.mu, HN.sigma2, lam)
        rep = moments_random(p, 0.05)
        g = np.random.default_rng(303)
        ks = g.poisson(lam, 2 * 10**5).astype(float)
        sums = ks * p.mu + np.sqrt(ks * p.sigma2) * g.standard_normal(len(ks))
        n = sums * sums / Z95**2 - ks
        se_mean = n.std(ddof=1) / math.sqrt(len(n))
        assert n.mean() == pytest.approx(rep.expectation, abs=4 * se_mean)
        c = n - n.mean()
        se_var = math.sqrt((np.mean(c**4) - n.var() ** 2) / len(n))
        assert n.var(ddof=1) == pytest.approx(rep.variance, abs=4 * se_var)

    def test_compound_poisson_exact_increments(self):
        # with true half-normal increments the mean formula is exact while
        # the variance exceeds the closed form by the fourth-moment term the
        # normal approximation drops: [lam(m4 - 3 s^4) + 4 mu m3 (lam+lam^2)]/Z^4
        lam = 15.0
        p = ParameterTriple(HN.mu, HN.sigma2, lam)
        rep = moments_random(p, 0.05)
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
        assert n.mean() == pytest.approx(rep.expectation, abs=4 * se_mean)
        c = n - n.mean()
        se_var = math.sqrt((np.mean(c**4) - n.var() ** 2) / len(n))
        assert n.var(ddof=1) == pytest.approx(rep.variance + bias,
                                              abs=4 * se_var)

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
        with pytest.raises(DegenerateVarianceError, match="variance inf"):
            if k_model == "fixed":
                moments_fixed_largek(params, k, 0.05)
            else:
                moments_random(params, 0.05)
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


class TestDensity:
    def test_normalizes(self):
        params = ParameterTriple(0.8, 0.36, 10.0)
        mass, _, _ = quad_nr_moments(params, 10)
        assert mass == pytest.approx(1.0, abs=1e-8)

    def test_exact_largek_ratio(self):
        lam_star = moments_fixed_exact(HN, 5, 0.05).lambda_star
        factor = 1.0 / std_normal_cdf(lam_star)
        for n_r in (0.0, 1.0, 4.0, 12.0):
            exact = nr_pdf(n_r, HN, 5, 0.05, "exact")
            approx = nr_pdf(n_r, HN, 5, 0.05, "largek")
            assert exact == pytest.approx(approx * factor, rel=1e-12)

    def test_zero_below_support(self):
        assert nr_pdf(-0.5, HN, 5, 0.05) == 0.0

    def test_change_of_variables_oracle(self):
        # independent evaluation: scipy truncated-normal density times the
        # jacobian of the quadratic map
        params = ParameterTriple(0.8, 0.36, 10.0)
        k = 10
        rep = moments_fixed_exact(params, k, 0.05)
        n_r = rep.expectation
        m, s = k * params.mu, math.sqrt(k * params.sigma2)
        a = (Z95 * math.sqrt(k) - m) / s
        sv = Z95 * math.sqrt(n_r + k)
        oracle = stats.truncnorm.pdf(sv, a, np.inf, loc=m, scale=s) \
            * Z95 / (2.0 * math.sqrt(n_r + k))
        assert nr_pdf(n_r, params, k, 0.05, "exact") == pytest.approx(
            oracle, rel=1e-10)

    def test_zero_variance_has_no_density(self):
        with pytest.raises(DegenerateVarianceError, match="sigma2 must be positive"):
            nr_pdf(1.0, ParameterTriple(0.8, 0.0, 5.0), 5, 0.05)

    def test_variant_validation(self):
        with pytest.raises(DomainError):
            nr_pdf(1.0, HN, 5, 0.05, "huge-k")
        # k = 0 divided by zero
        with pytest.raises(DomainError, match="k must be at least 1"):
            nr_pdf(1.0, HN, 0, 0.05)


class TestJointDensity:
    def test_factorizes(self):
        p = ParameterTriple(HN.mu, HN.sigma2, 5.0)
        pmf = math.exp(5 * math.log(5.0) - 5.0 - math.lgamma(6.0))
        expected = nr_pdf(2.0, p, 5, 0.05, "exact") * pmf
        assert nr_joint_pdf(2.0, 5, p, 0.05) == pytest.approx(expected,
                                                              abs=1e-14)

    def test_infinite_rate_rejected(self):
        # the triple took lam = inf, and the joint density returned nan
        with pytest.raises(DomainError, match="lam=inf"):
            nr_joint_pdf(1.0, 3, ParameterTriple(1.0, 1.0, math.inf), 0.05)

    def test_total_mass_excludes_zero_count(self):
        lam = 5.0
        p = ParameterTriple(HN.mu, HN.sigma2, lam)
        total = 0.0
        for k in range(1, 41):
            hi = k * p.mu + 14.0 * math.sqrt(k * p.sigma2)
            lo = Z95 * math.sqrt(k)

            def g(sv, kk=k):
                n = sv * sv / Z95**2 - kk
                return nr_joint_pdf(n, kk, p, 0.05) * 2.0 * sv / Z95**2

            mass, _ = integrate.quad(g, lo, hi, limit=300)
            total += mass
        assert total == pytest.approx(1.0 - math.exp(-lam), abs=1e-6)

    def test_nonnegative_on_grid(self):
        p = ParameterTriple(HN.mu, HN.sigma2, 7.0)
        g = np.random.default_rng(11)
        for _ in range(50):
            n_r = float(g.uniform(0, 50))
            k = int(g.integers(1, 30))
            assert nr_joint_pdf(n_r, k, p, 0.05) >= 0.0

    def test_zero_count_rejected(self):
        p = ParameterTriple(HN.mu, HN.sigma2, 5.0)
        with pytest.raises(DomainError):
            nr_joint_pdf(1.0, 0, p, 0.05)
