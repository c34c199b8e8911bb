"""Special functions, closed-form moments, and sampler law checks."""
import math

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate

from failsafe import (
    DomainError,
    FoldedNormal,
    HalfNormal,
    Normal,
    Poisson,
    RandomSource,
    SkewNormal,
    StandardNormal,
    TruncatedNormal,
    folded_normal_moments,
    normal_raw_moment,
    poisson_raw_moment,
    sample,
    std_normal_cdf,
    std_normal_pdf,
    std_normal_quantile,
)

mp.mp.dps = 40


def mp_cdf(x):
    return mp.erfc(-mp.mpf(x) / mp.sqrt(2)) / 2


def mp_quantile(p):
    """Bisection oracle on the high-precision CDF."""
    p = mp.mpf(p)
    lo, hi = mp.mpf(-40), mp.mpf(40)
    for _ in range(200):
        mid = (lo + hi) / 2
        if mp_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return float((lo + hi) / 2)


class TestSpecialFunctions:
    def test_cdf_symmetry_point(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_quantile_median(self):
        assert std_normal_quantile(0.5) == pytest.approx(0.0, abs=1e-15)

    def test_quantile_95_vs_bisection_oracle(self):
        oracle = mp_quantile(0.95)
        assert std_normal_quantile(0.95) == pytest.approx(1.644854, abs=1e-5)
        assert std_normal_quantile(0.95) == pytest.approx(oracle, abs=1e-12)

    @pytest.mark.parametrize("x", [-8.0, -5.5, -2.0, -0.3, 0.0, 0.7, 1.96, 4.0, 8.0])
    def test_cdf_absolute_accuracy(self, x):
        assert std_normal_cdf(x) == pytest.approx(float(mp_cdf(x)), abs=1e-12)

    @pytest.mark.parametrize("p", [1e-12, 1e-6, 0.025, 0.3, 0.5, 0.8, 0.975,
                                   1 - 1e-6, 1 - 1e-12])
    def test_quantile_vs_oracle(self, p):
        assert std_normal_quantile(p) == pytest.approx(mp_quantile(p), abs=1e-9)

    def test_quantile_domain(self):
        for p in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(DomainError):
                std_normal_quantile(p)

    def test_pdf_is_cdf_derivative(self):
        h = 1e-6
        for x in (-3.0, -1.2, 0.0, 0.4, 2.5):
            num = (std_normal_cdf(x + h) - std_normal_cdf(x - h)) / (2 * h)
            assert num == pytest.approx(std_normal_pdf(x), rel=1e-8)

    def test_quantile_cdf_roundtrip_grid(self):
        # |quantile(cdf(x)) - x| meets 1e-9 wherever the double rounding of
        # cdf(x) permits; near the upper tail the representable resolution of
        # p close to 1 caps achievable accuracy at ~(eps/2)/pdf(x)
        eps_half = 2.0 ** -53
        for x in np.linspace(-8.0, 8.0, 1000):
            err = abs(std_normal_quantile(std_normal_cdf(x)) - x)
            floor = 2.0 * eps_half / std_normal_pdf(x) if x > 0 else 0.0
            assert err <= max(1e-9, floor)

    def test_cdf_quantile_roundtrip_from_p(self):
        for p in np.linspace(1e-10, 1 - 1e-10, 501):
            assert std_normal_cdf(std_normal_quantile(p)) == pytest.approx(
                p, rel=1e-12, abs=1e-13)

    def test_cdf_monotone(self):
        xs = np.linspace(-9, 9, 400)
        vals = [std_normal_cdf(x) for x in xs]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


class TestClosedFormMoments:
    def test_folded_zero_mean(self):
        mean, var = folded_normal_moments(0.0, 1.0)
        assert mean == pytest.approx(0.797885, abs=1e-6)
        assert var == pytest.approx(0.363380, abs=1e-6)

    def test_folded_general_vs_quadrature(self):
        # oracle: direct quadrature of the folded density
        spec = FoldedNormal(1.0, 1.0)
        m1, _ = integrate.quad(lambda y: y * spec.pdf(y), 0, 30)
        m2, _ = integrate.quad(lambda y: y * y * spec.pdf(y), 0, 30)
        mean, var = folded_normal_moments(1.0, 1.0)
        assert mean == pytest.approx(1.1666309411753726, abs=1e-12)
        assert mean == pytest.approx(m1, abs=1e-9)
        assert var == pytest.approx(m2 - m1 * m1, abs=1e-9)
        assert mean == pytest.approx(1.16663, abs=1e-4)

    def test_folded_general_vs_monte_carlo(self):
        g = RandomSource(910, 0).generator()
        draws = np.abs(g.normal(1.0, 1.0, 10**7))
        se = draws.std(ddof=1) / math.sqrt(len(draws))
        assert folded_normal_moments(1.0, 1.0)[0] == pytest.approx(
            float(draws.mean()), abs=4 * se)

    def test_folded_far_from_origin(self):
        mean, var = folded_normal_moments(10.0, 1.0)
        assert mean == pytest.approx(10.0, abs=1e-6)
        assert var == pytest.approx(1.0, abs=1e-6)

    def test_folded_domain(self):
        with pytest.raises(DomainError):
            folded_normal_moments(0.0, 0.0)

    def test_skew_moments_positive_delta(self):
        mean, var = SkewNormal(0.0, 1.0, 0.5).moments()
        assert mean == pytest.approx(0.398942, abs=1e-6)   # sqrt(1/2pi)
        assert var == pytest.approx(0.840845, abs=1e-6)    # 1 - 1/2pi

    def test_skew_moments_negative_delta(self):
        mean, _ = SkewNormal(0.0, 1.0, -0.5).moments()
        assert mean == pytest.approx(-0.398942, abs=1e-6)

    def test_skew_pdf_reduces_to_normal(self):
        spec = SkewNormal(0.0, 1.0, 0.0)
        for x in (-1.0, 0.0, 2.0):
            assert float(spec.pdf(x)) == pytest.approx(std_normal_pdf(x), abs=1e-15)

    def test_skew_domain(self):
        with pytest.raises(DomainError):
            SkewNormal(0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            SkewNormal(0.0, -1.0, 0.3)

    def test_normal_raw_moments_table(self):
        assert normal_raw_moment(4, 0.0, 1.0) == pytest.approx(3.0)
        # quadrature oracle across every tabulated order
        spec = Normal(0.7, 1.3)
        for order in range(1, 6):
            m, _ = integrate.quad(lambda x, n=order: x**n * spec.pdf(x), -20, 20)
            assert normal_raw_moment(order, 0.7, 1.3) == pytest.approx(m, rel=1e-9)

    def test_poisson_raw_moments_table(self):
        assert poisson_raw_moment(4, 1.0) == pytest.approx(15.0)
        # direct-summation oracle over the probability mass
        spec = Poisson(2.0)
        ks = np.arange(0, 201)
        pmf = spec.pmf(ks)
        assert poisson_raw_moment(3, 2.0) == pytest.approx(
            float((ks**3 * pmf).sum()), rel=1e-12)
        assert poisson_raw_moment(3, 2.0) == pytest.approx(22.0)

    def test_raw_moment_domain(self):
        with pytest.raises(DomainError):
            normal_raw_moment(6, 0.0, 1.0)
        with pytest.raises(DomainError):
            normal_raw_moment(0, 0.0, 1.0)
        with pytest.raises(DomainError):
            poisson_raw_moment(5, 1.0)


CONTINUOUS_SPECS = [
    StandardNormal(),
    Normal(2.0, 3.0),
    FoldedNormal(1.0, 1.0),
    HalfNormal(1.0),
    HalfNormal(0.5),
    SkewNormal(0.5, 1.5, 0.7),
    SkewNormal(0.0, 1.0, -0.5),
    TruncatedNormal(1.0, 2.0, -1.0, 3.0),
    TruncatedNormal(0.0, 1.0, 0.0, math.inf),
]

SUPPORTS = {
    StandardNormal: (-math.inf, math.inf),
    Normal: (-math.inf, math.inf),
    FoldedNormal: (0.0, math.inf),
    HalfNormal: (0.0, math.inf),
    SkewNormal: (-math.inf, math.inf),
}


def _support(spec):
    if isinstance(spec, TruncatedNormal):
        return spec.lower, spec.upper
    return SUPPORTS[type(spec)]


class TestDensities:
    @pytest.mark.parametrize("spec", CONTINUOUS_SPECS, ids=str)
    def test_pdf_integrates_to_one(self, spec):
        lo, hi = _support(spec)
        mass, _ = integrate.quad(lambda x: float(spec.pdf(x)), lo, hi, limit=300)
        assert mass == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("spec", CONTINUOUS_SPECS, ids=str)
    def test_moments_match_quadrature(self, spec):
        lo, hi = _support(spec)
        m1, _ = integrate.quad(lambda x: x * float(spec.pdf(x)), lo, hi, limit=300)
        m2, _ = integrate.quad(lambda x: x * x * float(spec.pdf(x)), lo, hi,
                               limit=300)
        mean, var = spec.moments()
        assert mean == pytest.approx(m1, abs=1e-8)
        assert var == pytest.approx(m2 - m1 * m1, abs=1e-7)

    def test_poisson_pmf_mass_and_moments(self):
        spec = Poisson(5.0)
        ks = np.arange(0, 200)
        pmf = spec.pmf(ks)
        assert float(pmf.sum()) == pytest.approx(1.0, abs=1e-12)
        assert float((ks * pmf).sum()) == pytest.approx(5.0, rel=1e-12)

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    def test_half_folded_truncated_agree(self, sigma):
        hn = HalfNormal(sigma)
        fn = FoldedNormal(0.0, sigma)
        tn = TruncatedNormal(0.0, sigma, 0.0, math.inf)
        xs = np.linspace(0.0, 6.0 * sigma, 200)
        assert np.max(np.abs(hn.pdf(xs) - fn.pdf(xs))) < 1e-12
        assert np.max(np.abs(hn.pdf(xs) - tn.pdf(xs))) < 1e-12

    def test_truncated_requires_ordered_bounds(self):
        with pytest.raises(DomainError):
            TruncatedNormal(0.0, 1.0, 2.0, 2.0)


SAMPLER_SPECS = CONTINUOUS_SPECS + [Poisson(5.0)]


class TestSamplers:
    @pytest.mark.parametrize("spec", SAMPLER_SPECS, ids=str)
    def test_law_check_one_million(self, spec):
        draws = sample(spec, 10**6, RandomSource(7100, hash(str(spec)) % 2**32))
        mean, var = spec.moments()
        n = len(draws)
        se_mean = math.sqrt(var / n)
        assert float(draws.mean()) == pytest.approx(mean, abs=4 * se_mean)
        centered = draws - draws.mean()
        m4 = float((centered**4).mean())
        s2 = float(centered.var())
        se_var = math.sqrt(max(m4 - s2 * s2, 1e-30) / n)
        assert s2 == pytest.approx(var, abs=4 * se_var)

    def test_half_normal_mean_example(self):
        draws = sample(HalfNormal(1.0), 10**6, RandomSource(7200, 1))
        assert float(draws.mean()) == pytest.approx(0.7979, abs=0.002)

    def test_poisson_mean_example(self):
        draws = sample(Poisson(5.0), 10**6, RandomSource(7300, 2))
        assert float(draws.mean()) == pytest.approx(5.0, abs=0.01)

    def test_skew_mean_example(self):
        draws = sample(SkewNormal(0.0, 1.0, 0.5), 10**6, RandomSource(7400, 3))
        assert float(draws.mean()) == pytest.approx(0.3989, abs=0.003)

    def test_truncated_respects_bounds(self):
        spec = TruncatedNormal(1.0, 2.0, -0.5, 2.5)
        draws = sample(spec, 10**5, RandomSource(7500, 4))
        assert float(draws.min()) >= -0.5
        assert float(draws.max()) <= 2.5

    def test_empty_draw(self):
        assert len(sample(StandardNormal(), 0, RandomSource(1, 0))) == 0

    def test_negative_draw_rejected(self):
        with pytest.raises(DomainError):
            sample(StandardNormal(), -1, RandomSource(1, 0))


class TestRandomSource:
    def test_identical_pairs_bit_identical(self):
        a = sample(StandardNormal(), 1000, RandomSource(99, 5))
        b = sample(StandardNormal(), 1000, RandomSource(99, 5))
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = sample(StandardNormal(), 1000, RandomSource(99, 5))
        b = sample(StandardNormal(), 1000, RandomSource(99, 6))
        assert not np.array_equal(a, b)

    def test_stream_cross_correlation(self):
        n = 10**5
        a = sample(StandardNormal(), n, RandomSource(1234, 0))
        b = sample(StandardNormal(), n, RandomSource(1234, 1))
        r = float(np.corrcoef(a, b)[0, 1])
        assert abs(r) < 4.0 / math.sqrt(n)

    def test_seed_validation(self):
        with pytest.raises(DomainError):
            RandomSource(-1, 0)
        with pytest.raises(DomainError):
            RandomSource(0, 2**64)
