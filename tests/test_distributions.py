"""Special functions, closed-form moments, and sampler law checks."""
import math

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate, stats

from failsafe import (
    DomainError,
    HalfNormal,
    RandomSource,
    SkewNormal,
    StandardNormal,
    sample,
    std_normal_cdf,
    std_normal_pdf,
    std_normal_quantile,
)
from failsafe.distributions import _named_law, _z_alpha, std_normal_sf
from failsafe.simulation import STUDY_DISTRIBUTIONS

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

    @pytest.mark.parametrize("alpha", [1e-17, 1e-100, 1e-250, 1e-300, 1e-308])
    def test_critical_value_where_one_minus_alpha_rounds_to_one(self, alpha):
        # 1 - alpha is 1.0 in floats, and Z_a failed with the quantile's
        # "0 < p < 1"; the oracle solves Phi(-z) = alpha in log form.  Below
        # 1e-285 the quantile skipped its Newton step, 9.7e-11 off at 1e-300
        g = math.sqrt(-2.0 * math.log(alpha))
        want = mp.findroot(lambda z: mp.log(mp_cdf(-z)) - mp.log(mp.mpf(alpha)), g)
        assert _z_alpha(alpha) == pytest.approx(float(want), rel=1e-12)

    @pytest.mark.parametrize("alpha", [1e-4, 1e-5, 1e-10, 1e-12, 1e-16])
    def test_critical_value_at_small_alpha_matches_mpmath(self, alpha):
        # the quantile of the rounded 1 - alpha was 2.4e-13 off at 1e-5 and
        # 1.5e-3 at 1e-16; the lower tail keeps alpha's digits
        g = math.sqrt(-2.0 * math.log(alpha))
        want = mp.findroot(lambda z: mp.log(mp_cdf(-z)) - mp.log(mp.mpf(alpha)), g)
        assert _z_alpha(alpha) == pytest.approx(float(want), rel=1e-15)

    @pytest.mark.parametrize("alpha", [1e-3, 0.002, 0.005, 0.01, 0.025, 0.05, 0.1, 0.3])
    def test_critical_value_at_ordinary_alphas_keeps_the_upper_form(self, alpha):
        assert _z_alpha(alpha) == std_normal_quantile(1.0 - alpha)

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

    @pytest.mark.parametrize("f", [std_normal_pdf, std_normal_cdf, std_normal_sf])
    def test_special_functions_of_nan_are_domain_errors(self, f):
        # they returned nan; the infinities keep their limits
        with pytest.raises(DomainError, match="not defined at nan"):
            f(math.nan)
        assert (f(-math.inf), f(math.inf)) in [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0)]


class TestClosedFormMoments:
    def test_skew_moments_positive_delta(self):
        mean, var = SkewNormal(0.0, 1.0, 0.5).moments()
        assert mean == pytest.approx(0.398942, abs=1e-6)   # sqrt(1/2pi)
        assert var == pytest.approx(0.840845, abs=1e-6)    # 1 - 1/2pi

    def test_skew_moments_negative_delta(self):
        mean, _ = SkewNormal(0.0, 1.0, -0.5).moments()
        assert mean == pytest.approx(-0.398942, abs=1e-6)

    def test_skew_pdf_reduces_to_normal(self):
        # at delta = 0 the skew normal is the standard normal: the oracle
        # density is std_normal_pdf, the moments are (0, 1) and the draws
        # follow the standard normal law
        spec = SkewNormal(0.0, 1.0, 0.0)
        for x in (-1.0, 0.0, 2.0):
            assert float(scipy_law(spec).pdf(x)) == pytest.approx(
                std_normal_pdf(x), abs=1e-15)
        assert spec.moments() == (0.0, 1.0)
        draws = sample(spec, 10**5, RandomSource(7600, 5))
        assert stats.kstest(draws, "norm").pvalue > 1e-3

    def test_skew_domain(self):
        with pytest.raises(DomainError):
            SkewNormal(0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            SkewNormal(0.0, -1.0, 0.3)
        for xi, omega in ((math.inf, 1.0), (-math.inf, 1.0), (math.nan, 1.0),
                          (0.0, math.inf), (0.0, math.nan)):
            with pytest.raises(DomainError):
                SkewNormal(xi, omega, 0.5)

    def test_half_normal_domain(self):
        for sigma in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                HalfNormal(sigma)

    def test_skew_moments_overflow_to_inf(self):
        # omega ** 2 passes the float range; the variance is inf, not an
        # OverflowError
        mean, var = SkewNormal(0.0, 1e200, 0.5).moments()
        assert math.isfinite(mean) and var == math.inf


@pytest.mark.parametrize("spec, name", [
    (StandardNormal(), "std-normal"), (HalfNormal(1.0), "half-normal"),
    (HalfNormal(2.5), "half-normal(2.5)"), (SkewNormal(0.0, 1.0, -0.5), "skew-normal(-0.5)"),
    (SkewNormal(0.0, 1.0, 0.123456789), "skew-normal(0.123456789)"),
    # sigma was written with :g, and the location and scale left out
    (HalfNormal(1.0000001), "half-normal(1.0000001)"),
    (SkewNormal(3.0, 2.0, 0.5), "3.0+2.0*skew-normal(0.5)"),
    (SkewNormal(0.0, 2.0, 0.5), "0.0+2.0*skew-normal(0.5)"),
    (SkewNormal(-1.0, 1.0, 0.5), "-1.0+1.0*skew-normal(0.5)")])
def test_names(spec, name):
    # coverage reports carry these labels, and the benchmark parses them
    assert spec.name == name


@pytest.mark.parametrize("spec", STUDY_DISTRIBUTIONS, ids=lambda d: d.name)
def test_named_law_reads_the_name_back(spec):
    assert _named_law(spec.name) == spec


@pytest.mark.parametrize("name", [
    None, "gamma", "skew-normal", "skew-normal()", "skew-normal(x)", "skew-normal(0.5",
    "skew-normal(1.0)", "skew-normal(nan)", "half-normal(2.5)",
    SkewNormal(3.0, 2.0, 0.5).name, SkewNormal(0.0, 2.0, -0.5).name,
    HalfNormal(1.0000001).name])
def test_named_law_rejects_other_names(name):
    # only the standard forms are names of an assumption
    with pytest.raises(DomainError):
        _named_law(name)


SPECS = [
    StandardNormal(),
    HalfNormal(1.0),
    HalfNormal(0.5),
    SkewNormal(0.5, 1.5, 0.7),
    SkewNormal(0.0, 1.0, -0.5),
]


def scipy_law(spec):
    """The same law as ``spec``, from scipy.stats: an oracle independent of
    the package's own formulas."""
    if isinstance(spec, StandardNormal):
        return stats.norm()
    if isinstance(spec, HalfNormal):
        return stats.halfnorm(scale=spec.sigma_f)
    shape = spec.delta / math.sqrt(1.0 - spec.delta * spec.delta)
    return stats.skewnorm(shape, loc=spec.xi, scale=spec.omega)


class TestDensities:
    @pytest.mark.parametrize("spec", SPECS, ids=str)
    def test_moments_match_quadrature(self, spec):
        law = scipy_law(spec)
        lo, hi = law.support()
        m1, _ = integrate.quad(lambda x: x * law.pdf(x), lo, hi, limit=300)
        m2, _ = integrate.quad(lambda x: x * x * law.pdf(x), lo, hi, limit=300)
        mean, var = spec.moments()
        assert mean == pytest.approx(m1, abs=1e-8)
        assert var == pytest.approx(m2 - m1 * m1, abs=1e-7)

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    def test_half_folded_truncated_agree(self, sigma):
        # the half normal is the folded normal at mu = 0 and the normal
        # truncated to [0, inf): two more scipy laws for its moments
        mean, var = HalfNormal(sigma).moments()
        for law in (stats.foldnorm(0.0, scale=sigma),
                    stats.truncnorm(0.0, math.inf, scale=sigma)):
            law_mean, law_var = law.stats("mv")
            assert mean == pytest.approx(float(law_mean), rel=1e-12)
            assert var == pytest.approx(float(law_var), rel=1e-12)


class TestSamplers:
    @pytest.mark.parametrize("spec", SPECS, ids=str)
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

    def test_skew_mean_example(self):
        draws = sample(SkewNormal(0.0, 1.0, 0.5), 10**6, RandomSource(7400, 3))
        assert float(draws.mean()) == pytest.approx(0.3989, abs=0.003)

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
