"""Intervals, the 5k+10 test, cutoff tables, and method tokens."""
import importlib.util
import math
import random
import statistics
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from failsafe import (
    DegenerateVarianceError,
    DomainError,
    FailsafeError,
    InsufficientDataError,
    Interval,
    Method,
    RandomSource,
    SkewNormal,
    ZSample,
    ci_bootstrap,
    ci_normal,
    cutoff_table,
    distributional_params,
    failsafe_test,
    method_variance,
    moments_estimate,
    parse_method,
    rosenthal_nr,
    std_normal_quantile,
    true_nr,
)
from failsafe.core import _moments_fixed, random_variance, raw_nr
from failsafe.inference import (
    CUTOFF_ROWS_MAX,
    FIXED_VARIANTS,
    _resample_sd,
    bootstrap_nr_draws,
)

Z95 = std_normal_quantile(0.95)
HN = distributional_params("half-normal", 1)


def benchmark_oracles():
    """The benchmark's reference module, ``perfbench/oracles.py``, loaded
    read-only: it rebuilds every value without importing failsafe."""
    path = Path(__file__).parents[1] / "perfbench" / "oracles.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # its dataclasses look themselves up
    spec.loader.exec_module(module)
    return module


class Cycle:
    """A stand-in for a generator's ``integers`` that deals out the index
    rows ``rows`` in turn, continuing from call to call as a stream does."""

    def __init__(self, rows):
        self.rows, self.drawn = rows, 0

    def integers(self, low, high, size):
        take = self.rows[np.arange(self.drawn, self.drawn + size[0]) % len(self.rows)]
        self.drawn += size[0]
        return take


def published_interval(n_r, k, model, level=0.95):
    """The interval about a published (k, N_R) pair under a named assumption:
    n_r +- q sqrt(method_variance), q the two-sided ``level`` quantile."""
    variance = method_variance(model, None, k, 0.05)
    half = std_normal_quantile(0.5 + level / 2) * math.sqrt(variance)
    return Interval(n_r - half, n_r + half, level, model.describe(), variance)


class TestPublishedIntervals:
    """The four reproducible interval cells of the worked examples."""

    def test_study1_fixed(self):
        iv = published_interval(2124, 63, Method("fixed-dist", "std-normal"))
        assert iv.lower == pytest.approx(2059.4570034335507, abs=1e-6)
        assert iv.upper == pytest.approx(2188.5429965664493, abs=1e-6)
        assert abs(iv.lower - 2060) <= 1 and abs(iv.upper - 2188) <= 1

    def test_study1_random(self):
        iv = published_interval(2124, 63, Method("random-dist", "std-normal"))
        assert abs(iv.lower - 2059) <= 1 and abs(iv.upper - 2189) <= 1

    def test_study2_fixed(self):
        iv = published_interval(73860, 148, Method("fixed-dist", "std-normal"))
        assert abs(iv.lower - 73709) <= 1 and abs(iv.upper - 74012) <= 1

    def test_study2_random(self):
        iv = published_interval(73860, 148, Method("random-dist", "std-normal"))
        assert abs(iv.lower - 73707) <= 1 and abs(iv.upper - 74013) <= 1

    def test_infinite_point_estimate_raises(self):
        with pytest.raises(DomainError, match="not finite"):
            published_interval(math.inf, 5, Method("fixed-dist", "half-normal"))

    def test_point_interval_needs_distribution_model(self):
        with pytest.raises(DomainError):
            published_interval(100, 10, Method("fixed-mom"))


class TestNormalInterval:
    def test_symmetric_about_estimate(self):
        sample = ZSample((1.1, 2.0, 0.7, 1.4, 2.2))
        est = rosenthal_nr(sample)
        for model in (Method("fixed-dist", "half-normal"), Method("fixed-mom"),
                      Method("random-dist", "std-normal"), Method("random-mom")):
            iv = ci_normal(est, sample, model, 0.95)
            assert 0.5 * (iv.lower + iv.upper) == pytest.approx(est.n_r,
                                                                abs=1e-9)

    def test_width_grows_with_level(self):
        sample = ZSample((1.1, 2.0, 0.7, 1.4, 2.2))
        est = rosenthal_nr(sample)
        widths = [ci_normal(est, sample, Method("fixed-mom"), lvl).upper
                  - ci_normal(est, sample, Method("fixed-mom"), lvl).lower
                  for lvl in (0.8, 0.9, 0.95, 0.99)]
        assert widths == sorted(widths)

    def test_moment_variants_share_center(self):
        sample = ZSample((0.9, 1.8, 1.1, 2.4, 0.5, 1.9))
        est = rosenthal_nr(sample)
        a = ci_normal(est, sample, Method("fixed-mom"), 0.95)
        b = ci_normal(est, sample, Method("random-mom"), 0.95)
        assert 0.5 * (a.lower + a.upper) == pytest.approx(
            0.5 * (b.lower + b.upper), abs=1e-9)
        assert a.variance_used != b.variance_used

    def test_degenerate_sample_raises(self):
        sample = ZSample((2.0,) * 10)
        est = rosenthal_nr(sample)
        with pytest.raises(DegenerateVarianceError):
            ci_normal(est, sample, Method("fixed-mom"), 0.95)

    def test_width_collapses_with_variance(self):
        iv = published_interval(
            10.0, 4, Method("fixed-dist", "skew-normal(1e-09)", variant="largek"))
        # sigma2 ~ 1 here; instead shrink through a tiny-scale skew triple
        assert iv.upper > iv.lower
        w = []
        for s2 in (1e-2, 1e-6, 1e-10):
            v = _moments_fixed(0.0, s2, 4, 0.05, "largek")[1]
            w.append(2 * std_normal_quantile(0.975) * math.sqrt(v))
        assert w[0] > w[1] > w[2]
        assert w[2] < 1e-8

    def test_bootstrap_model_rejected(self):
        sample = ZSample((1.0, 2.0))
        est = rosenthal_nr(sample)
        with pytest.raises(DomainError):
            ci_normal(est, sample, Method("boot", replicates=1000), 0.95)


class TestBootstrapInterval:
    # the sign of shift is the sample's; a sum 6 or more sd(S*) above the
    # threshold makes the clamp at zero invisible at 2 000 resamples
    @pytest.mark.parametrize("k, shift, seed", [(3, 4.0, 1), (5, 3.0, 1), (8, 2.0, 2),
                                                (12, -2.0, 7), (15, 1.5, 3), (30, 1.0, 4),
                                                (50, 0.8, 5), (100, 0.5, 6)])
    def test_moments_agree_with_the_exact_bootstrap(self, k, shift, seed):
        # the oracle takes the B -> infinity moments of the unclamped
        # estimator from the sample's cumulants; each Monte Carlo moment lies
        # within 4 of its standard errors
        oracle, replicates = benchmark_oracles(), 2000
        g = RandomSource(seed, k).generator()
        z = tuple(shift + math.copysign(abs(v), shift) for v in g.standard_normal(k))
        ex = oracle.bootstrap_exact(z, 0.05)
        assert ex.clamp_margin_sd >= 6.0
        _, boot_mean, boot_se = ci_bootstrap(ZSample(z), replicates, RandomSource(seed))
        assert abs(boot_mean - ex.mean) <= 4.0 * ex.sd / math.sqrt(replicates)
        assert abs(oracle.sd_z(boot_se, ex.sd, ex.kurtosis, replicates)) <= 4.0

    def test_constant_sample_zero_width(self):
        sample = ZSample((2.0,) * 10)
        iv, boot_mean, boot_se = ci_bootstrap(sample, 500, RandomSource(1, 0))
        est = rosenthal_nr(sample)
        assert boot_se == 0.0
        assert iv.lower == iv.upper == pytest.approx(est.n_r)
        assert boot_mean == pytest.approx(est.n_r)

    def test_deterministic_under_seed(self):
        sample = ZSample(tuple(np.abs(np.random.default_rng(8).normal(1, 1, 20))))
        a = ci_bootstrap(sample, 800, RandomSource(77, 3))
        b = ci_bootstrap(sample, 800, RandomSource(77, 3))
        assert a == b
        c = ci_bootstrap(sample, 800, RandomSource(77, 4))
        assert c != a

    def test_se_stabilizes_with_replicates(self):
        g = RandomSource(2131, 0).generator()
        sample = ZSample(tuple(np.abs(g.normal(0, 1, 40))))
        _, _, se1 = ci_bootstrap(sample, 1000, RandomSource(5, 1))
        _, _, se4 = ci_bootstrap(sample, 4000, RandomSource(5, 2))
        assert abs(se4 - se1) / se1 < 0.10

    def test_negative_resamples_clamp_at_zero(self):
        # the z-sum sits just above Z_a sqrt(k), so many resample sums fall
        # below it and their raw values below zero; the estimator clamps each
        # at zero
        sample = ZSample((0.9, 1.3, 0.4, 1.1, 0.2, 0.3))
        replicates, src = 2000, RandomSource(31, 2)
        iv, boot_mean, boot_se = ci_bootstrap(sample, replicates, src)
        z, k = sample.z, sample.k
        u = random.Random(31 << 64 | 2).random
        rows = [[int(u() * k) for _ in range(k)] for _ in range(replicates)]
        raw = [sum(z[i] for i in row) ** 2 / Z95**2 - k for row in rows]
        assert sum(r < 0.0 for r in raw) > replicates // 3
        clamped = [r if r > 0.0 else 0.0 for r in raw]
        assert boot_mean == pytest.approx(statistics.fmean(clamped), rel=1e-12)
        assert boot_se == pytest.approx(statistics.stdev(clamped), rel=1e-12)
        est = rosenthal_nr(sample)
        half = std_normal_quantile(0.975) * statistics.stdev(clamped)
        assert (iv.lower, iv.upper) == pytest.approx((est.n_r - half, est.n_r + half),
                                                     rel=1e-12)

    # 100 is the fewest resamples the bootstrap takes; 1 000 resamples at
    # k = 160 take 160 000 draws, past the generator's 624-word state many
    # times over
    @pytest.mark.parametrize("replicates", [100, 199, 500, 1000])
    # 2 is the smallest sample the bootstrap takes; 97 is prime
    @pytest.mark.parametrize("k", [2, 3, 5, 8, 15, 30, 50, 97, 160])
    # the seed int master_seed << 64 | stream_id spans 1 to 128 bits
    @pytest.mark.parametrize("seed, stream", [(0, 0), (99, 5), (12345, 10**6),
                                              (2**64 - 1, 0), (2**64 - 1, 2**64 - 1)])
    def test_resamples_follow_the_documented_stream(self, seed, stream, k, replicates):
        # resample r takes z[int(u() * k)] for draws r k to r k + k - 1 of
        # random.Random(seed << 64 | stream); with z ~ N(1, 1) small samples
        # clamp some resamples at zero
        sample = ZSample(tuple(np.random.default_rng(k).normal(1.0, 1.0, k).tolist()))
        iv, boot_mean, boot_se = ci_bootstrap(sample, replicates,
                                              RandomSource(seed, stream))
        z, est = sample.z, rosenthal_nr(sample)
        u = random.Random(seed << 64 | stream).random
        sums = [math.fsum([z[int(u() * k)] for _ in range(k)]) for _ in range(replicates)]
        draws = [max(s * s / (est.z_alpha * est.z_alpha) - k, 0.0) for s in sums]
        assert boot_mean == pytest.approx(statistics.fmean(draws), rel=1e-12)
        assert boot_se == pytest.approx(statistics.stdev(draws), rel=1e-12, abs=1e-300)
        half = std_normal_quantile(0.975) * boot_se
        assert (iv.lower, iv.upper) == (est.n_r - half, est.n_r + half)

    @pytest.mark.parametrize("k, replicates", [(3, 10_001), (50, 1000), (15, 1000)])
    def test_draws_equal_one_block(self, k, replicates):
        z = np.abs(RandomSource(4, k).generator().standard_normal(k))
        got = bootstrap_nr_draws(z, replicates, Z95, RandomSource(9, k).generator())
        g = RandomSource(9, k).generator()
        sums = np.einsum("ij->i", z[g.integers(0, k, size=(replicates, k))])
        np.testing.assert_array_equal(got, sums * sums / (Z95 * Z95) - k)

    # k = 160 with 1 000 resamples spans 10 blocks
    @pytest.mark.parametrize("k, replicates", [(2, 100), (3, 10_001), (15, 1000),
                                               (50, 1000), (160, 1000)])
    def test_sums_lie_within_the_summation_bound_of_fsum(self, k, replicates, monkeypatch):
        # the row sums are caught where raw_nr receives them; mixed signs
        # and scales make them cancel.  Summed in any order, k values lie
        # within (k - 1) eps/2 sum|z| of their exact sum, so within k eps
        # sum|z| of the exactly rounded one
        import failsafe.inference as inference
        seen = []

        def recording(s, k, z_alpha):
            seen.append(s.copy())
            return raw_nr(s, k, z_alpha)

        monkeypatch.setattr(inference, "raw_nr", recording)
        g = RandomSource(11, k).generator()
        z = g.standard_normal(k) * 10.0 ** g.integers(-3, 4, size=k)
        bootstrap_nr_draws(z, replicates, Z95, RandomSource(12, k).generator())
        idx = RandomSource(12, k).generator().integers(0, k, size=(replicates, k))
        exact = np.array([math.fsum(row) for row in z[idx]])
        bound = k * np.finfo(float).eps * np.abs(z[idx]).sum(axis=1)
        (sums,) = seen
        assert np.all(np.abs(sums - exact) <= bound)

    @pytest.mark.parametrize("k", [3, 8, 15, 50])
    def test_a_resample_sums_alike_in_every_block_and_row(self, k):
        # seven index rows repeat in turn through more than three blocks, so
        # each meets many blocks and memory offsets; its draw must not change
        rows = RandomSource(13, k).generator().integers(0, k, size=(7, k))
        z = RandomSource(14, k).generator().standard_normal(k)
        draws = bootstrap_nr_draws(z, 3 * (2**14 // k) + 101, Z95, Cycle(rows))
        for j, row in enumerate(rows):
            alone = bootstrap_nr_draws(z, 1, Z95, Cycle(row[None]))
            assert np.all(draws[j::len(rows)] == alone[0])

    @pytest.mark.filterwarnings("error")
    def test_every_resample_overflowing_raises(self):
        # the sample sums to 0, but each of these 100 resamples of 500 pairs
        # is unbalanced, so its square overflows; this was a (0, 0) interval
        sample = ZSample((1e160, -1e160) * 500)
        with pytest.raises(DegenerateVarianceError, match="not finite"):
            ci_bootstrap(sample, 100, RandomSource(0))

    @pytest.mark.filterwarnings("error")
    def test_some_resamples_overflowing_raises(self):
        # the z-sum 1.1e154 squares inside the float range; resamples that
        # take 9e153 more than once do not
        sample = ZSample((1e153, 1e153, 9e153))
        u = random.Random(0).random
        rows = [[int(u() * 3) for _ in range(3)] for _ in range(200)]
        sums = [math.fsum(sample.z[i] for i in row) for row in rows]
        assert 0 < sum(math.isinf(s * s) for s in sums) < 100
        with pytest.raises(DegenerateVarianceError, match="not finite"):
            ci_bootstrap(sample, 200, RandomSource(0))

    @pytest.mark.filterwarnings("error")
    def test_overflowing_spread_raises(self):
        # every resample's estimate is finite, up to 5.3e307, but their
        # squared deviations are not
        sample = ZSample((6e153, 1e150))
        with pytest.raises(DegenerateVarianceError, match="not finite"):
            ci_bootstrap(sample, 200, RandomSource(0))

    @pytest.mark.filterwarnings("error")
    def test_overflowing_engine_draw_raises(self):
        # 53 of these 200 resample sums square past the float range: the
        # draws held inf after an "overflow encountered in multiply" warning
        with pytest.raises(DegenerateVarianceError, match="not finite"):
            bootstrap_nr_draws(np.array([1e153, 1e153, 9e153]), 200, Z95,
                               RandomSource(0).generator())

    @pytest.mark.parametrize("k", [2, 5, 15, 30, 50])
    def test_resample_sd_is_numpy_s_to_the_bit(self, k):
        for i in range(100):
            g = RandomSource(i, k).generator()
            draws = bootstrap_nr_draws(np.abs(g.standard_normal(k)) * (1 + i % 7),
                                       100 + 50 * (i % 5), Z95, g)
            if i % 2:
                draws = np.maximum(draws, 0.0)
            assert _resample_sd(draws.copy()) == float(draws.std(ddof=1))

    def test_validation(self):
        with pytest.raises(InsufficientDataError):
            ci_bootstrap(ZSample((1.0,)), 500, RandomSource(1, 0))
        with pytest.raises(DomainError):
            ci_bootstrap(ZSample((1.0, 2.0)), 99, RandomSource(1, 0))

    def test_coverage_of_half_normal_cell(self):
        # desk check of the k=30 bootstrap cell: expect 0.913 +/- 0.03
        k, outer, inner = 30, 2000, 1000
        tv = true_nr(distributional_params("half-normal", k), "fixed", 0.05,
                     k=k)
        q = std_normal_quantile(0.975)
        hits = 0
        for i in range(outer):
            g = RandomSource(6060, i).generator()
            z = np.abs(g.standard_normal(k))
            s = float(z.sum())
            raw = s * s / Z95**2 - k
            nr = raw if raw > 0 else 0.0
            idx = g.integers(0, k, size=(inner, k))
            bs = z[idx].sum(axis=1)
            bnr = np.maximum(bs * bs / Z95**2 - k, 0.0)
            hw = q * bnr.std(ddof=1)
            hits += nr - hw <= tv <= nr + hw
        assert hits / outer == pytest.approx(0.913, abs=0.03)


class TestFailsafeTest:
    def test_null_boundary(self):
        est = rosenthal_nr(ZSample((Z95 * math.sqrt(135.0 + 25) / 25,) * 25))
        assert est.n_r == pytest.approx(135.0, abs=1e-9)
        t = failsafe_test(est, 100.0)
        assert t.statistic == pytest.approx(0.0, abs=1e-10)
        assert not t.reject

    def test_critical_value_at_the_estimates_level(self):
        est = rosenthal_nr(ZSample((3.0,) * 25, alpha=0.01))
        assert failsafe_test(est, 100.0).critical == std_normal_quantile(0.99)

    @pytest.mark.parametrize("variant", ["exact", "table"])
    def test_k25_cutoff_consistency(self, variant):
        var = method_variance(Method("fixed-dist", "half-normal", variant), None, 25, 0.05)
        at_cut = failsafe_test(_fake_estimate(209.0, 25), var)
        below = failsafe_test(_fake_estimate(208.0, 25), var)
        assert at_cut.statistic > at_cut.critical and at_cut.reject
        assert not below.reject

    def test_degenerate_variance(self):
        with pytest.raises(DegenerateVarianceError):
            failsafe_test(_fake_estimate(100.0, 10), 0.0)

    @pytest.mark.parametrize("variance", [math.inf, math.nan])
    def test_non_finite_variance_rejected(self, variance):
        # an infinite variance gave the statistic -0.0
        with pytest.raises(DegenerateVarianceError, match="positive finite variance"):
            failsafe_test(_fake_estimate(100.0, 10), variance)

    @given(st.floats(0.0, 5000.0), st.integers(1, 100), st.floats(0.1, 4000.0))
    @settings(max_examples=80, deadline=None)
    def test_rejection_region_equivalence(self, n_r, k, variance):
        t = failsafe_test(_fake_estimate(n_r, k), variance)
        algebraic = n_r > Z95 * math.sqrt(variance) + 5 * k + 10
        assert t.reject == algebraic


def _fake_estimate(n_r, k):
    from failsafe import FailSafeEstimate
    return FailSafeEstimate(
        n_r=n_r, k=k, sum_z=float("nan"), stouffer_z=float("nan"), alpha=0.05,
        z_alpha=Z95, below_threshold=False, rule_threshold=5.0 * k + 10.0,
        rule_exceeded=n_r > 5 * k + 10)


class TestCutoffTable:
    @pytest.mark.parametrize("alpha", [0.01, 0.025, 0.05])
    def test_every_row_matches_the_benchmark_oracle(self, alpha):
        # the oracle's unrounded values sit at least 0.0017 from a rounding
        # tie, so the two must round alike
        oracle = benchmark_oracles()
        assert cutoff_table(160, alpha) == [(k, oracle.cutoff(k, alpha)[0])
                                            for k in range(1, 161)]

    def test_anchor_rows(self):
        rows = dict(cutoff_table(63))
        assert abs(rows[25] - 209) <= 1
        assert abs(rows[63] - 618) <= 1

    def test_small_k_rows(self):
        rows = cutoff_table(3)
        for (k, cut), want in zip(rows, (17, 26, 35)):
            assert abs(cut - want) <= 1

    def test_strictly_increasing_and_above_rule(self):
        rows = cutoff_table(120)
        cuts = [c for _, c in rows]
        assert all(a < b for a, b in zip(cuts, cuts[1:]))
        assert all(c > 5 * k + 10 for k, c in rows)

    def test_model_override(self):
        default = cutoff_table(10)
        largek = cutoff_table(10, model=Method("fixed-dist", "half-normal",
                                               variant="largek"))
        assert default != largek

    def test_validation(self):
        with pytest.raises(DomainError):
            cutoff_table(0)
        with pytest.raises(DomainError):
            cutoff_table(5, model=Method("fixed-mom"))

    def test_row_bound(self):
        assert cutoff_table(CUTOFF_ROWS_MAX)[-1][0] == CUTOFF_ROWS_MAX == 10**5
        for k_max in (CUTOFF_ROWS_MAX + 1, 10**200):
            with pytest.raises(DomainError, match="the cutoff table has at most 100000 rows"):
                cutoff_table(k_max)


class TestMethodTokens:
    @pytest.mark.parametrize("model", [
        Method("fixed-dist", "std-normal"),
        Method("fixed-dist", "half-normal", variant="exact"),
        Method("fixed-dist", "half-normal", variant="table"),
        Method("fixed-dist", "skew-normal(-0.5)"),
        Method("fixed-mom"),
        Method("fixed-mom", variant="exact"),
        Method("random-dist", "half-normal"),
        Method("random-dist", "skew-normal(0.5)"),
        Method("random-mom"),
        Method("boot", replicates=2000),
    ])
    def test_roundtrip(self, model):
        assert parse_method(model.describe()) == model

    @pytest.mark.parametrize("head", ["fixed-dist", "random-dist"])
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(delta=st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True))
    def test_delta_roundtrip(self, head, delta):
        for variant in (FIXED_VARIANTS if head == "fixed-dist" else (None,)):
            model = Method(head, f"skew-normal({delta!r})", variant)
            assert model.law == SkewNormal(0.0, 1.0, delta)
            again = parse_method(model.describe())
            assert again == model
            assert _variance_or_error(again) == _variance_or_error(model)

    def test_delta_roundtrip_keeps_every_digit(self):
        # describe() once wrote delta with :g, as skew-normal(0.123457)
        model = parse_method("fixed-dist:skew-normal(0.123456789)")
        assert model.describe() == "fixed-dist:skew-normal(0.123456789):largek"
        again = parse_method(model.describe())
        assert again == model
        assert method_variance(again, None, 5, 0.05) == method_variance(model, None, 5, 0.05)

    def test_assumption_is_kept_in_the_law_s_own_form(self):
        assert Method("fixed-dist", "skew-normal(0.50)") == \
            Method("fixed-dist", "skew-normal(5e-1)")
        assert parse_method("random-dist:skew-normal(+.5)").describe() == \
            "random-dist:skew-normal(0.5)"

    def test_bad_tokens(self):
        for token in ("fixed-dist", "fixed-dist:gamma", "boot:zz",
                      "random-dist", "nope", "fixed-dist:half-normal:huge",
                      "random-mom:exact", "fixed-mom:largek:1", "boot:500:1",
                      "fixed-dist:skew-normal(x)", "boot:50",
                      # the fit matched the sample moments the -mom heads read
                      "fixed-dist:skew-normal-fit", "fixed-dist:skew-normal-fit:table",
                      "random-dist:skew-normal-fit"):
            with pytest.raises(DomainError):
                parse_method(token)

    def test_bootstrap_floor(self):
        with pytest.raises(DomainError):
            Method("boot", replicates=50)

    @pytest.mark.parametrize("fields", [
        dict(head="bayes"), dict(head="fixed-dist"), dict(head="random-dist"),
        dict(head="fixed-mom", assumption="half-normal"),
        dict(head="boot", assumption="skew-normal(0.5)"),
        dict(head="random-mom", variant="exact"),
        dict(head="random-dist", assumption="std-normal", variant="table"),
        dict(head="fixed-mom", replicates=1000),
        dict(head="fixed-dist", assumption="skew-normal"),
        dict(head="random-dist", assumption="half-normal(0.5)")])
    def test_rejects_fields_of_other_methods(self, fields):
        with pytest.raises(DomainError):
            Method(**fields)

    def test_defaults(self):
        assert Method("fixed-mom") == Method("fixed-mom", variant="largek")
        assert Method("boot").replicates == 1000
        assert parse_method("boot", 300) == Method("boot", replicates=300)
        assert parse_method("boot:200", 300).replicates == 200


def _variance_or_error(model, k=5, alpha=0.05):
    try:
        return method_variance(model, None, k, alpha)
    except FailsafeError as exc:
        return type(exc), str(exc)


ASSUMED = ("std-normal", "half-normal", "skew-normal(-0.5)", "skew-normal(0.5)")
CLOSED_FORM = ([Method("fixed-dist", a, v) for a in ASSUMED for v in FIXED_VARIANTS]
               + [Method("random-dist", a) for a in ASSUMED]
               + [Method("fixed-mom", variant=v) for v in FIXED_VARIANTS]
               + [Method("random-mom")])
# signed zeros, the smallest subnormal, 1e+-150, 1e200 and near the float limit
EXTREMES = (0.0, -0.0, 5e-324, 1e-150, 1e150, 1e200, 1.7e308, -1.7e308)


class TestMethodVariance:
    SAMPLE = ZSample((1.1, 2.0, 0.7, 1.4, 2.2))

    def test_sources(self):
        s = self.SAMPLE
        fixed = method_variance(Method("fixed-mom", variant="exact"), s.z, s.k, 0.05)
        p = moments_estimate(s)
        assert fixed == _moments_fixed(p.mu, p.sigma2, s.k, 0.05, "exact")[1]
        sampled = method_variance(Method("random-mom"), s.z, s.k, 0.05)
        assert sampled == random_variance(p.mu, p.sigma2, p.lam, Z95)
        rand = method_variance(Method("random-dist", "half-normal"), None, 7, 0.05)
        hn = distributional_params("half-normal", 7)
        assert rand == random_variance(hn.mu, hn.sigma2, hn.lam, Z95)

    def test_needs_sample_or_closed_form(self):
        with pytest.raises(DomainError):
            method_variance(Method("boot"), self.SAMPLE.z, 5, 0.05)
        # the -mom heads, and only they, read the sample
        without_sample = {m.describe(): _variance_or_error(m) for m in CLOSED_FORM}
        assert {token for token, v in without_sample.items()
                if v == (DomainError, f"{token} needs the raw sample")} == {
            "fixed-mom:largek", "fixed-mom:exact", "fixed-mom:table", "random-mom"}
        assert all(type(v) is float for token, v in without_sample.items()
                   if "-dist:" in token)

    @pytest.mark.parametrize("method", CLOSED_FORM, ids=Method.describe)
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(z=st.none() | st.lists(st.sampled_from(EXTREMES), max_size=6),
           k=st.sampled_from((1, 2, 5, 50, 10**6)),
           alpha=st.sampled_from((1e-300, 0.05, 0.4999, 0.5)))
    def test_finite_or_typed_error(self, method, z, k, alpha):
        try:
            v = method_variance(method, z, k, alpha)
        except FailsafeError:
            return
        assert type(v) is float and 0.0 <= v < math.inf
