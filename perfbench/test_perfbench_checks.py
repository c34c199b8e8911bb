"""Tests of the benchmark's own reference values and checks.

Each reference computation is compared with brute force on a small case,
and each check must pass the true value and reject one moved by a few Monte
Carlo standard errors at the per-check level of a run with 200 statistical
checks.
"""
import copy
import itertools
import json
import math

import numpy as np
import pytest

import checks
import oracles as o

ZA = o.z_alpha(0.05)
Q = o.z_two_sided(0.95)
RUN_ALPHA = checks.FWER / 200
SHIFT = 6.5     # MC standard errors


def _riemann(f, lo, hi, n=200_000):
    x = np.linspace(lo, hi, n + 1)
    y = f(x)
    return float(((y[1:] + y[:-1]) * 0.5 * np.diff(x)).sum())


class TestMoments:
    def test_fixed_moments_against_normal_draws(self):
        mu, s2 = o.Dist("half-normal").moments()
        k = 7
        g = o.stream(1)
        s = g.normal(k * mu, math.sqrt(k * s2), 1_000_000)
        n = s * s / ZA ** 2 - k
        se_mean = n.std() / 1e3
        assert abs(n.mean() - o.expect_fixed(mu, s2, k, ZA)) < 5 * se_mean
        assert o.var_fixed_largek(mu, s2, k, ZA) == pytest.approx(n.var(), rel=0.01)

    def test_random_moments_against_summation_over_counts(self):
        mu, s2, lam = 0.4, 0.8, 6.0
        e1 = e2 = 0.0
        for k in range(0, 120):
            pk = math.exp(k * math.log(lam) - lam - math.lgamma(k + 1))
            m, v = k * mu, k * s2
            es2 = m * m + v
            es4 = m ** 4 + 6 * m * m * v + 3 * v * v
            e1 += pk * (es2 / ZA ** 2 - k)
            e2 += pk * (es4 / ZA ** 4 - 2 * k * es2 / ZA ** 2 + k * k)
        assert o.expect_random(mu, s2, lam, ZA) == pytest.approx(e1, rel=1e-12)
        assert o.var_random(mu, s2, lam, ZA) == pytest.approx(e2 - e1 * e1, rel=1e-10)

    def test_samplers_match_closed_form_moments(self):
        g = o.stream(2)
        for dist in (o.Dist("std-normal"), o.Dist("half-normal"),
                     o.Dist("skew-normal", 0.5), o.Dist("skew-normal", -0.5)):
            x = dist.draw(g, 400_000)
            mu, s2 = dist.moments()
            assert abs(x.mean() - mu) < 5 * math.sqrt(s2 / x.size)
            assert abs(x.var() - s2) < 5 * x.var() * math.sqrt(2.0 / x.size) * 2


class TestCoverageReferences:
    def test_chi_square_coverage_against_quadrature(self):
        k = 5
        mu, s2 = 0.0, 1.0
        tv = o.expect_fixed(mu, s2, k, ZA)
        hw = Q * math.sqrt(o.var_fixed_largek(mu, s2, k, ZA))
        # N in [tv - hw, tv + hw] with S ~ N(0, k); integrate over S >= 0, double
        lo = math.sqrt(max(ZA ** 2 * (tv + k - hw), 0.0))
        hi = math.sqrt(ZA ** 2 * (tv + k + hw))
        dens = lambda s: np.exp(-s * s / (2 * k)) / math.sqrt(2 * math.pi * k)  # noqa: E731
        assert o.coverage_std_normal(k, hw, tv, ZA) == pytest.approx(
            2 * _riemann(dens, lo, hi), abs=1e-9)

    def test_monte_carlo_cells_agree_with_exact_cell(self):
        k, n = 15, 100_000
        tvf, tvr = o.expect_fixed(0, 1, k, ZA), o.expect_random(0, 1, k, ZA)
        hits = o.closed_form_hits(o.Dist("std-normal"), k, n, o.stream(3), ZA, Q, tvf, tvr)
        for name, var in (("dist-fixed", o.var_fixed_largek(0, 1, k, ZA)),
                          ("dist-random", o.var_random(0, 1, k, ZA))):
            p = o.coverage_std_normal(k, Q * math.sqrt(var), tvf if "fixed" in name else tvr, ZA)
            assert o.binomial_p(n - hits[name], n, 1 - p) > 1e-4

    def test_moment_cells_match_a_replicate_loop(self):
        k, n = 5, 300
        dist = o.Dist("half-normal")
        mu, s2 = dist.moments()
        tvf, tvr = o.expect_fixed(mu, s2, k, ZA), o.expect_random(mu, s2, k, ZA)
        hits = o.closed_form_hits(dist, k, n, o.stream(4), ZA, Q, tvf, tvr)
        z = dist.draw(o.stream(4), (n, k))
        loop = {"mom-fixed": 0, "mom-random": 0}
        for row in z.tolist():
            m = sum(row) / k
            v = sum((x - m) ** 2 for x in row) / k
            nr = sum(row) ** 2 / ZA ** 2 - k
            loop["mom-fixed"] += abs(nr - tvf) <= Q * math.sqrt(o.var_fixed_largek(m, v, k, ZA))
            loop["mom-random"] += abs(nr - tvr) <= Q * math.sqrt(o.var_random(m, v, k, ZA))
        assert {key: hits[key] for key in loop} == loop

    def test_vectorised_bootstrap_sd_matches_a_loop(self):
        g1, g2 = o.stream(5), o.stream(5)
        z = o.Dist("half-normal").draw(o.stream(6), (3, 4))
        got = o.bootstrap_sd(z, 50, g1, ZA, clamped=True)
        idx = g2.integers(0, 4, size=(3, 50, 4))
        for i in range(3):
            draws = [max(sum(z[i, j] for j in idx[i, b]) ** 2 / ZA ** 2 - 4, 0.0)
                     for b in range(50)]
            assert got[i] == pytest.approx(np.std(draws, ddof=1), rel=1e-12)

    def test_poisson_cells_match_a_replicate_loop(self):
        lam, n, b = 4.0, 60, 30
        dist = o.Dist("skew-normal", 0.5)
        mu, s2 = dist.moments()
        tv = o.expect_random(mu, s2, lam, ZA)
        hits = o.poisson_hits(dist, lam, n, b, o.stream(11), ZA, Q, ("dist", "mom", "boot"))
        g = o.stream(11)
        ks, _ = o.poisson_counts(lam, n, g)
        loop = dict.fromkeys(hits, 0)
        for k in np.unique(ks).tolist():
            z = dist.draw(g, (int(np.count_nonzero(ks == k)), k))
            boot_sd = o.bootstrap_sd(z, b, g, ZA, clamped=True)
            for row, sd in zip(z.tolist(), boot_sd):
                m = sum(row) / k
                v = sum((x - m) ** 2 for x in row) / k
                nr = max(sum(row) ** 2 / ZA ** 2 - k, 0.0)
                loop["dist"] += abs(nr - tv) <= Q * math.sqrt(o.var_random(mu, s2, k, ZA))
                loop["mom"] += abs(nr - tv) <= Q * math.sqrt(o.var_random(m, v, k, ZA))
                loop["boot"] += abs(nr - tv) <= Q * sd
        assert hits == loop

    def test_redraw_count_law(self):
        lam, n = 3.0, 200_000
        _, redraws = o.poisson_counts(lam, n, o.stream(7))
        p = o.redraw_probability(lam)
        assert p == pytest.approx(math.exp(-3) * 4)
        assert o.negative_binomial_p(redraws, n, p) > 1e-4


class TestBootstrapExact:
    def test_cumulant_moments_against_enumeration(self):
        z = [0.3, 1.7, 2.2, -0.4]
        k = len(z)
        sq = [sum(r) ** 2 for r in itertools.product(z, repeat=k)]
        mean = sum(sq) / len(sq)
        var = sum((x - mean) ** 2 for x in sq) / len(sq)
        mu4 = sum((x - mean) ** 4 for x in sq) / len(sq)
        got = o.bootstrap_sum_square_moments(z)
        assert got == pytest.approx((mean, var, mu4), rel=1e-9)

    def test_exact_sd_against_resampling(self):
        z = o.Dist("half-normal").draw(o.stream(8), (1, 30)) + 2.0
        ex = o.bootstrap_exact(z[0].tolist(), 0.05)
        sd = o.bootstrap_sd(z, 200_000, o.stream(9), ZA, clamped=False)[0]
        assert abs(o.sd_z(sd, ex.sd, ex.kurtosis, 200_000)) < 4


class TestClosedForms:
    def test_cutoffs_reproduce_published_anchors(self):
        for k, want in checks.PUBLISHED_CUTOFFS.items():
            assert abs(o.cutoff(k)[0] - want) <= 1

    def test_iyengar_greenhouse_closed_form_against_bisection(self):
        for z in ([2.1] * 5, [1.2, 3.3, 0.4, 2.9, 2.2, 1.8, 0.9]):
            s, k = sum(z), len(z)
            lo, hi = 0.0, s * s / ZA ** 2
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if o.iyengar_greenhouse_residual(mid, s, k, 0.05) <= 0:
                    lo = mid
                else:
                    hi = mid
            assert o.iyengar_greenhouse_closed(s, k, 0.05) == pytest.approx(lo, rel=1e-9)


class TestExactTests:
    @staticmethod
    def _brute(pmf, x):
        lo = sum(p for j, p in pmf.items() if j <= x)
        hi = sum(p for j, p in pmf.items() if j >= x)
        return min(1.0, 2 * min(lo, hi))

    def test_binomial_against_enumeration(self):
        n, p = 40, 0.1
        pmf = {j: math.comb(n, j) * p ** j * (1 - p) ** (n - j) for j in range(n + 1)}
        for x in (0, 2, 4, 9, 15):
            assert o.binomial_p(x, n, p) == pytest.approx(self._brute(pmf, x), rel=1e-9)

    def test_hypergeometric_against_enumeration(self):
        n1, n2, t = 30, 50, 12
        tot = math.comb(n1 + n2, t)
        pmf = {j: math.comb(n1, j) * math.comb(n2, t - j) / tot for j in range(t + 1)}
        for x in (0, 2, 4, 8, 12):
            assert o.two_binomial_p(x, n1, t - x, n2) == pytest.approx(
                self._brute(pmf, x), rel=1e-9)

    def test_negative_binomial_against_summation(self):
        n, p = 20, 0.3
        pmf = {j: math.comb(j + n - 1, j) * p ** j * (1 - p) ** n for j in range(400)}
        for x in (0, 3, 8, 20):
            assert o.negative_binomial_p(x, n, p) == pytest.approx(self._brute(pmf, x), rel=1e-9)


def _stat_p(fn) -> float:
    chk = checks.Checker()
    fn(chk)
    (_, p, _, _), = chk.stats
    return p


class TestChecksReject:
    @pytest.mark.parametrize("ref_p", [0.95, 0.77, 0.995])
    def test_coverage_against_exact_value(self, ref_p):
        n = 6000
        se = math.sqrt(ref_p * (1 - ref_p) / n)
        for shift, passes in ((0.0, True), (SHIFT, False), (-SHIFT, False)):
            hits = round(n * (ref_p + shift * se))
            if hits > n:
                continue
            p = _stat_p(lambda c: checks.coverage(c, "cell", hits, n, ref_p=ref_p))
            assert (p >= RUN_ALPHA) == passes

    @pytest.mark.parametrize("cov", [0.9, 0.8])
    def test_coverage_against_monte_carlo_reference(self, cov):
        n, ref_n = 6000, 200_000
        ref_hits = round(cov * ref_n)
        se = math.sqrt(cov * (1 - cov) * (1 / n + 1 / ref_n))
        for shift, passes in ((0.0, True), (SHIFT, False), (-SHIFT, False)):
            hits = round(n * (cov + shift * se))
            p = _stat_p(lambda c: checks.coverage(c, "cell", hits, n, ref_hits=ref_hits,
                                                  ref_n=ref_n))
            assert (p >= RUN_ALPHA) == passes

    def test_redraws(self):
        n, lam = 24_000, 5.0
        pr = o.redraw_probability(lam)
        mean, sd = n * pr / (1 - pr), math.sqrt(n * pr) / (1 - pr)
        for shift, passes in ((0.0, True), (SHIFT, False), (-SHIFT, False)):
            count = round(mean + shift * sd)
            p = _stat_p(lambda c: checks.redraws(c, "r", count, n, lam))
            assert (p >= RUN_ALPHA) == passes

    def test_statistical_decision_uses_bonferroni_level(self):
        chk = checks.Checker()
        for i in range(199):
            chk.stat(f"ok{i}", 0.5, 0.0)
        chk.stat("edge", 0.9 * checks.FWER / 200, 5.5)
        assert chk.alpha() == checks.FWER / 200
        assert [f.split(":")[0] for f in chk.failures()] == ["edge"]


def _analyze_report(z):
    """An analyze report built from the reference values alone."""
    k, s = len(z), math.fsum(z)
    nr = s * s / ZA ** 2 - k
    mu, s2 = s / k, math.fsum((v - s / k) ** 2 for v in z) / k
    hn = o.Dist("half-normal").moments()
    ex = o.bootstrap_exact(z, 0.05)
    ivs = []
    for m, v in zip(checks.ANALYZE_METHODS[:4],
                    (o.var_fixed_largek(*hn, k, ZA), o.var_fixed_largek(mu, s2, k, ZA),
                     o.var_random(*hn, k, ZA), o.var_random(mu, s2, k, ZA))):
        hw = Q * math.sqrt(v)
        ivs.append({"method": m, "lower": nr - hw, "upper": nr + hw, "level": 0.95,
                    "variance_used": v})
    ivs.append({"method": "boot:1000", "lower": nr - Q * ex.sd, "upper": nr + Q * ex.sd,
                "level": 0.95, "variance_used": ex.sd ** 2, "boot_mean": ex.mean,
                "boot_se": ex.sd})
    stat = (nr - 5 * k - 10) / math.sqrt(o.var_fixed_table(*hn, k, ZA))
    return {"n_r": nr, "k": k, "sum_z": s, "stouffer_z": s / math.sqrt(k), "alpha": 0.05,
            "z_alpha": ZA, "below_threshold": False,
            "rule_of_thumb": {"threshold": 5.0 * k + 10, "exceeded": nr > 5 * k + 10},
            "intervals": ivs,
            "test": {"statistic": stat, "critical": ZA, "reject": stat > ZA},
            "iyengar_greenhouse": o.iyengar_greenhouse_closed(s, k, 0.05), "errors": []}


class TestCliChecks:
    Z = (o.Dist("half-normal").draw(o.stream(10), 30) + 2.0).tolist()

    def _run(self, rep):
        chk = checks.Checker()
        checks.analyze(chk, "a", self.Z, json.dumps(rep))
        return chk

    def test_reference_report_passes(self):
        assert self._run(_analyze_report(self.Z)).failures() == []

    @pytest.mark.parametrize("path", [("n_r",), ("intervals", 1, "upper"),
                                      ("intervals", 2, "variance_used"),
                                      ("test", "statistic"), ("iyengar_greenhouse",)])
    def test_perturbed_value_fails(self, path):
        rep = _analyze_report(self.Z)
        node = rep
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] *= 1 + 1e-6
        assert self._run(rep).failures()

    def test_boot_se_moved_by_a_few_standard_errors_fails(self):
        ex = o.bootstrap_exact(self.Z, 0.05)
        se_sd = ex.sd * math.sqrt((ex.kurtosis - 1) / 1000) / 2
        for shift, passes in ((0.0, True), (SHIFT, False), (-SHIFT, False)):
            rep = _analyze_report(self.Z)
            boot = rep["intervals"][4]
            boot["boot_se"] = ex.sd + shift * se_sd
            boot["variance_used"] = boot["boot_se"] ** 2
            boot["lower"] = rep["n_r"] - Q * boot["boot_se"]
            boot["upper"] = rep["n_r"] + Q * boot["boot_se"]
            chk = self._run(rep)
            (p,) = [p for name, p, _, _ in chk.stats if name.endswith("boot.se")]
            assert (p >= RUN_ALPHA) == passes

    def test_infinity_is_not_json(self):
        rep = _analyze_report(self.Z)
        rep["n_r"] = math.inf
        chk = checks.Checker()
        checks.analyze(chk, "a", self.Z, json.dumps(rep))
        assert chk.failures() == ["a.json: non-standard JSON constant Infinity"]

    def test_cutoff_table(self):
        rows = "k,cutoff\n" + "".join(f"{k},{o.cutoff(k)[0]}\n" for k in range(1, 161))
        chk = checks.Checker()
        checks.cutoffs(chk, "c", rows, 160)
        assert chk.failures() == []
        chk = checks.Checker()
        checks.cutoffs(chk, "c", rows.replace("\n25,209\n", "\n25,211\n"), 160)
        assert len(chk.failures()) == 2

    def test_test_command_output(self):
        k, s = 30, math.fsum(self.Z)
        nr = s * s / ZA ** 2 - k
        stat = (nr - 160) / math.sqrt(o.var_fixed_table(*o.Dist("half-normal").moments(),
                                                         k, ZA))
        text = (f"n_r={nr:.6g} threshold=160 statistic={stat:.6g} critical={ZA:.6g}\n"
                "reject: fail-safe number significantly exceeds 5k+10\n")
        chk = checks.Checker()
        checks.test(chk, "t", self.Z, text)
        assert chk.failures() == []
        chk = checks.Checker()
        checks.test(chk, "t", self.Z, text.replace("reject:", "fail to reject:"))
        assert chk.failures()
        chk = checks.Checker()
        checks.test(chk, "t", copy.copy(self.Z[:-1]), text)
        assert chk.failures()


def test_family_combination_catches_a_shared_small_shift():
    n, ref_n, cov = 8000, 6000, 0.85
    se = math.sqrt(cov * (1 - cov) * (1 / n + 1 / ref_n))
    for shift, passes in ((0.0, True), (1.5, False), (-1.5, False)):
        chk = checks.Checker()
        scores = [checks.coverage(chk, f"c{i}", round(n * (cov + shift * se)), n,
                                  ref_hits=round(cov * ref_n), ref_n=ref_n)
                  for i in range(16)]
        assert all(p >= RUN_ALPHA for _, p, _, _ in chk.stats)
        checks.combined(chk, "family", scores)
        assert (chk.stats[-1][1] >= RUN_ALPHA) == passes
