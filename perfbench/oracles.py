"""Reference computations the benchmark checks the program against.

Nothing here imports ``failsafe``.  Every value is rebuilt from the paper's
definitions with the standard library and numpy: critical values come from
``statistics.NormalDist``, the estimator's moments from conditional normal
and Poisson moments, coverage either exactly (the chi-square law of S^2/k
for standard-normal data) or by Monte Carlo on this module's own PCG64
streams, and bootstrap spreads from the empirical cumulants.

The estimator for k studies with z-scores summing to S is
N = S^2 / Z_a^2 - k, Z_a the one-sided critical value at ``alpha``.
"""
from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

import numpy as np

STD = statistics.NormalDist()
SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def z_alpha(alpha: float) -> float:
    return STD.inv_cdf(1.0 - alpha)


def z_two_sided(level: float) -> float:
    return STD.inv_cdf(0.5 * (1.0 + level))


def stream(*key: int) -> np.random.Generator:
    """Reference stream for a tuple of non-negative integers."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(key))))


# ---------------------------------------------------------------------------
# data distributions of the study z-scores
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Dist:
    """Standard normal, half-normal |N(0,1)|, or skew normal SN(0, 1, delta)."""

    name: str               # "std-normal" | "half-normal" | "skew-normal"
    delta: float = 0.0

    def moments(self) -> tuple[float, float]:
        if self.name == "std-normal":
            return 0.0, 1.0
        if self.name == "half-normal":
            return SQRT_2_OVER_PI, 1.0 - 2.0 / math.pi
        d = self.delta
        return d * SQRT_2_OVER_PI, 1.0 - 2.0 * d * d / math.pi

    def draw(self, g: np.random.Generator, shape) -> np.ndarray:
        u0 = g.standard_normal(shape)
        if self.name == "std-normal":
            return u0
        if self.name == "half-normal":
            return np.abs(u0)
        # Azzalini's selection form: for (X0, X1) standard bivariate normal
        # with correlation delta, X1 * sign(X0) is SN(delta)
        d = self.delta
        x1 = d * u0 + math.sqrt(1.0 - d * d) * g.standard_normal(shape)
        return np.where(u0 > 0.0, x1, -x1)


# ---------------------------------------------------------------------------
# moments of the estimator (paper's formulas, in conditional-moment form)
# ---------------------------------------------------------------------------

def _normal_raw24(m, v):
    """E[S^2], E[S^4] for S ~ N(m, v)."""
    return m * m + v, m ** 4 + 6.0 * m * m * v + 3.0 * v * v


def expect_fixed(mu, s2, k, za):
    """E[N] for k studies, S ~ N(k mu, k s2) (large-k form, no truncation)."""
    return (k * k * mu * mu + k * s2) / za ** 2 - k


def var_fixed_largek(mu, s2, k, za):
    """Var[N] = Var[S^2] / Z_a^4 for S ~ N(k mu, k s2)."""
    e2, e4 = _normal_raw24(k * mu, k * s2)
    return (e4 - e2 * e2) / za ** 4


def _poisson_raw(lam):
    return (lam, lam + lam ** 2, lam + 3.0 * lam ** 2 + lam ** 3,
            lam + 7.0 * lam ** 2 + 6.0 * lam ** 3 + lam ** 4)


def expect_random(mu, s2, lam, za):
    """E[N] when K ~ Poisson(lam) and S | K ~ N(K mu, K s2)."""
    k1, k2, _, _ = _poisson_raw(lam)
    return (k2 * mu * mu + k1 * s2) / za ** 2 - k1


def var_random(mu, s2, lam, za):
    """Var[N] = E[(S^2/Z_a^2 - K)^2] - E[N]^2 by iterated expectation."""
    k1, k2, k3, k4 = _poisson_raw(lam)
    m2 = mu * mu
    es4 = k4 * m2 * m2 + 6.0 * k3 * m2 * s2 + 3.0 * k2 * s2 * s2
    eks2 = k3 * m2 + k2 * s2
    en2 = es4 / za ** 4 - 2.0 * eks2 / za ** 2 + k2
    en = expect_random(mu, s2, lam, za)
    return en2 - en * en


def var_fixed_table(mu, s2, k, za):
    """Fixed-k variance with the truncation correction of the cutoff table:

        delta* = h [k^{5/2} s^3 (5 sqrt(k) mu + Z_a)^2
                    - (h + l*) k^2 s^2 (sqrt(k) mu + Z_a)^2] / Z_a^4,

    l* = (sqrt(k) mu - Z_a)/s and h = phi(l*)/Phi(l*).
    """
    s = math.sqrt(s2)
    sk = math.sqrt(k)
    lam = (sk * mu - za) / s
    h = STD.pdf(lam) / STD.cdf(lam)
    bracket = (k ** 2.5 * s ** 3 * (5.0 * sk * mu + za) ** 2
               - (h + lam) * k * k * s2 * (sk * mu + za) ** 2)
    return var_fixed_largek(mu, s2, k, za) + h * bracket / za ** 4


def cutoff(k: int, alpha: float = 0.05) -> tuple[int, float]:
    """Rounded cutoff of the 5k+10 test under half-normal data, and the
    unrounded value it came from."""
    za = z_alpha(alpha)
    mu, s2 = Dist("half-normal").moments()
    raw = 5.0 * k + 10.0 + za * math.sqrt(var_fixed_table(mu, s2, k, za))
    return int(math.floor(raw + 0.5)), raw


def iyengar_greenhouse_closed(s: float, k: int, alpha: float) -> float:
    """Root n of Z_a sqrt(n + k) = S + n M, M = -phi(Z_a)/Phi(Z_a), solved
    as a quadratic in u = sqrt(n + k)."""
    za = z_alpha(alpha)
    m = -STD.pdf(za) / STD.cdf(za)
    u = 2.0 * (s - k * m) / (za + math.sqrt(za * za - 4.0 * m * s + 4.0 * k * m * m))
    return u * u - k


def iyengar_greenhouse_residual(n: float, s: float, k: int, alpha: float) -> float:
    za = z_alpha(alpha)
    m = -STD.pdf(za) / STD.cdf(za)
    return za * math.sqrt(n + k) - s - n * m


# ---------------------------------------------------------------------------
# exact bootstrap moments from the empirical cumulants
# ---------------------------------------------------------------------------

def _cumulants_from_raw(raw: list[float]) -> list[float]:
    """kappa_1..kappa_n from raw moments m_1..m_n (index 0 holds m_0 = 1)."""
    n = len(raw) - 1
    kap = [0.0] * (n + 1)
    for r in range(1, n + 1):
        kap[r] = raw[r] - sum(math.comb(r - 1, j - 1) * kap[j] * raw[r - j]
                              for j in range(1, r))
    return kap


def _raw_from_cumulants(kap: list[float]) -> list[float]:
    n = len(kap) - 1
    raw = [1.0] + [0.0] * n
    for r in range(1, n + 1):
        raw[r] = sum(math.comb(r - 1, j - 1) * kap[j] * raw[r - j]
                     for j in range(1, r + 1))
    return raw


def bootstrap_sum_square_moments(z) -> tuple[float, float, float]:
    """Mean, variance and fourth central moment of S*^2, where S* is the sum
    of k draws with replacement from ``z`` (the B -> infinity bootstrap).

    S* has cumulants k times those of the empirical distribution; its raw
    moments up to order 8 give the moments of S*^2.
    """
    z = [float(v) for v in z]
    k = len(z)
    c = math.fsum(z) / k
    d = [v - c for v in z]
    central = [1.0] + [math.fsum(x ** r for x in d) / k for r in range(1, 9)]
    kap = _cumulants_from_raw(central)
    kap = [0.0] + [k * x for x in kap[1:]]
    kap[1] = k * c
    m = _raw_from_cumulants(kap)
    mean = m[2]
    var = m[4] - m[2] ** 2
    mu4 = m[8] - 4.0 * m[6] * m[2] + 6.0 * m[4] * m[2] ** 2 - 3.0 * m[2] ** 4
    return mean, var, mu4


@dataclass(frozen=True)
class BootstrapExact:
    """B -> infinity moments of the unclamped bootstrap estimator N*."""

    mean: float
    sd: float
    kurtosis: float         # E[(N* - mean)^4] / sd^4
    clamp_margin_sd: float  # distance of S from the threshold, in sd(S*)


def bootstrap_exact(z, alpha: float) -> BootstrapExact:
    za = z_alpha(alpha)
    k = len(z)
    mean, var, mu4 = bootstrap_sum_square_moments(z)
    s = math.fsum(float(v) for v in z)
    sd_sum = math.sqrt(k * statistics.pvariance([float(v) for v in z]))
    return BootstrapExact(mean=mean / za ** 2 - k, sd=math.sqrt(var) / za ** 2,
                          kurtosis=mu4 / (var * var),
                          clamp_margin_sd=(abs(s) - za * math.sqrt(k)) / sd_sum)


# ---------------------------------------------------------------------------
# coverage references
# ---------------------------------------------------------------------------

def chi2_1_cdf(x: float) -> float:
    return math.erf(math.sqrt(0.5 * x)) if x > 0.0 else 0.0


def coverage_std_normal(k: int, hw: float, tv: float, za: float) -> float:
    """Exact coverage of N +- hw around tv for standard-normal data and an
    unclamped centre: S ~ N(0, k), so S^2/k is chi-square with one degree of
    freedom and N lies in [tv - hw, tv + hw] iff S^2/k does in
    [Z_a^2 (tv + k -+ hw) / k]."""
    lo = za * za * (tv + k - hw) / k
    hi = za * za * (tv + k + hw) / k
    return chi2_1_cdf(hi) - chi2_1_cdf(lo)


def _chunks(n: int, per: int):
    for start in range(0, n, per):
        yield min(per, n - start)


def _pop_moments(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mu = z.mean(axis=1)
    return mu, ((z - mu[:, None]) ** 2).mean(axis=1)


def _centre(nr: np.ndarray, clamped: bool) -> np.ndarray:
    return np.maximum(nr, 0.0) if clamped else nr


def closed_form_hits(dist: Dist, k: int, n: int, g: np.random.Generator,
                     za: float, q: float, tv_fixed: float,
                     tv_random: float) -> dict[str, int]:
    """Covered counts of n replicates at a nominal count k, unclamped centre,
    for the four closed-form methods of the coverage grid (assumption and
    truth both at the data distribution's moments)."""
    mu, s2 = dist.moments()
    hw_df = q * math.sqrt(var_fixed_largek(mu, s2, k, za))
    hw_dr = q * math.sqrt(var_random(mu, s2, k, za))
    hits = {"dist-fixed": 0, "dist-random": 0, "mom-fixed": 0, "mom-random": 0}
    for m in _chunks(n, max(1, 2_000_000 // k)):
        z = dist.draw(g, (m, k))
        s = z.sum(axis=1)
        nr = s * s / za ** 2 - k
        mu_h, s2_h = _pop_moments(z)
        hw_mf = q * np.sqrt(var_fixed_largek(mu_h, s2_h, k, za))
        hw_mr = q * np.sqrt(var_random(mu_h, s2_h, k, za))
        hits["dist-fixed"] += int(np.count_nonzero(np.abs(nr - tv_fixed) <= hw_df))
        hits["dist-random"] += int(np.count_nonzero(np.abs(nr - tv_random) <= hw_dr))
        hits["mom-fixed"] += int(np.count_nonzero(np.abs(nr - tv_fixed) <= hw_mf))
        hits["mom-random"] += int(np.count_nonzero(np.abs(nr - tv_random) <= hw_mr))
    return hits


def bootstrap_sd(z: np.ndarray, resamples: int, g: np.random.Generator,
                 za: float, clamped: bool) -> np.ndarray:
    """Per-row standard deviation (ddof 1) of ``resamples`` bootstrap values
    of N, for each row of the (m, k) array ``z``."""
    m, k = z.shape
    idx = g.integers(0, k, size=(m, resamples, k))
    sums = np.take_along_axis(z[:, None, :], idx, axis=2).sum(axis=2)
    draws = _centre(sums * sums / za ** 2 - k, clamped)
    return draws.std(axis=1, ddof=1)


def bootstrap_hits(dist: Dist, k: int, n: int, resamples: int,
                   g: np.random.Generator, za: float, q: float,
                   truths: tuple[float, ...], clamped: bool) -> list[int]:
    """Covered counts of the bootstrap interval at a fixed count k, one per
    truth value (the fixed and random regimes differ only in the truth)."""
    hits = [0] * len(truths)
    for m in _chunks(n, max(1, 2_000_000 // (resamples * k))):
        z = dist.draw(g, (m, k))
        s = z.sum(axis=1)
        nr = _centre(s * s / za ** 2 - k, clamped)
        hw = q * bootstrap_sd(z, resamples, g, za, clamped)
        for j, tv in enumerate(truths):
            hits[j] += int(np.count_nonzero(np.abs(nr - tv) <= hw))
    return hits


def redraw_probability(lam: float) -> float:
    """P(K < 2) for K ~ Poisson(lam): the chance a drawn count is redrawn."""
    return math.exp(-lam) * (1.0 + lam)


def poisson_counts(lam: float, n: int, g: np.random.Generator) -> tuple[np.ndarray, int]:
    """n study counts from Poisson(lam), each redrawn until it is at least 2;
    returns the counts and the number of redraws."""
    k = g.poisson(lam, n)
    redraws = 0
    bad = k < 2
    while bad.any():
        redraws += int(bad.sum())
        k[bad] = g.poisson(lam, int(bad.sum()))
        bad = k < 2
    return k, redraws


def poisson_hits(dist: Dist, lam: float, n: int, resamples: int,
                 g: np.random.Generator, za: float, q: float,
                 methods: tuple[str, ...]) -> dict[str, int]:
    """Covered counts with the count drawn per replicate and a clamped
    centre.  Methods: 'dist' (matched assumption), 'mom', 'boot'.  The
    random-count variance takes the drawn count as its rate."""
    mu, s2 = dist.moments()
    tv = expect_random(mu, s2, lam, za)
    ks, _ = poisson_counts(lam, n, g)
    hits = dict.fromkeys(methods, 0)
    for k in np.unique(ks):
        k = int(k)
        rows = int(np.count_nonzero(ks == k))
        per = max(1, 2_000_000 // (k * (resamples if "boot" in methods else 1)))
        for m in _chunks(rows, per):
            z = dist.draw(g, (m, k))
            s = z.sum(axis=1)
            nr = np.maximum(s * s / za ** 2 - k, 0.0)
            for name in methods:
                if name == "dist":
                    hw = q * math.sqrt(var_random(mu, s2, k, za))
                elif name == "mom":
                    mu_h, s2_h = _pop_moments(z)
                    hw = q * np.sqrt(var_random(mu_h, s2_h, k, za))
                else:
                    hw = q * bootstrap_sd(z, resamples, g, za, clamped=True)
                hits[name] += int(np.count_nonzero(np.abs(nr - tv) <= hw))
    return hits


# ---------------------------------------------------------------------------
# exact tests for counts
# ---------------------------------------------------------------------------

def _two_sided(logpmf, x: int, lo: int, hi: int, mean: float) -> float:
    """Twice the smaller tail probability at x, summed outward from x."""
    step = -1 if x <= mean else 1
    end = lo if step < 0 else hi
    base = logpmf(x)
    total = 0.0
    j = x
    while True:
        term = math.exp(logpmf(j) - base)
        total += term
        if j == end or (term < 1e-17 * total and abs(j - mean) > 2.0):
            break
        j += step
    return min(1.0, 2.0 * total * math.exp(base))


def binomial_p(x: int, n: int, p: float) -> float:
    """Two-sided exact p-value of x successes in n trials at rate p."""
    if p <= 0.0 or p >= 1.0:
        return 1.0 if x == (0 if p <= 0.0 else n) else 0.0
    lp, lq = math.log(p), math.log1p(-p)
    c = math.lgamma(n + 1)

    def logpmf(j):
        return c - math.lgamma(j + 1) - math.lgamma(n - j + 1) + j * lp + (n - j) * lq
    return _two_sided(logpmf, x, 0, n, n * p)


def two_binomial_p(x1: int, n1: int, x2: int, n2: int) -> float:
    """Two-sided conditional (Fisher) p-value that x1/n1 and x2/n2 share a
    rate: given t = x1 + x2, x1 is hypergeometric."""
    t, big_n = x1 + x2, n1 + n2
    if t == 0 or t == big_n:
        return 1.0
    lo, hi = max(0, t - n2), min(t, n1)

    def lchoose(a, b):
        return math.lgamma(a + 1) - math.lgamma(b + 1) - math.lgamma(a - b + 1)
    c = lchoose(big_n, n1)

    def logpmf(j):
        return lchoose(t, j) + lchoose(big_n - t, n1 - j) - c
    return _two_sided(logpmf, x1, lo, hi, t * n1 / big_n)


def negative_binomial_p(x: int, n: int, p: float) -> float:
    """Two-sided exact p-value of x total redraws over n replicates, each
    redrawn with probability p per draw (a sum of n geometric counts)."""
    if p <= 0.0:
        return 1.0 if x == 0 else 0.0
    lp, lq = math.log(p), math.log1p(-p)

    def logpmf(j):
        return (math.lgamma(j + n) - math.lgamma(j + 1) - math.lgamma(n)
                + j * lp + n * lq)
    return _two_sided(logpmf, x, 0, max(x, 1) * 10 + 10 * n, n * p / (1.0 - p))


def sd_z(sd_obs: float, sd_true: float, kurtosis: float, b: int) -> float:
    """Standardised deviation of a sample sd of b draws from its B -> infinity
    value.  The sample variance is scaled chi-square with
    nu = 2b / (kurtosis - 1) degrees of freedom; the Wilson-Hilferty cube
    root makes that normal."""
    nu = 2.0 * b / max(kurtosis - 1.0, 1e-12)
    r = (sd_obs / sd_true) ** 2
    a = 2.0 / (9.0 * nu)
    return (r ** (1.0 / 3.0) - (1.0 - a)) / math.sqrt(a)


def normal_two_sided_p(z: float) -> float:
    return math.erfc(abs(z) / math.sqrt(2.0))
