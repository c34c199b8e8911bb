"""Checks of the program's outputs against the reference values in
``oracles``.

Exact checks compare a number with its reference to a relative tolerance.
Statistical checks carry an exact two-sided p-value; a run fails one when
the p-value falls below FWER / (number of statistical checks in the run), so
the chance that any statistical check of a run trips by chance is at most
FWER (Bonferroni).
"""
from __future__ import annotations

import json
import math
import re

import oracles as o

FWER = 1e-5


class Checker:
    def __init__(self):
        self.exact: list[tuple[str, bool, str]] = []
        self.stats: list[tuple[str, float, float, str]] = []

    def expect(self, name: str, ok: bool, detail: str = "") -> bool:
        self.exact.append((name, bool(ok), detail))
        return bool(ok)

    def close(self, name: str, got, want: float, scale: float = 0.0,
              rtol: float = 1e-9) -> bool:
        if isinstance(got, bool) or not isinstance(got, (int, float)):
            return self.expect(name, False, f"not a number: {got!r}")
        ok = math.isfinite(got) and abs(got - want) <= rtol * max(abs(want), scale)
        return self.expect(name, ok, f"got {got!r}, want {want!r}")

    def stat(self, name: str, p: float, z: float, detail: str = "") -> None:
        self.stats.append((name, p, z, detail))

    def alpha(self) -> float:
        return FWER / max(1, len(self.stats))

    def failures(self) -> list[str]:
        out = [f"{n}: {d}" for n, ok, d in self.exact if not ok]
        a = self.alpha()
        out += [f"{n}: p={p:.3g} < {a:.3g} (z={z:+.2f} MC SE) {d}"
                for n, p, z, d in self.stats if p < a]
        return out

    def summary(self) -> dict:
        return {"exact_checks": len(self.exact), "statistical_checks": len(self.stats),
                "alpha_per_check": self.alpha(), "fwer": FWER,
                "max_abs_z": max((abs(z) for _, _, z, _ in self.stats), default=0.0),
                "min_p": min((p for _, p, _, _ in self.stats), default=1.0),
                "most_extreme": [f"{n}: z={z:+.2f} p={p:.3g} {d}" for n, p, z, d in
                                 sorted(self.stats, key=lambda s: -abs(s[2]))[:10]],
                "failures": self.failures()}


# ---------------------------------------------------------------------------
# coverage cells
# ---------------------------------------------------------------------------

def coverage(chk: Checker, name: str, hits: int, n: int,
             ref_hits: int | None = None, ref_n: int | None = None,
             ref_p: float | None = None) -> float:
    """Covered count hits/n against an exact probability ``ref_p`` or a
    reference Monte Carlo count ref_hits/ref_n.  Returns the exact p-value
    as a signed normal score, for ``combined``."""
    if ref_p is not None:
        p = o.binomial_p(n - hits, n, 1.0 - ref_p)
        pool, inv = ref_p, 1.0 / n
        centre = ref_p
    else:
        p = o.two_binomial_p(n - hits, n, ref_n - ref_hits, ref_n)
        pool = (hits + ref_hits + 1.0) / (n + ref_n + 2.0)
        inv = 1.0 / n + 1.0 / ref_n
        centre = ref_hits / ref_n
    se = math.sqrt(max(pool * (1.0 - pool), 1.0 / (n + 2.0)) * inv)
    chk.stat(name, p, (hits / n - centre) / se,
             f"coverage {hits / n:.4f} of {n}, reference {centre:.4f}")
    return math.copysign(-o.STD.inv_cdf(max(p, 1e-300) / 2.0), hits / n - centre)


def combined(chk: Checker, name: str, scores: list[float]) -> None:
    """Stouffer combination of independent cells' signed scores: catches a
    shift of a standard error or two shared by every cell of a family, which
    no single cell shows."""
    zc = sum(scores) / math.sqrt(len(scores))
    chk.stat(name, o.normal_two_sided_p(zc), zc, f"{len(scores)} cells")


def redraws(chk: Checker, name: str, count: int, replicates: int, lam: float) -> None:
    """Total redrawn counts against the exact sum-of-geometrics law."""
    pr = o.redraw_probability(lam)
    mean = replicates * pr / (1.0 - pr)
    sd = math.sqrt(replicates * pr) / (1.0 - pr)
    p = o.negative_binomial_p(count, replicates, pr)
    chk.stat(name, p, (count - mean) / sd if sd > 0 else 0.0,
             f"{count} redraws, expected {mean:.2f}")


# ---------------------------------------------------------------------------
# command-line outputs
# ---------------------------------------------------------------------------

ANALYZE_METHODS = ("fixed-dist:half-normal", "fixed-mom", "random-dist:half-normal",
                   "random-mom", "boot")


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def analyze(chk: Checker, tag: str, z: list[float], text: str,
            alpha: float = 0.05, level: float = 0.95, resamples: int = 1000) -> None:
    """``failsafe analyze`` JSON for z-scores ``z`` at the default methods."""
    try:
        rep = json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:
        chk.expect(f"{tag}.json", False, str(exc))
        return
    k = len(z)
    za, q = o.z_alpha(alpha), o.z_two_sided(level)
    s = math.fsum(z)
    nr = max(s * s / za ** 2 - k, 0.0)
    chk.close(f"{tag}.n_r", rep.get("n_r"), nr, scale=k)
    chk.expect(f"{tag}.k", rep.get("k") == k, f"{rep.get('k')!r}")
    chk.close(f"{tag}.sum_z", rep.get("sum_z"), s, scale=math.fsum(map(abs, z)))
    chk.close(f"{tag}.z_alpha", rep.get("z_alpha"), za)
    chk.expect(f"{tag}.below_threshold",
               rep.get("below_threshold") == (s < za * math.sqrt(k)))
    rot = rep.get("rule_of_thumb") or {}
    chk.close(f"{tag}.rule.threshold", rot.get("threshold"), 5.0 * k + 10.0)
    chk.expect(f"{tag}.rule.exceeded", rot.get("exceeded") == (nr > 5.0 * k + 10.0))
    chk.expect(f"{tag}.errors", rep.get("errors") == [], f"{rep.get('errors')!r}")

    ivs = rep.get("intervals") or []
    if not chk.expect(f"{tag}.intervals", len(ivs) == len(ANALYZE_METHODS)
                      and all(str(iv.get("method", "")).startswith(m)
                              for iv, m in zip(ivs, ANALYZE_METHODS)),
                      f"{[iv.get('method') for iv in ivs]}"):
        return
    mu_h = s / k
    s2_h = math.fsum((v - mu_h) ** 2 for v in z) / k
    hn = o.Dist("half-normal").moments()
    variances = (o.var_fixed_largek(*hn, k, za), o.var_fixed_largek(mu_h, s2_h, k, za),
                 o.var_random(*hn, k, za), o.var_random(mu_h, s2_h, k, za))
    for iv, m, v in zip(ivs, ANALYZE_METHODS, variances):
        hw = q * math.sqrt(v)
        chk.close(f"{tag}.{m}.variance", iv.get("variance_used"), v)
        chk.close(f"{tag}.{m}.lower", iv.get("lower"), nr - hw, scale=nr + hw)
        chk.close(f"{tag}.{m}.upper", iv.get("upper"), nr + hw, scale=nr + hw)

    boot = ivs[4]
    se = boot.get("boot_se")
    if not chk.close(f"{tag}.boot.variance", boot.get("variance_used"),
                     se * se if isinstance(se, float) else math.nan):
        return
    chk.close(f"{tag}.boot.lower", boot.get("lower"), nr - q * se, scale=nr + q * se)
    chk.close(f"{tag}.boot.upper", boot.get("upper"), nr + q * se, scale=nr + q * se)
    ex = o.bootstrap_exact(z, alpha)
    if chk.expect(f"{tag}.boot.margin", ex.clamp_margin_sd >= 6.0,
                  f"sum only {ex.clamp_margin_sd:.2f} sd above threshold"):
        zs = o.sd_z(se, ex.sd, ex.kurtosis, resamples)
        chk.stat(f"{tag}.boot.se", o.normal_two_sided_p(zs), zs,
                 f"boot_se {se:.6g}, exact {ex.sd:.6g}")
        mean = boot.get("boot_mean")
        zm = ((mean - ex.mean) / (ex.sd / math.sqrt(resamples))
              if isinstance(mean, float) else math.inf)
        chk.stat(f"{tag}.boot.mean", o.normal_two_sided_p(zm), zm,
                 f"boot_mean {mean!r}, exact {ex.mean:.6g}")

    t = rep.get("test") or {}
    v_table = o.var_fixed_table(*hn, k, za)
    stat = (nr - (5.0 * k + 10.0)) / math.sqrt(v_table)
    chk.close(f"{tag}.test.statistic", t.get("statistic"), stat, scale=1.0)
    chk.close(f"{tag}.test.critical", t.get("critical"), za)
    chk.expect(f"{tag}.test.reject", t.get("reject") == (stat > za))

    ig = rep.get("iyengar_greenhouse")
    if isinstance(ig, float):
        resid = o.iyengar_greenhouse_residual(ig, s, k, alpha)
        chk.expect(f"{tag}.iyengar_greenhouse.residual", abs(resid) <= 1e-6 * max(1.0, s),
                   f"residual {resid!r}")
        chk.close(f"{tag}.iyengar_greenhouse.closed_form", ig,
                  o.iyengar_greenhouse_closed(s, k, alpha), scale=1.0, rtol=1e-7)
    else:
        chk.expect(f"{tag}.iyengar_greenhouse", False, f"{ig!r}")


_TEST_LINE = re.compile(r"n_r=(\S+) threshold=(\S+) statistic=(\S+) critical=(\S+)")


def test(chk: Checker, tag: str, z: list[float], text: str, alpha: float = 0.05) -> None:
    """``failsafe test`` output: six-significant-digit values and a verdict."""
    lines = text.strip().splitlines()
    m = _TEST_LINE.fullmatch(lines[0].strip()) if lines else None
    if not chk.expect(f"{tag}.format", m is not None and len(lines) == 2, text[:200]):
        return
    k = len(z)
    za = o.z_alpha(alpha)
    s = math.fsum(z)
    nr = max(s * s / za ** 2 - k, 0.0)
    stat = (nr - (5.0 * k + 10.0)) / math.sqrt(
        o.var_fixed_table(*o.Dist("half-normal").moments(), k, za))
    for name, got, want in zip(("n_r", "threshold", "statistic", "critical"),
                               m.groups(), (nr, 5.0 * k + 10.0, stat, za)):
        try:
            value = float(got)
        except ValueError:
            value = math.nan
        chk.close(f"{tag}.{name}", value, want, scale=1e-6, rtol=1e-5)
    verdict = "reject:" if stat > za else "fail to reject:"
    chk.expect(f"{tag}.verdict", lines[1].startswith(verdict), lines[1])


PUBLISHED_CUTOFFS = {1: 17, 2: 26, 3: 35, 25: 209, 63: 618}


def cutoffs(chk: Checker, tag: str, text: str, k_max: int, alpha: float = 0.05) -> None:
    """``failsafe cutoffs`` table against the table formula, and the
    published anchors within one."""
    lines = text.strip().splitlines()
    want_rows = k_max + 1
    if not chk.expect(f"{tag}.rows", len(lines) == want_rows and lines[0] == "k,cutoff",
                      f"{len(lines)} lines"):
        return
    bad = []
    got = {}
    for k, line in enumerate(lines[1:], start=1):
        try:
            kk, c = (int(x) for x in line.split(","))
        except ValueError:
            bad.append(line)
            continue
        got[kk] = c
        want, raw = o.cutoff(k, alpha)
        # a value within 1e-6 of a rounding boundary may round either way
        edge = abs(raw - math.floor(raw) - 0.5) < 1e-6
        if kk != k or not (c == want or (edge and abs(c - want) == 1)):
            bad.append(f"{line} (want {k},{want})")
    chk.expect(f"{tag}.formula", not bad, "; ".join(bad[:5]))
    for k, c in PUBLISHED_CUTOFFS.items():
        if k <= k_max:
            chk.expect(f"{tag}.published.k{k}", abs(got.get(k, -10) - c) <= 1,
                       f"{got.get(k)} vs {c}")
