"""The four workloads: seeded inputs, one round of operations, and the
checks of every round's outputs against ``oracles``.

A workload repeats whole rounds of the same operations.  Round r of a run
with seed S draws its inputs from streams keyed by (S, r), so equal seeds
give equal inputs; the program sees only the generated files and scenarios.
An operation is one CLI call or one coverage cell.
"""
from __future__ import annotations

import contextlib
import io
import math
import os
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import oracles as o

ALPHA, LEVEL = 0.05, 0.95


@dataclass
class Context:
    root: Path
    seed: int
    work: Path
    python: str

    @property
    def env(self) -> dict:
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        return env


@dataclass
class Round:
    elapsed: float
    attempted: int
    failed: int
    outputs: list = field(default_factory=list)
    call_times: dict = field(default_factory=dict)
    peak_child_rss_kb: int = 0


def round_seed(seed: int, r: int) -> int:
    return int(np.random.SeedSequence([seed, 0x5EED, r]).generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# cli-oneshot
# ---------------------------------------------------------------------------

def analyze_input(g: np.random.Generator, k: int = 30) -> list[float]:
    """k z-scores around a mean drawn from [1.8, 2.6], redrawn until the sum
    sits at least 7 bootstrap sd above the one-sided threshold, so that the
    program's clamp at zero never touches a resample and the unclamped exact
    bootstrap moments apply."""
    while True:
        z = (g.uniform(1.8, 2.6) + g.standard_normal(k)).tolist()
        if o.bootstrap_exact(z, ALPHA).clamp_margin_sd >= 7.0:
            return z


def effect_se_input(g: np.random.Generator, k: int = 30) -> tuple[list, list]:
    se = g.uniform(0.05, 0.5, k).tolist()
    z = g.uniform(1.0, 2.5) + g.standard_normal(k)
    return [float(a * b) for a, b in zip(z, se)], se


def probe_input(ctx: Context) -> tuple[Path, list[float]]:
    """A k = 30 z-score file for the per-layer probes."""
    z = analyze_input(o.stream(ctx.seed, 2))
    path = ctx.work / "probe-z.csv"
    path.write_text("z\n" + "".join(f"{v!r}\n" for v in z))
    return path, z


class CliOneshot:
    name = "cli-oneshot"
    probe_k, probe_resamples = 30, 1000
    K_MAX = 160

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def inputs(self, r: int) -> dict:
        g = o.stream(self.ctx.seed, 1, r)
        z = analyze_input(g)
        eff, se = effect_se_input(g)
        zpath = self.ctx.work / f"z-{r}.csv"
        espath = self.ctx.work / f"es-{r}.csv"
        zpath.write_text(f"# k={len(z)} z-scores, seed {self.ctx.seed} round {r}\n"
                         "label,z\n" + "".join(f"s{i:02d},{v!r}\n" for i, v in enumerate(z)))
        espath.write_text("label,effect,se\n" + "".join(
            f"s{i:02d},{a!r},{b!r}\n" for i, (a, b) in enumerate(zip(eff, se))))
        return {"z": z, "z_es": [a / b for a, b in zip(eff, se)],
                "argv": {"analyze": ["analyze", str(zpath), "--format", "json"],
                         "test": ["test", str(espath)],
                         "cutoffs": ["cutoffs", "--k-max", str(self.K_MAX)]}}

    def setup(self) -> None:
        from failsafe import cli
        inp = self.inputs(0)
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(inp["argv"]["analyze"])

    def warm(self) -> None:
        """One untimed cold call of each command (fills the bytecode cache)."""
        self.run_round(0)

    def run_round(self, r: int) -> Round:
        inp = self.inputs(r)
        out = Round(0.0, 0, 0, outputs=[])
        for cmd, argv in inp["argv"].items():
            stdout = self.ctx.work / "stdout.txt"
            stderr = self.ctx.work / "stderr.txt"
            with stdout.open("wb") as fo, stderr.open("wb") as fe:
                t0 = time.perf_counter()
                proc = subprocess.Popen([self.ctx.python, "-m", "failsafe.cli", *argv],
                                        stdout=fo, stderr=fe, env=self.ctx.env,
                                        cwd=self.ctx.root)
                try:
                    _, status, usage = os.wait4(proc.pid, 0)
                except BaseException:
                    proc.kill()
                    proc.wait()
                    raise
                dt = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.elapsed += dt
            out.call_times[cmd] = dt
            out.peak_child_rss_kb = max(out.peak_child_rss_kb, usage.ru_maxrss)
            out.attempted += 1
            ok = proc.returncode == 0
            out.failed += not ok
            out.outputs.append((cmd, inp, stdout.read_text() if ok else None))
        return out

    def run_round_inprocess(self, r: int) -> Round:
        """The same three commands through ``failsafe.cli.main`` in this
        process (the traced run's view of the CLI)."""
        import failsafe.cli
        inp = self.inputs(r)
        out = Round(0.0, 0, 0, outputs=[])
        for cmd, argv in inp["argv"].items():
            buf = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                code = failsafe.cli.main(argv)
            dt = time.perf_counter() - t0
            out.elapsed += dt
            out.call_times[cmd] = dt
            out.attempted += 1
            out.failed += code != 0
            out.outputs.append((cmd, inp, buf.getvalue() if code == 0 else None))
        return out

    def check(self, rounds: list[Round], chk: checks.Checker) -> None:
        for r, rd in enumerate(rounds):
            for cmd, inp, text in rd.outputs:
                if text is None:
                    continue
                tag = f"round{r}.{cmd}"
                if cmd == "analyze":
                    checks.analyze(chk, tag, inp["z"], text, ALPHA, LEVEL)
                elif cmd == "test":
                    checks.test(chk, tag, inp["z_es"], text, ALPHA)
                else:
                    checks.cutoffs(chk, tag, text, self.K_MAX, ALPHA)

    def index_bytes_per_round(self) -> float:
        return 1000 * 30 * 8.0


# ---------------------------------------------------------------------------
# coverage workloads
# ---------------------------------------------------------------------------

def method_kind(token: str) -> str:
    if token.startswith("boot"):
        return "boot"
    return "mom" if "-mom" in token else "dist"


def dist_of(label: str) -> o.Dist:
    """Reference distribution for a report's data-distribution label."""
    if label.startswith("skew-normal(") and label.endswith(")"):
        return o.Dist("skew-normal", float(label[len("skew-normal("):-1]))
    return o.Dist(label)


class CoverageWorkload:
    """Rounds of ``run_grid`` over a list of scenarios."""

    name = ""
    probe_k = 15
    probe_resamples = 500

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def scenarios(self, r: int) -> list:
        raise NotImplementedError

    def expected_keys(self) -> set:
        raise NotImplementedError

    def reference(self) -> tuple[dict, dict]:
        """Coverage references keyed (data, k_model, kind, k) and true values
        keyed (data, k_model, k)."""
        raise NotImplementedError

    def setup(self) -> None:
        from failsafe.distributions import HalfNormal
        from failsafe.inference import parse_method
        from failsafe.simulation import CoverageScenario, run_scenario
        self.scenarios(0)
        for token in ("fixed-dist:half-normal", "fixed-mom", "boot:100"):
            run_scenario(CoverageScenario(HalfNormal(1.0), parse_method(token),
                                          k_values=(5,), replicates=100,
                                          boot_replicates=100, seed=1))

    def warm(self) -> None:
        pass

    def run_round(self, r: int) -> Round:
        from failsafe.simulation import run_grid
        scenarios = self.scenarios(r)
        cells = sum(len(s.k_values) for s in scenarios)
        t0 = time.perf_counter()
        reports = run_grid(scenarios)
        dt = time.perf_counter() - t0
        failed = 0
        for rep, sc in zip(reports, scenarios):
            if rep.error is not None:
                failed += len(sc.k_values)
            else:
                failed += sum(c.failures > 0 for c in rep.cells)
                failed += len(sc.k_values) - len(rep.cells)
        return Round(dt, cells, failed, outputs=[(sc, rep) for sc, rep in zip(scenarios, reports)])

    run_round_inprocess = run_round

    def index_bytes_per_round(self) -> float:
        return float(sum(s.replicates * s.boot_replicates * sum(s.k_values) * 8
                         for s in self.scenarios(0)
                         if method_kind(s.ci_method.describe()) == "boot"))

    def check(self, rounds: list[Round], chk: checks.Checker) -> None:
        pooled: dict[tuple, list[int]] = {}
        redraw_pool: dict[tuple, list[int]] = {}
        za = o.z_alpha(ALPHA)
        refs, truths = self.reference()
        for r, rd in enumerate(rounds):
            keys = set()
            for sc, rep in rd.outputs:
                kind = method_kind(rep.ci_method)
                keys.add((rep.data_dist, rep.k_model, kind))
                if rep.error is not None:
                    continue
                chk.expect(f"round{r}.{rep.ci_method}.cells",
                           [c.k for c in rep.cells] == list(sc.k_values))
                for c in rep.cells:
                    if c.failures > 0:
                        continue
                    key = (rep.data_dist, rep.k_model, kind, c.k)
                    tag = f"round{r}.{rep.data_dist}.{rep.k_model}.{rep.ci_method}.k{c.k}"
                    chk.expect(f"{tag}.replicates", c.replicates == sc.replicates)
                    tv = truths.get((rep.data_dist, rep.k_model, c.k), math.nan)
                    chk.close(f"{tag}.true_value", c.true_value, tv, scale=c.k / za ** 2)
                    chk.close(f"{tag}.mc_se", c.mc_se,
                              math.sqrt(c.coverage * (1.0 - c.coverage) / c.replicates),
                              scale=1e-12)
                    hits = round(c.coverage * c.replicates)
                    chk.expect(f"{tag}.hits", abs(hits - c.coverage * c.replicates) < 1e-6)
                    acc = pooled.setdefault(key, [0, 0])
                    acc[0] += hits
                    acc[1] += c.replicates
                    if sc.k_model == "random" and sc.k_draw == "poisson":
                        acc = redraw_pool.setdefault(key, [0, 0])
                        acc[0] += c.redraws
                        acc[1] += c.replicates
                    else:
                        chk.expect(f"{tag}.redraws", c.redraws == 0, f"{c.redraws}")
            chk.expect(f"round{r}.scenarios", keys == self.expected_keys(),
                       f"{sorted(keys ^ self.expected_keys())}")
        families: dict[tuple, list[float]] = {}
        for key, (hits, n) in sorted(pooled.items()):
            ref = refs.get(key)
            name = "coverage." + ".".join(map(str, key))
            if not chk.expect(f"{name}.reference", ref is not None):
                continue
            if ref[0] == "exact":
                score = checks.coverage(chk, name, hits, n, ref_p=ref[1])
            else:
                score = checks.coverage(chk, name, hits, n, ref_hits=ref[1], ref_n=ref[2])
            # cells of one (regime, method kind) use independent reference draws
            families.setdefault(key[1:3], []).append(score)
        for fam, scores in sorted(families.items()):
            if len(scores) > 1:
                checks.combined(chk, "coverage-family." + ".".join(fam), scores)
        for key, (count, n) in sorted(redraw_pool.items()):
            checks.redraws(chk, "redraws." + ".".join(map(str, key)), count, n, key[3])


GRID_DISTS = ("std-normal", "half-normal", "skew-normal(-0.5)", "skew-normal(0.5)")
GRID_K = (5, 15, 30, 50)
GRID_CF_N = 200_000
GRID_BOOT_N = {5: 6000, 15: 6000, 30: 2000, 50: 2000}


class CoverageGrid(CoverageWorkload):
    """The paper's study: ``coverage_study_grid(seed)`` at its defaults."""

    name = "coverage-grid"
    probe_k = 30

    def scenarios(self, r: int) -> list:
        from failsafe.simulation import coverage_study_grid
        return coverage_study_grid(round_seed(self.ctx.seed, r))

    def expected_keys(self) -> set:
        return {(d, m, kind) for d in GRID_DISTS for m in ("fixed", "random")
                for kind in ("dist", "mom", "boot")}

    def check(self, rounds, chk) -> None:
        for sc in rounds[0].outputs[0:1]:
            s = sc[0]
            chk.expect("grid.settings",
                       (s.replicates, s.boot_replicates, tuple(s.k_values), s.k_draw, s.center)
                       == (2000, 500, GRID_K, "nominal", "raw"),
                       f"{(s.replicates, s.boot_replicates, s.k_values, s.k_draw, s.center)}")
        super().check(rounds, chk)

    def reference(self):
        za, q = o.z_alpha(ALPHA), o.z_two_sided(LEVEL)
        refs, truths = {}, {}
        for di, label in enumerate(GRID_DISTS):
            dist = dist_of(label)
            mu, s2 = dist.moments()
            for k in GRID_K:
                g = o.stream(self.ctx.seed, 0xC0DE, di, k)
                tvf, tvr = o.expect_fixed(mu, s2, k, za), o.expect_random(mu, s2, k, za)
                truths[(label, "fixed", k)] = tvf
                truths[(label, "random", k)] = tvr
                hits = o.closed_form_hits(dist, k, GRID_CF_N, g, za, q, tvf, tvr)
                for m in ("fixed", "random"):
                    refs[(label, m, "mom", k)] = ("mc", hits[f"mom-{m}"], GRID_CF_N)
                    refs[(label, m, "dist", k)] = ("mc", hits[f"dist-{m}"], GRID_CF_N)
                if label == "std-normal":
                    refs[(label, "fixed", "dist", k)] = ("exact", o.coverage_std_normal(
                        k, q * math.sqrt(o.var_fixed_largek(mu, s2, k, za)), tvf, za))
                    refs[(label, "random", "dist", k)] = ("exact", o.coverage_std_normal(
                        k, q * math.sqrt(o.var_random(mu, s2, k, za)), tvr, za))
                n = GRID_BOOT_N[k]
                bf, br = o.bootstrap_hits(dist, k, n, 500, g, za, q, (tvf, tvr), clamped=False)
                refs[(label, "fixed", "boot", k)] = ("mc", bf, n)
                refs[(label, "random", "boot", k)] = ("mc", br, n)
        return refs, truths


POISSON_DISTS = ("half-normal", "skew-normal(0.5)")
POISSON_K = (5, 15, 30)
POISSON_CF_N = 200_000
POISSON_BOOT_N = {5: 8000, 15: 8000, 30: 3000}


class CoveragePoisson(CoverageWorkload):
    """Counts drawn per replicate, clamped centre, matched random-dist,
    random-mom and boot:500 on half-normal and skew-normal(0.5) data."""

    name = "coverage-poisson"
    probe_k = 15

    def scenarios(self, r: int) -> list:
        from failsafe.distributions import HalfNormal, SkewNormal
        from failsafe.inference import parse_method
        from failsafe.rng import derive_seed
        from failsafe.simulation import CoverageScenario
        base = round_seed(self.ctx.seed, r)
        out = []
        for data, assumption in ((HalfNormal(1.0), "half-normal"),
                                 (SkewNormal(0.0, 1.0, 0.5), "skew-normal(0.5)")):
            for token in (f"random-dist:{assumption}", "random-mom", "boot"):
                out.append(CoverageScenario(
                    data_dist=data, ci_method=parse_method(token, 500),
                    k_values=POISSON_K, k_model="random", k_draw="poisson",
                    center="clamped", replicates=4000, boot_replicates=500,
                    seed=derive_seed(base, len(out))))
        return out

    def expected_keys(self) -> set:
        return {(d, "random", kind) for d in POISSON_DISTS for kind in ("dist", "mom", "boot")}

    def reference(self):
        za, q = o.z_alpha(ALPHA), o.z_two_sided(LEVEL)
        refs, truths = {}, {}
        for di, label in enumerate(POISSON_DISTS):
            dist = dist_of(label)
            mu, s2 = dist.moments()
            for lam in POISSON_K:
                g = o.stream(self.ctx.seed, 0xBEEF, di, lam)
                truths[(label, "random", lam)] = o.expect_random(mu, s2, lam, za)
                hits = o.poisson_hits(dist, lam, POISSON_CF_N, 0, g, za, q, ("dist", "mom"))
                refs[(label, "random", "dist", lam)] = ("mc", hits["dist"], POISSON_CF_N)
                refs[(label, "random", "mom", lam)] = ("mc", hits["mom"], POISSON_CF_N)
                n = POISSON_BOOT_N[lam]
                hits = o.poisson_hits(dist, lam, n, 500, g, za, q, ("boot",))
                refs[(label, "random", "boot", lam)] = ("mc", hits["boot"], n)
        return refs, truths


FULL_K, FULL_REPS, FULL_B, FULL_REF_N = 15, 10_000, 1000, 20_000


class BootFullscale(CoverageWorkload):
    """One bootstrap cell, 10 000 replicates x 1 000 resamples at k = 15,
    half-normal data, fixed count, clamped centre."""

    name = "boot-fullscale"
    probe_k, probe_resamples = FULL_K, FULL_B

    def scenarios(self, r: int) -> list:
        from failsafe.distributions import HalfNormal
        from failsafe.inference import parse_method
        from failsafe.simulation import CoverageScenario
        return [CoverageScenario(
            data_dist=HalfNormal(1.0), ci_method=parse_method(f"boot:{FULL_B}"),
            k_values=(FULL_K,), k_model="fixed", center="clamped",
            replicates=FULL_REPS, boot_replicates=FULL_B,
            seed=round_seed(self.ctx.seed, r))]

    def expected_keys(self) -> set:
        return {("half-normal", "fixed", "boot")}

    def reference(self):
        za, q = o.z_alpha(ALPHA), o.z_two_sided(LEVEL)
        dist = o.Dist("half-normal")
        tv = o.expect_fixed(*dist.moments(), FULL_K, za)
        g = o.stream(self.ctx.seed, 0xF011)
        (hits,) = o.bootstrap_hits(dist, FULL_K, FULL_REF_N, FULL_B, g, za, q, (tv,),
                                   clamped=True)
        return ({("half-normal", "fixed", "boot", FULL_K): ("mc", hits, FULL_REF_N)},
                {("half-normal", "fixed", FULL_K): tv})


WORKLOADS = {w.name: w for w in (CliOneshot, CoverageGrid, CoveragePoisson, BootFullscale)}
