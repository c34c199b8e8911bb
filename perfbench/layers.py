"""Per-layer measurements, taken from outside the program.

Layer times are probes: direct, repeated calls into the public functions of
one ``failsafe`` module, at the shapes the workload uses, each reported as
the median time of one call.  Counts and per-scenario self times come from
the traced pass over the workload's own rounds (see ``tracing``).
"""
from __future__ import annotations

import contextlib
import io
import statistics
import subprocess
import time

import numpy as np

from workloads import method_kind

# (module, attribute, span name); a run_scenario span is labelled with the
# kind of its interval method
TRACE_TARGETS = (
    ("failsafe.rng", "RandomSource.generator", "rng.generator"),
    ("failsafe.distributions", "sample", "distributions.sample"),
    ("failsafe.estimators", "moments_estimate", "estimators.moments_estimate"),
    ("failsafe.estimators", "distributional_params", "estimators.distributional_params"),
    ("failsafe.estimators", "skew_normal_mom_fit", "estimators.skew_normal_mom_fit"),
    ("failsafe.core", "rosenthal_nr", "core.rosenthal_nr"),
    ("failsafe.core", "iyengar_greenhouse_n", "core.iyengar_greenhouse_n"),
    ("failsafe.core", "moments_fixed_largek", "core.moments_fixed_largek"),
    ("failsafe.core", "moments_fixed_exact", "core.moments_fixed_exact"),
    ("failsafe.core", "moments_fixed_table", "core.moments_fixed_table"),
    ("failsafe.core", "moments_random", "core.moments_random"),
    ("failsafe.inference", "bootstrap_nr_draws", "inference.bootstrap_nr_draws"),
    ("failsafe.inference", "model_variance", "inference.model_variance"),
    ("failsafe.inference", "ci_normal", "inference.ci_normal"),
    ("failsafe.inference", "ci_bootstrap", "inference.ci_bootstrap"),
    ("failsafe.inference", "cutoff_table", "inference.cutoff_table"),
    ("failsafe.inference", "failsafe_test", "inference.failsafe_test"),
    ("failsafe.inference", "parse_method", "inference.parse_method"),
    ("failsafe.simulation", "run_scenario", "simulation.run_scenario"),
    ("failsafe.simulation", "run_grid", "simulation.run_grid"),
    ("failsafe.io", "ingest", "io.ingest"),
    ("failsafe.io", "analyze", "io.analyze"),
    ("failsafe.io", "format_report", "io.format_report"),
    ("failsafe.cli", "main", "cli.main"),
)

CI_NORMAL_TOKENS = {"fixed-dist": "fixed-dist:half-normal", "fixed-mom": "fixed-mom",
                    "random-dist": "random-dist:half-normal", "random-mom": "random-mom"}


def scenario_kind(args) -> str:
    return method_kind(args[0].ci_method.describe())


@contextlib.contextmanager
def traced(tracer):
    """Record spans of every target for the duration of the block, then
    restore the program's own functions."""
    import failsafe.cli  # noqa: F401  (loads every module a target lives in)
    import failsafe.simulation  # noqa: F401
    for module, attr, name in TRACE_TARGETS:
        label = scenario_kind if attr == "run_scenario" else None
        tracer.install(module, attr, name, label)
    try:
        yield
    finally:
        tracer.uninstall()


def time_call(fn, min_time: float = 0.02, repeats: int = 5) -> float:
    """Median wall time of one call, over ``repeats`` timed loops of at least
    ``min_time`` seconds each."""
    t0 = time.perf_counter()
    fn()
    first = time.perf_counter() - t0
    n = max(1, int(min_time / max(first, 1e-7)))
    per = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        per.append((time.perf_counter() - t0) / n)
    return statistics.median(per)


def import_probes(ctx, repeats: int = 5) -> dict[str, float]:
    """Bare interpreter start-up, import of ``failsafe.cli`` in a fresh
    interpreter, and the cumulative import time of ``scipy.special`` from
    ``-X importtime``."""
    py, env = ctx.python, ctx.env
    bare, cli, special = [], [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([py, "-c", "pass"], env=env, check=True, timeout=60)
        bare.append(time.perf_counter() - t0)
        out = subprocess.run(
            [py, "-c", "import time; t = time.perf_counter(); import failsafe.cli; "
                       "print(time.perf_counter() - t)"],
            env=env, check=True, capture_output=True, text=True, timeout=60)
        cli.append(float(out.stdout))
        out = subprocess.run([py, "-X", "importtime", "-c", "import failsafe.cli"],
                             env=env, check=True, capture_output=True, text=True,
                             timeout=60)
        special.append(scipy_import_s(out.stderr))
    return {"import.interpreter_s": statistics.median(bare),
            "import.failsafe_cli_s": statistics.median(cli),
            "import.scipy_special_s": statistics.median(special)}


def scipy_import_s(importtime: str) -> float:
    """Seconds spent importing scipy, from ``-X importtime`` output: the
    cumulative times of every scipy module whose importer is not itself a
    scipy module.  (scipy loads ``scipy.special`` lazily, so the package
    gets no line of its own.)"""
    rows = []
    for line in importtime.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        rows.append((len(name) - len(name.lstrip()), name.strip(), int(parts[1])))
    total = 0
    for i, (depth, name, cum) in enumerate(rows):
        if name != "scipy" and not name.startswith("scipy."):
            continue
        # -X importtime lists a module after everything it imported
        parent = next((n for d, n, _ in rows[i + 1:] if d < depth), "")
        if parent != "scipy" and not parent.startswith("scipy."):
            total += cum
    return total / 1e6


def call_probes(wl, z_path: str, z: list[float]) -> dict[str, float]:
    """Median time of one call into each layer at the workload's shapes."""
    from failsafe import cli
    from failsafe.core import iyengar_greenhouse_n, moments_fixed_table, rosenthal_nr
    from failsafe.distributions import HalfNormal, sample
    from failsafe.estimators import ZSample, distributional_params, moments_estimate
    from failsafe.inference import (bootstrap_nr_draws, ci_bootstrap, ci_normal,
                                    cutoff_table, parse_method)
    from failsafe.io import AnalysisConfig, analyze, format_report, ingest
    from failsafe.rng import RandomSource

    def main_analyze():
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["analyze", z_path, "--format", "json"])

    zs = ZSample(tuple(z))
    est = rosenthal_nr(zs)
    report, _ = analyze(zs, AnalysisConfig())
    hn = distributional_params("half-normal", zs.k)
    src = RandomSource(12345, 0)
    g = src.generator()
    k, b = wl.probe_k, wl.probe_resamples
    zk = np.asarray(z[:k], dtype=float)
    counter = iter(range(10 ** 9))
    out = {
        "cli.main_analyze_s": time_call(main_analyze),
        "io.ingest_s": time_call(lambda: ingest(z_path)),
        "io.analyze_s": time_call(lambda: analyze(zs, AnalysisConfig())),
        "io.format_report_json_s": time_call(lambda: format_report(report, "json")),
        "core.rosenthal_nr_s": time_call(lambda: rosenthal_nr(zs)),
        "core.iyengar_greenhouse_n_s": time_call(lambda: iyengar_greenhouse_n(zs)),
        "core.moments_fixed_table_s": time_call(lambda: moments_fixed_table(hn, zs.k, 0.05)),
        "estimators.zsample_s": time_call(lambda: ZSample(tuple(z))),
        "estimators.moments_estimate_s": time_call(lambda: moments_estimate(zs)),
    }
    for label, token in CI_NORMAL_TOKENS.items():
        model = parse_method(token)
        out[f"inference.ci_normal.{label}_s"] = time_call(
            lambda m=model: ci_normal(est, zs, m, 0.95))
    out["inference.ci_bootstrap_s"] = time_call(lambda: ci_bootstrap(zs, 1000, src, 0.95))
    out["inference.cutoff_table_s"] = time_call(lambda: cutoff_table(160))
    out["inference.bootstrap_nr_draws_s"] = time_call(
        lambda: bootstrap_nr_draws(zk, b, est.z_alpha, g))
    out["distributions.sample_s"] = time_call(lambda: sample(HalfNormal(1.0), k, g))
    out["rng.generator_s"] = time_call(lambda: RandomSource(7, next(counter)).generator())
    return out


def probe_scenario(kind: str, k: int):
    """A small scenario of one interval kind, for workloads that run none."""
    from failsafe.distributions import HalfNormal
    from failsafe.inference import parse_method
    from failsafe.simulation import CoverageScenario
    token = {"dist": "fixed-dist:half-normal", "mom": "fixed-mom", "boot": "boot:200"}[kind]
    return CoverageScenario(HalfNormal(1.0), parse_method(token), k_values=(k,),
                            replicates=200, boot_replicates=200, seed=99)
