"""Benchmark of the failsafe package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads: cli-oneshot, coverage-grid, coverage-poisson,
boot-fullscale (see README.md).  One client drives the program in a closed
loop, one operation after another, for S seconds of whole rounds.  Every
output is checked against reference values computed apart from the package.

``--trace 0`` reports the end-to-end metrics: set-up time (median of
several fresh-process set-ups), the median wall time of one round, and peak
resident memory.  ``--trace 1`` reports the per-layer metrics: direct timings
of each layer's public functions, and counts, per-scenario self times and the
tracing overhead from a pass whose rounds alternate untraced and traced.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the full record, with every
check, goes to ``bench_results/BENCH_<workload>_seed<N>_trace<T>.json``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import layers
import workloads
from tracing import Tracer

SETUP_RUNS = 5
DEADLINE_S = 170
# the in-process CLI rounds of a traced run take milliseconds; more pairs
# than this add checks, not information
MAX_TRACED_PAIRS = 100


class Deadline(Exception):
    pass


def _on_alarm(signum, frame):
    raise Deadline(f"run exceeded {DEADLINE_S} s")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--work", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be non-negative and --seconds positive")
    return args


def measure_setup(ctx: workloads.Context, name: str) -> list[float]:
    """Wall time from spawning a fresh interpreter to its report that the
    workload is set up: program import, input generation and warm-up."""
    times = []
    for i in range(SETUP_RUNS):
        work = ctx.work / f"setup-{i}"
        argv = [ctx.python, str(Path(__file__).resolve()), "--setup-probe",
                "--workload", name, "--seed", str(ctx.seed), "--seconds", "1",
                "--work", str(work)]
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ctx.root)
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with code {proc.returncode}")
    return times


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "failsafe").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def machine() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"cpu": cpu, "cpus": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__}


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def coverage_counts(wl, rounds) -> dict[str, float]:
    """Replicates, redraws and failed replicates per round."""
    totals = {"replicates": 0, "redraws": 0, "failures": 0}
    if isinstance(wl, workloads.CliOneshot):
        return totals
    for rd in rounds:
        for _, rep in rd.outputs:
            for c in rep.cells:
                totals["replicates"] += c.replicates
                totals["redraws"] += c.redraws
                totals["failures"] += c.failures
    return {k: v / len(rounds) for k, v in totals.items()}


def run_untraced(wl, ctx, seconds: float, record: dict) -> tuple[list, dict]:
    setup = measure_setup(ctx, wl.name)
    wl.setup()
    wl.warm()
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(wl.run_round(len(rounds)))
    if isinstance(wl, workloads.CliOneshot):
        rss_kb = max(rd.peak_child_rss_kb for rd in rounds)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    round_s = [rd.elapsed for rd in rounds]
    metrics = {"setup_s": statistics.median(setup),
               "round_s": statistics.median(round_s),
               "peak_rss_mb": rss_kb / 1024.0}
    record["setup_s"] = quartiles(setup)
    record["round_s"] = quartiles(round_s)
    if isinstance(wl, workloads.CliOneshot):
        for cmd in ("analyze", "test", "cutoffs"):
            record[f"{cmd}_s"] = quartiles([rd.call_times[cmd] for rd in rounds])
    else:
        reps = coverage_counts(wl, rounds)["replicates"] * len(rounds)
        record["replicates_per_s"] = reps / sum(round_s)
    return rounds, metrics


def run_traced(wl, ctx, seconds: float, record: dict) -> tuple[list, dict]:
    import failsafe.simulation as sim
    wl.setup()
    tracer = Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or (time.perf_counter() - start < seconds
                         and len(traced) < MAX_TRACED_PAIRS):
        plain.append(wl.run_round_inprocess(len(plain) + len(traced)))
        with layers.traced(tracer):
            traced.append(wl.run_round_inprocess(len(plain) + len(traced)))
    calls = dict(tracer.calls)
    workload_summary = tracer.summary()

    metrics = {}
    sources = {}
    for kind in ("dist", "mom", "boot"):
        span = f"simulation.run_scenario[{kind}]"
        if span not in tracer.self_times:
            with layers.traced(tracer):
                sim.run_scenario(layers.probe_scenario(kind, wl.probe_k))
            sources[kind] = "probe scenario"
        else:
            sources[kind] = "workload"
        metrics[f"simulation.{kind}_scenario_s"] = statistics.median(tracer.self_times[span])

    rounds = plain + traced
    counts = coverage_counts(wl, rounds)
    metrics["simulation.replicates"] = counts["replicates"]
    metrics["simulation.redraws"] = counts["redraws"]
    metrics["simulation.replicate_failures"] = counts["failures"]
    metrics["rng.generators_built"] = calls.get("rng.generator", 0) / len(traced)
    metrics["trace.spans"] = sum(calls.values()) / len(traced)
    metrics["trace.overhead_ratio"] = (statistics.median(rd.elapsed for rd in traced)
                                       / statistics.median(rd.elapsed for rd in plain))
    metrics["inference.bootstrap_index_bytes"] = wl.index_bytes_per_round()

    z_path, z = workloads.probe_input(ctx)
    metrics.update(layers.import_probes(ctx))
    metrics.update(layers.call_probes(wl, str(z_path), z))

    record["traced_rounds"] = quartiles([rd.elapsed for rd in traced])
    record["untraced_rounds"] = quartiles([rd.elapsed for rd in plain])
    record["scenario_self_time_source"] = sources
    record["spans_by_name"] = workload_summary
    spans_path = ctx.root / "bench_results" / f"SPANS_{wl.name}_seed{ctx.seed}.json"
    spans_path.write_text(json.dumps(
        {"fields": ["name", "start_s", "end_s", "parent"], "spans": tracer.spans}))
    return rounds, metrics


def spec_units(root: Path, section: str) -> dict[str, str]:
    """Metric names and units of one section of BENCHMARK.json."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "failsafe" / "__init__.py").is_file():
        print(f"error: no failsafe package under {root / 'src'}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    results = root / "bench_results"
    work = Path(args.work) if args.work else (
        results / f"work-{args.workload}-{args.seed}-{os.getpid()}")
    work.mkdir(parents=True, exist_ok=True)
    ctx = workloads.Context(root=root, seed=args.seed, work=work, python=sys.executable)
    wl = workloads.WORKLOADS[args.workload](ctx)
    if args.setup_probe:
        wl.setup()
        print("ready", flush=True)
        return 0

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(DEADLINE_S)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "machine": machine(),
              "source_sha256": source_digest(root)}
    try:
        if args.trace:
            rounds, values = run_traced(wl, ctx, args.seconds, record)
            units = spec_units(root, "per_layer")
        else:
            rounds, values = run_untraced(wl, ctx, args.seconds, record)
            units = spec_units(root, "end_to_end")
        chk = checks.Checker()
        wl.check(rounds, chk)
    except Deadline as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
        shutil.rmtree(work, ignore_errors=True)

    failures = chk.failures()
    result = {"correct": not failures,
              "attempted": sum(rd.attempted for rd in rounds),
              "failed": sum(rd.failed for rd in rounds),
              "metrics": {name: {"value": float(values[name]), "unit": unit}
                          for name, unit in units.items()}}
    record.update(rounds=len(rounds), metrics=result["metrics"], checks=chk.summary(),
                  attempted=result["attempted"], failed=result["failed"])
    (results / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    for name, m in result["metrics"].items():
        print(f"{name:44s} {m['value']:.6g} {m['unit']}")
    for key in ("analyze_s", "test_s", "cutoffs_s"):
        if key in record:
            print(f"{key:44s} {record[key]['median']:.6g} s (median of {record[key]['n']})")
    if "replicates_per_s" in record:
        print(f"{'replicates_per_s':44s} {record['replicates_per_s']:.6g} 1/s")
    s = record["checks"]
    print(f"checks: {s['exact_checks']} exact, {s['statistical_checks']} statistical "
          f"(per-check alpha {s['alpha_per_check']:.2g}, max |z| {s['max_abs_z']:.2f} MC SE)")
    for line in failures[:20]:
        print(f"FAILED {line}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
