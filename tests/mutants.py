"""Mutation check of the Tier-1 suite: does some test fail on a wrong program?

Each mutant below is a hand-written (file, old, new) edit of the package.
For each one the script copies the repository to a temporary directory,
applies the edit there, and runs the Tier-1 command, stopping at the first
failing test; a failure kills the mutant.  It prints every verdict and the
survivors, and exits 1 if a mutant survives that is not listed as
equivalent, 2 if an edit no longer matches its file or the unmutated copy
fails Tier-1.

    python tests/mutants.py          # every mutant (about 10 min on 2 cores)
    python tests/mutants.py 3 14     # mutants by number

Only the standard library is imported here; pytest does not collect this
file, and Tier-1 does not run it.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]
TIMEOUT_S = 1800


class Mutant(NamedTuple):
    path: str          # under src/failsafe
    old: str           # must occur exactly once
    new: str
    what: str
    equivalent: str | None = None   # why no test can kill it


MUTANTS = [
    Mutant("inference.py", "za * math.sqrt(variance) + 0.5))",
           "za * math.sqrt(variance) + 0.49))", "cutoff rounding + 0.5 -> + 0.49"),
    Mutant("inference.py", "        draws = [d if d > 0.0 else 0.0 for d in draws]\n", "",
           "ci_bootstrap without its clamp at zero"),
    Mutant("simulation.py", "if nr - hw <= tv <= nr + hw:", "if nr - hw < tv < nr + hw:",
           "open interval in the engine's coverage check",
           equivalent="a bound equals the true value with probability zero"),
    Mutant("inference.py", "idx = g.integers(0, k, size=", "idx = g.integers(0, k - 1, size=",
           "resampling from k - 1 of k values"),
    Mutant("inference.py", "math.sqrt(draws.sum() / (n - 1))", "math.sqrt(draws.sum() / n)",
           "engine resample sd with an n divisor (ddof=0)"),
    Mutant("estimators.py", "math.fsum([(v - mu) ** 2 for v in z]) / k",
           "math.fsum([(v - mu) ** 2 for v in z]) / (k - 1)",
           "moment variance with a k - 1 divisor"),
    Mutant("core.py", "(4*l3 + 6*l2 + lam) * m2 * m2", "(4*l3 + 6*l2 + 2*lam) * m2 * m2",
           "a random_variance coefficient"),
    Mutant("simulation.py", "nr = 0.0 if clamp and not raw > 0.0 else raw", "nr = raw",
           "engine point estimate without its clamp"),
    Mutant("simulation.py", "                            np.maximum(draws, 0.0, out=draws)\n",
           "                            pass\n", "engine resamples without their clamp"),
    Mutant("simulation.py", "while k < 2:", "while k < 1:",
           "Poisson counts redrawn below 1 instead of 2"),
    Mutant("core.py", "m = -_truncation(z_alpha)[0]", "m = -_truncation(-z_alpha)[0]",
           "Iyengar-Greenhouse M(alpha) over the upper tail"),
    Mutant("core.py", "math.log(za * _truncation(lam)[0] / 2.0)",
           "math.log(za * _truncation(lam)[0] / 2.1)", "a constant in nr_pdf's tail form"),
    Mutant("core.py", "rho.append(n / (x + rho[-1]))", "rho.append((n + 1) / (x + rho[-1]))",
           "continued-fraction numerator n -> n + 1"),
    Mutant("core.py", "_FRACTION_BELOW, _FRACTION_TERMS = -4.0, 80",
           "_FRACTION_BELOW, _FRACTION_TERMS = -8.0, 80",
           "continued fraction switched on at -8 instead of -4"),
    Mutant("core.py", "+ 4.0 * c * sig * r2 * (r3 - r1)", "+ 2.0 * c * sig * r2 * (r3 - r1)",
           "the cross term of the exact variance"),
    Mutant("distributions.py", "delta = float(name[len(\"skew-normal(\"):-1])",
           "delta = abs(float(name[len(\"skew-normal(\"):-1]))",
           "law names read with |delta|"),
    Mutant("distributions.py", "name = f\"skew-normal({self.delta!r})\"",
           "name = f\"skew-normal({self.delta:g})\"",
           "skew-normal names written with six digits of delta"),
    Mutant("distributions.py", "if alpha < 1e-3 else", "if alpha < 1e-2 else",
           "Z_a from the lower tail up to alpha = 1e-2"),
    Mutant("core.py", "(k * k * mu * mu + k * s2) / za**2 - k",
           "(k * k * mu * mu + s2) / za**2 - k", "fixed-count expectation: k * s2 -> s2"),
    Mutant("core.py", "(lam * lam * m2 + lam * (m2 + s2)) / za**2 - lam",
           "(lam * lam * m2 + lam * s2) / za**2 - lam",
           "random-count expectation: lam * (m2 + s2) -> lam * s2"),
    Mutant("core.py", "rule = 5.0 * k + 10.0", "rule = 5.0 * k + 9.0",
           "rosenthal_nr's rule of thumb 5k + 10 -> 5k + 9"),
    Mutant("inference.py", "cut = int(math.floor(5.0 * k + 10.0 + za",
           "cut = int(math.floor(5.0 * k + 9.0 + za", "cutoff_table's rule 5k + 10 -> 5k + 9"),
    Mutant("core.py", "- 4.0 * m * s + 4.0 * k * m * m))", "- 4.0 * m * s + 4.0 * m * m))",
           "Iyengar-Greenhouse root: 4 k m^2 -> 4 m^2"),
    Mutant("io.py", "if not math.isfinite(se) or se <= 0:",
           "if not math.isfinite(se) or se < 0:", "ingest accepts se = 0"),
    Mutant("inference.py", "/ (replicates - 1))", "/ replicates)",
           "ci_bootstrap sd with a replicates divisor (ddof=0)"),
    Mutant("rng.py", "out += (x0 & 0xFFFFFFFF, x0 >> 32, x1 & 0xFFFFFFFF, x1 >> 32,\n"
           "                x2 & 0xFFFFFFFF, x2 >> 32, x3 & 0xFFFFFFFF, x3 >> 32)",
           "out += (x0 >> 32, x0 & 0xFFFFFFFF, x1 >> 32, x1 & 0xFFFFFFFF,\n"
           "                x2 >> 32, x2 & 0xFFFFFFFF, x3 >> 32, x3 & 0xFFFFFFFF)",
           "Philox words read high half before low"),
    Mutant("rng.py", "    block = 1\n", "    block = 0\n",
           "Philox counter of a fresh stream's first block 0, not 1"),
    Mutant("rng.py", "for r in range(_PHILOX_ROUNDS)]", "for r in range(_PHILOX_ROUNDS - 1)]",
           "Philox with one round dropped"),
    Mutant("rng.py", "out += [m >> 32 for u in words if (m := u * k) & 0xFFFFFFFF >= threshold]",
           "out += [(u * k) >> 32 for u in words]",
           "bounded draw without Lemire's rejection test"),
]


def _copy(dest: Path) -> None:
    shutil.copytree(ROOT, dest, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis", "bench_results",
        "*.egg-info"))


def _tier1_fails(tree: Path) -> bool:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tree / "src"),
                                                      env.get("PYTHONPATH")]))
    try:
        done = subprocess.run(TIER1, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return True
    return done.returncode != 0


def main(argv: list[str]) -> int:
    chosen = [int(a) for a in argv] or list(range(1, len(MUTANTS) + 1))
    for n in chosen:
        m = MUTANTS[n - 1]
        count = (ROOT / "src" / "failsafe" / m.path).read_text().count(m.old)
        if count != 1:
            print(f"[{n}] {m.path}: the old text occurs {count} times; update the mutant")
            return 2
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        base = Path(tmp) / "base"
        _copy(base)
        if _tier1_fails(base):
            print("Tier-1 fails on the unmutated copy; no verdict is possible")
            return 2
        survivors = []
        for n in chosen:
            m = MUTANTS[n - 1]
            tree = Path(tmp) / f"mutant{n}"
            _copy(tree)
            target = tree / "src" / "failsafe" / m.path
            target.write_text(target.read_text().replace(m.old, m.new))
            t0 = time.perf_counter()
            killed = _tier1_fails(tree)
            shutil.rmtree(tree)
            verdict = "killed" if killed else "SURVIVED"
            note = f" (equivalent: {m.equivalent})" if m.equivalent and not killed else ""
            print(f"[{n}] {verdict} in {time.perf_counter() - t0:.0f} s: "
                  f"{m.path}: {m.what}{note}", flush=True)
            if not killed:
                survivors.append((n, m))
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} mutants killed")
    unexplained = [n for n, m in survivors if m.equivalent is None]
    for n, m in survivors:
        print(f"survivor [{n}] {m.path}: {m.what}"
              + (f" -- equivalent: {m.equivalent}" if m.equivalent else ""))
    return 1 if unexplained else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
