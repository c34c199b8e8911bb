"""The package's public names, pinned so that any change shows in a diff,
and the names the benchmark imports from it."""
import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import failsafe

PERFBENCH = sorted((Path(__file__).parents[1] / "perfbench").glob("*.py"))

PUBLIC = [
    "AnalysisConfig", "BelowThresholdError", "CoverageCell", "CoverageReport",
    "CoverageScenario", "DegenerateVarianceError", "DomainError", "FailSafeEstimate",
    "FailsafeError", "HalfNormal", "IngestError", "InsufficientDataError", "Interval",
    "Method", "ParameterTriple", "RandomSource", "SkewNormal", "StandardNormal",
    "TestResult", "ZSample", "analyze", "ci_bootstrap", "ci_normal", "core",
    "coverage_csv", "coverage_study_grid", "cutoff_table", "derive_seed",
    "distributional_params", "distributions", "errors", "estimators", "failsafe_test",
    "figure_data_csv", "format_report", "inference", "ingest", "io",
    "iyengar_greenhouse_n", "method_variance", "moments_estimate",
    "moments_fixed_table", "parse_method", "rng", "rosenthal_nr", "run_grid",
    "run_scenario", "sample", "simulation", "std_normal_cdf", "std_normal_pdf",
    "std_normal_quantile", "true_nr",
]


def test_public_names():
    assert sorted(failsafe.__all__) == PUBLIC


@pytest.mark.parametrize("path", PERFBENCH, ids=lambda p: p.name)
def test_perfbench_imports_resolve(path):
    # an API cut must not break the benchmark's probes
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("failsafe"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                # as the import statement does: an attribute, else a submodule
                full = f"{node.module}.{alias.name}"
                assert hasattr(module, alias.name) or (
                    hasattr(module, "__path__") and importlib.util.find_spec(full)), full


# Each check in its own fresh interpreter, where ``import failsafe`` has
# loaded no numpy: every public name, ``simulation``'s included, is bound at
# import, and numpy loads lazily, inside the functions that draw.
LAZY_SURFACE = {
    "getattr": "assert all(getattr(failsafe, n) is not None for n in failsafe.__all__)",
    "dir": "assert set(failsafe.__all__) <= set(dir(failsafe))",
    "star": "ns = {}; exec('from failsafe import *', ns); "
            "assert set(failsafe.__all__) <= set(ns)",
    "submodule": "assert failsafe.simulation.run_grid is failsafe.run_grid",
}


@pytest.mark.parametrize("check", LAZY_SURFACE.values(), ids=LAZY_SURFACE.keys())
def test_lazy_names_resolve_in_a_fresh_interpreter(check):
    env = dict(os.environ)
    src = str(Path(failsafe.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = ("import sys, failsafe\n"
              "assert not [m for m in sys.modules if m.split('.')[0] == 'numpy']\n" + check)
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
