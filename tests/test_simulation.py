"""Coverage engine: a golden record of its per-cell counts, plus scenario
validation and the CSV writers.

The golden file pins the engine's streams and arithmetic: every cell's hits,
failures and redraws must match it exactly, and its true value to 1e-12
relative.  It is a regression record, not a correctness oracle; the coverage
references in ``perfbench`` are that.  Regenerate it only on purpose, with
``PYTHONPATH=src python tests/test_simulation.py``.
"""
import csv
import io
import json
import math
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from failsafe import (
    FailsafeError,
    CoverageReport,
    CoverageScenario,
    DomainError,
    HalfNormal,
    RandomSource,
    SkewNormal,
    StandardNormal,
    coverage_csv,
    coverage_study_grid,
    derive_seed,
    figure_data_csv,
    parse_method,
    run_grid,
    run_scenario,
)

GOLDEN = Path(__file__).with_name("data") / "coverage_golden.json"


def extra_scenarios() -> list[CoverageScenario]:
    """Small scenarios through the paths the default grid skips: Poisson-drawn
    counts with redraws, the clamped centre, and the exact and table
    variants."""
    def sc(data, token, k_values, seed, boot=1000, **kw):
        return CoverageScenario(data, parse_method(token, boot), k_values=k_values,
                                replicates=200, boot_replicates=boot, seed=seed, **kw)

    poisson = dict(k_model="random", k_draw="poisson")
    return [
        sc(HalfNormal(1.0), "random-dist:half-normal", (2, 5), 11, **poisson),
        sc(SkewNormal(0.0, 1.0, 0.5), "random-mom", (2, 5), 12, **poisson),
        sc(HalfNormal(1.0), "boot", (2, 15), 13, boot=100, **poisson),
        sc(HalfNormal(1.0), "boot:100", (5,), 14, boot=100),
        sc(HalfNormal(1.0), "boot:100", (5,), 14, boot=100, center="raw"),
        sc(HalfNormal(1.0), "fixed-dist:half-normal:exact", (5, 15), 17),
        sc(StandardNormal(), "fixed-dist:skew-normal(0.3):table", (5,), 18),
        sc(HalfNormal(1.0), "fixed-mom:table", (5,), 19, center="raw"),
        sc(HalfNormal(1.0), "random-dist:half-normal", (5,), 20, k_model="random",
           k_draw="nominal", truth=(0.5, 0.5)),
    ]


def shared_pass_scenarios() -> list[CoverageScenario]:
    """Pairs that differ in the fields a shared pass reads or ignores: a
    fixed/random nominal boot twin and a closed-form one share a pass; a
    clamped/raw twin, and a Poisson-drawn scenario beside its fixed twin,
    do not."""
    def sc(token, seed, **kw):
        return CoverageScenario(SkewNormal(0.0, 1.0, -0.5), parse_method(token, 100),
                                k_values=(5, 15), replicates=200, boot_replicates=100,
                                seed=seed, **kw)

    nominal = dict(k_model="random", k_draw="nominal")
    return [
        sc("boot", 31), sc("boot", 31, **nominal),
        sc("boot", 32, center="raw"), sc("boot", 32),
        sc("fixed-mom", 33), sc("fixed-mom", 33, k_model="random", k_draw="poisson"),
        sc("random-dist:half-normal", 34, **nominal),
        sc("random-dist:half-normal", 34, truth=(0.5, 0.5)),
    ]


def observed(reports) -> list[dict]:
    out = []
    for r in reports:
        out.append({
            "ci_method": r.ci_method, "data_dist": r.data_dist, "k_model": r.k_model,
            "truth_label": r.truth_label, "seed": r.seed, "error": r.error,
            "cells": [[c.k, round(c.coverage * (c.replicates - c.failures)), c.failures, c.redraws,
                       c.replicates, c.true_value] for c in r.cells]})
    return out


def record() -> dict:
    return {"grid": observed(run_grid(coverage_study_grid(0))),
            "extra": observed(run_grid(extra_scenarios()))}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def _compare(got: list[dict], want: list[dict]):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        tag = f"{w['data_dist']}/{w['k_model']}/{w['ci_method']}"
        cells_g, cells_w = g.pop("cells"), dict(w).pop("cells")
        assert g == {key: w[key] for key in g}, tag
        assert len(cells_g) == len(cells_w), tag
        for cg, cw in zip(cells_g, cells_w):
            assert cg[:5] == cw[:5], f"{tag} k={cw[0]}"
            assert cg[5] == pytest.approx(cw[5], rel=1e-12, abs=0.0), f"{tag} k={cw[0]}"


class TestGolden:
    def test_default_grid(self, golden):
        _compare(observed(run_grid(coverage_study_grid(0))), golden["grid"])

    def test_extra_scenarios(self, golden):
        _compare(observed(run_grid(extra_scenarios())), golden["extra"])

    def test_extra_scenarios_reach_their_paths(self, golden):
        cells = {(r["ci_method"], r["k_model"]): r["cells"] for r in golden["extra"]}
        assert sum(c[3] for c in cells[("random-mom", "random")]) > 0


class TestRunScenario:
    def test_one_generator_per_scenario(self, monkeypatch):
        # replicates rewind the scenario's generator; TestGolden pins the draws
        built = []
        fresh = RandomSource.generator
        monkeypatch.setattr(RandomSource, "generator",
                            lambda src: built.append(src) or fresh(src))
        sc = extra_scenarios()[2]
        run_scenario(sc)
        assert built == [RandomSource(sc.seed)]
        # fixed and random twins with nominal counts share one pass
        built.clear()
        fixed, twin = shared_pass_scenarios()[:2]
        run_grid([fixed, twin])
        assert built == [RandomSource(fixed.seed)]

    def test_coverage_counts_completed_replicates(self):
        # at k=2 the table correction outweighs the large-k variance in 72
        # of 1000 samples; those replicates fail, and are not misses
        sc = CoverageScenario(StandardNormal(), parse_method("fixed-mom:table"),
                              k_values=(2,), replicates=1000, seed=0)
        (cell,) = run_scenario(sc).cells
        assert (cell.failures, cell.replicates) == (72, 1000)
        assert cell.coverage == 685 / 928
        assert cell.mc_se == math.sqrt(cell.coverage * (1.0 - cell.coverage) / 928)

    def test_cell_without_completed_replicate_is_an_error(self):
        # sample moments need two studies, so every replicate at k=1 fails
        sc = CoverageScenario(SkewNormal(0.0, 1.0, 0.5), parse_method("fixed-mom"),
                              k_values=(1, 5), replicates=100)
        with pytest.raises(DomainError, match="no replicate completed at k=1"):
            run_scenario(sc)
        (report,) = run_grid([sc])
        assert report.cells == () and "at least 2 studies" in report.error

    def test_labels_name_the_whole_law(self):
        # SN(3, 2, 0.5) was labelled skew-normal(0.5), the standard law's name
        sc = CoverageScenario(SkewNormal(3.0, 2.0, 0.5), parse_method("fixed-mom"),
                              k_values=(5,), replicates=100)
        report = run_scenario(sc)
        assert report.data_dist == report.truth_label == "3.0+2.0*skew-normal(0.5)"

    def test_failing_scenario_is_recorded(self):
        # the population value is not finite, which only the run finds out
        sc = CoverageScenario(HalfNormal(1.0), parse_method("fixed-mom"), k_values=(5,),
                              replicates=100, truth=(0.0, math.inf))
        (report,) = run_grid([sc])
        assert report.cells == () and "not finite" in report.error

    def test_overflowing_scenarios_are_recorded(self):
        # omega ** 2 overflowed in the population value; with the truth given,
        # every replicate's sample moments overflow instead
        data = SkewNormal(0.0, 1e200, 0.5)
        scs = [CoverageScenario(data, parse_method("fixed-mom"), k_values=(5,),
                                replicates=100)]
        scs += [CoverageScenario(data, parse_method(m), k_values=(5,), replicates=100,
                                 truth=(0.4, 0.84))
                for m in ("fixed-mom", "random-mom")]
        reports = run_grid(scs)
        assert all(r.cells == () and r.error for r in reports)
        assert "not finite" in reports[0].error
        assert "no replicate completed" in reports[2].error

    def test_overflowing_resamples_fail_their_replicates(self):
        # every resample sum overflows when squared: these replicates were
        # scored as completed misses (coverage 0.0, 0 failures), after numpy
        # warnings
        sc = CoverageScenario(SkewNormal(0.0, 1e200, 0.5), parse_method("boot:100"),
                              k_values=(5,), replicates=100, boot_replicates=100,
                              truth=(0.4, 0.84))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (report,) = run_grid([sc])
        assert report.cells == ()
        assert "no replicate completed" in report.error and "not finite" in report.error

    @pytest.mark.parametrize("token", ["fixed-dist:half-normal", "random-dist:half-normal"])
    def test_overflowing_point_estimates_fail_their_replicates(self, token):
        # the named half-width is finite but every z-sum overflows when
        # squared: these replicates were scored as completed misses
        # (coverage 0.0, 0 failures)
        sc = CoverageScenario(SkewNormal(0.0, 1e200, 0.5), parse_method(token),
                              k_values=(5,), replicates=100, truth=(0.4, 0.84))
        (report,) = run_grid([sc])
        assert report.cells == ()
        assert "no replicate completed" in report.error and "overflows" in report.error

    def test_infinite_draws_fail_their_replicates(self):
        # omega = 1e308 overflows draws to +inf and -inf, and fsum's
        # ValueError on their sum escaped run_grid
        sc = CoverageScenario(SkewNormal(0.0, 1e308, 0.5), parse_method("random-mom"),
                              k_values=(15,), replicates=200, truth=(0.4, 0.84))
        (report,) = run_grid([sc])
        assert report.cells == () and "no replicate completed" in report.error

    def test_csv_writers(self):
        # the Poisson cells redraw counts, and the explicit truth's label
        # holds a comma
        scenarios = extra_scenarios()
        reports = run_grid(scenarios[:2] + scenarios[-1:])
        cells = [(r, c) for r in reports for c in r.cells]
        header, *rows = csv.reader(io.StringIO(coverage_csv(reports)))
        assert header == ["data_dist", "k_model", "ci_method", "k", "coverage", "mc_se",
                          "true_value", "failures", "replicates", "redraws", "truth_label"]
        assert rows == [[str(v) for v in (r.data_dist, r.k_model, r.ci_method, c.k,
                                          c.coverage, c.mc_se, c.true_value, c.failures,
                                          c.replicates, c.redraws, r.truth_label)]
                        for r, c in cells]
        assert sum(c.redraws for _, c in cells) > 0
        assert rows[-1][-1] == "explicit(0.5,0.5)"
        header, *panels = csv.reader(io.StringIO(figure_data_csv(reports)))
        assert header == ["panel", "ci_method", "k", "coverage"]
        assert panels == [[f"{r.data_dist}|{r.truth_label}", f"{r.k_model}/{r.ci_method}",
                           str(c.k), str(c.coverage)] for r, c in cells]
        assert panels[0][:3] == ["half-normal|half-normal",
                                 "random/random-dist:half-normal", "2"]


class TestSharedPass:
    def test_grid_equals_solo_runs(self):
        scs = shared_pass_scenarios()
        assert run_grid(scs) == [run_scenario(s) for s in scs]

    def test_true_value_error_ends_its_member_alone(self):
        # with mu = 2e153 the fixed-count population value is 3.7e307 at k=5
        # and past the float range at k=15, after the shared pass scored k=5
        fixed, good = shared_pass_scenarios()[:2]
        bad = CoverageScenario(fixed.data_dist, fixed.ci_method, k_values=(5, 15),
                               replicates=200, boot_replicates=100, seed=fixed.seed,
                               truth=(2e153, 1.0))
        with pytest.raises(FailsafeError, match="not finite") as failed:
            run_scenario(bad)
        reports = run_grid([bad, good])
        assert reports[0] == CoverageReport(
            data_dist=bad.data_dist.name, k_model="fixed", ci_method="boot:100",
            truth_label="", seed=bad.seed, cells=(), error=str(failed.value))
        assert reports[1] == run_scenario(good) and len(reports[1].cells) == 2


class TestEngineTotality:
    """Every replicate completes with finite numbers or fails with a
    FailsafeError, on skew-normal data from subnormal to float-range scales."""

    @pytest.mark.parametrize("head", ["fixed-dist", "fixed-mom", "random-dist",
                                      "random-mom", "boot"])
    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(xi=st.sampled_from((0.0, -1.0, 1e150)),
           omega=st.sampled_from((1e-300, 1.0, 1e150, 1e200, 1e308)),
           delta=st.sampled_from((-0.5, 0.5)),
           assumption=st.sampled_from(("half-normal", "skew-normal(-0.5)")),
           k_model=st.sampled_from(("fixed", "random")),
           center=st.sampled_from(("clamped", "raw")),
           truth=st.sampled_from((None, (0.4, 0.84))),
           seed=st.integers(0, 2**64 - 1))
    def test_finite_or_typed_error(self, head, xi, omega, delta, assumption, k_model,
                                   center, truth, seed):
        token = f"{head}:{assumption}" if head.endswith("-dist") else head
        scs = [CoverageScenario(SkewNormal(xi, omega, delta), parse_method(token, 100),
                                k_values=(k,), k_model=k_model, center=center,
                                replicates=100, boot_replicates=100, seed=seed,
                                truth=truth)
               for k in (2, 5)]
        # run_grid records FailsafeErrors only: any other exception, a numpy
        # warning included, escapes it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reports = run_grid(scs)
        for r in reports:
            for c in r.cells:
                assert all(map(math.isfinite, (c.coverage, c.mc_se, c.true_value)))
            # a z-sum of at least 1e160 overflows when squared
            if omega >= 1e160:
                assert r.cells == () and r.error


class TestScenarioValidation:
    @pytest.mark.parametrize("field, value", [
        ("replicates", 99), ("level", 1.0), ("k_values", ()), ("k_model", "mixed"),
        ("k_draw", "binomial"), ("center", "mean"), ("boot_replicates", 99),
        ("alpha", 0.0), ("alpha", 0.5), ("seed", -1), ("seed", 2**64)])
    def test_rejects(self, field, value):
        with pytest.raises(DomainError):
            CoverageScenario(HalfNormal(1.0), parse_method("fixed-mom"), **{field: value})

    def test_boot_count_must_match(self):
        with pytest.raises(DomainError):
            CoverageScenario(HalfNormal(1.0), parse_method("boot:2000"),
                             boot_replicates=100)
        sc = CoverageScenario(HalfNormal(1.0), parse_method("boot:2000"),
                              boot_replicates=2000)
        assert sc.ci_method.describe() == "boot:2000"


def test_grid_plan():
    grid = coverage_study_grid(0)
    assert len(grid) == 24 and sum(len(s.k_values) for s in grid) == 96
    assert {s.ci_method.describe() for s in grid if s.data_dist == SkewNormal(0.0, 1.0, 0.5)} == {
        "fixed-dist:skew-normal(0.5):largek", "fixed-mom:largek",
        "random-dist:skew-normal(0.5)", "random-mom", "boot:500"}
    assert all(math.isclose(s.truth[0], s.data_dist.moments()[0]) for s in grid)
    # a random boot scenario takes its fixed twin's seed, three places back
    twin = [j - 3 if (s.k_model, s.ci_method.head) == ("random", "boot") else j
            for j, s in enumerate(grid)]
    assert [grid[j].ci_method for j in twin] == [s.ci_method for s in grid]
    assert [s.seed for s in grid] == [derive_seed(0, j) for j in twin]
    assert sum(j != i for i, j in enumerate(twin)) == 4


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record(), indent=1) + "\n")
