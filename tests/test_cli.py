"""Command-line entry point: exit codes, outputs, and import footprint; and
the input domains its options share with the library, each checked in one
place."""
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

import failsafe
from failsafe import (
    CoverageScenario,
    DegenerateVarianceError,
    DomainError,
    HalfNormal,
    Interval,
    Method,
    ParameterTriple,
    RandomSource,
    SkewNormal,
    ZSample,
    ci_bootstrap,
    ci_from_point,
    ci_normal,
    coverage_study_grid,
    cutoff_table,
    derive_seed,
    distributional_params,
    invert_nr,
    method_variance,
    moments_fixed_exact,
    moments_random,
    nr_joint_pdf,
    nr_pdf,
    parse_method,
    rosenthal_nr,
    true_nr,
)
from failsafe.cli import _COMMANDS, EXIT_USAGE, main

Z_ROWS = "label,z\n" + "".join(f"s{i},{v}\n" for i, v in enumerate(
    (1.1, 2.0, 0.7, 1.4, 2.2, 1.9, 0.8, 1.6)))


@pytest.fixture
def z_file(tmp_path):
    path = tmp_path / "z.csv"
    path.write_text(Z_ROWS)
    return str(path)


class TestExitCodes:
    def test_analyze_ok(self, z_file, capsys):
        assert main(["analyze", z_file, "--boot-reps", "200"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["k"] == 8 and report["errors"] == []
        # the default bootstrap resamples --boot-reps times
        assert "boot:200" in [iv["method"] for iv in report["intervals"]]

    def test_cutoffs_ok(self, capsys):
        assert main(["cutoffs", "--k-max", "5"]) == 0
        want = "k,cutoff\n" + "".join(f"{k},{c}\n" for k, c in cutoff_table(5))
        assert capsys.readouterr().out == want

    def test_test_ok(self, tmp_path, capsys):
        path = tmp_path / "es.csv"
        path.write_text("effect,se\n" + "".join(f"{2.5 * s},{s}\n"
                                                for s in (0.1, 0.2, 0.3) * 10))
        assert main(["test", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("n_r=") and "reject" in out

    def test_no_data_rows(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("# header only\nz\n")
        assert main(["analyze", str(path)]) == 1
        assert "no data rows" in capsys.readouterr().err

    def test_failed_method_is_partial(self, tmp_path, capsys):
        # sample moments need two studies
        path = tmp_path / "one.csv"
        path.write_text("z\n3.0\n")
        assert main(["analyze", str(path), "--method", "fixed-mom"]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["errors"] == [{"method": "fixed-mom",
                                     "error": "method of moments needs at least 2 studies"}]

    def test_usage_error(self, capsys):
        assert main(["cutoffs", "--k-max", "0"]) == EXIT_USAGE == 64
        assert "usage error" in capsys.readouterr().err

    def test_cutoffs_with_a_sample_method(self, capsys):
        assert main(["cutoffs", "--model", "fixed-mom:table"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and "fixed-mom:table needs the raw sample" in captured.err

    @pytest.mark.parametrize("command, option, token", [
        ("analyze", "--method", "fixed-dist:skew-normal-fit"),
        ("analyze", "--method", "fixed-dist:skew-normal-fit:table"),
        ("test", "--method", "random-dist:skew-normal-fit"),
        ("cutoffs", "--model", "fixed-dist:skew-normal-fit"),
        ("simulate", "--ci", "random-dist:skew-normal-fit")])
    def test_skew_normal_fit_is_a_usage_error(self, z_file, capsys, command, option,
                                              token):
        # the fit is gone: the -mom heads give the variance it matched
        args = {"analyze": [z_file], "test": [z_file], "cutoffs": [],
                "simulate": ["--data-dist", "skew-pos", "--reps", "100", "--k", "5"]}
        assert main([command, *args[command], option, token]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown assumption 'skew-normal-fit'" in captured.err

    @pytest.mark.parametrize("command, token, message", [
        ("analyze", "nope", "unknown method 'nope'"),
        ("test", "nope", "unknown method 'nope'"),
        ("test", "boot", "boot:1000 has no closed-form variance"),
        ("test", "fixed-mom:huge", "unknown variant 'huge'"),
        ("cutoffs", "nope", "unknown method 'nope'"),
        ("cutoffs", "boot:200", "boot:200 has no closed-form variance"),
        ("cutoffs", "fixed-mom", "fixed-mom:largek needs the raw sample"),
        ("cutoffs", "random-mom", "random-mom needs the raw sample")])
    def test_unusable_method_is_a_usage_error(self, z_file, capsys, command, token,
                                              message):
        # these failed only after the option was taken: exit 1, or 2 for analyze
        option = {"analyze": [z_file, "--method"], "test": [z_file, "--method"],
                  "cutoffs": ["--model"]}[command]
        assert main([command, *option, token]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err

    @pytest.mark.parametrize("command", ["test", "analyze"])
    def test_overflow_is_an_error(self, tmp_path, capsys, command):
        path = tmp_path / "huge.csv"
        path.write_text("z\n1e200\n1e200\n")
        assert main([command, str(path)]) == 1
        captured = capsys.readouterr()
        assert "Infinity" not in captured.out and "inf" not in captured.out

    # finite estimates whose moment and resample variances overflow
    HUGE = "z\n1e150\n2e150\n3e150\n"

    @pytest.mark.parametrize("method", ["fixed-mom", "random-mom"])
    def test_overflowing_variance_fails_the_test(self, tmp_path, capsys, method):
        path = tmp_path / "huge.csv"
        path.write_text(self.HUGE)
        assert main(["test", str(path), "--method", method]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "not finite" in captured.err

    def test_overflowing_variance_is_a_partial_analysis(self, tmp_path, capsys):
        path = tmp_path / "huge.csv"
        path.write_text(self.HUGE)
        assert main(["analyze", str(path)]) == 2

        def reject(name):
            raise AssertionError(f"output holds {name}")

        report = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert [e["method"] for e in report["errors"]] == ["fixed-mom", "random-mom",
                                                          "boot:1000"]
        assert [iv["method"] for iv in report["intervals"]] == [
            "fixed-dist:half-normal:largek", "random-dist:half-normal"]

    # the second sample's resample sums overflow when squared
    @pytest.mark.parametrize("rows", [HUGE, "z\n1e153\n1e153\n9e153\n"])
    def test_overflowing_resample_sd_warns_nothing(self, tmp_path, capsys, rows):
        # the typed error is the whole report: no numpy RuntimeWarning first
        path = tmp_path / "huge.csv"
        path.write_text(rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["analyze", str(path)]) == 2
        report = json.loads(capsys.readouterr().out)
        assert "boot:1000" in [e["method"] for e in report["errors"]]

    @pytest.mark.parametrize("method", ["fixed-mom:exact", "fixed-mom:table"])
    def test_overflowing_power_is_a_typed_error(self, tmp_path, capsys, method):
        # s**3 in the fixed-count correction raised OverflowError out of main
        path = tmp_path / "huge.csv"
        path.write_text(self.HUGE)
        assert main(["test", str(path), "--method", method]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")
        assert "not finite" in captured.err
        assert main(["analyze", str(path), "--method", method]) == 2
        report = json.loads(capsys.readouterr().out)
        assert [e["method"] for e in report["errors"]] == [method]

    @pytest.mark.parametrize("command, method", [
        ("analyze", None), ("analyze", "random-mom"),
        ("test", "fixed-mom"), ("test", "random-mom")])
    def test_overflowing_sample_moments_are_typed_errors(self, tmp_path, capsys,
                                                         command, method):
        # the squared and cubed deviations pass the float range, where float
        # ** raised OverflowError out of main
        path = tmp_path / "wide.csv"
        path.write_text("z\n1e200\n-1e200\n1.0\n")
        argv = [command, str(path)] + (["--method", method] if method else [])
        if command == "test":
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("error:")
        else:
            assert main(argv) == 2
            report = json.loads(capsys.readouterr().out)
            want = [method] if method else ["fixed-mom", "random-mom", "boot:1000"]
            assert [e["method"] for e in report["errors"]] == want


FAR_TAIL_Z = (-1.00, -1.02, -0.98, -1.01, -0.99)


def _far_tail_intervals_in_mpmath(z):
    """The 95 % fixed-mom:exact and fixed-mom:table intervals of ``z`` in
    mpmath: the exact variance by quadrature of the truncated law, the table
    variance by its formula with the exact hazard phi/Phi."""
    import mpmath as mp
    with mp.workdps(50):
        k = len(z)
        za = mp.sqrt(2) * mp.erfinv(1 - 2 * mp.mpf(0.05))
        q = mp.sqrt(2) * mp.erfinv(mp.mpf(0.95))
        mu = mp.fsum(z) / k
        s2 = mp.fsum([(mp.mpf(v) - mu) ** 2 for v in z]) / k
        s, sk = mp.sqrt(s2), mp.sqrt(k)
        n_r = mp.fsum(z) ** 2 / za**2 - k
        lam = (sk * mu - za) / s
        x, c, sig = -lam, za * sk, sk * s
        # raw moments of the standardized excess W >= 0, density ~ exp(-x w - w^2/2)
        m = [mp.quad(lambda w, n=n: w**n * mp.exp(-x * w - w * w / 2), [0, 1 / x, mp.inf])
             for n in range(5)]
        m = [v / m[0] for v in m]
        e = (sig**2 * m[2] + 2 * c * sig * m[1]) / za**2
        exact = (sig**4 * m[4] + 4 * c * sig**3 * m[3] + 4 * c * c * sig**2 * m[2]) / za**4 \
            - e * e
        h = mp.npdf(lam) / mp.ncdf(lam)
        table = 2 * k * k * s2 * (2 * k * mu * mu + s2) / za**4 \
            + h * (mp.mpf(k) ** 2.5 * s**3 * (5 * sk * mu + za) ** 2
                   - (h + lam) * k**2 * s2 * (sk * mu + za) ** 2) / za**4
        return [(float(n_r - q * mp.sqrt(v)), float(n_r + q * mp.sqrt(v)))
                for v in (exact, table)]


def test_far_tail_moment_intervals_match_mpmath(tmp_path, capsys):
    # lambda* = -274: the exact interval read (4.20999, 4.27059) and the table
    # one (2.78326, 5.69731), as the truncation hazard fell back to -lambda*
    path = tmp_path / "z.csv"
    path.write_text("z\n" + "".join(f"{v}\n" for v in FAR_TAIL_Z))
    assert main(["analyze", str(path), "--method", "fixed-mom:exact",
                 "--method", "fixed-mom:table"]) == 0
    report = json.loads(capsys.readouterr().out)
    got = [(iv["lower"], iv["upper"]) for iv in report["intervals"]]
    for (lo, hi), (want_lo, want_hi) in zip(got, _far_tail_intervals_in_mpmath(FAR_TAIL_Z)):
        assert lo == pytest.approx(want_lo, rel=1e-9)
        assert hi == pytest.approx(want_hi, rel=1e-9)
    assert got == [pytest.approx((4.239674, 4.240902), abs=5e-7),
                   pytest.approx((2.783569, 5.697007), abs=5e-7)]


class Domain(NamedTuple):
    """One input domain: values just outside it, as typed on a command line
    (nan, +-inf, each open bound itself and one value past it), the message
    of its one home, the library calls that take a value of it, and the
    commands and options that do, with the option value's template."""

    bad: tuple[str, ...]
    message: str
    calls: dict[str, Callable]
    options: tuple[tuple[str, str, str], ...]


def number(text: str):
    """The int or float that a command line's ``text`` stands for."""
    return int(text) if text.lstrip("-").isdigit() else float(text)


HN = HalfNormal(1.0)
HN_TRIPLE = ParameterTriple(0.8, 0.36, 5.0)
HN_DIST = Method("random-dist", "half-normal")
SAMPLE = ZSample((1.1, 2.0, 0.7, 1.4))


def scenario(**field):
    return CoverageScenario(HN, Method("fixed-mom"), **field)


DOMAINS = {
    # alpha = 1/2 leaves no critical value; its options are the next test's.
    # Here and for the level, the last value lies inside the interval, but
    # its quantile rounds onto the bound.
    "alpha": Domain(
        ("0.7", "0.5", "0", "nan", "inf", "-inf", "-5e-324", "0.5000000000000001",
         "0.49999999999999994"),
        "alpha must lie in (0, 0.5)",
        {"ZSample": lambda a: ZSample((1.0,), a),
         "invert_nr": lambda a: invert_nr(1.0, 2, a),
         "ci_from_point": lambda a: ci_from_point(10.0, 5, a, HN_DIST),
         "method_variance": lambda a: method_variance(Method("random-mom"), SAMPLE.z, 4,
                                                      a),
         "moments_fixed_exact": lambda a: moments_fixed_exact(HN_TRIPLE, 5, a),
         "moments_random": lambda a: moments_random(HN_TRIPLE, a),
         "true_nr": lambda a: true_nr(HN_TRIPLE, "fixed", a, 5),
         "nr_pdf": lambda a: nr_pdf(1.0, HN_TRIPLE, 5, a),
         "cutoff_table": lambda a: cutoff_table(5, a),
         "CoverageScenario": lambda a: scenario(alpha=a)},
        ()),
    "level": Domain(
        ("nan", "inf", "-inf", "0.5", "1", "0.49999999999999994", "1.0000000000000002",
         "2", "0.9999999999999999"),
        "level must lie in (0.5, 1)",
        {"Interval": lambda v: Interval(0.0, 1.0, v, "fixed-mom", 1.0),
         "ci_normal": lambda v: ci_normal(rosenthal_nr(SAMPLE), SAMPLE, HN_DIST, v),
         "ci_from_point": lambda v: ci_from_point(10.0, 5, 0.05, HN_DIST, v),
         "ci_bootstrap": lambda v: ci_bootstrap(SAMPLE, 100, RandomSource(0), v),
         "CoverageScenario": lambda v: scenario(level=v)},
        (("analyze", "--level", "{}"), ("simulate", "--level", "{}"))),
    "seed": Domain(
        ("-1", "18446744073709551616", "1.5", "nan", "inf", "-inf"),
        "seed and stream must fit in 64 unsigned bits",
        {"RandomSource": RandomSource,
         "RandomSource-stream": lambda s: RandomSource(0, s),
         "derive_seed": lambda s: derive_seed(s, 0),
         "derive_seed-index": lambda s: derive_seed(0, s),
         "coverage_study_grid": coverage_study_grid,
         "CoverageScenario": lambda s: scenario(seed=s)},
        (("analyze", "--seed", "{}"), ("simulate", "--seed", "{}"))),
    "resamples": Domain(
        ("99", "5", "100.5", "nan", "inf", "-inf"),
        "bootstrap needs at least 100 whole replicates",
        {"Method": lambda n: Method("boot", replicates=n),
         "parse_method": lambda n: parse_method("boot", n),
         "ci_bootstrap": lambda n: ci_bootstrap(SAMPLE, n, RandomSource(0)),
         "CoverageScenario": lambda n: scenario(boot_replicates=n)},
        (("analyze", "--boot-reps", "{}"), ("simulate", "--boot-reps", "{}"),
         ("simulate", "--ci", "boot:{}"))),
    "delta": Domain(
        ("nan", "inf", "-inf", "-1", "1", "-1.0000000000000002", "1.0000000000000002"),
        "skew-normal delta must lie in (-1, 1)",
        {"SkewNormal": lambda d: SkewNormal(0.0, 1.0, d),
         "distributional_params": lambda d: distributional_params(f"skew-normal({d!r})", 5),
         "Method": lambda d: Method("fixed-dist", f"skew-normal({d!r})"),
         "parse_method": lambda d: parse_method(f"fixed-dist:skew-normal({d!r})")},
        (("simulate", "--data-dist", "skew:{}"), ("simulate", "--truth", "skew:{}"),
         ("simulate", "--ci", "fixed-dist:skew-normal({})"),
         ("analyze", "--method", "fixed-dist:skew-normal({})"),
         ("test", "--method", "fixed-dist:skew-normal({})"),
         ("cutoffs", "--model", "fixed-dist:skew-normal({}):table"))),
    "replicates": Domain(
        ("99", "0", "100.5", "nan", "inf", "-inf"),
        "replicates must be an int >= 100",
        {"CoverageScenario": lambda r: scenario(replicates=r)},
        (("simulate", "--reps", "{}"),)),
    "studies": Domain(
        ("0", "-1", "0.9999999999999999", "2.5", "nan", "inf", "-inf", str(10**400)),
        "k must be at least 1 and whole",
        {"distributional_params": lambda k: distributional_params("half-normal", k),
         "method_variance": lambda k: method_variance(Method("fixed-mom"), SAMPLE.z, k,
                                                      0.05),
         "moments_fixed_exact": lambda k: moments_fixed_exact(HN_TRIPLE, k, 0.05),
         "true_nr": lambda k: true_nr(HN_TRIPLE, "fixed", 0.05, k),
         "nr_pdf": lambda k: nr_pdf(1.0, HN_TRIPLE, k, 0.05),
         "nr_joint_pdf": lambda k: nr_joint_pdf(1.0, k, HN_TRIPLE, 0.05),
         "invert_nr": lambda k: invert_nr(1.0, k, 0.05),
         "cutoff_table": cutoff_table,
         "CoverageScenario": lambda k: scenario(k_values=(k,))},
        (("simulate", "--k", "{}"), ("cutoffs", "--k-max", "{}"))),
}


@pytest.mark.parametrize("call, value, message", [
    pytest.param(call, value, domain.message, id=f"{name}-{call_name}-{value}")
    for name, domain in DOMAINS.items() for call_name, call in domain.calls.items()
    for value in domain.bad])
def test_out_of_domain_value_is_a_domain_error(call, value, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        call(number(value))


# k = 10**200 lies inside the studies domain, but k * k passes the float
# range: the fixed-count calls of its row overflow to a typed error, not to
# "int too large to convert to float"
@pytest.mark.parametrize("call", [
    pytest.param(DOMAINS["studies"].calls[name], id=name)
    for name in ("method_variance", "moments_fixed_exact", "true_nr")]
    + [pytest.param(lambda k: ci_from_point(1.0, k, 0.05,
                                            Method("fixed-dist", "half-normal")),
                    id="ci_from_point")])
def test_study_count_whose_square_overflows_is_a_typed_error(call):
    with pytest.raises(DegenerateVarianceError, match="not finite"):
        call(10**200)


@pytest.mark.parametrize("alpha", DOMAINS["alpha"].bad)
@pytest.mark.parametrize("command", ["analyze", "test", "cutoffs", "simulate"])
def test_alpha_outside_the_open_half_interval_is_a_usage_error(z_file, capsys, command,
                                                               alpha):
    args = {"analyze": [z_file], "test": [z_file], "cutoffs": [],
            "simulate": ["--data-dist", "half-normal", "--ci", "fixed-mom"]}[command]
    assert main([command, *args, "--alpha", alpha]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("usage error: Invalid value for '--alpha': alpha must lie "
                            f"in (0, 0.5), got {float(alpha)!r}\n")


def test_alpha_whose_complement_rounds_to_one_is_accepted(z_file, capsys):
    # 1 - 1e-17 is 1.0 in floats; Z_a ~ 8.49 comes from the lower tail
    assert main(["analyze", z_file, "--alpha", "1e-17", "--boot-reps", "200"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["z_alpha"] == pytest.approx(8.4937932241096, rel=1e-12)
    assert report["errors"] == []


# The options of these domains read an integer, and reject other text before
# any domain check runs, so they take the integer values only.
INTEGER_DOMAINS = {"seed", "resamples", "replicates", "studies"}


@pytest.mark.parametrize("name, command, option, value", [
    pytest.param(name, command, option, template.format(value),
                 id=f"{name}-{command}{option}-{value}")
    for name, domain in DOMAINS.items() for command, option, template in domain.options
    for value in domain.bad
    if name not in INTEGER_DOMAINS or isinstance(number(value), int)])
def test_out_of_domain_option_is_a_usage_error(z_file, capsys, name, command, option,
                                               value):
    args = {"analyze": [z_file], "test": [z_file], "cutoffs": [],
            "simulate": ["--data-dist", "half-normal", "--ci", "fixed-mom", "--k", "5",
                         "--reps", "100"]}[command]
    # a repeated option's last value is the one taken
    assert main([command, *args, option, value]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: ")
    assert DOMAINS[name].message in captured.err


class TestSimulate:
    ARGS = ["simulate", "--data-dist", "half-normal", "--reps", "100", "--k", "5"]

    def test_csv_output(self, tmp_path):
        out = tmp_path / "cov.csv"
        plot = tmp_path / "plot.csv"
        assert main(self.ARGS + ["--ci", "fixed-mom", "--ci", "random-mom",
                                 "--k-model", "random", "--out", str(out),
                                 "--plot-data", str(plot)]) == 0
        rows = out.read_text().splitlines()
        assert rows[0].startswith("data_dist,k_model,ci_method,k,coverage")
        assert [r.split(",")[2] for r in rows[1:]] == ["fixed-mom:largek", "random-mom"]
        assert len(plot.read_text().splitlines()) == 3

    def test_boot_label_is_the_count_run(self, tmp_path, monkeypatch):
        # the resample count comes from the token; --boot-reps only fills
        # in a bare 'boot'
        import failsafe.simulation as sim
        seen = set()
        draws = sim.bootstrap_nr_draws

        def recording(z, replicates, z_alpha, g):
            seen.add(replicates)
            return draws(z, replicates, z_alpha, g)

        monkeypatch.setattr(sim, "bootstrap_nr_draws", recording)
        out = tmp_path / "cov.csv"
        assert main(self.ARGS + ["--ci", "boot:200", "--boot-reps", "100",
                                 "--out", str(out)]) == 0
        assert ",boot:200," in out.read_text()
        assert seen == {200}

    def test_ci_label_keeps_the_full_delta(self, capsys):
        assert main(["simulate", "--data-dist", "std-normal", "--ci",
                     "fixed-dist:skew-normal(0.123456789)", "--reps", "100",
                     "--k", "5"]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[2] == "fixed-dist:skew-normal(0.123456789):largek"

    @pytest.mark.parametrize("spelling, name", [
        ("std-normal", "std-normal"), ("half-normal", "half-normal"),
        ("skew-neg", "skew-normal(-0.5)"), ("skew-pos", "skew-normal(0.5)"),
        ("skew:0.3", "skew-normal(0.3)"), ("skew: .30", "skew-normal(0.3)")])
    def test_data_dist_spellings(self, capsys, spelling, name):
        assert main(["simulate", "--data-dist", spelling, "--truth", spelling,
                     "--ci", "fixed-mom", "--reps", "100", "--k", "5"]) == 0
        assert capsys.readouterr().out.splitlines()[1].startswith(f"{name},")

    def test_truth_from_the_data(self, capsys):
        # --truth data scores at the data law's own moments
        def csv(truth):
            assert main(self.ARGS + ["--ci", "fixed-mom", "--ci", "random-mom",
                                     "--k-model", "random", "--truth", truth]) == 0
            return capsys.readouterr().out

        assert csv("data") == csv("half-normal") != csv("std-normal")

    def test_full_scale_guard(self, capsys):
        assert main(["simulate", "--data-dist", "half-normal", "--ci", "boot:1000",
                     "--reps", "10000"]) == EXIT_USAGE
        assert "--full-scale" in capsys.readouterr().err

    def test_bad_arguments(self):
        assert main(self.ARGS + ["--ci", "nope"]) == EXIT_USAGE
        assert main(self.ARGS + ["--ci", "fixed-mom", "--workers", "2"]) == EXIT_USAGE
        # spellings that --data-dist does not take
        for dist in ("gamma", "skew-normal(0.5)", "skew-normal-fit", "skew:", "skew:x",
                     "skew:1"):
            assert main(["simulate", "--data-dist", dist, "--ci", "fixed-mom"]) == EXIT_USAGE
        # parameters the scenario rejects (alpha: the shared --alpha option)
        for bad in (["--level", "1.0"], ["--alpha", "0.7"], ["--seed", "-1"]):
            assert main(self.ARGS + ["--ci", "fixed-mom"] + bad) == EXIT_USAGE, bad


# Run in a fresh interpreter: importing the CLI loads no scipy module, and
# with every scipy import made to fail each command and every study
# distribution's sampler still runs.
SCIPY_PROBE = """
import dataclasses, sys, typing
import failsafe.cli
print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split('.')[0] == 'scipy':
            raise ImportError(f'{name} is blocked')


sys.meta_path.insert(0, NoScipy())
from failsafe.cli import main
from failsafe.distributions import DistributionSpec, sample
from failsafe.rng import RandomSource

z_file, es_file = sys.argv[1:]
runs = [main(['analyze', z_file]), main(['test', es_file]),
        main(['cutoffs', '--k-max', '20']),
        main(['simulate', '--data-dist', 'skew-pos', '--ci', 'fixed-mom',
              '--ci', 'random-dist:skew-normal(0.5)', '--ci', 'boot:100',
              '--k-model', 'random', '--k-draw', 'poisson', '--reps', '100',
              '--k', '5'])]
for cls in typing.get_args(DistributionSpec):
    spec = cls(*[0.5 for f in dataclasses.fields(cls)
                 if f.default is dataclasses.MISSING])
    assert len(sample(spec, 10, RandomSource(1, 0))) == 10, spec
print(runs)
"""


# test, cutoffs and analyze, its bootstrap included, load no numpy: with
# every numpy import made to fail they still run.  simulate runs once it is
# unblocked.
NUMPY_PROBE = """
import sys
import failsafe.cli
print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))


class NoNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.split('.')[0] == 'numpy':
            raise ImportError(f'{name} is blocked')


from failsafe.cli import main

z_file, es_file = sys.argv[1:]
sys.meta_path.insert(0, NoNumpy())
closed_form = [main(['test', es_file]), main(['cutoffs', '--k-max', '20']),
               main(['analyze', z_file, '--method', 'fixed-mom',
                     '--method', 'random-dist:half-normal']),
               main(['analyze', z_file])]
loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'numpy')
sys.meta_path.pop(0)
drawing = [main(['simulate', '--data-dist', 'half-normal', '--ci', 'boot:100',
                 '--reps', '100', '--k', '5'])]
print(closed_form, loaded, drawing)
"""


def run_probe(script, tmp_path):
    """Run ``script`` in a fresh interpreter on a z-file and an effect/SE
    file, of 30 studies each; returns its stdout lines."""
    src = str(Path(failsafe.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    z_file = tmp_path / "z.csv"
    z_file.write_text("z\n" + "".join(f"{0.4 + 0.1 * i}\n" for i in range(30)))
    es_file = tmp_path / "es.csv"
    es_file.write_text("effect,se\n" + "".join(f"{2.5 * s},{s}\n"
                                               for s in (0.1, 0.2, 0.3) * 10))
    out = subprocess.run([sys.executable, "-c", script, str(z_file), str(es_file)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


def test_cli_import_loads_no_scipy(tmp_path):
    lines = run_probe(SCIPY_PROBE, tmp_path)
    assert lines[0] == "[]"
    assert lines[-1] == "[0, 0, 0, 0]"


def test_closed_form_commands_load_no_numpy(tmp_path):
    lines = run_probe(NUMPY_PROBE, tmp_path)
    assert lines[0] == "[]"
    assert lines[-1] == "[0, 0, 0, 0] [] [0]"


# With every click import made to fail, each closed-form command and the
# default analyze still run, and argparse, which only formats --help, stays
# unloaded.
NO_CLICK_PROBE = """
import sys


class NoClick:
    def find_spec(self, name, path=None, target=None):
        if name.split('.')[0] == 'click':
            raise ImportError(f'{name} is blocked')


sys.meta_path.insert(0, NoClick())
from failsafe.cli import main

z_file, es_file = sys.argv[1:]
runs = [main(['test', es_file]), main(['cutoffs', '--k-max', '20']), main(['analyze', z_file])]
print(sorted(m for m in sys.modules if m.split('.')[0] in ('click', 'argparse')), runs)
"""


def test_commands_load_no_click(tmp_path):
    lines = run_probe(NO_CLICK_PROBE, tmp_path)
    assert lines[-1] == "[] [0, 0, 0]"


COMMAND_ARGS = {"analyze": ["{z}"], "test": ["{z}"], "cutoffs": [],
                "simulate": ["--data-dist", "half-normal", "--ci", "fixed-mom"]}


@pytest.mark.parametrize("command, option", [
    ("analyze", "--boot"), ("analyze", "--form"), ("analyze", "--meth"),
    ("analyze", "--boot=200"), ("test", "--meth"), ("cutoffs", "--k"),
    ("cutoffs", "--mod"), ("simulate", "--data"), ("simulate", "--rep"),
    ("simulate", "--full")])
def test_abbreviated_option_is_a_usage_error(z_file, capsys, command, option):
    # no option name is completed from its prefix
    args = [a.format(z=z_file) for a in COMMAND_ARGS[command]]
    assert main([command, *args, option, "200"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage error: No such option {option.split('=')[0]!r}.")


@pytest.mark.parametrize("command", [*COMMAND_ARGS, None])
def test_help_prints_the_usage(capsys, command):
    argv = [command, "--help"] if command else ["--help"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith(f"usage: failsafe {command or ''}".rstrip())
    assert captured.err == ""
    # every option and argument of the command is listed
    for p in _COMMANDS[command][1] if command else ():
        assert p.name in captured.out


@pytest.mark.parametrize("argv, code, err", [
    # a value option takes the next token, whatever it looks like
    (["cutoffs", "--k-max", "-1"], 64,
     "Invalid value for '--k-max': k must be at least 1 and whole, got -1"),
    (["cutoffs", "--model", "--k-max"], 64, "Invalid value for '--model': unknown method "
                                             "'--k-max'"),
    (["cutoffs", "--k-max", "--"], 64, "Invalid value for '--k-max': '--' is not a valid "
                                        "integer."),
    (["cutoffs", "--k-max"], 64, "Option '--k-max' requires an argument."),
    (["cutoffs", "--alpha=-inf"], 64,
     "Invalid value for '--alpha': alpha must lie in (0, 0.5), got -inf"),
    # a repeated option keeps its last value, and values are checked once read
    (["cutoffs", "--k-max", "0", "--k-max", "3"], 0, ""),
    (["cutoffs", "--k-max", "x", "--k-max", "3"], 0, ""),
    (["cutoffs", "--alpha", "0.7", "--k-max", "0"], 64,
     "Invalid value for '--alpha': alpha must lie in (0, 0.5), got 0.7"),
    (["cutoffs", "--k-max", "0", "--alpha", "0.7"], 64,
     "Invalid value for '--k-max': k must be at least 1 and whole, got 0"),
    # every other line that cannot run exits 64 as well
    (["cutoffs", "3"], 64, "Got unexpected extra argument (3)"),
    (["cutoffs", "-h"], 64, "No such option '-h'."),
    (["cutoffs", "-5"], 64, "No such option '-5'."),
    (["cutoffs", "--kmax", "3"], 64, "No such option '--kmax'. Did you mean '--k-max'?"),
    (["test", "--flip-sign=1"], 64, "Option '--flip-sign' does not take a value."),
    (["test"], 64, "Missing argument 'DATA'."),
    (["simulate", "--ci", "fixed-mom"], 64, "Missing option '--data-dist'."),
    (["simulate", "--data-dist", "half-normal"], 64, "Missing option '--ci'."),
    (["analyze", "x.csv", "--format", "xml"], 64,
     "Invalid value for '--format': 'xml' is not one of 'json', 'csv', 'text'."),
    (["analyse"], 64, "No such command 'analyse'. Did you mean 'analyze'?"),
    (["--version"], 64, "No such option '--version'."),
])
def test_reading_of_a_command_line(capsys, argv, code, err):
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.err == (f"usage error: {err}\n" if err else "")
    assert (captured.out == "") == (code != 0)


def test_a_data_file_after_the_end_of_options(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("-z.csv").write_text(Z_ROWS)
    assert main(["test", "-z.csv"]) == EXIT_USAGE
    assert capsys.readouterr().err == "usage error: No such option '-z'.\n"
    assert main(["test", "--", "-z.csv"]) == 0
    assert capsys.readouterr().out.startswith("n_r=")


def test_written_csv_reads_back_field_for_field(tmp_path, capsys):
    # an explicit truth's label holds a comma: csv.reader read the plot row
    # as 5 fields under a 4-field header
    plot = tmp_path / "plot.csv"
    assert main(["simulate", "--data-dist", "half-normal", "--ci", "fixed-mom", "--reps",
                 "100", "--k", "5", "--truth", "data", "--plot-data", str(plot)]) == 0
    coverage = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    rows = list(csv.reader(io.StringIO(plot.read_text())))
    assert [len(r) for r in coverage] == [9, 9]
    assert [len(r) for r in rows] == [4, 4]
    assert rows[1][0] == "half-normal|explicit(0.797885,0.36338)"
    z_file = tmp_path / "z.csv"
    z_file.write_text(Z_ROWS)
    assert main(["analyze", str(z_file), "--format", "csv", "--boot-reps", "100"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [len(r) for r in csv.reader(lines[2:])] == [5] * 6
