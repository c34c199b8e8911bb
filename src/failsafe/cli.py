"""Command-line interface.

Exit codes: 0 success, 1 failure, 2 partial success (some requested methods
failed), 64 usage error.  Exit 64 covers every option value outside its
domain, as the library's own check of that domain finds it.

numpy loads only when a command draws: ``simulate``, and ``analyze`` with a
``boot`` method; ``test`` and ``cutoffs`` are closed-form.
"""
from __future__ import annotations

import sys
from pathlib import Path

import click

from .distributions import _named_law, _two_sided_z, _z_alpha
from .errors import DomainError, FailsafeError
from .estimators import _study_count
from .inference import (
    TEST_METHOD,
    Method,
    _closed_form,
    cutoff_table,
    failsafe_test,
    method_variance,
    parse_method,
)
from .io import AnalysisConfig, analyze, format_report, ingest
from .core import rosenthal_nr
from .rng import RandomSource

EXIT_USAGE = 64

# the --data-dist and --truth spellings, and the law names they stand for
_DIST_NAMES = {"std-normal": "std-normal", "half-normal": "half-normal",
               "skew-neg": "skew-normal(-0.5)", "skew-pos": "skew-normal(0.5)"}


def _parse_dist(name: str):
    if name in _DIST_NAMES:
        return _named_law(_DIST_NAMES[name])
    if name.startswith("skew:"):
        return _named_law(f"skew-normal({name[5:]})")
    raise click.UsageError(
        f"unknown distribution {name!r}; choose from "
        f"{', '.join(_DIST_NAMES)} or skew:<delta>")


def _checked(check):
    """Option callback that runs ``check``, the library's check of its domain."""
    def callback(ctx, param, value):
        try:
            check(value)
        except DomainError as exc:
            raise click.BadParameter(str(exc)) from None
        return value
    return callback


_ALPHA_OPTION = click.option(
    "--alpha", type=float, default=0.05, show_default=True, callback=_checked(_z_alpha),
    help="One-sided significance level of the fail-safe number.")
_LEVEL_OPTION = click.option(
    "--level", type=float, default=0.95, show_default=True,
    callback=_checked(_two_sided_z), help="Two-sided confidence level of the intervals.")
_SEED_OPTION = click.option("--seed", type=int, default=0, show_default=True,
                            callback=_checked(RandomSource))
_CHECK_BOOT_REPS = _checked(lambda n: Method("boot", replicates=n))


def _write_out(text: str, out: str | None) -> None:
    if out is None or out == "-":
        click.echo(text, nl=False)
    else:
        Path(out).write_text(text)


@click.group()
def cli():
    """Fail-safe numbers for meta-analysis: estimates, confidence intervals,
    cutoff tables, and coverage simulations."""


@cli.command(name="analyze")
@click.argument("data", type=click.Path())
@click.option("--schema", type=click.Choice(["auto", "z", "effect-se"]),
              default="auto", show_default=True)
@_ALPHA_OPTION
@_LEVEL_OPTION
@click.option("--method", "methods", multiple=True,
              callback=_checked(lambda tokens: [parse_method(t) for t in tokens]),
              help="Interval method token (repeatable); defaults to the five "
                   "standard estimators.")
@click.option("--boot-reps", type=int, default=1000, show_default=True,
              callback=_CHECK_BOOT_REPS)
@_SEED_OPTION
@click.option("--flip-sign", is_flag=True,
              help="Negate every z (for effects oriented the other way).")
@click.option("--format", "fmt", type=click.Choice(["json", "csv", "text"]),
              default="json", show_default=True)
@click.option("--out", type=str, default=None, help="Output path (default stdout).")
def analyze_cmd(data, schema, alpha, level, methods, boot_reps, seed,
                flip_sign, fmt, out):
    """Compute the fail-safe number and confidence intervals for a data file."""
    sample = ingest(data, schema=schema, alpha=alpha, flip_sign=flip_sign)
    kwargs = dict(level=level, seed=seed, boot_replicates=boot_reps)
    if methods:
        kwargs["methods"] = tuple(methods)
    report, code = analyze(sample, AnalysisConfig(**kwargs))
    _write_out(format_report(report, fmt), out)
    return code


@cli.command(name="cutoffs")
@click.option("--k-max", type=int, default=160, show_default=True,
              callback=_checked(_study_count))
@_ALPHA_OPTION
@click.option("--model", "model_token", default=TEST_METHOD, show_default=True,
              callback=_checked(lambda t: _closed_form(parse_method(t), False)),
              help="Variance model for the cutoff width.")
@click.option("--out", type=str, default=None, help="Output path (default stdout).")
def cutoffs_cmd(k_max, alpha, model_token, out):
    """Emit the table of fail-safe values that clear the 5k+10 rule."""
    rows = cutoff_table(k_max, alpha, parse_method(model_token))
    text = "k,cutoff\n" + "".join(f"{k},{c}\n" for k, c in rows)
    _write_out(text, out)
    return 0


@cli.command(name="simulate")
@click.option("--data-dist", required=True,
              help="std-normal | half-normal | skew-neg | skew-pos | skew:<delta>")
@click.option("--ci", "ci_tokens", multiple=True, required=True,
              help="CI method token (repeatable).")
@click.option("--k", "k_list", default="5,15,30,50", show_default=True,
              help="Comma-separated study counts.")
@click.option("--k-model", type=click.Choice(["fixed", "random"]),
              default="fixed", show_default=True)
@click.option("--k-draw", type=click.Choice(["nominal", "poisson"]),
              default="nominal", show_default=True,
              help="Random regime only: pin the count at its rate (matches "
                   "the reference study) or draw it each replicate.")
@click.option("--truth", default="auto", show_default=True,
              help="auto | data | std-normal | half-normal | skew-neg | skew-pos")
@click.option("--reps", type=int, default=2000, show_default=True)
@click.option("--boot-reps", type=int, default=500, show_default=True,
              callback=_CHECK_BOOT_REPS)
@_LEVEL_OPTION
@_ALPHA_OPTION
@_SEED_OPTION
@click.option("--full-scale", is_flag=True,
              help="Allow full-scale bootstrap cells (10000 x 1000).")
@click.option("--out", type=str, default=None, help="Coverage CSV path (default stdout).")
@click.option("--plot-data", type=str, default=None,
              help="Also write long-format plot data to this path.")
def simulate_cmd(data_dist, ci_tokens, k_list, k_model, k_draw, truth, reps,
                 boot_reps, level, alpha, seed, full_scale, out, plot_data):
    """Run a coverage study and emit its results as CSV."""
    from .simulation import CoverageScenario, coverage_csv, figure_data_csv, run_grid
    try:
        data = _parse_dist(data_dist)
        k_values = tuple(int(v) for v in k_list.split(",") if v.strip())
        truth_params = None
        if truth == "data":
            truth_params = data.moments()
        elif truth != "auto":
            truth_params = _parse_dist(truth).moments()
        methods = [parse_method(t, boot_reps) for t in ci_tokens]
        scenarios = [
            CoverageScenario(
                data_dist=data, ci_method=m, k_values=k_values, k_model=k_model,
                k_draw=k_draw, replicates=reps,
                boot_replicates=m.replicates if m.source == "boot" else boot_reps,
                level=level, alpha=alpha, seed=seed, truth=truth_params)
            for m in methods
        ]
    except ValueError as exc:  # DomainError included
        raise click.UsageError(str(exc)) from exc

    for m in methods:
        if m.source == "boot" and reps * m.replicates >= 10_000 * 1_000 \
                and not full_scale:
            raise click.UsageError(
                "bootstrap at this scale needs --full-scale")

    reports = run_grid(scenarios)
    _write_out(coverage_csv(reports), out)
    if plot_data is not None:
        Path(plot_data).write_text(figure_data_csv(reports))

    failed = [r for r in reports if r.error]
    for r in failed:
        click.echo(f"scenario {r.ci_method} failed: {r.error}", err=True)
    redraws = sum(c.redraws for r in reports for c in r.cells)
    if redraws:
        click.echo(f"# redrew {redraws} degenerate study counts", err=True)
    return 2 if failed else 0


@cli.command(name="test")
@click.argument("data", type=click.Path())
@click.option("--schema", type=click.Choice(["auto", "z", "effect-se"]),
              default="auto", show_default=True)
@_ALPHA_OPTION
@click.option("--method", "method_token", default=TEST_METHOD, show_default=True,
              callback=_checked(lambda t: _closed_form(parse_method(t), True)),
              help="Variance model for the test statistic.")
@click.option("--flip-sign", is_flag=True)
def test_cmd(data, schema, alpha, method_token, flip_sign):
    """Test whether the fail-safe number significantly exceeds 5k+10."""
    sample = ingest(data, schema=schema, alpha=alpha, flip_sign=flip_sign)
    est = rosenthal_nr(sample)
    variance = method_variance(parse_method(method_token), sample.z, est.k, est.alpha)
    t = failsafe_test(est, variance)
    verdict = "reject: fail-safe number significantly exceeds 5k+10" \
        if t.reject else "fail to reject: not significantly above 5k+10"
    click.echo(f"n_r={est.n_r:.6g} threshold={est.rule_threshold:.6g} "
               f"statistic={t.statistic:.6g} critical={t.critical:.6g}")
    click.echo(verdict)
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point mapping exceptions onto the documented exit codes."""
    try:
        rv = cli.main(args=argv, standalone_mode=False)
        return rv if isinstance(rv, int) else 0
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        return EXIT_USAGE
    except click.ClickException as exc:
        exc.show()
        return 1
    except FailsafeError as exc:
        click.echo(f"error: {exc}", err=True)
        return 1


if __name__ == "__main__":
    sys.exit(main())
