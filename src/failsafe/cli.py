"""Command-line interface.

Exit codes: 0 success, 1 failure, 2 partial success (some requested methods
failed), 64 usage error.  Exit 64 covers every command line that cannot
run: an unknown command or option, a missing value, and every option value
outside its domain, as the library's own check of that domain finds it.  A
usage error is one ``usage error: …`` line on stderr, a failure one
``error: …`` line.

``_read`` reads a command line under these rules: an option that takes a
value takes the next token whatever it looks like (``--alpha -inf``); an
option name is never abbreviated; a repeated option keeps its last value,
and ``--method`` and ``--ci`` collect every one; ``--`` ends the options.
Values are converted and checked once the whole line is read: the options
given, in the order they first appear, then ``DATA``, then the defaults.
``--help`` prints a command's usage to stdout and exits 0; argparse formats
it, and loads only then.

numpy loads only in ``simulate``.  ``test`` and ``cutoffs`` are closed-form,
and ``analyze`` draws its bootstrap's resample indices in pure Python.
"""
from __future__ import annotations

import sys
from collections.abc import Callable
from pathlib import Path
from typing import NamedTuple

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


class UsageError(Exception):
    """A command line that cannot run; ``main`` exits 64 on it."""


class _Param(NamedTuple):
    """An option (``--name``) or the argument (``DATA``) of a command.

    ``kind`` reads its text: int, float, str, the tuple of the names it may
    take, or bool for a flag, which takes no value.  ``check`` is the
    library's check of the value's domain; it runs on defaults too.
    """

    name: str
    kind: type | tuple[str, ...] = str
    default: object = None
    check: Callable | None = None
    help: str = ""
    dest: str | None = None
    required: bool = False
    multiple: bool = False

    @property
    def key(self) -> str:
        return self.dest or self.name.lstrip("-").replace("-", "_").lower()


def _convert(kind, text: str):
    if isinstance(kind, tuple):
        if text not in kind:
            raise DomainError(f"{text!r} is not one of {', '.join(map(repr, kind))}.")
        return text
    try:
        return kind(text)
    except ValueError:
        noun = "integer" if kind is int else kind.__name__
        raise DomainError(f"{text!r} is not a valid {noun}.") from None


def _unknown(what: str, name: str, known) -> UsageError:
    """No such option or command ``name``, with the near ``known`` names."""
    from difflib import get_close_matches
    near = sorted(get_close_matches(name, known))
    hint = ""
    if len(near) == 1:
        hint = f" Did you mean {near[0]!r}?"
    elif near:
        hint = f" (Did you mean one of: {', '.join(map(repr, near))}?)"
    return UsageError(f"No such {what} {name!r}.{hint}")


def _read(options: dict[str, _Param], args: list[str]) -> tuple[dict, list[str]]:
    """The texts of the options given in ``args``, by key in the order each
    first appears (a flag's text is True, a repeatable option's the list of
    its texts), and the other words.  An option that takes a value takes the
    next token whatever it looks like, and ``--`` ends the options.  An
    unknown option, a flag given a value and a value option at the end are
    UsageErrors, raised in the order of the tokens."""
    given: dict = {}
    words: list[str] = []
    rest = iter(args)
    for tok in rest:
        if tok == "--":
            words += rest
        elif tok[:1] != "-" or tok == "-":
            words.append(tok)
        else:
            name, eq, value = tok.partition("=")
            p = options.get(name)
            if p is None:
                if name[:2] == "--":
                    raise _unknown("option", name, [o for o in options if o[:2] == "--"])
                raise _unknown("option", tok[:2], ())
            if p.kind is bool:
                if eq:
                    raise UsageError(f"Option {name!r} does not take a value.")
                value = True
            elif not eq:
                value = next(rest, None)
                if value is None:
                    raise UsageError(f"Option {name!r} requires an argument.")
            if p.multiple:
                given.setdefault(p.key, []).append(value)
            else:
                given[p.key] = value  # a key keeps the place of its first setting
    return given, words


_HELP = _Param("--help", bool, help="Show this message and exit.")


def _parse(params: tuple[_Param, ...], args: list[str]) -> dict | None:
    """The keyword arguments of a command with ``params`` read from ``args``,
    or None for ``--help``.  Values are converted and checked in this order:
    the options given, as they first appear, then the arguments, then the
    other options in the order of ``params``."""
    given, words = _read({p.name: p for p in (_HELP, *params) if p.name[:2] == "--"}, args)
    if "help" in given:
        return None
    arguments = [p for p in params if p.name[:2] != "--"]
    texts = {**given, **{p.key: w for p, w in zip(arguments, words)}}
    rank = {key: i for i, key in enumerate(given)}
    values = {}
    for p in sorted(params, key=lambda p: rank.get(p.key, len(rank) + (p.name[:2] == "--"))):
        text = texts.get(p.key)
        try:
            if p.multiple:
                value = tuple(text or ())
            else:
                value = p.default if text is None else _convert(p.kind, text)
            if p.required and value in (None, ()):
                what = "option" if p.name[:2] == "--" else "argument"
                raise UsageError(f"Missing {what} {p.name!r}.")
            if p.check is not None:
                p.check(value)
        except DomainError as exc:
            raise UsageError(f"Invalid value for {p.name!r}: {exc}") from None
        values[p.key] = value
    extra = words[len(arguments):]
    if extra:
        plural = "s" if len(extra) > 1 else ""
        raise UsageError(f"Got unexpected extra argument{plural} ({' '.join(extra)})")
    return values


_COMMANDS: dict[str, tuple[Callable[..., int], tuple[_Param, ...]]] = {}


def _command(name: str, *params: _Param):
    """Register the decorated function as command ``name``; it is called with
    one keyword argument per param, and its docstring is the command's
    summary."""
    def register(run):
        _COMMANDS[name] = run, params
        return run
    return register


# the --data-dist and --truth spellings, and the law names they stand for
_DIST_NAMES = {"std-normal": "std-normal", "half-normal": "half-normal",
               "skew-neg": "skew-normal(-0.5)", "skew-pos": "skew-normal(0.5)"}


def _parse_dist(name: str):
    if name in _DIST_NAMES:
        return _named_law(_DIST_NAMES[name])
    if name.startswith("skew:"):
        return _named_law(f"skew-normal({name[5:]})")
    raise UsageError(
        f"unknown distribution {name!r}; choose from "
        f"{', '.join(_DIST_NAMES)} or skew:<delta>")


_DATA = _Param("DATA", required=True)
_SCHEMA = _Param("--schema", ("auto", "z", "effect-se"), "auto")
_ALPHA = _Param("--alpha", float, 0.05, _z_alpha,
                "One-sided significance level of the fail-safe number.")
_LEVEL = _Param("--level", float, 0.95, _two_sided_z,
                "Two-sided confidence level of the intervals.")
_SEED = _Param("--seed", int, 0, RandomSource)
_FLIP_SIGN = _Param("--flip-sign", bool, False,
                    help="Negate every z (for effects oriented the other way).")
_OUT = _Param("--out", help="Output path (default stdout).")


def _check_boot_reps(n):
    Method("boot", replicates=n)


def _write_out(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


@_command(
    "analyze", _DATA, _SCHEMA, _ALPHA, _LEVEL,
    _Param("--method", check=lambda tokens: [parse_method(t) for t in tokens],
           help="Interval method token (repeatable); defaults to the five standard "
                "estimators.", dest="methods", multiple=True),
    _Param("--boot-reps", int, 1000, _check_boot_reps),
    _SEED, _FLIP_SIGN,
    _Param("--format", ("json", "csv", "text"), "json", dest="fmt"),
    _OUT)
def analyze_cmd(data, schema, alpha, level, methods, boot_reps, seed,
                flip_sign, fmt, out):
    """Compute the fail-safe number and confidence intervals for a data file."""
    sample = ingest(data, schema=schema, alpha=alpha, flip_sign=flip_sign)
    kwargs = dict(level=level, seed=seed, boot_replicates=boot_reps)
    if methods:
        kwargs["methods"] = methods
    report, code = analyze(sample, AnalysisConfig(**kwargs))
    _write_out(format_report(report, fmt), out)
    return code


@_command(
    "cutoffs",
    _Param("--k-max", int, 160, _study_count),
    _ALPHA,
    _Param("--model", str, TEST_METHOD, lambda t: _closed_form(parse_method(t), False),
           "Variance model for the cutoff width."),
    _OUT)
def cutoffs_cmd(k_max, alpha, model, out):
    """Emit the table of fail-safe values that clear the 5k+10 rule."""
    rows = cutoff_table(k_max, alpha, parse_method(model))
    text = "k,cutoff\n" + "".join(f"{k},{c}\n" for k, c in rows)
    _write_out(text, out)
    return 0


@_command(
    "simulate",
    _Param("--data-dist", help="std-normal | half-normal | skew-neg | skew-pos | "
                               "skew:<delta>", required=True),
    _Param("--ci", help="CI method token (repeatable).", dest="ci_tokens", required=True,
           multiple=True),
    _Param("--k", str, "5,15,30,50", help="Comma-separated study counts.", dest="k_list"),
    _Param("--k-model", ("fixed", "random"), "fixed"),
    _Param("--k-draw", ("nominal", "poisson"), "nominal",
           help="Random regime only: pin the count at its rate (matches the reference "
                "study) or draw it each replicate."),
    _Param("--truth", str, "auto",
           help="auto | data | std-normal | half-normal | skew-neg | skew-pos"),
    _Param("--reps", int, 2000),
    _Param("--boot-reps", int, 500, _check_boot_reps),
    _LEVEL, _ALPHA, _SEED,
    _Param("--full-scale", bool, False,
           help="Allow full-scale bootstrap cells (10000 x 1000)."),
    _Param("--out", help="Coverage CSV path (default stdout)."),
    _Param("--plot-data", help="Also write long-format plot data to this path."))
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
        raise UsageError(str(exc)) from exc

    for m in methods:
        if m.source == "boot" and reps * m.replicates >= 10_000 * 1_000 \
                and not full_scale:
            raise UsageError("bootstrap at this scale needs --full-scale")

    reports = run_grid(scenarios)
    _write_out(coverage_csv(reports), out)
    if plot_data is not None:
        Path(plot_data).write_text(figure_data_csv(reports))

    failed = [r for r in reports if r.error]
    for r in failed:
        print(f"scenario {r.ci_method} failed: {r.error}", file=sys.stderr)
    redraws = sum(c.redraws for r in reports for c in r.cells)
    if redraws:
        print(f"# redrew {redraws} degenerate study counts", file=sys.stderr)
    return 2 if failed else 0


@_command(
    "test", _DATA, _SCHEMA, _ALPHA,
    _Param("--method", str, TEST_METHOD, lambda t: _closed_form(parse_method(t), True),
           "Variance model for the test statistic."),
    _FLIP_SIGN)
def test_cmd(data, schema, alpha, method, flip_sign):
    """Test whether the fail-safe number significantly exceeds 5k+10."""
    sample = ingest(data, schema=schema, alpha=alpha, flip_sign=flip_sign)
    est = rosenthal_nr(sample)
    variance = method_variance(parse_method(method), sample.z, est.k, est.alpha)
    t = failsafe_test(est, variance)
    verdict = "reject: fail-safe number significantly exceeds 5k+10" \
        if t.reject else "fail to reject: not significantly above 5k+10"
    print(f"n_r={est.n_r:.6g} threshold={est.rule_threshold:.6g} "
          f"statistic={t.statistic:.6g} critical={t.critical:.6g}")
    print(verdict)
    return 0


def _usage(name: str | None = None):
    """The usage of command ``name``, or of the program when None, as an
    argparse parser that is only ever asked to format it."""
    import argparse
    if name is None:
        commands = "".join(f"  {n:10s}{run.__doc__}\n" for n, (run, _) in _COMMANDS.items())
        parser = argparse.ArgumentParser(
            prog="failsafe", usage="%(prog)s [--help] COMMAND [ARGS]...",
            description="Fail-safe numbers for meta-analysis: estimates, confidence\n"
                        "intervals, cutoff tables, and coverage simulations.",
            epilog=f"commands:\n{commands}", add_help=False,
            formatter_class=argparse.RawDescriptionHelpFormatter)
        params = ()
    else:
        run, params = _COMMANDS[name]
        parser = argparse.ArgumentParser(prog=f"failsafe {name}", description=run.__doc__,
                                         add_help=False)
    for p in (_HELP, *params):
        if p.name[:2] != "--":
            parser.add_argument(p.name)
        elif p.kind is bool:
            parser.add_argument(p.name, action="store_true", help=p.help)
        else:
            shown = "" if p.default is None else f" (default: {p.default})"
            parser.add_argument(p.name, help=(p.help + shown).lstrip(),
                                choices=p.kind if isinstance(p.kind, tuple) else None,
                                required=p.required,
                                action="append" if p.multiple else "store")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point mapping exceptions onto the documented exit codes."""
    args = sys.argv[1:] if argv is None else list(argv)
    try:
        if not args:
            raise UsageError(_usage().format_help().rstrip("\n"))
        name = args[0]
        if name[:1] == "-" and name != "-":
            _read({"--help": _HELP}, [name])  # raises on any other option
            _usage().print_help()
            return 0
        if name not in _COMMANDS:
            raise _unknown("command", name, _COMMANDS)
        run, params = _COMMANDS[name]
        kwargs = _parse(params, args[1:])
        if kwargs is None:
            _usage(name).print_help()
            return 0
        return run(**kwargs)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FailsafeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
