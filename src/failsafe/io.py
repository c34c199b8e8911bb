"""Data ingestion and analysis-report assembly/serialization."""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .core import iyengar_greenhouse_n, rosenthal_nr
from .errors import BelowThresholdError, DomainError, FailsafeError, IngestError
from .estimators import ZSample
from .inference import (
    TEST_METHOD,
    ci_bootstrap,
    ci_normal,
    failsafe_test,
    method_variance,
    parse_method,
)
from .rng import RandomSource


_Z_HEADERS = {"z"}
_PAIR_HEADERS = {"effect", "se"}


def ingest(path: str | Path, schema: str = "auto", alpha: float = 0.05,
           flip_sign: bool = False) -> ZSample:
    """Read per-study z-scores (or effect/SE pairs) from a delimited file.

    The header row names either a ``z`` column or ``effect`` and ``se``
    columns, optionally plus ``label``; lines starting with ``#`` are
    comments.  Errors carry the 1-based line number.
    """
    if schema not in ("auto", "z", "effect-se"):
        raise DomainError(f"unknown schema {schema!r}")
    path = Path(path)
    if not path.exists():
        raise IngestError(f"no such file: {path}")

    header: list[str] | None = None
    z_index = effect_index = se_index = None
    values: list[float] = []

    # utf-8-sig drops the byte-order mark spreadsheet exports start with
    with path.open(newline="", encoding="utf-8-sig") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or (row[0].lstrip().startswith("#")):
                continue
            cells = [c.strip() for c in row]
            if all(c == "" for c in cells):
                continue
            if header is None:
                header = [c.lower() for c in cells]
                names = set(header) - {"label"}
                if len(header) != len(set(header)):
                    raise IngestError("duplicate column names", lineno)
                has_z = bool(names & _Z_HEADERS)
                has_pair = bool(names & _PAIR_HEADERS)
                if has_z and has_pair:
                    raise IngestError(
                        "file mixes a z column with effect/se columns", lineno)
                if has_z and names == _Z_HEADERS:
                    if schema == "effect-se":
                        raise IngestError("expected effect,se columns", lineno)
                    z_index = header.index("z")
                elif names == _PAIR_HEADERS:
                    if schema == "z":
                        raise IngestError("expected a z column", lineno)
                    effect_index = header.index("effect")
                    se_index = header.index("se")
                else:
                    raise IngestError(
                        f"header must name 'z' or 'effect,se' columns, got "
                        f"{cells!r}", lineno)
                continue
            if len(cells) != len(header):
                raise IngestError(
                    f"expected {len(header)} fields, got {len(cells)}", lineno)
            try:
                if z_index is not None:
                    v = float(cells[z_index])
                else:
                    eff = float(cells[effect_index])
                    se = float(cells[se_index])
            except ValueError:
                raise IngestError(f"non-numeric value in {cells!r}", lineno) from None
            if z_index is None:
                # outside the try, which would take this IngestError for a
                # ValueError of float()
                if not math.isfinite(se) or se <= 0:
                    raise IngestError(f"se must be positive, got {se!r}", lineno)
                v = eff / se
            if not math.isfinite(v):
                raise IngestError(f"non-finite z value {v!r}", lineno)
            values.append(-v if flip_sign else v)

    if header is None:
        raise IngestError(f"{path}: empty file")
    if not values:
        raise IngestError(f"{path}: no data rows")
    return ZSample(tuple(values), alpha)


@dataclass(frozen=True)
class AnalysisConfig:
    """What ``analyze`` reports besides the point estimate.  The one-sided
    alpha is the sample's own, set by ``ingest``."""

    level: float = 0.95
    methods: tuple[str, ...] = ("fixed-dist:half-normal", "fixed-mom",
                                "random-dist:half-normal", "random-mom", "boot")
    seed: int = 0
    boot_replicates: int = 1000


def analyze(sample: ZSample, config: AnalysisConfig) -> tuple[dict, int]:
    """Full fail-safe report for one sample.

    Returns the report dict (fixed field names for machine use) and an exit
    code: 0 all methods succeeded, 2 some interval or test failed.
    """
    est = rosenthal_nr(sample)
    report: dict = {
        "n_r": est.n_r,
        "k": est.k,
        "sum_z": est.sum_z,
        "stouffer_z": est.stouffer_z,
        "alpha": est.alpha,
        "z_alpha": est.z_alpha,
        "below_threshold": est.below_threshold,
        "rule_of_thumb": {
            "threshold": est.rule_threshold,
            "exceeded": est.rule_exceeded,
            "verdict": "exceeded" if est.rule_exceeded else "not exceeded",
        },
        "intervals": [],
        "test": None,
        "iyengar_greenhouse": None,
        "errors": [],
    }

    boot_stream = 0
    for token in config.methods:
        try:
            model = parse_method(token, config.boot_replicates)
            boot: dict = {}
            if model.source == "boot":
                # a bare 'boot' is named by the count it resamples
                token = model.describe()
                src = RandomSource(config.seed, boot_stream)
                boot_stream += 1
                iv, boot["boot_mean"], boot["boot_se"] = ci_bootstrap(
                    sample, model.replicates, src, config.level)
            else:
                iv = ci_normal(est, sample, model, config.level)
            report["intervals"].append({
                "method": iv.method, "lower": iv.lower, "upper": iv.upper,
                "level": iv.level, "variance_used": iv.variance_used, **boot})
        except FailsafeError as exc:
            report["errors"].append({"method": token, "error": str(exc)})

    try:
        variance = method_variance(parse_method(TEST_METHOD), sample.z, est.k, est.alpha)
        t = failsafe_test(est, variance)
        report["test"] = {"statistic": t.statistic, "critical": t.critical,
                          "reject": t.reject, "method": TEST_METHOD}
    except FailsafeError as exc:
        report["errors"].append({"method": f"test:{TEST_METHOD}", "error": str(exc)})

    try:
        report["iyengar_greenhouse"] = iyengar_greenhouse_n(sample)
    except BelowThresholdError:
        report["iyengar_greenhouse"] = None

    return report, (2 if report["errors"] else 0)


def _g6(x) -> str:
    return f"{x:.6g}" if isinstance(x, float) else str(x)


def format_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2) + "\n"
    if fmt == "csv":
        out = io.StringIO()
        out.write(f"# n_r={report['n_r']!r} k={report['k']} sum_z={report['sum_z']!r}"
                  f" stouffer_z={report['stouffer_z']!r} alpha={report['alpha']!r}"
                  f" below_threshold={report['below_threshold']}\n"
                  f"# rule_of_thumb threshold={report['rule_of_thumb']['threshold']!r}"
                  f" verdict={report['rule_of_thumb']['verdict'].replace(' ', '_')}\n")
        fields = ("method", "lower", "upper", "level", "variance_used")
        rows = csv.writer(out, lineterminator="\n")
        rows.writerow(fields)
        rows.writerows([iv[f] for f in fields] for iv in report["intervals"])
        return out.getvalue()
    if fmt == "text":
        rot = report["rule_of_thumb"]
        lines = [
            f"fail-safe number: {_g6(report['n_r'])}  (k={report['k']}, "
            f"alpha={_g6(report['alpha'])})",
            f"stouffer z: {_g6(report['stouffer_z'])}"
            + ("  [below significance threshold]"
               if report["below_threshold"] else ""),
            f"rule of thumb 5k+10 = {_g6(rot['threshold'])}: {rot['verdict']}",
        ]
        for iv in report["intervals"]:
            lines.append(f"  {iv['method']:34s} ({_g6(iv['lower'])}, "
                         f"{_g6(iv['upper'])})  level={_g6(iv['level'])}")
        t = report["test"]
        if t is not None:
            verdict = "reject" if t["reject"] else "fail to reject"
            lines.append(f"exceeds-rule test: statistic {_g6(t['statistic'])} vs "
                         f"critical {_g6(t['critical'])} -> {verdict}")
        ig = report["iyengar_greenhouse"]
        lines.append("truncated-mean unpublished count: "
                     + (_g6(ig) if ig is not None else "n/a"))
        for err in report["errors"]:
            lines.append(f"  [failed] {err['method']}: {err['error']}")
        return "\n".join(lines) + "\n"
    raise DomainError(f"unknown format {fmt!r}")
