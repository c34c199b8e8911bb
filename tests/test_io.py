"""Data ingestion, report assembly and report formatting."""
import json

import pytest

from failsafe import (
    AnalysisConfig,
    DomainError,
    IngestError,
    ZSample,
    analyze,
    format_report,
    ingest,
    rosenthal_nr,
)


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestIngest:
    def test_z_column_with_label(self, tmp_path):
        path = _write(tmp_path, "label,z\na,1.5\nb,-0.25\n")
        assert ingest(path) == ZSample((1.5, -0.25))

    def test_effect_se_pairs(self, tmp_path):
        path = _write(tmp_path, "effect,se\n0.3,0.1\n-1.0,0.5\n")
        assert ingest(path).z == pytest.approx((3.0, -2.0), rel=1e-15)

    def test_comment_and_blank_lines_skipped(self, tmp_path):
        path = _write(tmp_path, "# source: table 2\nz\n1.0\n\n# dropped study\n2.0\n , \n")
        assert ingest(path).z == (1.0, 2.0)

    def test_flip_sign_and_alpha(self, tmp_path):
        path = _write(tmp_path, "z\n1.0\n-2.0\n")
        s = ingest(path, alpha=0.01, flip_sign=True)
        assert s.z == (-1.0, 2.0) and s.alpha == 0.01

    def test_utf8_bom(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfz\n1.5\n2.5\n")
        assert ingest(path).z == (1.5, 2.5)

    def test_mixed_header(self, tmp_path):
        path = _write(tmp_path, "# comment\nz,effect,se\n1,2,3\n")
        with pytest.raises(IngestError) as info:
            ingest(path)
        assert info.value.line == 2

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_value(self, tmp_path, value):
        path = _write(tmp_path, f"z\n1.0\n{value}\n")
        with pytest.raises(IngestError) as info:
            ingest(path)
        assert info.value.line == 3

    @pytest.mark.parametrize("se", ["0", "-0.5", "inf", "nan"])
    def test_se_must_be_positive(self, tmp_path, se):
        path = _write(tmp_path, f"effect,se\n1.0,0.5\n1.0,{se}\n")
        with pytest.raises(IngestError) as info:
            ingest(path)
        assert info.value.line == 3
        # the conversion's handler once took this error for a bad number
        assert str(info.value) == f"line 3: se must be positive, got {float(se)!r}"

    def test_non_numeric_and_ragged_rows(self, tmp_path):
        with pytest.raises(IngestError):
            ingest(_write(tmp_path, "z\n1.0\nabc\n"))
        with pytest.raises(IngestError):
            ingest(_write(tmp_path, "label,z\na,1.0\nb\n"))

    def test_error_lines_count_physical_lines(self, tmp_path):
        # the quoted label spans lines 2 and 3; errors were numbered by
        # record, and this one said line 3
        path = _write(tmp_path, 'label,z\n"a\nb",1.0\nc,x\n')
        with pytest.raises(IngestError) as info:
            ingest(path)
        assert str(info.value) == "line 4: non-numeric value in ['c', 'x']"

    def test_duplicate_columns(self, tmp_path):
        # header names are case-blind
        with pytest.raises(IngestError, match="line 1: duplicate column names"):
            ingest(_write(tmp_path, "z,Z\n1.0,2.0\n"))

    def test_header_without_known_columns(self, tmp_path):
        with pytest.raises(IngestError,
                           match=r"line 2: header must name 'z' or 'effect,se'"):
            ingest(_write(tmp_path, "# comment\nx,y\n1.0,2.0\n"))

    def test_schema_mismatch(self, tmp_path):
        with pytest.raises(IngestError):
            ingest(_write(tmp_path, "z\n1.0\n"), schema="effect-se")
        with pytest.raises(IngestError):
            ingest(_write(tmp_path, "effect,se\n1.0,1.0\n"), schema="z")
        with pytest.raises(DomainError):
            ingest(_write(tmp_path, "z\n1.0\n"), schema="xml")

    def test_empty_and_header_only(self, tmp_path):
        with pytest.raises(IngestError):
            ingest(_write(tmp_path, "# nothing here\n"))
        with pytest.raises(IngestError):
            ingest(_write(tmp_path, "z\n"))
        with pytest.raises(IngestError):
            ingest(tmp_path / "missing.csv")

    def test_directory_is_an_ingest_error(self, tmp_path):
        with pytest.raises(IngestError, match="cannot read"):
            ingest(tmp_path)

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["no-bom", "bom"])
    def test_undecodable_byte_is_an_ingest_error(self, tmp_path, bom):
        path = tmp_path / "latin1.csv"
        path.write_bytes(bom + b"z\n1.5\n\xff\n")
        with pytest.raises(IngestError, match="is not UTF-8 text") as info:
            ingest(path)
        assert info.value.line == 3

    @pytest.mark.parametrize("eol", ["\r", "\r\n", "\n"], ids=["cr", "crlf", "lf"])
    def test_undecodable_byte_is_numbered_as_the_reader_numbers_lines(self, tmp_path, eol):
        # both errors name the line the CSV reader would: \r ends a line too
        end = eol.encode()
        for third, message in ((b"\xff", "is not UTF-8 text"), (b"abc", "non-numeric")):
            path = tmp_path / "lines.csv"
            path.write_bytes(b"z" + end + b"1.0" + end + third + end)
            with pytest.raises(IngestError, match=message) as info:
                ingest(path)
            assert str(info.value).startswith("line 3: ")


SAMPLE = ZSample((1.1, 2.0, 0.7, 1.4, 2.2, 1.9, 0.8, 1.6))


class TestAnalyze:
    def test_default_report(self):
        report, code = analyze(SAMPLE, AnalysisConfig())
        est = rosenthal_nr(SAMPLE)
        assert code == 0 and report["errors"] == []
        assert report["n_r"] == est.n_r and report["k"] == SAMPLE.k
        assert [iv["method"] for iv in report["intervals"]] == [
            "fixed-dist:half-normal:largek", "fixed-mom:largek",
            "random-dist:half-normal", "random-mom", "boot:1000"]
        assert report["test"]["method"] == "fixed-dist:half-normal:table"
        assert 0.0 < report["iyengar_greenhouse"] < est.n_r

    def test_default_bootstrap_row_to_the_bit(self):
        # the bootstrap reads only random.seed(int) and random(), whose output
        # the standard library keeps from one version to the next, so every
        # interpreter must print this row
        report, _ = analyze(SAMPLE, AnalysisConfig())
        assert {key: repr(v) for key, v in report["intervals"][-1].items()} == {
            "method": "'boot:1000'", "lower": "17.88629684117866",
            "upper": "67.30594222102376", "level": "0.95",
            "variance_used": "158.94361123389177", "boot_mean": "43.19891894189289",
            "boot_se": "12.607284054620637"}

    def test_bootstrap_follows_seed(self):
        cfg = AnalysisConfig(methods=("boot:200", "boot:200"), seed=5)
        a, _ = analyze(SAMPLE, cfg)
        b, _ = analyze(SAMPLE, cfg)
        assert a == b
        # each bootstrap method gets its own stream
        assert a["intervals"][0]["boot_se"] != a["intervals"][1]["boot_se"]

    def test_failed_method_gives_partial_code(self):
        # sample moments need two studies
        report, code = analyze(ZSample((3.0,)), AnalysisConfig(
            methods=("fixed-mom", "fixed-dist:half-normal")))
        assert code == 2
        assert report["errors"] == [{"method": "fixed-mom",
                                     "error": "method of moments needs at least 2 studies"}]
        assert [iv["method"] for iv in report["intervals"]] == [
            "fixed-dist:half-normal:largek"]

    def test_bad_token_is_reported(self):
        report, code = analyze(SAMPLE, AnalysisConfig(methods=("boot:zz", "random-mom")))
        assert code == 2 and report["errors"][0]["method"] == "boot:zz"
        assert [iv["method"] for iv in report["intervals"]] == ["random-mom"]

    def test_failed_test_is_reported(self, monkeypatch):
        # the test's method is fixed; a method without a closed form fails it
        monkeypatch.setattr("failsafe.io.TEST_METHOD", "boot")
        report, code = analyze(SAMPLE, AnalysisConfig(methods=()))
        assert code == 2 and report["test"] is None
        assert report["errors"][0]["method"] == "test:boot"

    def test_overflowing_estimate_raises(self):
        with pytest.raises(DomainError):
            analyze(ZSample((1e200, 1e200)), AnalysisConfig())


class TestFormatReport:
    def test_json_round_trip(self):
        report, _ = analyze(SAMPLE, AnalysisConfig())
        assert json.loads(format_report(report, "json")) == report

    def test_csv_rows(self):
        report, _ = analyze(SAMPLE, AnalysisConfig())
        lines = format_report(report, "csv").splitlines()
        assert lines[2] == "method,lower,upper,level,variance_used"
        assert len(lines) == 3 + len(report["intervals"])

    def test_text_mentions_failures(self):
        report, _ = analyze(ZSample((3.0,)), AnalysisConfig(methods=("random-mom",)))
        text = format_report(report, "text")
        assert "[failed] random-mom: method of moments needs at least 2 studies" in text

    def test_unknown_format(self):
        report, _ = analyze(SAMPLE, AnalysisConfig(methods=()))
        with pytest.raises(DomainError):
            format_report(report, "xml")
