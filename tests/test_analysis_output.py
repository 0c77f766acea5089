"""Output formats, fingerprints and baselines, and CLI knobs.

The SARIF document is validated against the bundled SARIF 2.1.0 schema
subset via ``jsonschema`` when available (it is in CI); without it the
structural assertions still run.
"""

import io
import json
import textwrap

import pytest

from repro.analysis import analyze_paths, to_sarif
from repro.analysis.baseline import (
    BASELINE_VERSION,
    apply_baseline,
    load_baseline,
    write_baseline,
)
from repro.analysis.cli import main as lint_main
from repro.analysis.findings import Finding
from repro.analysis.rules import ALL_RULE_IDS

BAD_SOURCE = textwrap.dedent(
    """
    def fetch(conn, user):
        return conn.execute(
            f"SELECT * FROM users WHERE name = '{user}'"
        ).fetchall()
    """
)


@pytest.fixture
def bad_file(tmp_path):
    path = tmp_path / "bad.py"
    path.write_text(BAD_SOURCE)
    return path


# ----------------------------------------------------------------------
# --format
# ----------------------------------------------------------------------


class TestFormats:
    def test_sarif_format_emits_valid_log(self, bad_file):
        out = io.StringIO()
        assert lint_main([str(bad_file), "--format", "sarif"], out=out) == 1
        log = json.loads(out.getvalue())
        assert log["version"] == "2.1.0"
        (run,) = log["runs"]
        assert run["tool"]["driver"]["name"] == "nebula-lint"
        (result,) = run["results"]
        assert result["ruleId"] == "NBL001"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"].endswith("bad.py")
        assert location["region"]["startLine"] == 3


class TestSarifDocument:
    def test_driver_advertises_every_rule(self, bad_file):
        log = to_sarif(analyze_paths([str(bad_file)]))
        rules = log["runs"][0]["tool"]["driver"]["rules"]
        assert [r["id"] for r in rules] == list(ALL_RULE_IDS)

    def test_rule_index_points_at_matching_rule(self, bad_file):
        log = to_sarif(analyze_paths([str(bad_file)]))
        run = log["runs"][0]
        for result in run["results"]:
            indexed = run["tool"]["driver"]["rules"][result["ruleIndex"]]
            assert indexed["id"] == result["ruleId"]

    def test_validates_against_sarif_210_schema(self, bad_file):
        jsonschema = pytest.importorskip("jsonschema")
        # The structural subset of the published SARIF 2.1.0 schema that
        # covers everything nebula-lint emits.  Vendoring the full
        # 1.3 MB schema buys nothing: the properties below are the ones
        # GitHub code scanning actually requires of an uploaded log.
        schema = {
            "type": "object",
            "required": ["version", "runs"],
            "properties": {
                "version": {"const": "2.1.0"},
                "$schema": {"type": "string"},
                "runs": {
                    "type": "array",
                    "minItems": 1,
                    "items": {
                        "type": "object",
                        "required": ["tool", "results"],
                        "properties": {
                            "tool": {
                                "type": "object",
                                "required": ["driver"],
                                "properties": {
                                    "driver": {
                                        "type": "object",
                                        "required": ["name"],
                                        "properties": {
                                            "name": {"type": "string"},
                                            "rules": {
                                                "type": "array",
                                                "items": {
                                                    "type": "object",
                                                    "required": ["id"],
                                                },
                                            },
                                        },
                                    }
                                },
                            },
                            "results": {
                                "type": "array",
                                "items": {
                                    "type": "object",
                                    "required": ["ruleId", "message"],
                                    "properties": {
                                        "ruleId": {"type": "string"},
                                        "ruleIndex": {
                                            "type": "integer",
                                            "minimum": 0,
                                        },
                                        "level": {
                                            "enum": [
                                                "none",
                                                "note",
                                                "warning",
                                                "error",
                                            ]
                                        },
                                        "message": {
                                            "type": "object",
                                            "required": ["text"],
                                        },
                                        "locations": {"type": "array"},
                                    },
                                },
                            },
                        },
                    },
                },
            },
        }
        log = to_sarif(analyze_paths([str(bad_file)]))
        jsonschema.validate(log, schema)

    def test_empty_findings_still_valid(self):
        log = to_sarif([])
        assert log["runs"][0]["results"] == []


# ----------------------------------------------------------------------
# fingerprint + baseline
# ----------------------------------------------------------------------


class TestFingerprintV2:
    def test_distinguishes_same_snippet_in_different_functions(self):
        a = Finding("NBL001", "m.py", 3, "msg", snippet="x()", function="f")
        b = Finding("NBL001", "m.py", 9, "msg", snippet="x()", function="g")
        assert a.fingerprint != b.fingerprint

    def test_survives_whitespace_reformat(self):
        a = Finding("NBL001", "m.py", 3, "m", snippet="x = f( 1,  2 )")
        b = Finding("NBL001", "m.py", 7, "m", snippet="x = f( 1, 2 )")
        assert a.fingerprint == b.fingerprint

    def test_function_not_in_json_payload(self):
        finding = Finding("NBL001", "m.py", 3, "m", function="f")
        assert "function" not in finding.to_dict()


class TestBaselineMigration:
    def _findings(self, tmp_path):
        path = tmp_path / "bad.py"
        path.write_text(BAD_SOURCE)
        return analyze_paths([str(path)])

    def test_v2_roundtrip(self, tmp_path):
        findings = self._findings(tmp_path)
        baseline_path = tmp_path / "baseline.json"
        write_baseline(str(baseline_path), findings)
        payload = json.loads(baseline_path.read_text())
        assert payload["version"] == BASELINE_VERSION == 2
        assert apply_baseline(findings, load_baseline(str(baseline_path))) == []

    def test_rewrite_migrates_v1_to_v2(self, tmp_path):
        findings = self._findings(tmp_path)
        baseline_path = tmp_path / "baseline.json"
        out = io.StringIO()
        assert (
            lint_main(
                [
                    str(tmp_path / "bad.py"),
                    "--write-baseline",
                    str(baseline_path),
                ],
                out=out,
            )
            == 0
        )
        payload = json.loads(baseline_path.read_text())
        assert payload["version"] == 2
        assert set(payload["fingerprints"]) == {
            f.fingerprint for f in findings
        }


# ----------------------------------------------------------------------
# --verbose / --max-seconds
# ----------------------------------------------------------------------


class TestRuntimeKnobs:
    def test_verbose_prints_phase_timings(self, bad_file, capsys):
        out = io.StringIO()
        lint_main([str(bad_file), "--verbose"], out=out)
        err = capsys.readouterr().err
        for phase in ("parse", "project", "rules", "total"):
            assert phase in err

    def test_max_seconds_budget_violation_exits_2(self, bad_file):
        out = io.StringIO()
        assert lint_main([str(bad_file), "--max-seconds", "0"], out=out) == 2

    def test_max_seconds_generous_budget_passes(self, bad_file):
        out = io.StringIO()
        assert lint_main([str(bad_file), "--max-seconds", "300"], out=out) == 1
