"""Self-check: the live source tree lints clean, and planted bugs don't.

These are the acceptance criteria for the analyzer itself: running it over
``src/`` must exit 0, while a tree with a planted f-string execute or an
inverted β-ordering must exit non-zero with the right rule id and line.
"""

import io
import json
import os

import repro
from repro.analysis import analyze_paths
from repro.analysis.cli import main as lint_main

SRC_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
PACKAGE_ROOT = os.path.join(SRC_ROOT, "repro")


class TestLiveTree:
    def test_src_tree_is_clean(self):
        findings = analyze_paths([PACKAGE_ROOT])
        assert findings == [], "\n".join(
            f"{f.rule_id} {f.path}:{f.line} {f.message}" for f in findings
        )

    def test_cli_exit_zero_on_src(self):
        out = io.StringIO()
        assert lint_main([PACKAGE_ROOT], out=out) == 0

    def test_cli_strict_exit_zero_on_src(self):
        out = io.StringIO()
        assert lint_main([PACKAGE_ROOT, "--strict"], out=out) == 0

    def test_strict_clean_includes_concurrency_rules(self):
        # NBL009–NBL012 specifically: the service plane was fixed (or
        # carries justified inline ignores), so the strict gate holds
        # with only the new rules enabled too.
        findings = analyze_paths(
            [PACKAGE_ROOT], rules=["NBL009", "NBL010", "NBL011", "NBL012"]
        )
        assert findings == [], "\n".join(
            f"{f.rule_id} {f.path}:{f.line} {f.message}" for f in findings
        )

    def test_strict_clean_includes_versioned_write_rule(self):
        # NBL013: every in-place write against the versioned head
        # tables lives inside repro/versioning/ — the commit log is the
        # single writer.
        findings = analyze_paths([PACKAGE_ROOT], rules=["NBL013"])
        assert findings == [], "\n".join(
            f"{f.rule_id} {f.path}:{f.line} {f.message}" for f in findings
        )


class TestPlantedViolations:
    def test_planted_fstring_execute_fails(self, tmp_path):
        planted = tmp_path / "planted.py"
        planted.write_text(
            "def fetch(conn, user):\n"
            "    return conn.execute(\n"
            "        f\"SELECT * FROM users WHERE name = '{user}'\"\n"
            "    ).fetchall()\n"
        )
        out = io.StringIO()
        assert lint_main([str(planted), "--format", "json"], out=out) == 1
        findings = json.loads(out.getvalue())
        assert len(findings) == 1
        assert findings[0]["rule_id"] == "NBL001"
        assert findings[0]["line"] == 2  # the execute call site

    def test_planted_edge_weight_fails(self, tmp_path):
        planted = tmp_path / "badweights.py"
        planted.write_text(
            "RANK = 1\n"
            "TRUE_EDGE_WEIGHT = 0.9\n"
        )
        out = io.StringIO()
        assert lint_main([str(planted), "--format", "json"], out=out) == 1
        findings = json.loads(out.getvalue())
        assert [f["rule_id"] for f in findings] == ["NBL004"]
        assert findings[0]["line"] == 2
        assert "TRUE_EDGE_WEIGHT" in findings[0]["message"]

    def test_planted_violation_in_copy_of_tree(self, tmp_path):
        # Planting a bug next to clean files still surfaces exactly that bug.
        clean = tmp_path / "fine.py"
        clean.write_text(
            "def f(conn, name):\n"
            '    conn.execute("SELECT 1 WHERE name = ?", (name,))\n'
        )
        planted = tmp_path / "bad.py"
        planted.write_text(
            "def g(conn, where):\n"
            '    conn.execute("SELECT 1 WHERE " + where)\n'
        )
        findings = analyze_paths([str(tmp_path)])
        assert [(f.rule_id, os.path.basename(f.path), f.line) for f in findings] == [
            ("NBL001", "bad.py", 2)
        ]


class TestCliSurface:
    def test_list_rules_covers_all_twelve(self):
        out = io.StringIO()
        assert lint_main(["--list-rules"], out=out) == 0
        text = out.getvalue()
        for rule_id in (
            "NBL001", "NBL002", "NBL004", "NBL005",
            "NBL006", "NBL007", "NBL008", "NBL009",
            "NBL010", "NBL011", "NBL012", "NBL013",
        ):
            assert rule_id in text
        assert "NBL003" not in text  # retired: NebulaConfig enforces it

    def test_unknown_rule_exits_usage_error(self, tmp_path):
        target = tmp_path / "x.py"
        target.write_text("x = 1\n")
        out = io.StringIO()
        assert lint_main([str(target), "--rules", "NBL999"], out=out) == 2

    def test_missing_path_exits_usage_error(self, tmp_path):
        out = io.StringIO()
        assert lint_main([str(tmp_path / "nope.py")], out=out) == 2
