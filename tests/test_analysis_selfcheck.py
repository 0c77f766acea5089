"""Self-check: the live source tree lints clean, and planted bugs don't.

These are the acceptance criteria for the analyzer itself: running it over
``src/`` must exit 0, while a tree with a planted f-string execute must
exit non-zero with the right rule id and line.  The live-tree tests share
one lint of ``src/repro`` (the ``live_tree`` session fixture).
"""

import io
import json
import os

import pytest

import repro
from repro.analysis import analyze_paths
from repro.analysis import cli as lint_cli
from repro.analysis.cli import main as lint_main
from repro.analysis.engine import run_analysis

SRC_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
PACKAGE_ROOT = os.path.join(SRC_ROOT, "repro")
FIXTURES_ROOT = os.path.join(os.path.dirname(__file__), "fixtures")

CONCURRENCY_RULES = ("NBL009", "NBL010", "NBL011", "NBL012")
VERSIONED_WRITE_RULES = ("NBL013",)


@pytest.fixture(scope="session")
def live_tree():
    """One full lint of ``src/repro`` shared by every live-tree test."""
    return run_analysis([PACKAGE_ROOT])


@pytest.fixture
def cached_lint(monkeypatch, live_tree):
    """Make ``lint_main`` over the package reuse the shared run."""

    def cached(paths, rules=None):
        assert list(paths) == [PACKAGE_ROOT] and rules is None
        return live_tree

    monkeypatch.setattr(lint_cli, "run_analysis", cached)


def _only(findings, rules):
    return [f for f in findings if f.rule_id in rules]


def _listing(findings):
    return "\n".join(f"{f.rule_id} {f.path}:{f.line} {f.message}" for f in findings)


class TestLiveTree:
    def test_src_tree_is_clean(self, live_tree):
        findings = live_tree.findings
        assert findings == [], _listing(findings)

    def test_cli_exit_zero_on_src(self, cached_lint):
        out = io.StringIO()
        assert lint_main([PACKAGE_ROOT], out=out) == 0
        assert out.getvalue() == "nebula-lint: 0 finding(s)\n"

    def test_cli_strict_exit_zero_on_src(self, cached_lint):
        out = io.StringIO()
        assert lint_main([PACKAGE_ROOT, "--strict"], out=out) == 0
        assert out.getvalue() == "nebula-lint: 0 finding(s)\n"

    def test_strict_clean_includes_concurrency_rules(self, live_tree):
        # NBL009–NBL012 specifically: the service plane was fixed (or
        # carries justified inline ignores), so the strict gate holds
        # with only the new rules enabled too.
        findings = _only(live_tree.findings, CONCURRENCY_RULES)
        assert findings == [], _listing(findings)

    def test_strict_clean_includes_versioned_write_rule(self, live_tree):
        # NBL013: every in-place write against the versioned head
        # tables lives inside repro/versioning/ — the commit log is the
        # single writer.
        findings = _only(live_tree.findings, VERSIONED_WRITE_RULES)
        assert findings == [], _listing(findings)

    @pytest.mark.parametrize(
        "rules",
        [CONCURRENCY_RULES, VERSIONED_WRITE_RULES],
        ids=["concurrency", "versioned-write"],
    )
    def test_rule_subset_equals_filtered_full_run(self, rules):
        # What lets the two tests above filter the shared run: the
        # project pass does not depend on the enabled rules, and no
        # rule's findings depend on another's.  The planted fixtures
        # trip every rule in both subsets.
        full = analyze_paths([FIXTURES_ROOT])
        subset = analyze_paths([FIXTURES_ROOT], rules=list(rules))
        assert subset == _only(full, rules)
        assert {f.rule_id for f in subset} == set(rules)


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
            "NBL001", "NBL002", "NBL005", "NBL006",
            "NBL007", "NBL008", "NBL009", "NBL010",
            "NBL011", "NBL012", "NBL013",
        ):
            assert rule_id in text
        # Retired, leaving eleven: NebulaConfig enforces NBL003's
        # invariants and AnnotationStore.attach NBL004's.
        assert "NBL003" not in text
        assert "NBL004" not in text
        assert len(text.splitlines()) == 11

    def test_unknown_rule_exits_usage_error(self, tmp_path):
        target = tmp_path / "x.py"
        target.write_text("x = 1\n")
        out = io.StringIO()
        assert lint_main([str(target), "--rules", "NBL999"], out=out) == 2

    def test_missing_path_exits_usage_error(self, tmp_path):
        out = io.StringIO()
        assert lint_main([str(tmp_path / "nope.py")], out=out) == 2
