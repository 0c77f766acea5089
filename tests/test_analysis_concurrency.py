"""Tests for NBL009–NBL012 and interprocedural NBL001.

Each rule is exercised against its deliberately-buggy fixture module
under ``tests/fixtures/concurrency/`` plus a clean twin; the
interprocedural NBL001 corpus additionally proves the PR-3
per-statement resolver misses what the new layer catches.
"""

import os
import textwrap

import pytest

from repro.analysis import analyze_paths
from repro.analysis.astcache import load_module
from repro.analysis.rules import ModuleContext, check_sql_safety

FIXTURES = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "fixtures", "concurrency"
)


def fixture(name):
    return os.path.join(FIXTURES, name)


def lint(path, rules):
    return analyze_paths([path], rules=rules)


class TestLockDiscipline:
    def test_flags_unguarded_write_of_guarded_field(self):
        findings = lint(fixture("bad_lock_discipline.py"), ["NBL009"])
        assert [f.rule_id for f in findings] == ["NBL009"]
        (finding,) = findings
        assert "_pending" in finding.message
        assert finding.function == "Tally.reset"

    def test_single_writer_field_is_exempt(self):
        findings = lint(fixture("bad_lock_discipline.py"), ["NBL009"])
        assert all("_total" not in f.message for f in findings)

    def test_flags_inconsistent_lock_order(self):
        findings = lint(fixture("bad_lock_order.py"), ["NBL009"])
        (finding,) = findings
        assert "both orders" in finding.message or "inconsistent" in finding.message
        assert "self._alpha" in finding.message
        assert "self._beta" in finding.message

    def test_locked_helper_inherits_caller_guards(self, tmp_path):
        path = tmp_path / "helper.py"
        path.write_text(
            textwrap.dedent(
                """
                import threading

                class T:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._n = 0

                    def bump(self):
                        with self._lock:
                            self._apply()

                    def also_bump(self):
                        with self._lock:
                            self._apply()

                    def _apply(self):
                        self._n += 1
                """
            )
        )
        assert lint(str(path), ["NBL009"]) == []


class TestThreadAffinity:
    def test_flags_all_three_escape_shapes(self):
        findings = lint(fixture("bad_thread_affinity.py"), ["NBL010"])
        assert [f.rule_id for f in findings] == ["NBL010"] * 3
        messages = " | ".join(f.message for f in findings)
        assert "closure" in messages
        assert "Thread" in messages
        assert "fan_out" in messages  # the cross-function escape

    def test_good_twin_is_clean(self):
        assert lint(fixture("good_thread_affinity.py"), ["NBL010"]) == []


class TestBlockingUnderLock:
    def test_flags_direct_transitive_and_sleep(self):
        findings = lint(fixture("bad_blocking_under_lock.py"), ["NBL011"])
        functions = sorted(f.function for f in findings)
        assert functions == ["Cache.direct", "Cache.sleepy", "Cache.transitive"]
        transitive = next(
            f for f in findings if f.function == "Cache.transitive"
        )
        # The chain names the helper that actually blocks.
        assert "_refresh" in transitive.message

    def test_lock_free_path_not_flagged(self):
        findings = lint(fixture("bad_blocking_under_lock.py"), ["NBL011"])
        assert all(f.function != "Cache.fine" for f in findings)

    def test_allowlisted_service_flush_is_exempt(self, tmp_path):
        service_dir = tmp_path / "service"
        service_dir.mkdir()
        path = service_dir / "service.py"
        path.write_text(
            textwrap.dedent(
                """
                import threading

                class AnnotationService:
                    def __init__(self, connection):
                        self._write_lock = threading.Lock()
                        self._conn = connection

                    def _flush(self):
                        with self._write_lock:
                            self._conn.execute("BEGIN")
                            self._conn.commit()

                    def not_allowlisted(self):
                        with self._write_lock:
                            self._conn.commit()
                """
            )
        )
        findings = lint(str(path), ["NBL011"])
        assert [f.function for f in findings] == [
            "AnnotationService.not_allowlisted"
        ]


class TestConditionHygiene:
    def test_flags_if_wait_bare_notify_and_naked_wait(self):
        findings = lint(fixture("bad_condition_hygiene.py"), ["NBL012"])
        by_function = {f.function: f for f in findings}
        assert set(by_function) == {
            "Mailbox.take_once",
            "Mailbox.poke",
            "Mailbox.naked_wait",
        }
        assert "while" in by_function["Mailbox.take_once"].message
        assert "notify" in by_function["Mailbox.poke"].message
        assert "holding" in by_function["Mailbox.naked_wait"].message

    def test_correct_shapes_not_flagged(self):
        findings = lint(fixture("bad_condition_hygiene.py"), ["NBL012"])
        assert all(
            f.function not in ("Mailbox.put", "Mailbox.take") for f in findings
        )

    def test_notify_ok_when_every_call_site_holds_lock(self, tmp_path):
        path = tmp_path / "notifier.py"
        path.write_text(
            textwrap.dedent(
                """
                import threading

                class T:
                    def __init__(self):
                        self._condition = threading.Condition()
                        self._items = []

                    def put(self, item):
                        with self._condition:
                            self._items.append(item)
                            self._wake()

                    def _wake(self):
                        self._condition.notify()
                """
            )
        )
        assert lint(str(path), ["NBL012"]) == []


class TestInterproceduralSqlTaint:
    def test_catches_cross_function_flow_both_directions(self):
        findings = lint(fixture("bad_interproc_sql.py"), ["NBL001"])
        assert [f.rule_id for f in findings] == ["NBL001", "NBL001"]
        by_function = {f.function for f in findings}
        assert by_function == {"query_by_name", "caller"}

    def test_good_twin_is_clean(self):
        assert lint(fixture("good_interproc_sql.py"), ["NBL001"]) == []

    def test_old_per_statement_resolver_provably_misses(self):
        """The PR-3 check (no call resolver) reports nothing here.

        This is the regression contract: the fixture's bugs are only
        reachable through the interprocedural layer, so the old
        resolver returning zero findings proves the new coverage is
        strictly larger, not a relabeling.
        """
        parsed = load_module(fixture("bad_interproc_sql.py"))
        ctx = ModuleContext(parsed.path, parsed.tree, parsed.source)
        assert list(check_sql_safety(ctx)) == []

    def test_taint_through_local_variable_hop(self, tmp_path):
        path = tmp_path / "hop.py"
        path.write_text(
            textwrap.dedent(
                """
                def make(table):
                    return "SELECT * FROM " + table

                def go(conn, table):
                    sql = make(table)
                    tail = sql + " LIMIT 1"
                    return conn.execute(tail)
                """
            )
        )
        findings = lint(str(path), ["NBL001"])
        assert [f.function for f in findings] == ["go"]

    def test_inline_ignore_still_suppresses(self, tmp_path):
        path = tmp_path / "suppressed.py"
        path.write_text(
            textwrap.dedent(
                """
                def make(table):
                    return "SELECT * FROM " + table

                def go(conn, table):
                    return conn.execute(make(table))  # nebula-lint: ignore[NBL001]
                """
            )
        )
        assert lint(str(path), ["NBL001"]) == []


class TestFixturesAreNotTestPaths:
    def test_fixture_dir_gets_production_rules(self):
        """`fixtures` under tests/ must not inherit test-file exemptions."""
        from repro.analysis.rules import _is_test_path

        assert not _is_test_path("tests/fixtures/concurrency/bad_lock_order.py")
        assert _is_test_path("tests/test_service.py")
        assert _is_test_path("tests/conftest.py")


class TestJobsParity:
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_findings_identical_across_worker_counts(self, jobs):
        serial = analyze_paths([FIXTURES], jobs=1)
        parallel = analyze_paths([FIXTURES], jobs=jobs)
        assert [f.to_dict() for f in parallel] == [
            f.to_dict() for f in serial
        ]
        assert len(serial) > 0
