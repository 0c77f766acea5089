"""Unit tests for the nebula-lint rules against fixture snippets."""

import json
from dataclasses import dataclass

import pytest

from repro.analysis import analyze_paths
from repro.analysis.baseline import apply_baseline, load_baseline, write_baseline
from repro.analysis.cli import main as lint_main
from repro.analysis.engine import AnalysisError
from repro.config import NebulaConfig
from repro.errors import ConfigurationError


def lint(tmp_path, source, name="snippet.py", rules=None):
    path = tmp_path / name
    path.write_text(source)
    return analyze_paths([str(path)], rules=rules)


def rule_ids(findings):
    return [f.rule_id for f in findings]


# ----------------------------------------------------------------------
# NBL001 — SQL safety
# ----------------------------------------------------------------------


class TestSqlSafety:
    def test_fstring_interpolation_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            "def f(conn, name):\n"
            "    conn.execute(f\"SELECT * FROM t WHERE name = '{name}'\")\n",
        )
        assert rule_ids(findings) == ["NBL001"]
        assert findings[0].line == 2
        assert "name" in findings[0].message

    def test_percent_formatting_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            "def f(conn, v):\n"
            '    conn.execute("SELECT * FROM t WHERE x = %s" % v)\n',
        )
        assert rule_ids(findings) == ["NBL001"]

    def test_concatenation_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            "def f(conn, tail):\n"
            '    conn.execute("SELECT * FROM t WHERE " + tail)\n',
        )
        assert rule_ids(findings) == ["NBL001"]

    def test_placeholders_clean(self, tmp_path):
        findings = lint(
            tmp_path,
            "def f(conn, name):\n"
            '    conn.execute("SELECT * FROM t WHERE name = ?", (name,))\n',
        )
        assert findings == []

    def test_triple_quoted_fstring_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            "def f(conn, name):\n"
            '    conn.execute(f"""\n'
            "        SELECT *\n"
            "        FROM t\n"
            "        WHERE name = '{name}'\n"
            '    """)\n',
        )
        assert rule_ids(findings) == ["NBL001"]

    def test_aliased_cursor_method_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            "def f(cur, name):\n"
            "    run = cur.execute\n"
            "    run(f\"SELECT * FROM t WHERE name = '{name}'\")\n",
        )
        assert rule_ids(findings) == ["NBL001"]

    def test_quote_identifier_interpolation_clean(self, tmp_path):
        findings = lint(
            tmp_path,
            "from repro.utils.sql import quote_identifier\n"
            "def f(conn, table):\n"
            '    conn.execute(f"SELECT rowid FROM {quote_identifier(table)}")\n',
        )
        assert findings == []

    def test_constant_propagated_through_locals_clean(self, tmp_path):
        findings = lint(
            tmp_path,
            "def f(conn, flag):\n"
            '    sql = "SELECT * FROM t WHERE 1=1"\n'
            "    if flag:\n"
            '        sql += " AND active = 1"\n'
            '    conn.execute(sql + " ORDER BY rowid")\n',
        )
        assert findings == []

    def test_unsafe_accumulation_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            "def f(conn, tail):\n"
            '    sql = "SELECT * FROM t"\n'
            '    sql += f" WHERE {tail}"\n'
            "    conn.execute(sql)\n",
        )
        assert rule_ids(findings) == ["NBL001"]

    def test_safe_clause_list_join_clean(self, tmp_path):
        findings = lint(
            tmp_path,
            "def f(conn, rowid, column):\n"
            '    clauses = ["target_table = ?"]\n'
            "    if rowid is not None:\n"
            '        clauses.append("target_rowid = ?")\n'
            "    conn.execute(\n"
            "        \"SELECT * FROM t WHERE \" + \" AND \".join(clauses),\n"
            "        [rowid],\n"
            "    )\n",
        )
        assert findings == []

    def test_unsafe_clause_list_join_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            "def f(conn, predicate):\n"
            '    clauses = ["x = ?"]\n'
            "    clauses.append(predicate)\n"
            "    conn.execute(\"SELECT * FROM t WHERE \" + \" AND \".join(clauses))\n",
        )
        assert rule_ids(findings) == ["NBL001"]

    def test_opaque_variable_trusted(self, tmp_path):
        # Cross-function SQL flow is judged at the construction site, not
        # the execute site: a bare opaque name is not flagged.
        findings = lint(
            tmp_path,
            "def f(conn, sql, params):\n"
            "    conn.execute(sql, params)\n",
        )
        assert findings == []

    def test_executescript_and_executemany_covered(self, tmp_path):
        findings = lint(
            tmp_path,
            "def f(conn, t):\n"
            '    conn.executescript(f"DROP TABLE {t}")\n'
            '    conn.executemany(f"INSERT INTO {t} VALUES (?)", [(1,)])\n',
        )
        assert rule_ids(findings) == ["NBL001", "NBL001"]

    def test_inline_ignore_suppresses(self, tmp_path):
        findings = lint(
            tmp_path,
            "def f(conn, w):\n"
            '    conn.execute(f"SELECT 1 WHERE {w}")  # nebula-lint: ignore[NBL001]\n',
        )
        assert findings == []

    def test_inline_ignore_on_continuation_line(self, tmp_path):
        findings = lint(
            tmp_path,
            "def f(conn, w):\n"
            "    conn.execute(\n"
            '        f"SELECT 1 WHERE {w}"  # nebula-lint: ignore[NBL001]\n'
            "    )\n",
        )
        assert findings == []

    def test_inline_ignore_wrong_rule_does_not_suppress(self, tmp_path):
        findings = lint(
            tmp_path,
            "def f(conn, w):\n"
            '    conn.execute(f"SELECT 1 WHERE {w}")  # nebula-lint: ignore[NBL006]\n',
        )
        assert rule_ids(findings) == ["NBL001"]


# ----------------------------------------------------------------------
# NBL002 — SAVEPOINT pairing
# ----------------------------------------------------------------------


class TestSavepointPairing:
    def test_unreleased_savepoint_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            "def f(conn):\n"
            '    conn.execute("SAVEPOINT sp1")\n'
            '    conn.execute("INSERT INTO t VALUES (1)")\n',
        )
        assert rule_ids(findings) == ["NBL002"]

    def test_released_savepoint_clean(self, tmp_path):
        findings = lint(
            tmp_path,
            "def f(conn):\n"
            '    conn.execute("SAVEPOINT sp1")\n'
            '    conn.execute("RELEASE SAVEPOINT sp1")\n',
        )
        assert findings == []

    def test_rollback_to_counts_as_closure(self, tmp_path):
        findings = lint(
            tmp_path,
            "def f(conn):\n"
            '    conn.execute("SAVEPOINT sp1")\n'
            '    conn.execute("ROLLBACK TO sp1")\n',
        )
        assert findings == []

    def test_savepoint_name_from_constant(self, tmp_path):
        # The name flows through a module constant on both sides.
        findings = lint(
            tmp_path,
            'NAME = "sp_bulk"\n'
            "def f(conn):\n"
            '    conn.execute(f"SAVEPOINT {NAME}")\n'
            '    conn.execute(f"RELEASE SAVEPOINT {NAME}")\n',
        )
        assert findings == []

    def test_mismatched_names_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            "def f(conn):\n"
            '    conn.execute("SAVEPOINT sp_a")\n'
            '    conn.execute("RELEASE SAVEPOINT sp_b")\n',
        )
        assert rule_ids(findings) == ["NBL002"]


# ----------------------------------------------------------------------
# NBL004 — paper invariants
# ----------------------------------------------------------------------


class TestPaperInvariants:
    # The β and ε invariants are no lint rule: NebulaConfig.__post_init__
    # rejects each violation, so a bad default fails when it is first
    # instantiated (repro.config builds NEBULA_06 and NEBULA_08 at import).

    def test_beta_ordering_violation_flagged(self):
        @dataclass(frozen=True)
        class InvertedDefaults(NebulaConfig):
            beta1: float = 0.30
            beta2: float = 0.50
            beta3: float = 0.15

        with pytest.raises(ConfigurationError, match="beta1 > beta2"):
            InvertedDefaults()

    def test_construction_site_override_flagged(self):
        with pytest.raises(ConfigurationError, match="beta1 > beta2"):
            NebulaConfig(beta2=0.9)

    def test_epsilon_out_of_range_flagged(self):
        with pytest.raises(ConfigurationError, match="epsilon"):
            NebulaConfig(epsilon=1.5)

    def test_valid_defaults_clean(self):
        # The control for the three plants above: in-range overrides pass.
        assert NebulaConfig().beta1 > NebulaConfig().beta2
        assert NebulaConfig(beta2=0.4).beta2 == 0.4
        assert NebulaConfig(epsilon=1.0).epsilon == 1.0

    def test_true_edge_weight_pinned(self, tmp_path):
        findings = lint(tmp_path, "TRUE_EDGE_WEIGHT = 0.9\n")
        assert rule_ids(findings) == ["NBL004"]

    def test_true_edge_weight_exact_clean(self, tmp_path):
        findings = lint(tmp_path, "TRUE_EDGE_WEIGHT = 1.0\n")
        assert findings == []

    def test_predicted_confidence_bounds(self, tmp_path):
        findings = lint(
            tmp_path,
            "def f(m, ann, ref):\n"
            "    m.attach_predicted(ann, ref, confidence=1.0)\n"
            "    m.attach_predicted(ann, ref, confidence=0.7)\n",
        )
        assert rule_ids(findings) == ["NBL004"]
        assert findings[0].line == 2


# ----------------------------------------------------------------------
# NBL005 — span taxonomy
# ----------------------------------------------------------------------


class TestSpanRegistry:
    def test_unknown_span_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            "def f(tracer):\n"
            '    with tracer.span("stage9.mystery"):\n'
            "        pass\n",
        )
        assert rule_ids(findings) == ["NBL005"]

    def test_canonical_span_clean(self, tmp_path):
        findings = lint(
            tmp_path,
            "def f(tracer):\n"
            '    with tracer.span("analyze"):\n'
            "        pass\n",
        )
        assert findings == []

    def test_self_tracer_receiver_matched(self, tmp_path):
        findings = lint(
            tmp_path,
            "class C:\n"
            "    def f(self):\n"
            '        with self._tracer.span("nope.unknown"):\n'
            "            pass\n",
        )
        assert rule_ids(findings) == ["NBL005"]

    def test_non_tracer_receiver_not_matched(self, tmp_path):
        findings = lint(
            tmp_path,
            "def f(bridge):\n"
            '    bridge.span("whatever")\n',
        )
        assert findings == []

    @pytest.mark.parametrize(
        "name", ["service.request", "service.batch_flush", "service.recover"]
    )
    def test_service_spans_are_canonical(self, tmp_path, name):
        findings = lint(
            tmp_path,
            "def f(tracer):\n"
            f'    with tracer.span("{name}"):\n'
            "        pass\n",
        )
        assert findings == []

    def test_misspelled_service_span_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            "def f(tracer):\n"
            '    with tracer.span("service.flush_batch"):\n'
            "        pass\n",
        )
        assert rule_ids(findings) == ["NBL005"]


# ----------------------------------------------------------------------
# NBL006 — resource hygiene
# ----------------------------------------------------------------------


class TestResourceHygiene:
    def test_leaked_connection_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            "import sqlite3\n"
            "def f():\n"
            '    conn = sqlite3.connect("x.db")\n'
            '    conn.execute("SELECT 1")\n',
            rules=["NBL006"],
        )
        assert rule_ids(findings) == ["NBL006"]

    def test_closed_connection_clean(self, tmp_path):
        findings = lint(
            tmp_path,
            "import sqlite3\n"
            "def f():\n"
            '    conn = sqlite3.connect("x.db")\n'
            "    try:\n"
            '        conn.execute("SELECT 1")\n'
            "    finally:\n"
            "        conn.close()\n",
            rules=["NBL006"],
        )
        assert findings == []

    def test_with_closing_clean(self, tmp_path):
        findings = lint(
            tmp_path,
            "import sqlite3\n"
            "from contextlib import closing\n"
            "def f():\n"
            '    conn = sqlite3.connect("x.db")\n'
            "    with closing(conn):\n"
            '        conn.execute("SELECT 1")\n',
            rules=["NBL006"],
        )
        assert findings == []

    def test_returned_connection_clean(self, tmp_path):
        findings = lint(
            tmp_path,
            "import sqlite3\n"
            "def f():\n"
            '    conn = sqlite3.connect("x.db")\n'
            "    return conn\n",
            rules=["NBL006"],
        )
        assert findings == []

    def test_test_files_exempt(self, tmp_path):
        findings = lint(
            tmp_path,
            "import sqlite3\n"
            "def f():\n"
            '    conn = sqlite3.connect("x.db")\n'
            '    conn.execute("SELECT 1")\n',
            name="test_fixture.py",
        )
        assert findings == []


class TestResourceHygieneStorageLayer:
    def test_compat_connect_leak_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            "from repro.storage import compat\n"
            "def f():\n"
            '    conn = compat.connect("x.db")\n'
            '    conn.execute("SELECT 1")\n',
            rules=["NBL006"],
        )
        assert rule_ids(findings) == ["NBL006"]

    def test_unreleased_pool_lease_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            "def f(pool):\n"
            "    lease = pool.acquire()\n"
            '    lease.connection.execute("SELECT 1")\n',
            rules=["NBL006"],
        )
        assert rule_ids(findings) == ["NBL006"]
        assert findings[0].details["kind"] == "lease"

    def test_released_pool_lease_clean(self, tmp_path):
        findings = lint(
            tmp_path,
            "def f(pool):\n"
            "    lease = pool.acquire()\n"
            "    try:\n"
            '        lease.connection.execute("SELECT 1")\n'
            "    finally:\n"
            "        lease.release()\n",
            rules=["NBL006"],
        )
        assert findings == []

    def test_backend_reader_leak_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            "def f(backend):\n"
            "    reader = backend.open_reader()\n"
            '    reader.execute("SELECT 1")\n',
            rules=["NBL006"],
        )
        assert rule_ids(findings) == ["NBL006"]
        assert findings[0].details["kind"] == "reader"

    def test_lock_acquire_not_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            "def f(lock):\n"
            "    held = lock.acquire()\n"
            "    return None\n",
            rules=["NBL006"],
        )
        assert findings == []

    def test_unreleased_service_reader_handle_flagged(self, tmp_path):
        """The service's reader-ladder helpers count as openers on any
        receiver — the name alone marks a held read handle."""
        findings = lint(
            tmp_path,
            "class S:\n"
            "    def read(self):\n"
            "        handle = self._acquire_reader()\n"
            '        return handle.connection.execute("SELECT 1").fetchone()\n',
            rules=["NBL006"],
        )
        assert rule_ids(findings) == ["NBL006"]
        assert findings[0].details["kind"] == "reader"

    def test_service_reader_released_in_finally_clean(self, tmp_path):
        findings = lint(
            tmp_path,
            "class S:\n"
            "    def read(self, fn):\n"
            "        handle = self._acquire_reader()\n"
            "        try:\n"
            "            return fn(handle.connection)\n"
            "        finally:\n"
            "            handle.release()\n",
            rules=["NBL006"],
        )
        assert findings == []

    def test_public_acquire_reader_spelling_recognized(self, tmp_path):
        findings = lint(
            tmp_path,
            "def f(service):\n"
            "    handle = service.acquire_reader()\n"
            '    handle.connection.execute("SELECT 1")\n',
            rules=["NBL006"],
        )
        assert rule_ids(findings) == ["NBL006"]

    def test_attribute_handoff_escapes_the_resource(self, tmp_path):
        """Handing ``lease.connection`` / a bound ``lease.release`` to
        another component transfers cleanup ownership."""
        findings = lint(
            tmp_path,
            "def f(pool, wrap):\n"
            "    lease = pool.acquire()\n"
            "    return wrap(lease.connection, lease.release)\n",
            rules=["NBL006"],
        )
        assert findings == []


# ----------------------------------------------------------------------
# NBL007 — driver-import isolation
# ----------------------------------------------------------------------


class TestDriverIsolation:
    def test_plain_import_flagged(self, tmp_path):
        findings = lint(tmp_path, "import sqlite3\n", rules=["NBL007"])
        assert rule_ids(findings) == ["NBL007"]
        assert "repro/storage" in findings[0].message

    def test_from_import_flagged(self, tmp_path):
        findings = lint(
            tmp_path, "from sqlite3 import Connection\n", rules=["NBL007"]
        )
        assert rule_ids(findings) == ["NBL007"]

    def test_storage_package_exempt(self, tmp_path):
        package = tmp_path / "repro" / "storage"
        package.mkdir(parents=True)
        path = package / "compat.py"
        path.write_text("import sqlite3\n")
        assert analyze_paths([str(path)], rules=["NBL007"]) == []

    def test_tests_exempt(self, tmp_path):
        findings = lint(
            tmp_path, "import sqlite3\n", name="test_fixture.py", rules=["NBL007"]
        )
        assert findings == []

    def test_compat_import_clean(self, tmp_path):
        findings = lint(
            tmp_path,
            "from repro.storage.compat import Connection, connect\n",
            rules=["NBL007"],
        )
        assert findings == []


# ----------------------------------------------------------------------
# NBL008 — metric naming
# ----------------------------------------------------------------------


class TestMetricNaming:
    def test_missing_prefix_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            'def f(metrics):\n    metrics.counter("queue_depth_total").inc()\n',
            rules=["NBL008"],
        )
        assert rule_ids(findings) == ["NBL008"]
        assert "nebula_" in findings[0].message
        assert findings[0].details["metric"] == "queue_depth_total"

    def test_counter_without_total_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            'def f(metrics):\n    metrics.counter("nebula_requests").inc()\n',
            rules=["NBL008"],
        )
        assert rule_ids(findings) == ["NBL008"]
        assert "_total" in findings[0].message

    def test_gauge_ending_total_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            'def f(registry):\n    registry.gauge("nebula_depth_total").set(1)\n',
            rules=["NBL008"],
        )
        assert rule_ids(findings) == ["NBL008"]
        assert "counters only" in findings[0].message

    @pytest.mark.parametrize("suffix", ["_bucket", "_sum", "_count"])
    def test_reserved_suffixes_flagged(self, tmp_path, suffix):
        findings = lint(
            tmp_path,
            "def f(metrics):\n"
            f'    metrics.gauge("nebula_queue{suffix}").set(1)\n',
            rules=["NBL008"],
        )
        assert rule_ids(findings) == ["NBL008"]
        assert "reserves" in findings[0].message

    def test_time_histogram_without_seconds_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            "def f(metrics):\n"
            '    metrics.histogram("nebula_flush", TIME_BUCKETS).observe(0.1)\n',
            rules=["NBL008"],
        )
        assert rule_ids(findings) == ["NBL008"]
        assert "_seconds" in findings[0].message

    def test_default_buckets_histogram_needs_seconds(self, tmp_path):
        # The registry's default buckets are TIME_BUCKETS.
        findings = lint(
            tmp_path,
            'def f(metrics):\n    metrics.histogram("nebula_flush").observe(1)\n',
            rules=["NBL008"],
        )
        assert rule_ids(findings) == ["NBL008"]

    def test_count_histogram_any_suffix_clean(self, tmp_path):
        findings = lint(
            tmp_path,
            "def f(metrics):\n"
            '    metrics.histogram("nebula_batch_size", COUNT_BUCKETS)\n',
            rules=["NBL008"],
        )
        assert findings == []

    def test_conforming_names_clean(self, tmp_path):
        findings = lint(
            tmp_path,
            "def f(self, registry):\n"
            '    self.metrics.counter("nebula_requests_total").inc()\n'
            '    registry.gauge("nebula_queue_depth").set(0)\n'
            '    get_metrics().counter("nebula_retries_total").inc()\n'
            '    self.metrics.histogram("nebula_flush_seconds", TIME_BUCKETS)\n',
            rules=["NBL008"],
        )
        assert findings == []

    def test_non_registry_receiver_not_matched(self, tmp_path):
        findings = lint(
            tmp_path,
            'def f(stats):\n    stats.counter("whatever").inc()\n',
            rules=["NBL008"],
        )
        assert findings == []

    def test_dynamic_name_not_matched(self, tmp_path):
        findings = lint(
            tmp_path,
            "def f(metrics, name):\n    metrics.gauge(name).set(1)\n",
            rules=["NBL008"],
        )
        assert findings == []

    def test_inline_ignore_suppresses(self, tmp_path):
        findings = lint(
            tmp_path,
            "def f(metrics):\n"
            '    metrics.counter("legacy_name")  # nebula-lint: ignore[NBL008]\n',
            rules=["NBL008"],
        )
        assert findings == []

    def test_tests_exempt(self, tmp_path):
        findings = lint(
            tmp_path,
            'def f(metrics):\n    metrics.counter("anything")\n',
            name="test_fixture.py",
            rules=["NBL008"],
        )
        assert findings == []


# ----------------------------------------------------------------------
# NBL013 — versioned-table write discipline
# ----------------------------------------------------------------------


class TestVersionedWrites:
    def test_update_head_table_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            "def f(conn, aid):\n"
            '    conn.execute("UPDATE _nebula_annotations SET content = ? '
            'WHERE annotation_id = ?", ("x", aid))\n',
            rules=["NBL013"],
        )
        assert rule_ids(findings) == ["NBL013"]
        assert findings[0].details["table"] == "_nebula_annotations"

    def test_delete_head_table_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            "def f(conn, aid):\n"
            '    conn.execute("DELETE FROM _nebula_attachments '
            'WHERE attachment_id = ?", (aid,))\n',
            rules=["NBL013"],
        )
        assert rule_ids(findings) == ["NBL013"]
        assert findings[0].details["table"] == "_nebula_attachments"

    def test_replace_into_flagged(self, tmp_path):
        # REPLACE is an implicit DELETE: it drops the old row without a
        # tombstone in the history log.
        findings = lint(
            tmp_path,
            "def f(conn, row):\n"
            '    conn.execute("INSERT OR REPLACE INTO _nebula_annotations '
            'VALUES (?, ?, ?, ?)", row)\n',
            rules=["NBL013"],
        )
        assert rule_ids(findings) == ["NBL013"]

    def test_composed_constant_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            '_SQL = "DELETE FROM " + "_nebula_annotations" + '
            '" WHERE annotation_id = ?"\n'
            "def f(conn, aid):\n"
            "    conn.execute(_SQL, (aid,))\n",
            rules=["NBL013"],
        )
        assert rule_ids(findings) == ["NBL013"]

    def test_versioning_package_exempt(self, tmp_path):
        target = tmp_path / "repro" / "versioning"
        target.mkdir(parents=True)
        path = target / "writer.py"
        path.write_text(
            "def f(conn, aid):\n"
            '    conn.execute("DELETE FROM _nebula_attachments '
            'WHERE attachment_id = ?", (aid,))\n'
        )
        assert analyze_paths([str(path)], rules=["NBL013"]) == []

    def test_tests_exempt(self, tmp_path):
        findings = lint(
            tmp_path,
            "def corrupt_head(conn):\n"
            '    conn.execute("DELETE FROM _nebula_annotations")\n',
            name="test_recovery.py",
            rules=["NBL013"],
        )
        assert findings == []

    def test_reads_and_plain_inserts_clean(self, tmp_path):
        findings = lint(
            tmp_path,
            "def f(conn, row):\n"
            '    conn.execute("SELECT content FROM _nebula_annotations")\n'
            '    conn.execute("INSERT INTO _nebula_annotations VALUES '
            '(?, ?, ?, ?)", row)\n',
            rules=["NBL013"],
        )
        assert findings == []

    def test_history_and_operational_tables_clean(self, tmp_path):
        # The singular *_history names share the head-table prefix but
        # must not match; operational tables stay freely mutable.
        findings = lint(
            tmp_path,
            "def f(conn, cid, tid):\n"
            '    conn.execute("DELETE FROM _nebula_annotation_history '
            'WHERE commit_id = ?", (cid,))\n'
            '    conn.execute("UPDATE _nebula_verification_tasks SET '
            "status = 'verified' WHERE task_id = ?\", (tid,))\n",
            rules=["NBL013"],
        )
        assert findings == []

    def test_inline_ignore_suppresses(self, tmp_path):
        findings = lint(
            tmp_path,
            "def f(conn):\n"
            '    conn.execute("DELETE FROM _nebula_annotations")'
            "  # nebula-lint: ignore[NBL013]\n",
            rules=["NBL013"],
        )
        assert findings == []

    def test_fixture_modules(self):
        import os

        fixtures = os.path.join(
            os.path.dirname(os.path.abspath(__file__)), "fixtures", "versioning"
        )
        bad = analyze_paths(
            [os.path.join(fixtures, "bad_versioned_write.py")], rules=["NBL013"]
        )
        assert len(bad) == 4
        assert {f.rule_id for f in bad} == {"NBL013"}
        good = analyze_paths(
            [os.path.join(fixtures, "good_versioned_write.py")], rules=["NBL013"]
        )
        assert good == []


# ----------------------------------------------------------------------
# Engine behaviors
# ----------------------------------------------------------------------


class TestEngine:
    def test_unknown_rule_id_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            lint(tmp_path, "x = 1\n", rules=["NBL999"])

    def test_rule_filter_restricts(self, tmp_path):
        source = (
            "import sqlite3\n"
            "def f(conn, w):\n"
            '    conn.execute(f"SELECT {w}")\n'
            "def g():\n"
            '    c = sqlite3.connect("x.db")\n'
            '    c.execute("SELECT 1")\n'
        )
        only_sql = lint(tmp_path, source, rules=["NBL001"])
        assert rule_ids(only_sql) == ["NBL001"]

    def test_syntax_error_raises(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def f(:\n")
        with pytest.raises(AnalysisError):
            analyze_paths([str(path)])

    def test_findings_sorted_and_serializable(self, tmp_path):
        findings = lint(
            tmp_path,
            "def f(conn, a, b):\n"
            '    conn.execute(f"SELECT {b}")\n'
            '    conn.execute(f"SELECT {a}")\n',
        )
        assert [f.line for f in findings] == [2, 3]
        payload = json.dumps([f.to_dict() for f in findings])
        assert "NBL001" in payload


# ----------------------------------------------------------------------
# Baseline workflow
# ----------------------------------------------------------------------


class TestBaseline:
    SOURCE = (
        "def f(conn, w):\n"
        '    conn.execute(f"SELECT * FROM t WHERE {w}")\n'
    )

    def test_baseline_round_trip(self, tmp_path):
        findings = lint(tmp_path, self.SOURCE)
        assert len(findings) == 1
        baseline_path = tmp_path / "baseline.json"
        write_baseline(str(baseline_path), findings)
        baseline = load_baseline(str(baseline_path))
        assert apply_baseline(findings, baseline) == []

    def test_fingerprint_survives_line_shift(self, tmp_path):
        findings = lint(tmp_path, self.SOURCE)
        baseline_path = tmp_path / "baseline.json"
        write_baseline(str(baseline_path), findings)
        shifted = lint(tmp_path, "# a new comment above\n\n" + self.SOURCE)
        assert shifted[0].line != findings[0].line
        baseline = load_baseline(str(baseline_path))
        assert apply_baseline(shifted, baseline) == []

    def test_new_finding_not_absorbed(self, tmp_path):
        findings = lint(tmp_path, self.SOURCE)
        baseline_path = tmp_path / "baseline.json"
        write_baseline(str(baseline_path), findings)
        grown = lint(
            tmp_path,
            self.SOURCE + '    conn.execute(f"DELETE FROM t WHERE {w}")\n',
        )
        baseline = load_baseline(str(baseline_path))
        fresh = apply_baseline(grown, baseline)
        assert len(fresh) == 1
        assert "DELETE" in fresh[0].snippet

    def test_cli_baseline_flow(self, tmp_path, capsys):
        source_path = tmp_path / "mod.py"
        source_path.write_text(self.SOURCE)
        baseline_path = tmp_path / "b.json"
        assert lint_main(
            [str(source_path), "--write-baseline", str(baseline_path)]
        ) == 0
        assert lint_main([str(source_path), "--baseline", str(baseline_path)]) == 0
        # --strict ignores the baseline.
        assert lint_main(
            [str(source_path), "--baseline", str(baseline_path), "--strict"]
        ) == 1
