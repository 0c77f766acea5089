"""The append-only versioned annotation store (ISSUE 10).

Covers the commit log's lifecycle and history appends, head/log parity
and recovery, the time-travel property (``as_of`` at *every* commit id
reproduces the exact historical state), the migration chain round-trip,
snapshot-consistent service reads, and dead-letter commit stamping.
"""

import random
import sqlite3
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    Nebula,
    NebulaConfig,
    SqliteFileBackend,
    generate_bio_database,
    get_backend,
)
from repro.annotations.engine import AnnotationManager
from repro.annotations.rules import RuleEngine
from repro.annotations.store import AnnotationStore, AttachmentKind
from repro.core.acg import AnnotationsConnectivityGraph, PersistentHopProfile
from repro.core.verification import VerificationQueue
from repro.datagen.biodb import BioDatabaseSpec
from repro.errors import (
    MigrationError,
    UnknownAnnotationError,
    UnknownCommitError,
    VersioningError,
)
from repro.observability import MetricsRegistry, set_metrics
from repro.resilience import DeadLetterQueue
from repro.service import AnnotationService, ServiceConfig
from repro.types import CellRef, TupleRef
from repro.versioning import (
    BASELINE_REVISION,
    CommitLog,
    MIGRATIONS,
    MigrationRunner,
    ensure_schema,
    timetravel,
)
from repro.versioning.schema import LEGACY_DDL

from conftest import build_figure1_connection, build_figure1_meta


@pytest.fixture
def store(figure1_connection):
    return AnnotationStore(figure1_connection)


@pytest.fixture
def log(store):
    return store.versioning


@pytest.fixture()
def metrics():
    registry = MetricsRegistry()
    previous = set_metrics(registry)
    yield registry
    set_metrics(previous)


# ----------------------------------------------------------------------
# Commit lifecycle
# ----------------------------------------------------------------------


class TestCommitLifecycle:
    def test_begin_finish(self, log):
        commit_id = log.begin("ingest", author="alice")
        assert log.active_commit == commit_id
        assert log.finish() == commit_id
        assert log.active_commit is None
        commit = log.get_commit(commit_id)
        assert commit.kind == "ingest"
        assert commit.author == "alice"

    def test_double_begin_rejected(self, log):
        log.begin("ingest")
        with pytest.raises(VersioningError):
            log.begin("batch")
        log.finish()

    def test_unknown_kind_rejected(self, log):
        with pytest.raises(VersioningError):
            log.begin("banana")

    def test_abandon_clears_pointer(self, log):
        log.begin("ingest")
        log.abandon()
        assert log.active_commit is None

    def test_commit_scope_abandons_on_error(self, log):
        with pytest.raises(RuntimeError):
            with log.commit_scope("ingest"):
                raise RuntimeError("boom")
        assert log.active_commit is None

    def test_scope_joins_open_commit(self, log):
        with log.commit_scope("batch") as outer:
            with log.scope("ingest") as joined:
                assert joined == outer
            # Joining must not close the enclosing commit.
            assert log.active_commit == outer
        assert log.active_commit is None
        # The would-be inner kind was never recorded.
        assert [c.kind for c in log.commits()] == ["batch"]

    def test_scope_opens_when_none_active(self, log):
        with log.scope("verify", note="task:1") as commit_id:
            assert log.active_commit == commit_id
        assert log.get_commit(commit_id).note == "task:1"

    def test_head_and_count(self, log):
        assert log.head() is None
        assert log.count_commits() == 0
        first = log.begin("ingest")
        log.finish()
        second = log.begin("ingest")
        log.finish()
        assert second > first
        assert log.head() == second
        assert log.count_commits() == 2

    def test_unknown_commit_raises(self, log):
        with pytest.raises(UnknownCommitError):
            log.get_commit(999)

    def test_commits_newest_first_with_limit(self, log):
        for _ in range(3):
            log.begin("ingest")
            log.finish()
        listed = log.commits(limit=2)
        assert len(listed) == 2
        assert listed[0].commit_id > listed[1].commit_id

    def test_commit_counter_incremented(self, log, metrics):
        log.begin("ingest")
        log.finish()
        key = 'nebula_commits_total{kind="ingest"}'
        assert metrics.snapshot()["counters"][key] == 1


# ----------------------------------------------------------------------
# History appends through the store
# ----------------------------------------------------------------------


def _history_ops(connection, annotation_id):
    return [
        (row[1], row[2])  # (commit_id, op)
        for row in timetravel.annotation_history_rows(connection, annotation_id)
    ]


class TestHistoryAppends:
    def test_direct_store_use_gets_auto_commits(self, store, log):
        annotation = store.insert_annotation("standalone", author="z")
        assert log.head() is not None
        commit = log.get_commit(log.head())
        assert commit.kind == "auto"
        ops = _history_ops(store.connection, annotation.annotation_id)
        assert [op for _, op in ops] == ["insert"]

    def test_attach_promote_detach_logged(self, store, log):
        annotation = store.insert_annotation("edges")
        edge = store.attach(
            annotation.annotation_id,
            CellRef("Gene", 1),
            confidence=0.7,
            kind=AttachmentKind.PREDICTED,
        )
        store.promote(edge.attachment_id)
        assert store.detach(edge.attachment_id)
        rows = timetravel.attachment_history_rows(
            store.connection, annotation.annotation_id
        )
        assert [str(r[2]) for r in rows] == ["insert", "update", "delete"]
        # The tombstone preserves the final column values for the audit.
        assert rows[-1][4] == "Gene"
        assert float(rows[-1][8]) == 1.0

    def test_promote_missing_edge_returns_false(self, log):
        assert log.promote_attachment(12345) is False

    def test_delete_missing_edge_returns_false(self, log):
        assert log.delete_attachment(12345) is False

    def test_bulk_insert_addresses_rows_by_primary_key(self, store, log):
        """The read-back and the history append of a bulk insert find the
        new rows through the primary key, not a scan of the whole table."""
        store.insert_annotation("already there")
        statements = []
        store.connection.set_trace_callback(statements.append)
        try:
            with log.commit_scope("batch"):
                added = store.bulk_insert_annotations([("one", None), ("two", "z")])
        finally:
            store.connection.set_trace_callback(None)
        assert [a.content for a in added] == ["one", "two"]
        lookups = [s for s in statements if "FROM _nebula_annotations WHERE" in s]
        assert len(lookups) == 2
        for sql in lookups:
            plan = " ".join(
                str(row[3])
                for row in store.connection.execute(
                    "EXPLAIN QUERY PLAN " + sql, (None,) * sql.count("?")
                )
            )
            assert "USING INTEGER PRIMARY KEY" in plan, plan
            assert "SCAN _nebula_annotations" not in plan, plan

    def test_scoped_mutations_share_one_commit(self, store, log):
        with log.commit_scope("batch") as commit_id:
            a = store.insert_annotation("one")
            b = store.insert_annotation("two")
            store.attach(a.annotation_id, CellRef("Gene", 2))
        for annotation_id in (a.annotation_id, b.annotation_id):
            assert _history_ops(store.connection, annotation_id) == [
                (commit_id, "insert")
            ]


# ----------------------------------------------------------------------
# Head/log parity and recovery
# ----------------------------------------------------------------------

#: The annotatable tables of the Figure-1 world and their row counts.
_TABLE_ROWS = (("Gene", 7), ("Protein", 3))

#: A column of each table for cell and column-level edges.
_COLUMNS = {"Gene": "Family", "Protein": "PType"}

_AUTHORS = (None, "ann", "bob")

#: Store operations of the differential test; each draws two integers
#: that pick its target and its values.
_STORE_OPS = (
    "insert", "bulk", "attach", "attach_range", "table_edge", "promote", "detach",
)

#: Torn states the parity check must see: the head loses a row, gains a
#: row with no history, or differs in one column; the history gains a
#: tombstone the head did not apply, or loses a row; a head attachment
#: moves to another id with its content unchanged.
_TEARS = (
    "drop_head_row",
    "stray_head_row",
    "change_head_column",
    "tombstone",
    "drop_history_row",
    "reid_attachment",
)

#: Tears that leave the history as it was.
_HEAD_SIDE_TEARS = frozenset(
    {"drop_head_row", "stray_head_row", "change_head_column", "reid_attachment"}
)

#: Per head table: its id column, its history table, and each column a
#: tear may change, with the statement's new value (NULL <-> value for
#: the nullable ones).
_HEAD_TABLES = {
    "_nebula_annotations": (
        "annotation_id",
        "_nebula_annotation_history",
        {
            "content": "content || ' (torn)'",
            "author": "CASE WHEN author IS NULL THEN 'eve' ELSE NULL END",
            "created_seq": "created_seq + 1000",
        },
    ),
    "_nebula_attachments": (
        "attachment_id",
        "_nebula_attachment_history",
        {
            "annotation_id": "annotation_id + 1000",
            "target_table": "CASE target_table WHEN 'Gene' THEN 'Protein' "
            "ELSE 'Gene' END",
            "target_rowid": "CASE WHEN target_rowid IS NULL THEN 1 ELSE NULL END",
            "target_rowid_hi": "CASE WHEN target_rowid_hi IS NULL THEN 99 "
            "ELSE NULL END",
            "target_column": "CASE WHEN target_column IS NULL THEN 'Family' "
            "ELSE NULL END",
            "confidence": "CASE WHEN confidence = 0.5 THEN 0.25 ELSE 0.5 END",
            "kind": "CASE kind WHEN 'true' THEN 'predicted' ELSE 'true' END",
        },
    ),
}

_HISTORY_COLUMNS = {
    "_nebula_annotation_history": "annotation_id, content, author, created_seq",
    "_nebula_attachment_history": (
        "attachment_id, annotation_id, target_table, target_rowid, "
        "target_rowid_hi, target_column, confidence, kind"
    ),
}


def _ids(connection, table, column):
    return [
        int(row[0])
        for row in connection.execute(
            f"SELECT {column} FROM {table} ORDER BY {column}"
        ).fetchall()
    ]


def _run_store_ops(store, ops):
    """Apply the drawn operations; an op with no target is skipped."""
    connection = store.connection
    for step, (op, pick, value) in enumerate(ops):
        annotations = _ids(connection, "_nebula_annotations", "annotation_id")
        table, rows = _TABLE_ROWS[value % 2]
        if op == "insert" or not annotations:
            store.insert_annotation(f"note {step}", author=_AUTHORS[value % 3])
        elif op == "bulk":
            store.bulk_insert_annotations(
                [
                    (f"bulk {step}.{i}", _AUTHORS[(value + i) % 3])
                    for i in range(1 + pick % 3)
                ]
            )
        elif op in ("attach", "table_edge"):
            predicted = value % 3 == 0
            store.attach(
                annotations[pick % len(annotations)],
                CellRef(
                    table,
                    None if op == "table_edge" else 1 + pick % rows,
                    _COLUMNS[table] if value % 4 == 1 else None,
                ),
                confidence=round(0.1 + (value % 8) / 10, 1),
                kind=AttachmentKind.PREDICTED if predicted else AttachmentKind.TRUE,
            )
        elif op == "attach_range":
            low = 1 + pick % (rows - 1)
            store.attach_range(
                annotations[pick % len(annotations)],
                table,
                low,
                low + 1 + value % (rows - low),
                column=_COLUMNS[table] if value % 2 else None,
            )
        else:
            kind = "predicted" if op == "promote" else None
            edges = [
                int(row[0])
                for row in connection.execute(
                    "SELECT attachment_id FROM _nebula_attachments "
                    "WHERE ? IS NULL OR kind = ? ORDER BY attachment_id",
                    (kind, kind),
                ).fetchall()
            ]
            if not edges:
                continue
            if op == "promote":
                store.promote(edges[pick % len(edges)])
            else:
                store.detach(edges[pick % len(edges)])


def _plant_tear(connection, tear, pick, value):
    """Tear the head or the history apart in one statement, if possible."""
    if tear == "reid_attachment" or value % 2:
        head = "_nebula_attachments"
    else:
        head = "_nebula_annotations"
    id_column, history, changes = _HEAD_TABLES[head]
    if tear == "stray_head_row":
        if head == "_nebula_annotations":
            connection.execute(
                "INSERT INTO _nebula_annotations (content, author, created_seq) "
                "VALUES ('stray', NULL, 100000)"
            )
        else:
            connection.execute(
                "INSERT INTO _nebula_attachments (annotation_id, target_table, "
                "target_rowid, confidence, kind) VALUES (?, 'Gene', ?, 0.5, "
                "'predicted')",
                (1 + pick % 5, 1 + value % 7),
            )
        return
    if tear == "drop_history_row":
        versions = _ids(connection, history, "history_id")
        if versions:
            connection.execute(
                f"DELETE FROM {history} WHERE history_id = ?",
                (versions[pick % len(versions)],),
            )
        return
    ids = _ids(connection, head, id_column)
    if not ids:
        return
    victim = ids[pick % len(ids)]
    if tear == "drop_head_row":
        connection.execute(f"DELETE FROM {head} WHERE {id_column} = ?", (victim,))
    elif tear == "change_head_column":
        column = sorted(changes)[value // 2 % len(changes)]
        try:
            connection.execute(
                f"UPDATE {head} SET {column} = {changes[column]} "
                f"WHERE {id_column} = ?",
                (victim,),
            )
        except sqlite3.IntegrityError:
            pass  # the new value would duplicate another edge: no tear
    elif tear == "tombstone":
        columns = _HISTORY_COLUMNS[history]
        connection.execute(
            f"INSERT INTO {history} (commit_id, op, {columns}) "
            f"SELECT (SELECT MAX(commit_id) FROM _nebula_commits), 'delete', "
            f"{columns} FROM {head} WHERE {id_column} = ?",
            (victim,),
        )
    else:  # reid_attachment: same edge, an id no version has used
        connection.execute(
            "UPDATE _nebula_attachments SET attachment_id = "
            "(SELECT MAX(attachment_id) FROM _nebula_attachment_history) + 1 "
            "WHERE attachment_id = ?",
            (victim,),
        )


def _content_check(connection):
    """The content-keyed reference: head and views as sorted multisets."""
    return timetravel.head_fingerprint(connection) == timetravel.state_fingerprint(
        connection
    )



class TestHeadParity:
    def test_healthy_store_verifies(self, store, log):
        a = store.insert_annotation("healthy")
        store.attach(a.annotation_id, CellRef("Gene", 1))
        assert log.verify_head() is True

    def test_corrupted_head_detected_and_restored(self, store, log):
        a = store.insert_annotation("victim", author="v")
        store.attach(a.annotation_id, CellRef("Gene", 3))
        expected = timetravel.head_fingerprint(store.connection)
        # Simulate torn state: the head loses rows the log still holds.
        store.connection.execute("DELETE FROM _nebula_attachments")
        store.connection.execute("DELETE FROM _nebula_annotations")
        assert log.verify_head() is False
        log.restore_head()
        assert log.verify_head() is True
        assert timetravel.head_fingerprint(store.connection) == expected

    def test_restore_respects_tombstones(self, store, log):
        a = store.insert_annotation("kept")
        edge = store.attach(a.annotation_id, CellRef("Gene", 1))
        store.detach(edge.attachment_id)
        log.restore_head()
        assert store.count_attachments() == 0
        assert store.count_annotations() == 1

    @settings(max_examples=60, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(_STORE_OPS),
                st.integers(0, 10**6),
                st.integers(0, 10**6),
            ),
            max_size=16,
        ),
        tear=st.none()
        | st.tuples(
            st.sampled_from(_TEARS), st.integers(0, 10**6), st.integers(0, 10**6)
        ),
    )
    def test_keyed_check_agrees_with_the_content_check(self, ops, tear):
        """Differential: after random store operations and at most one
        planted tear, the keyed check reads what the content-keyed
        fingerprint comparison reads, except that an attachment moved to
        another id is torn for the keyed check only; ``restore_head()``
        heals every tear."""
        backend = SqliteFileBackend.temporary()
        try:
            store = AnnotationStore(build_figure1_connection(backend.primary))
            log = store.versioning
            connection = store.connection
            _run_store_ops(store, ops)
            before = timetravel.head_fingerprint(connection)
            assert log.verify_head() is True
            assert _content_check(connection) is True
            if tear is None:
                return
            kind, pick, value = tear
            _plant_tear(connection, kind, pick, value)
            if kind == "reid_attachment" and before[1]:
                assert _content_check(connection) is True
                assert log.verify_head() is False
            else:
                assert log.verify_head() is _content_check(connection)
            log.restore_head()
            assert log.verify_head() is True
            assert _content_check(connection) is True
            if kind in _HEAD_SIDE_TEARS:
                assert timetravel.head_fingerprint(connection) == before
        finally:
            backend.close()

    def test_verify_head_walks_each_entity_by_key(self, store, log):
        """The check is four counts: each scans its driving table once
        and searches for everything else; none reads a ``*_current`` view,
        materializes a subquery or sorts."""
        a = store.insert_annotation("keyed", author="k")
        store.attach(a.annotation_id, CellRef("Gene", 2))
        store.attach_range(a.annotation_id, "Gene", 3, 5)
        connection = store.connection
        statements = []
        connection.set_trace_callback(statements.append)
        try:
            assert log.verify_head() is True
        finally:
            connection.set_trace_callback(None)
        assert len(statements) == 4, statements
        for sql in statements:
            assert sql.startswith("SELECT COUNT(*) FROM"), sql
            assert "_current" not in sql, sql
            lines = [
                str(row[3])
                for row in connection.execute("EXPLAIN QUERY PLAN " + sql)
            ]
            assert not [
                line for line in lines
                if "MATERIALIZE" in line or "USE TEMP B-TREE" in line
            ], lines
            scans = [line for line in lines if line.startswith("SCAN")]
            assert len(scans) == 1, lines
            rest = [line for line in lines if line not in scans]
            assert rest and all(
                line.startswith(("SEARCH", "CORRELATED SCALAR SUBQUERY"))
                for line in rest
            ), lines


# ----------------------------------------------------------------------
# Time travel: the core property
# ----------------------------------------------------------------------

_ATTACHMENT_COLUMNS = (
    "attachment_id, annotation_id, target_table, target_rowid, "
    "target_rowid_hi, target_column, confidence, kind"
)

#: View-form references of the entity-addressed ``as_of`` statements:
#: the ``*_current`` reconstruction pinned to a commit, then filtered.
_REFERENCE_GET_ANNOTATION = (
    "SELECT annotation_id, content, author, created_seq "
    "FROM " + timetravel.ANNOTATIONS_AS_OF + " WHERE annotation_id = ?"
)
_REFERENCE_ATTACHMENTS_OF = (
    "SELECT " + _ATTACHMENT_COLUMNS + " FROM " + timetravel.ATTACHMENTS_AS_OF
    + " WHERE annotation_id = ? ORDER BY attachment_id"
)
#: The edges that apply to a row: rowless edges, and the edges whose
#: row or range covers it.
_COVERS_ROW = (
    "(target_rowid IS NULL OR (target_rowid <= ? "
    "AND ? <= COALESCE(target_rowid_hi, target_rowid)))"
)
_REFERENCE_ATTACHMENTS_ON_ROW = (
    "SELECT " + _ATTACHMENT_COLUMNS + " FROM " + timetravel.ATTACHMENTS_AS_OF
    + " WHERE target_table = ? AND " + _COVERS_ROW + " "
    "AND (? IS NULL OR target_column = ? OR target_column IS NULL) "
    "ORDER BY attachment_id"
)
_REFERENCE_TUPLE_READ = (
    "SELECT a.annotation_id, a.content, t.confidence, t.kind "
    "FROM " + timetravel.ANNOTATIONS_AS_OF + " AS a "
    "JOIN " + timetravel.ATTACHMENTS_AS_OF + " AS t "
    "ON t.annotation_id = a.annotation_id "
    "WHERE t.target_table = ? AND " + _COVERS_ROW + " "
    "ORDER BY t.confidence DESC, a.annotation_id, t.attachment_id"
)
_REFERENCE_PENDING_TASKS = (
    "SELECT task_id, annotation_id, target_table, target_rowid, confidence "
    "FROM _nebula_verification_tasks WHERE status = 'pending' "
    "AND annotation_id IN (SELECT annotation_id FROM "
    + timetravel.ANNOTATIONS_AS_OF + ") "
    "ORDER BY confidence DESC, task_id LIMIT ?"
)


#: Annotation ids the reads probe: every id the 80-step sequence can
#: create, so early commits also probe ids not yet inserted.
_ANNOTATION_PROBES = range(1, 82)


def _entity_reads(store, as_of=None):
    """Every entity-addressed read of the world, at the head or a pin."""
    connection = store.connection
    found = {}
    for annotation_id in _ANNOTATION_PROBES:
        try:
            found[annotation_id] = store.get_annotation(annotation_id, as_of=as_of)
        except UnknownAnnotationError:
            found[annotation_id] = None
    answers = {
        "get_annotation": found,
        "attachments_of": [
            store.attachments_of(i, as_of=as_of) for i in _ANNOTATION_PROBES
        ],
    }
    for table, rows in _TABLE_ROWS:
        column = _COLUMNS[table]
        answers[table] = store.attachments_on(table, as_of=as_of)
        for rowid in range(1, rows + 1):
            answers[(table, rowid)] = (
                store.attachments_on(table, rowid, as_of=as_of),
                store.attachments_on(table, rowid, column, as_of=as_of),
                timetravel.annotations_on_row(connection, table, rowid, as_of),
            )
    return answers


def _seed_tasks(connection, annotation_ids, rng):
    """Verification tasks on ``annotation_ids``, some already decided."""
    connection.executemany(
        "INSERT INTO _nebula_verification_tasks (annotation_id, target_table, "
        "target_rowid, confidence, evidence, status) "
        "VALUES (?, 'Gene', ?, ?, 'e', ?)",
        [
            (
                annotation_id,
                rng.randint(1, 7),
                round(rng.uniform(0.1, 0.9), 1),
                rng.choice(["pending", "pending", "verified"]),
            )
            for annotation_id in annotation_ids
            for _ in range(2)
        ],
    )


def _assert_matches_view_form(connection, pin):
    """Each entity-addressed statement equals its view-form reference."""
    for annotation_id in _ANNOTATION_PROBES:
        assert timetravel.get_annotation_row(
            connection, annotation_id, pin
        ) == connection.execute(
            _REFERENCE_GET_ANNOTATION, (pin, annotation_id)
        ).fetchone()
        assert timetravel.attachments_of_rows(
            connection, annotation_id, pin
        ) == connection.execute(
            _REFERENCE_ATTACHMENTS_OF, (pin, annotation_id)
        ).fetchall()
    for table, rows in _TABLE_ROWS:
        for rowid in range(1, rows + 1):
            for column in (None, _COLUMNS[table]):
                assert timetravel.attachments_on_row(
                    connection, table, rowid, column, pin
                ) == connection.execute(
                    _REFERENCE_ATTACHMENTS_ON_ROW,
                    (pin, table, rowid, rowid, column, column),
                ).fetchall(), (pin, table, rowid, column)
            assert timetravel.annotations_on_row(
                connection, table, rowid, pin
            ) == connection.execute(
                _REFERENCE_TUPLE_READ, (pin, pin, table, rowid, rowid)
            ).fetchall()
    for limit in (-1, 3):
        assert connection.execute(
            timetravel.PENDING_TASKS_AS_OF, {"pin": pin, "limit": limit}
        ).fetchall() == connection.execute(
            _REFERENCE_PENDING_TASKS, (pin, limit)
        ).fetchall()



class TestTimeTravel:
    def test_as_of_reads_pin_history(self, store, log):
        first = store.insert_annotation("v1", author="a")
        pin = log.head()
        store.attach(first.annotation_id, CellRef("Gene", 1))
        second = store.insert_annotation("v2")
        # Pinned reads see exactly the pre-attachment world.
        assert timetravel.count_annotations(store.connection, pin) == 1
        assert timetravel.attachments_of_rows(
            store.connection, first.annotation_id, pin
        ) == []
        row = timetravel.get_annotation_row(
            store.connection, first.annotation_id, pin
        )
        assert row[1] == "v1"
        assert (
            timetravel.get_annotation_row(
                store.connection, second.annotation_id, pin
            )
            is None
        )

    def test_pinned_reads_search_the_requested_entity(self, store, log):
        """A pinned read of one annotation reaches the history through
        ``_by_entity``; the edges that apply to a row are one statement
        in either form of either reader (the store's row read, the
        service's tuple read), and every one of its three arms searches
        its key: ``_by_target`` for the exact and rowless arms, the
        partial ``_by_range`` index for the covering ranges.  No table
        is scanned, and only the ``ORDER BY`` sorts."""
        a = store.insert_annotation("pinned")
        store.attach(a.annotation_id, CellRef("Gene", 2))
        store.attach(a.annotation_id, CellRef("Gene", None))
        store.attach_range(a.annotation_id, "Gene", 1, 4)
        pin = log.head()
        connection = store.connection
        params = {
            "pin": pin,
            "table": "Gene",
            "rowid": 2,
            "annotation_id": a.annotation_id,
            "column": None,
        }

        def traced(read):
            statements = []
            connection.set_trace_callback(statements.append)
            try:
                read()
            finally:
                connection.set_trace_callback(None)
            return statements

        def plan(sql):
            # A traced statement shows either the bound values inline or
            # the named parameters; bind them for the latter.
            return [
                str(row[3])
                for row in connection.execute("EXPLAIN QUERY PLAN " + sql, params)
            ]

        (annotation_read,) = traced(
            lambda: timetravel.get_annotation_row(connection, a.annotation_id, pin)
        )
        lines = plan(annotation_read)
        assert any(
            line.startswith("SEARCH") and "_nebula_annotation_history_by_entity" in line
            for line in lines
        ), lines
        assert not [line for line in lines if line.startswith("SCAN")], lines

        # At a pin every arm finds its edges' visible versions through
        # ``…_by_entity`` (the versions of one entity, not every commit up
        # to the pin), and the tuple read its annotations' versions too.
        attachment_version = "_nebula_attachment_history_by_entity"
        annotation_version = "_nebula_annotation_history_by_entity"
        for as_of, table in ((None, "_nebula_attachments"),
                             (pin, "_nebula_attachment_history")):
            for read, versions in (
                (lambda: timetravel.attachments_on_row(connection, "Gene", 2, None, as_of),
                 [attachment_version]),
                (lambda: timetravel.annotations_on_row(connection, "Gene", 2, as_of),
                 [attachment_version, annotation_version]),
            ):
                (statement,) = traced(read)
                lines = plan(statement)
                assert not [line for line in lines if line.startswith("SCAN")], lines
                sorts = [line for line in lines if "TEMP B-TREE" in line]
                assert all(line == "USE TEMP B-TREE FOR ORDER BY" for line in sorts), lines
                arms = [
                    line for line in lines
                    if line.startswith("SEARCH h USING INDEX " + table + "_by_")
                ]
                assert [line.split(" (")[0].rsplit("_by_", 1)[1] for line in arms] == [
                    "target", "target", "range"
                ], lines
                searched = sorted(
                    line.partition("INDEX ")[2].split(" ")[0] for line in lines
                    if line.startswith("SEARCH _nebula_")
                )
                expected = [] if as_of is None else sorted(versions * len(arms))
                assert searched == expected, lines

    @settings(max_examples=25, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(_STORE_OPS),
                st.integers(0, 10**6),
                st.integers(0, 10**6),
            ),
            min_size=1,
            max_size=14,
        )
    )
    def test_service_reads_what_the_store_reads(self, ops):
        """Differential: after random store operations over exact, cell,
        column-level, table-level and range edges, promotes and
        detaches, the service's tuple read at the head and at every
        commit equals the store's row read joined with content, in the
        service's order; and the store's row read equals the view-form
        coverage reference."""
        backend = SqliteFileBackend.temporary()
        try:
            build_figure1_connection(backend.primary)
            nebula = Nebula(backend, build_figure1_meta(), NebulaConfig(epsilon=0.6))
            store = nebula.manager.store
            connection = store.connection
            pins = []
            for op in ops:
                _run_store_ops(store, [op])
                connection.commit()
                pins.append(store.versioning.head())
            service = AnnotationService(nebula)
            for as_of in [None, *dict.fromkeys(pins)]:
                pin = pins[-1] if as_of is None else as_of
                for table, rows in _TABLE_ROWS:
                    for rowid in range(1, rows + 1):
                        edges = store.attachments_on(table, rowid, as_of=as_of)
                        assert [
                            (a.attachment_id, a.annotation_id, a.table, a.rowid,
                             a.rowid_hi, a.column, a.confidence, a.kind.value)
                            for a in edges
                        ] == connection.execute(
                            _REFERENCE_ATTACHMENTS_ON_ROW,
                            (pin, table, rowid, rowid, None, None),
                        ).fetchall(), (as_of, table, rowid)
                        ordered = sorted(
                            edges,
                            key=lambda a: (-a.confidence, a.annotation_id, a.attachment_id),
                        )
                        assert service.annotations_for(table, rowid, as_of=as_of) == [
                            (
                                a.annotation_id,
                                store.get_annotation(a.annotation_id, as_of=as_of).content,
                                a.confidence,
                                a.kind.value,
                            )
                            for a in ordered
                        ], (as_of, table, rowid)
        finally:
            backend.close()

    def test_every_commit_reproduces_historical_state(self, store, log):
        """The acceptance property: ``as_of=<every commit id>`` exactly
        reproduces the state captured right after that commit, under a
        randomized mutation sequence of row, cell, column-level,
        table-level and range edges.  Both whole-state fingerprints and
        every entity-addressed read (one annotation, its edges, the edges
        on a row / a cell / a table, the service's tuple read) must
        reproduce the head's answers; at random pins each entity-addressed
        statement must also equal its view-form reference."""
        rng = random.Random(1234)
        connection = store.connection
        edges = []
        annotations = []
        captured = {}  # commit id -> head fingerprint at that moment
        reads = {}  # commit id -> the head's entity-addressed answers

        def checkpoint():
            captured[log.head()] = timetravel.head_fingerprint(connection)
            reads[log.head()] = _entity_reads(store)

        for step in range(80):
            op = rng.random()
            table, rows = rng.choice(_TABLE_ROWS)
            if op < 0.35 or not annotations:
                a = store.insert_annotation(f"note {step}", author=f"u{step % 3}")
                annotations.append(a.annotation_id)
            elif op < 0.6:
                kind = (
                    AttachmentKind.TRUE if rng.random() < 0.5
                    else AttachmentKind.PREDICTED
                )
                confidence = 1.0 if kind is AttachmentKind.TRUE else rng.uniform(0.1, 0.9)
                # Row, cell, column-level and table-level targets.
                rowid = rng.choice([rng.randint(1, rows), rng.randint(1, rows), None])
                column = rng.choice([None, None, _COLUMNS[table]])
                edge = store.attach(
                    rng.choice(annotations),
                    CellRef(table, rowid, column),
                    confidence=confidence,
                    kind=kind,
                )
                edges.append(edge.attachment_id)
            elif op < 0.72:
                low = rng.randint(1, rows - 1)
                edge = store.attach_range(
                    rng.choice(annotations),
                    table,
                    low,
                    rng.randint(low + 1, rows),
                    column=rng.choice([None, _COLUMNS[table]]),
                )
                edges.append(edge.attachment_id)
            elif op < 0.86 and edges:
                store.promote(rng.choice(edges))
            elif edges:
                victim = rng.choice(edges)
                store.detach(victim)
                edges.remove(victim)
            checkpoint()

        assert len(captured) >= 70
        # Every commit ever made is represented (auto commits: 1 per op).
        all_commits = {c.commit_id for c in log.commits()}
        assert set(captured) <= all_commits
        for commit_id, expected in captured.items():
            assert (
                timetravel.state_fingerprint(connection, as_of=commit_id)
                == expected
            ), f"as_of={commit_id} diverged from the captured state"
            assert _entity_reads(store, as_of=commit_id) == reads[
                commit_id
            ], f"an entity-addressed read at as_of={commit_id} diverged"
        # And the log still agrees with the final head.
        assert log.verify_head() is True

        # The pending-task listing reads the task table as it is now, so
        # only the view-form reference can check it at a pin.
        _seed_tasks(connection, annotations + [max(annotations) + 1], rng)
        pins = [0] + rng.sample(sorted(captured), 20)
        for pin in pins:
            _assert_matches_view_form(connection, pin)

    def test_engine_pipeline_commits_reproduce_history(self, figure1_backend, figure1_db):
        """Same property through the full pipeline: ingest + verify +
        reject command sequences, one commit per logical operation."""
        connection, meta = figure1_db
        nebula = Nebula(figure1_backend, meta, NebulaConfig(epsilon=0.6))
        rng = random.Random(77)
        captured = {}
        texts = [
            "gene JW0013 interacts with JW0014",
            "the protein G-Actin binds JW0019",
            "family F1 genes look unstable",
            "JW0015 and JW0018 show coupling",
            "B-Tubulin kinase saturates",
        ]
        for step in range(12):
            report = nebula.insert_annotation(
                rng.choice(texts),
                attach_to=[TupleRef("Gene", rng.randint(1, 7))],
                author=f"expert{step % 2}",
            )
            assert report.commit_id is not None
            captured[report.commit_id] = timetravel.head_fingerprint(connection)
            tasks = nebula.pending_tasks()
            if tasks and rng.random() < 0.5:
                task = tasks[0]
                if rng.random() < 0.5:
                    nebula.verify_attachment(task.task_id)
                else:
                    nebula.reject_attachment(task.task_id)
                captured[nebula.head_commit()] = timetravel.head_fingerprint(
                    connection
                )
        kinds = {c.kind for c in nebula.commit_log.commits()}
        assert "ingest" in kinds
        for commit_id, expected in captured.items():
            assert (
                timetravel.state_fingerprint(connection, as_of=commit_id)
                == expected
            )

    def test_report_commit_ids_are_monotonic(self, figure1_backend, figure1_db):
        connection, meta = figure1_db
        nebula = Nebula(figure1_backend, meta, NebulaConfig(epsilon=0.6))
        ids = [
            nebula.insert_annotation(f"gene JW001{i} note").commit_id
            for i in range(3)
        ]
        assert ids == sorted(ids)
        assert nebula.head_commit() == ids[-1]

    def test_batch_shares_one_commit(self, figure1_backend, figure1_db):
        from repro.perf import AnnotationRequest

        connection, meta = figure1_db
        nebula = Nebula(figure1_backend, meta, NebulaConfig(epsilon=0.6))
        reports = nebula.insert_annotations(
            [
                AnnotationRequest.build("gene JW0013 note"),
                AnnotationRequest.build("gene JW0019 note"),
            ],
            request_id="batch-7",
        )
        assert len({r.commit_id for r in reports}) == 1
        commit = nebula.commit_log.get_commit(reports[0].commit_id)
        assert commit.kind == "batch"
        assert commit.request_id == "batch-7"
        assert commit.note == "batch of 2"


# ----------------------------------------------------------------------
# Migrations
# ----------------------------------------------------------------------


def _schema_objects(connection):
    return {
        (str(r[0]), str(r[1]))
        for r in connection.execute(
            "SELECT type, name FROM sqlite_master "
            "WHERE type IN ('table', 'view', 'index') "
            "AND name NOT LIKE 'sqlite_%'"
        ).fetchall()
        if str(r[1]).startswith("_nebula")
    }


def _seed_legacy(connection):
    connection.executescript(LEGACY_DDL)
    connection.executemany(
        "INSERT INTO _nebula_annotations VALUES (?, ?, ?, ?)",
        [(1, "old one", "ann", 1), (2, "old two", None, 2)],
    )
    connection.executemany(
        "INSERT INTO _nebula_attachments (annotation_id, target_table, "
        "target_rowid, target_rowid_hi, target_column, confidence, kind) "
        "VALUES (?, ?, ?, ?, ?, ?, ?)",
        [
            (1, "Gene", 1, None, None, 1.0, "true"),
            (2, "Gene", 3, None, None, 0.7, "predicted"),
        ],
    )


#: The four operational tables as the engine's components created them
#: on construction before revision 0004 took them over.
_COMPONENT_DDL = """
CREATE TABLE IF NOT EXISTS _nebula_dead_letters (
    letter_id   INTEGER PRIMARY KEY,
    content     TEXT NOT NULL,
    author      TEXT,
    focal_json  TEXT NOT NULL,
    stage       TEXT NOT NULL,
    error       TEXT NOT NULL,
    attempts    INTEGER NOT NULL DEFAULT 1,
    status      TEXT NOT NULL DEFAULT 'pending'
        CHECK (status IN ('pending', 'resolved')),
    claimed     INTEGER NOT NULL DEFAULT 0,
    request_id  TEXT,
    commit_id   INTEGER
);
CREATE TABLE IF NOT EXISTS _nebula_verification_tasks (
    task_id       INTEGER PRIMARY KEY,
    annotation_id INTEGER NOT NULL,
    target_table  TEXT NOT NULL,
    target_rowid  INTEGER NOT NULL,
    confidence    REAL NOT NULL,
    evidence      TEXT NOT NULL,
    status        TEXT NOT NULL CHECK (status IN
        ('pending', 'auto_accepted', 'auto_rejected', 'verified', 'rejected'))
);
CREATE TABLE IF NOT EXISTS _nebula_hop_profile (
    hops INTEGER PRIMARY KEY, count INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS _nebula_annotation_rules (
    rule_id       INTEGER PRIMARY KEY,
    annotation_id INTEGER NOT NULL REFERENCES _nebula_annotations(annotation_id),
    target_table  TEXT NOT NULL,
    target_column TEXT,
    predicate     TEXT NOT NULL,
    active        INTEGER NOT NULL DEFAULT 1
);
"""

OPERATIONAL_TABLES = (
    "_nebula_dead_letters",
    "_nebula_verification_tasks",
    "_nebula_hop_profile",
    "_nebula_annotation_rules",
)


def _seed_operational_rows(connection):
    """Rows in each operational table (annotation 1 must exist)."""
    connection.execute(
        "INSERT INTO _nebula_dead_letters "
        "(content, author, focal_json, stage, error, request_id) "
        "VALUES ('replay me', 'ann', ?, 'queue.triage', 'boom', 'req-1-1')",
        ('[["Gene", 1]]',),
    )
    connection.execute(
        "INSERT INTO _nebula_verification_tasks (annotation_id, target_table, "
        "target_rowid, confidence, evidence, status) "
        "VALUES (1, 'Gene', 3, 0.5, 'q@0:type2:gene+grpC', 'pending')"
    )
    connection.executemany(
        "INSERT INTO _nebula_hop_profile (hops, count) VALUES (?, ?)",
        [(1, 3), (2, 1), (-1, 1)],
    )
    connection.execute(
        "INSERT INTO _nebula_annotation_rules "
        "(annotation_id, target_table, predicate) VALUES (1, 'Gene', ?)",
        ("Name LIKE 'grp%'",),
    )


def _operational_rows(connection):
    return {
        table: connection.execute(f"SELECT * FROM {table} ORDER BY 1").fetchall()
        for table in OPERATIONAL_TABLES
    }


class TestMigrations:
    def test_fresh_database_gets_full_chain(self, storage_backend):
        connection = storage_backend.primary
        ensure_schema(connection)
        runner = MigrationRunner(connection)
        assert runner.pending() == []
        assert runner.current_revision() == MIGRATIONS[-1].revision

    def test_legacy_database_is_baseline_stamped(self, storage_backend):
        connection = storage_backend.primary
        _seed_legacy(connection)
        runner = MigrationRunner(connection)
        assert runner.current_revision() == BASELINE_REVISION
        assert [m.revision for m in runner.pending()] == [
            "0002", "0003", "0004", "0005",
        ]

    def test_upgrade_backfills_history(self, storage_backend):
        connection = storage_backend.primary
        _seed_legacy(connection)
        runner = MigrationRunner(connection)
        applied = runner.upgrade()
        assert applied == ["0002", "0003", "0004", "0005"]
        log = CommitLog(connection)
        # One migrate commit holds the backfill of every pre-existing row.
        commits = log.commits()
        assert [c.kind for c in commits] == ["migrate"]
        assert log.verify_head() is True
        assert timetravel.count_annotations(connection, commits[0].commit_id) == 2

    def test_upgraded_legacy_matches_fresh_init(self, tmp_path):
        with get_backend("sqlite-file", path=str(tmp_path / "legacy.db")) as legacy_backend:
            legacy = legacy_backend.primary
            _seed_legacy(legacy)
            MigrationRunner(legacy).upgrade()
            with get_backend("sqlite-file", path=str(tmp_path / "fresh.db")) as fresh_backend:
                fresh = fresh_backend.primary
                # Fresh init + the same logical content, logged manually.
                ensure_schema(fresh)
                fresh.executemany(
                    "INSERT INTO _nebula_annotations VALUES (?, ?, ?, ?)",
                    [(1, "old one", "ann", 1), (2, "old two", None, 2)],
                )
                fresh.executemany(
                    "INSERT INTO _nebula_attachments (annotation_id, "
                    "target_table, target_rowid, target_rowid_hi, "
                    "target_column, confidence, kind) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?)",
                    [
                        (1, "Gene", 1, None, None, 1.0, "true"),
                        (2, "Gene", 3, None, None, 0.7, "predicted"),
                    ],
                )
                log = CommitLog(fresh)
                with log.commit_scope("migrate", note="test backfill"):
                    log.record_annotation_range(1, 2)
                    log.record_attachments_above(0)
                # Identical schema objects and identical logical content.
                assert _schema_objects(legacy) == _schema_objects(fresh)
                assert timetravel.state_fingerprint(
                    legacy
                ) == timetravel.state_fingerprint(fresh)
                assert timetravel.head_fingerprint(
                    legacy
                ) == timetravel.head_fingerprint(fresh)

    def test_downgrade_restores_legacy_schema(self, storage_backend):
        connection = storage_backend.primary
        _seed_legacy(connection)
        runner = MigrationRunner(connection)
        runner.upgrade()
        reverted = runner.downgrade()
        assert reverted == ["0005", "0004", "0003", "0002"]
        assert runner.current_revision() == BASELINE_REVISION
        names = {name for _, name in _schema_objects(connection)}
        assert "_nebula_commits" not in names
        assert "_nebula_annotation_history" not in names
        assert "_nebula_annotations_current" not in names
        assert "_nebula_attachments_by_range" not in names
        assert "_nebula_verification_tasks_by_annotation" not in names
        # The materialized head (the latest state) survives the downgrade.
        count = connection.execute(
            "SELECT COUNT(*) FROM _nebula_annotations"
        ).fetchone()[0]
        assert int(count) == 2

    def test_roundtrip_up_down_up(self, storage_backend):
        connection = storage_backend.primary
        _seed_legacy(connection)
        runner = MigrationRunner(connection)
        runner.upgrade()
        before = timetravel.head_fingerprint(connection)
        runner.downgrade()
        runner.upgrade()
        assert timetravel.head_fingerprint(connection) == before
        assert CommitLog(connection).verify_head() is True

    def test_partial_upgrade_with_target(self, storage_backend):
        connection = storage_backend.primary
        _seed_legacy(connection)
        runner = MigrationRunner(connection)
        assert runner.upgrade(target="0002") == ["0002"]
        assert runner.current_revision() == "0002"
        assert [m.revision for m in runner.pending()] == ["0003", "0004", "0005"]

    def test_fresh_database_has_operational_tables(self, storage_backend):
        connection = storage_backend.primary
        ensure_schema(connection)
        assert MigrationRunner(connection).current_revision() == "0005"
        names = {name for _, name in _schema_objects(connection)}
        assert set(OPERATIONAL_TABLES) <= names
        assert all(rows == [] for rows in _operational_rows(connection).values())

    def test_component_created_tables_upgrade_with_rows_intact(
        self, storage_backend
    ):
        # The layout before revision 0004: the chain at 0003 beside
        # operational tables created, and filled, by their components.
        connection = storage_backend.primary
        _seed_legacy(connection)
        MigrationRunner(connection).upgrade(target="0003")
        connection.executescript(_COMPONENT_DDL)
        _seed_operational_rows(connection)
        connection.commit()
        before = _operational_rows(connection)

        manager = AnnotationManager(connection)  # the engine-open path
        runner = MigrationRunner(connection)
        assert [r.revision for r in runner.applied()] == [
            "0001", "0002", "0003", "0004", "0005",
        ]
        assert _operational_rows(connection) == before
        # Every component reads its rows back unchanged.
        (letter,) = DeadLetterQueue(connection).pending()
        assert (letter.content, letter.request_id) == ("replay me", "req-1-1")
        (task,) = VerificationQueue(manager).pending()
        assert (task.annotation_id, task.ref) == (1, TupleRef("Gene", 3))
        profile = PersistentHopProfile(connection)
        assert (profile.buckets, profile.unreachable) == ({1: 3, 2: 1}, 1)
        (rule,) = RuleEngine(manager).rules()
        assert rule.predicate == "Name LIKE 'grp%'"

    def test_downgrade_keeps_operational_rows(self, storage_backend):
        connection = storage_backend.primary
        _seed_legacy(connection)
        runner = MigrationRunner(connection)
        runner.upgrade()
        _seed_operational_rows(connection)
        connection.commit()
        before = _operational_rows(connection)
        runner.downgrade()
        assert _operational_rows(connection) == before
        assert runner.upgrade() == ["0002", "0003", "0004", "0005"]
        assert _operational_rows(connection) == before

    def test_unordered_chain_rejected(self, storage_backend):
        connection = storage_backend.primary
        with pytest.raises(MigrationError):
            MigrationRunner(
                connection, migrations=list(reversed(MIGRATIONS))
            )

    def test_store_init_auto_migrates_legacy(self, storage_backend):
        connection = storage_backend.primary
        _seed_legacy(connection)
        store = AnnotationStore(connection)
        assert store.versioning.verify_head() is True
        assert store.count_annotations() == 2
        # Pre-existing rows are reachable through time travel at the
        # backfill commit.
        head = store.versioning.head()
        assert timetravel.count_annotations(connection, head) == 2


# ----------------------------------------------------------------------
# Snapshot-consistent service reads (satellite 3)
# ----------------------------------------------------------------------


class TestSnapshotConsistency:
    def test_pinned_readers_see_identical_results_under_writes(
        self, storage_backend, metrics
    ):
        db = generate_bio_database(
            BioDatabaseSpec(genes=24, proteins=12, publications=60, seed=5),
            backend=storage_backend,
        )
        nebula = Nebula(
            storage_backend, db.meta, NebulaConfig(epsilon=0.6), aliases=db.aliases
        )
        gene = db.genes[0]
        with AnnotationService(
            nebula, ServiceConfig(queue_capacity=32, max_batch=8, flush_interval=0.01)
        ) as service:
            service.ingest(
                f"seed note about gene {gene.gid}",
                attach_to=[db.resolve("gene", gene.gid)],
            )
            pin = service.head_commit()
            assert pin is not None
            baseline_find = service.find_annotations("gene", as_of=pin)
            baseline_pending = service.pending_verifications(as_of=pin)

            stop = threading.Event()
            divergences = []

            def reader():
                while not stop.is_set():
                    if service.find_annotations("gene", as_of=pin) != baseline_find:
                        divergences.append("find")
                        return
                    if (
                        service.pending_verifications(as_of=pin)
                        != baseline_pending
                    ):
                        divergences.append("pending")
                        return

            thread = threading.Thread(target=reader)
            thread.start()
            try:
                # The writer commits new batches while the reader spins.
                for i in range(6):
                    service.ingest(
                        f"concurrent note {i} gene {db.genes[i + 1].gid}",
                        attach_to=[db.resolve("gene", db.genes[i + 1].gid)],
                    )
            finally:
                stop.set()
                thread.join(timeout=10)
            assert divergences == []
            # Head reads do observe the new writes; the pin does not.
            assert service.head_commit() > pin
            assert len(service.find_annotations("concurrent note")) == 6
            assert service.find_annotations("concurrent note", as_of=pin) == []

    def test_recover_restores_head_from_log(self, storage_backend, metrics):
        db = generate_bio_database(
            BioDatabaseSpec(genes=20, proteins=10, publications=40, seed=9),
            backend=storage_backend,
        )
        nebula = Nebula(
            storage_backend, db.meta, NebulaConfig(epsilon=0.6), aliases=db.aliases
        )
        report = nebula.insert_annotation(
            f"recoverable note gene {db.genes[0].gid}"
        )
        nebula.connection.commit()
        # Tear the head behind the service's back; the log keeps the truth.
        nebula.connection.execute("DELETE FROM _nebula_annotations")
        nebula.connection.commit()
        service = AnnotationService(nebula, ServiceConfig())
        try:
            service.recover()
            row = nebula.connection.execute(
                "SELECT content FROM _nebula_annotations WHERE annotation_id = ?",
                (report.annotation_id,),
            ).fetchone()
            assert row is not None and "recoverable" in row[0]
            assert nebula.commit_log.verify_head() is True
            key = "nebula_head_restores_total"
            assert metrics.snapshot()["counters"].get(key) == 1
        finally:
            service.stop()

    def test_recover_rebuilds_the_graph_of_a_restored_head(self, storage_backend):
        db = generate_bio_database(
            BioDatabaseSpec(genes=20, proteins=10, publications=40, seed=9),
            backend=storage_backend,
        )
        # The engine opens on a torn head: its graph misses every edge.
        storage_backend.primary.execute("DELETE FROM _nebula_attachments")
        storage_backend.primary.commit()
        nebula = Nebula(
            storage_backend, db.meta, NebulaConfig(epsilon=0.6), aliases=db.aliases
        )
        assert nebula.acg.edge_count == 0
        service = AnnotationService(nebula, ServiceConfig())
        try:
            service.recover()
            rebuilt = AnnotationsConnectivityGraph.build_from_manager(nebula.manager)
            assert rebuilt.edge_count > 0
            assert nebula.acg._adjacency == rebuilt._adjacency
            assert nebula.acg.edge_count == rebuilt.edge_count
        finally:
            service.stop()


# ----------------------------------------------------------------------
# Dead-letter commit stamping (satellite 1)
# ----------------------------------------------------------------------


class TestDeadLetterStamping:
    def test_replay_stamps_commit_onto_letter(self, metrics):
        from repro.resilience import FaultInjector

        faults = FaultInjector()
        db = generate_bio_database(
            BioDatabaseSpec(genes=24, proteins=12, publications=60, seed=11)
        )
        nebula = Nebula(
            db.backend,
            db.meta,
            NebulaConfig(epsilon=0.6, fault_injector=faults),
            aliases=db.aliases,
        )
        from repro.errors import PipelineStageError

        faults.arm("queue.triage")
        with pytest.raises(PipelineStageError):
            nebula.insert_annotation(
                f"doomed note gene {db.genes[0].gid}",
                attach_to=[db.resolve("gene", db.genes[0].gid)],
            )
        (letter,) = nebula.dead_letters.pending()
        assert letter.commit_id is None

        (report,) = nebula.reprocess_dead_letters()
        resolved = nebula.dead_letters.get(letter.letter_id)
        assert resolved.status == "resolved"
        # The letter names the commit its replay produced...
        assert resolved.commit_id == report.commit_id
        commit = nebula.commit_log.get_commit(report.commit_id)
        # ...and the commit names the letter back: a bidirectional audit.
        assert commit.kind == "replay"
        assert commit.note == f"dead-letter:{letter.letter_id}"
