"""The append-only versioned annotation store (ISSUE 10).

Covers the commit log's lifecycle and history appends, head/log parity
and recovery, the time-travel property (``as_of`` at *every* commit id
reproduces the exact historical state), the migration chain round-trip,
snapshot-consistent service reads, and dead-letter commit stamping.
"""

import random
import threading

import pytest

from repro import Nebula, NebulaConfig, generate_bio_database, get_backend
from repro.annotations.engine import AnnotationManager
from repro.annotations.rules import RuleEngine
from repro.annotations.store import AnnotationStore, AttachmentKind
from repro.core.acg import PersistentHopProfile
from repro.core.verification import VerificationQueue
from repro.datagen.biodb import BioDatabaseSpec
from repro.errors import (
    MigrationError,
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


# ----------------------------------------------------------------------
# Time travel: the core property
# ----------------------------------------------------------------------


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

    def test_every_commit_reproduces_historical_state(self, store, log):
        """The acceptance property: ``as_of=<every commit id>`` exactly
        reproduces the state captured right after that commit, under a
        randomized mutation sequence."""
        rng = random.Random(1234)
        edges = []
        annotations = []
        captured = {}  # commit id -> head fingerprint at that moment

        def checkpoint():
            captured[log.head()] = timetravel.head_fingerprint(store.connection)

        for step in range(60):
            op = rng.random()
            if op < 0.45 or not annotations:
                a = store.insert_annotation(f"note {step}", author=f"u{step % 3}")
                annotations.append(a.annotation_id)
            elif op < 0.75:
                kind = (
                    AttachmentKind.TRUE if rng.random() < 0.5
                    else AttachmentKind.PREDICTED
                )
                confidence = 1.0 if kind is AttachmentKind.TRUE else rng.uniform(0.1, 0.9)
                edge = store.attach(
                    rng.choice(annotations),
                    CellRef("Gene", rng.randint(1, 7)),
                    confidence=confidence,
                    kind=kind,
                )
                edges.append(edge.attachment_id)
            elif op < 0.9 and edges:
                store.promote(rng.choice(edges))
            elif edges:
                victim = rng.choice(edges)
                store.detach(victim)
                edges.remove(victim)
            checkpoint()

        assert len(captured) >= 50
        # Every commit ever made is represented (auto commits: 1 per op).
        all_commits = {c.commit_id for c in log.commits()}
        assert set(captured) <= all_commits
        for commit_id, expected in captured.items():
            assert (
                timetravel.state_fingerprint(store.connection, as_of=commit_id)
                == expected
            ), f"as_of={commit_id} diverged from the captured state"
        # And the log still agrees with the final head.
        assert log.verify_head() is True

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
        assert [m.revision for m in runner.pending()] == ["0002", "0003", "0004"]

    def test_upgrade_backfills_history(self, storage_backend):
        connection = storage_backend.primary
        _seed_legacy(connection)
        runner = MigrationRunner(connection)
        applied = runner.upgrade()
        assert applied == ["0002", "0003", "0004"]
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
        assert reverted == ["0004", "0003", "0002"]
        assert runner.current_revision() == BASELINE_REVISION
        names = {name for _, name in _schema_objects(connection)}
        assert "_nebula_commits" not in names
        assert "_nebula_annotation_history" not in names
        assert "_nebula_annotations_current" not in names
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
        assert [m.revision for m in runner.pending()] == ["0003", "0004"]

    def test_fresh_database_has_operational_tables(self, storage_backend):
        connection = storage_backend.primary
        ensure_schema(connection)
        assert MigrationRunner(connection).current_revision() == "0004"
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
            "0001", "0002", "0003", "0004",
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
        assert runner.upgrade() == ["0002", "0003", "0004"]
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
