"""Tests for the resilience primitives: RetryPolicy, Savepoint, and the
retry seams threaded through the store, the search engine, and the
spreading mini-database."""

import sqlite3

import pytest

from repro.annotations.store import AnnotationStore
from repro.core.acg import AnnotationsConnectivityGraph
from repro.core.spreading import MiniDatabase
from repro.errors import TransientStorageError
from repro.resilience import (
    FaultInjector,
    InjectedFault,
    RetryPolicy,
    Savepoint,
    is_transient_operational_error,
    no_retry,
)
from repro.search.engine import KeywordQuery, KeywordSearchEngine
from repro.types import CellRef, TupleRef

from conftest import build_figure1_connection


class FlakyConnection:
    """Connection proxy failing the next N mutating ``execute`` calls.

    Reads always succeed — only writes hit the simulated lock, which is
    how SQLite lock contention actually manifests for a writer.
    """

    _WRITE_PREFIXES = ("INSERT", "UPDATE", "DELETE", "CREATE", "DROP")

    def __init__(self, connection: sqlite3.Connection):
        self._connection = connection
        self.fail_next = 0
        self.fail_select_next = 0
        self.lock_errors_raised = 0

    def execute(self, sql, params=()):
        is_write = sql.lstrip().upper().startswith(self._WRITE_PREFIXES)
        if is_write and self.fail_next > 0:
            self.fail_next -= 1
            self.lock_errors_raised += 1
            raise sqlite3.OperationalError("database is locked")
        if not is_write and self.fail_select_next > 0:
            self.fail_select_next -= 1
            self.lock_errors_raised += 1
            raise sqlite3.OperationalError("database is locked")
        return self._connection.execute(sql, params)

    def __getattr__(self, name):
        return getattr(self._connection, name)


def recording_policy(max_attempts=3, **kwargs):
    """A fast policy whose sleeps are recorded instead of slept."""
    sleeps = []
    policy = RetryPolicy(
        max_attempts=max_attempts, base_delay=0.01, sleep=sleeps.append, **kwargs
    )
    return policy, sleeps


class TestRetryPolicy:
    def test_succeeds_after_transient_failures(self):
        policy, sleeps = recording_policy(max_attempts=3)
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise sqlite3.OperationalError("database is locked")
            return "ok"

        assert policy.run(flaky) == "ok"
        assert len(attempts) == 3
        assert len(sleeps) == 2

    def test_backoff_is_exponential_and_deterministic(self):
        policy, sleeps = recording_policy(max_attempts=4, jitter=0.0)
        with pytest.raises(TransientStorageError):
            policy.run(lambda: (_ for _ in ()).throw(
                sqlite3.OperationalError("database is locked")))
        assert sleeps == [0.01, 0.02, 0.04]
        # The schedule is a pure function of the policy.
        assert RetryPolicy(max_attempts=4, base_delay=0.01, jitter=0.0).schedule() == sleeps

    def test_jitter_is_seeded_not_wall_clock(self):
        first = RetryPolicy(seed=5).delay_for(1)
        second = RetryPolicy(seed=5).delay_for(1)
        assert first == second
        assert RetryPolicy(seed=6).delay_for(1) != first

    def test_delay_capped_at_max(self):
        policy = RetryPolicy(
            max_attempts=10, base_delay=0.1, max_delay=0.2, jitter=0.0
        )
        assert policy.delay_for(9) == 0.2

    def test_exhaustion_wraps_in_transient_storage_error(self):
        policy, _ = recording_policy(max_attempts=2)

        def always_locked():
            raise sqlite3.OperationalError("database table is locked")

        with pytest.raises(TransientStorageError) as exc_info:
            policy.run(always_locked, "probe")
        assert exc_info.value.attempts == 2
        assert isinstance(exc_info.value.__cause__, sqlite3.OperationalError)

    def test_non_transient_errors_propagate_immediately(self):
        policy, sleeps = recording_policy(max_attempts=5)
        with pytest.raises(sqlite3.OperationalError):
            policy.run(lambda: (_ for _ in ()).throw(
                sqlite3.OperationalError("no such table: Nope")))
        assert sleeps == []
        with pytest.raises(ValueError):
            policy.run(lambda: (_ for _ in ()).throw(ValueError("logic bug")))

    def test_no_retry_gives_up_immediately(self):
        policy = no_retry()
        with pytest.raises(TransientStorageError):
            policy.run(lambda: (_ for _ in ()).throw(
                sqlite3.OperationalError("database is locked")))

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=0.5, max_delay=0.1)

    @pytest.mark.parametrize(
        "error,expected",
        [
            (sqlite3.OperationalError("database is locked"), True),
            (sqlite3.OperationalError("database table is locked"), True),
            (sqlite3.OperationalError("database is busy"), True),
            (sqlite3.OperationalError("no such column: x"), False),
            (sqlite3.IntegrityError("UNIQUE constraint failed"), False),
            (TransientStorageError("wrapped"), True),
            (ValueError("nope"), False),
        ],
    )
    def test_transient_classification(self, error, expected):
        assert is_transient_operational_error(error) is expected


class TestStoreRetry:
    def test_insert_retries_through_lock(self):
        flaky = FlakyConnection(build_figure1_connection())
        policy, sleeps = recording_policy(max_attempts=3)
        store = AnnotationStore(flaky, retry=policy)
        flaky.fail_next = 2
        annotation = store.insert_annotation("retried")
        assert annotation.annotation_id >= 1
        assert flaky.lock_errors_raised == 2
        assert len(sleeps) == 2
        assert store.get_annotation(annotation.annotation_id).content == "retried"

    def test_attach_exhaustion_raises_transient(self):
        flaky = FlakyConnection(build_figure1_connection())
        policy, _ = recording_policy(max_attempts=2)
        store = AnnotationStore(flaky, retry=policy)
        annotation = store.insert_annotation("x")
        flaky.fail_next = 99
        with pytest.raises(TransientStorageError):
            store.attach(annotation.annotation_id, CellRef("Gene", 1))

    def test_no_policy_keeps_fail_fast(self):
        flaky = FlakyConnection(build_figure1_connection())
        store = AnnotationStore(flaky)
        flaky.fail_next = 1
        with pytest.raises(sqlite3.OperationalError):
            store.insert_annotation("fails")


class TestEngineRetry:
    def test_execute_sql_retries_through_lock(self):
        flaky = FlakyConnection(build_figure1_connection())
        policy, sleeps = recording_policy(max_attempts=3)
        engine = KeywordSearchEngine(
            flaky, searchable_columns=[("Gene", "GID")], retry=policy
        )
        flaky.fail_select_next = 2
        result = engine.search(KeywordQuery(("JW0013",)))
        assert TupleRef("Gene", 1) in result.refs
        assert flaky.lock_errors_raised == 2
        assert len(sleeps) == 2


class TestSpreadingRetry:
    def test_materialize_retries_through_lock(self):
        flaky = FlakyConnection(build_figure1_connection())
        policy, sleeps = recording_policy(max_attempts=3)
        flaky.fail_next = 2
        mini = MiniDatabase.materialize(
            flaky, [TupleRef("Gene", 1), TupleRef("Gene", 2)], retry=policy
        )
        assert mini.row_counts == {"Gene": 2}
        assert len(sleeps) == 2
        mini.drop()


class TestSavepoint:
    def test_rollback_undoes_writes(self):
        connection = build_figure1_connection()
        savepoint = Savepoint(connection, "test").begin()
        connection.execute("DELETE FROM Gene")
        savepoint.rollback()
        count = connection.execute("SELECT COUNT(*) FROM Gene").fetchone()[0]
        assert count == 7
        assert not savepoint.active

    def test_release_keeps_writes(self):
        connection = build_figure1_connection()
        with Savepoint(connection, "test"):
            connection.execute("DELETE FROM Gene WHERE rowid = 1")
        count = connection.execute("SELECT COUNT(*) FROM Gene").fetchone()[0]
        assert count == 6

    def test_context_manager_rolls_back_on_error(self):
        connection = build_figure1_connection()
        with pytest.raises(RuntimeError):
            with Savepoint(connection, "test"):
                connection.execute("DELETE FROM Gene")
                raise RuntimeError("boom")
        count = connection.execute("SELECT COUNT(*) FROM Gene").fetchone()[0]
        assert count == 7

    def test_emits_quoted_savepoint_statements(self):
        connection = build_figure1_connection()
        statements = []
        connection.set_trace_callback(statements.append)
        kept = Savepoint(connection, "a-b").begin()
        kept.release()
        undone = Savepoint(connection, "c").begin()
        undone.rollback()
        connection.set_trace_callback(None)
        assert kept.name.startswith("sp_a_b_")
        assert statements == [
            f'SAVEPOINT "{kept.name}"',
            f'RELEASE SAVEPOINT "{kept.name}"',
            f'SAVEPOINT "{undone.name}"',
            f'ROLLBACK TO SAVEPOINT "{undone.name}"',
            f'RELEASE SAVEPOINT "{undone.name}"',
        ]

    def test_nested_savepoints_roll_back_independently(self):
        connection = build_figure1_connection()
        outer = Savepoint(connection, "outer").begin()
        connection.execute("DELETE FROM Gene WHERE rowid = 1")
        inner = Savepoint(connection, "inner").begin()
        connection.execute("DELETE FROM Gene WHERE rowid = 2")
        inner.rollback()
        outer.release()
        count = connection.execute("SELECT COUNT(*) FROM Gene").fetchone()[0]
        assert count == 6


class TestFaultInjector:
    def test_default_fault_and_counters(self):
        faults = FaultInjector()
        faults.arm("queue.triage")
        with pytest.raises(InjectedFault):
            faults.check("queue.triage")
        # times=1: the arming auto-clears after firing.
        faults.check("queue.triage")
        assert faults.fired("queue.triage") == 1
        assert faults.fired() == 1

    def test_unarmed_points_pass(self):
        FaultInjector().check("store.add")

    def test_typod_point_rejected(self):
        with pytest.raises(ValueError):
            FaultInjector().arm("store.ad")

    def test_custom_exception_and_times(self):
        faults = FaultInjector()
        faults.arm("store.add", sqlite3.OperationalError("database is locked"), times=2)
        for _ in range(2):
            with pytest.raises(sqlite3.OperationalError):
                faults.check("store.add")
        faults.check("store.add")
        assert faults.fired("store.add") == 2

    def test_negative_times_fires_until_disarmed(self):
        faults = FaultInjector()
        faults.arm("executor.run", times=-1)
        for _ in range(3):
            with pytest.raises(InjectedFault):
                faults.check("executor.run")
        faults.disarm("executor.run")
        faults.check("executor.run")
        assert faults.fired("executor.run") == 3

    def test_reset_clears_everything(self):
        faults = FaultInjector()
        faults.arm("spreading.scope", times=-1)
        with pytest.raises(InjectedFault):
            faults.check("spreading.scope")
        faults.reset()
        faults.check("spreading.scope")
        assert faults.fired() == 0


class TestAcgRemoveAnnotation:
    def test_remove_undoes_add(self):
        acg = AnnotationsConnectivityGraph()
        a, b = TupleRef("Gene", 1), TupleRef("Gene", 2)
        acg.add_attachment(1, a)
        acg.add_attachment(1, b)
        assert (acg.node_count, acg.edge_count) == (2, 1)
        removed = acg.remove_annotation(1)
        assert removed == 1
        assert (acg.node_count, acg.edge_count) == (0, 0)
        assert not acg.contains(a)

    def test_shared_edges_survive(self):
        acg = AnnotationsConnectivityGraph()
        a, b, c = TupleRef("Gene", 1), TupleRef("Gene", 2), TupleRef("Gene", 3)
        acg.add_attachment(1, a)
        acg.add_attachment(1, b)
        acg.add_attachment(2, a)
        acg.add_attachment(2, b)
        acg.add_attachment(2, c)
        edges_with_both = acg.edge_count
        removed = acg.remove_annotation(2)
        # The a-b edge is still justified by annotation 1; a-c and b-c go.
        assert removed == 2
        assert acg.edge_count == edges_with_both - 2
        assert acg.weight(a, b) > 0.0
        assert not acg.contains(c)

    def test_remove_unknown_annotation_is_noop(self):
        acg = AnnotationsConnectivityGraph()
        acg.add_attachment(1, TupleRef("Gene", 1))
        assert acg.remove_annotation(99) == 0
        assert acg.node_count == 1
