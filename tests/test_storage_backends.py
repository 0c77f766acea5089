"""The storage layer: SQLite limits, pool, the file engine, get_backend.

The pipeline-facing contract (every sqlite3 call site routed through a
:class:`SqliteFileBackend`) is exercised indirectly by the whole suite,
which builds every world on that engine.  This module tests the layer
itself: the IN-list variable limit, pool bounding/health/threading,
engine semantics (pooled read-only readers, WAL concurrency, temporary
databases), and the by-name constructor.
"""

from __future__ import annotations

import inspect
import os
import sqlite3
import threading

import pytest

from conftest import build_figure1_connection, build_figure1_meta
from repro import Nebula, NebulaConfig
from repro.core import shared_execution
from repro.core.shared_execution import SharedExecutor
from repro.errors import PoolExhaustedError, StorageError
from repro.search.engine import KeywordQuery, KeywordSearchEngine
from repro.storage import ConnectionPool, SqliteFileBackend, get_backend

# ----------------------------------------------------------------------
# SQLite dialect limits
# ----------------------------------------------------------------------

#: The seven GIDs of the Figure 1 Gene table, in IN-list (casefolded) order.
FIGURE1_GIDS = ("JW0012", "JW0013", "JW0014", "JW0015", "JW0018", "JW0019", "JW0027")


def _in_list_params(gids, monkeypatch):
    """Bound values of each IN statement SharedExecutor runs for GID probes."""
    engine = KeywordSearchEngine(
        build_figure1_connection(), searchable_columns=[("Gene", "GID")]
    )
    executed = []
    run = engine.execute_rows

    def spy(sql, params=()):
        executed.append((sql, tuple(params)))
        return run(sql, params)

    monkeypatch.setattr(engine, "execute_rows", spy)
    SharedExecutor(engine).search_all(
        [KeywordQuery(("gene", gid), label=gid) for gid in reversed(gids)]
    )
    return [params for sql, params in executed if " IN (" in sql]


class TestDialect:
    """SQLite's bind-variable limit, kept as a constant where SQL is built.

    :data:`repro.core.shared_execution.MAX_VARIABLES` splits each batched
    IN list into statements of at most that many variables.
    """

    def test_chunked_respects_max_variables(self, monkeypatch):
        monkeypatch.setattr(shared_execution, "MAX_VARIABLES", 3)
        assert _in_list_params(FIGURE1_GIDS, monkeypatch) == [
            FIGURE1_GIDS[0:3],
            FIGURE1_GIDS[3:6],
            FIGURE1_GIDS[6:],
        ]

    def test_chunked_single_chunk_when_under_limit(self, monkeypatch):
        assert _in_list_params(FIGURE1_GIDS[:2], monkeypatch) == [FIGURE1_GIDS[:2]]


# ----------------------------------------------------------------------
# Connection pool
# ----------------------------------------------------------------------


def _memory_factory():
    return sqlite3.connect(":memory:", check_same_thread=False)


class TestConnectionPool:
    def test_lease_round_trip_reuses_connections(self):
        pool = ConnectionPool(_memory_factory, size=2)
        with pool.acquire() as connection:
            assert connection.execute("SELECT 1").fetchone() == (1,)
        with pool.acquire() as connection:
            connection.execute("SELECT 1")
        assert pool.stats.created == 1
        assert pool.stats.reused == 1
        assert pool.idle_count == 1
        pool.close()

    def test_bounded_acquire_raises_when_exhausted(self):
        pool = ConnectionPool(_memory_factory, size=1, timeout=0.05)
        lease = pool.acquire()
        with pytest.raises(PoolExhaustedError):
            pool.acquire()
        lease.release()
        pool.acquire().release()  # slot came back
        pool.close()

    def test_release_is_idempotent(self):
        pool = ConnectionPool(_memory_factory, size=1)
        lease = pool.acquire()
        lease.release()
        lease.release()
        assert pool.leased_count == 0
        assert pool.idle_count == 1
        pool.close()

    def test_closed_pool_refuses_acquire(self):
        pool = ConnectionPool(_memory_factory, size=1)
        pool.close()
        with pytest.raises(StorageError):
            pool.acquire()

    def test_health_check_recycles_poisoned_idle_connection(self):
        pool = ConnectionPool(_memory_factory, size=1)
        lease = pool.acquire()
        lease.connection.close()  # poison the handle, then return it
        lease.release()
        with pool.acquire() as connection:
            assert connection.execute("SELECT 1").fetchone() == (1,)
        assert pool.stats.recycled == 1
        assert pool.stats.created == 2
        pool.close()

    def test_invalid_size_rejected(self):
        with pytest.raises(StorageError):
            ConnectionPool(_memory_factory, size=0)

    def test_concurrent_leases_stay_bounded(self):
        pool = ConnectionPool(_memory_factory, size=2, timeout=5.0)
        errors = []

        def worker():
            try:
                for _ in range(25):
                    with pool.acquire() as connection:
                        connection.execute("SELECT 1").fetchone()
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert pool.stats.created <= pool.size
        assert pool.stats.acquired == 150
        assert pool.leased_count == 0
        pool.close()


# ----------------------------------------------------------------------
# File backend
# ----------------------------------------------------------------------


class TestSqliteFileBackend:
    def test_primary_persists_to_path(self, tmp_path):
        path = str(tmp_path / "data.db")
        with SqliteFileBackend(path) as backend:
            backend.primary.execute("CREATE TABLE t (x)")
            backend.primary.execute("INSERT INTO t VALUES (7)")
            backend.primary.commit()
        probe = sqlite3.connect(path)
        assert probe.execute("SELECT x FROM t").fetchone() == (7,)
        probe.close()

    def test_reader_sees_committed_data_and_is_read_only(self, tmp_path):
        with SqliteFileBackend(str(tmp_path / "data.db")) as backend:
            backend.primary.execute("CREATE TABLE t (x)")
            backend.primary.execute("INSERT INTO t VALUES (1)")
            backend.primary.commit()
            reader = backend.open_reader()
            assert reader.execute("SELECT x FROM t").fetchone() == (1,)
            with pytest.raises(sqlite3.OperationalError):
                reader.execute("INSERT INTO t VALUES (2)")
            reader.close()

    def test_pooled_connection_shares_the_database(self, tmp_path):
        # The pool leases read-only readers: they see the primary's
        # commits and cannot write.
        with SqliteFileBackend(str(tmp_path / "data.db")) as backend:
            backend.primary.execute("CREATE TABLE t (x)")
            backend.primary.execute("INSERT INTO t VALUES (3)")
            backend.primary.commit()
            with backend.acquire() as connection:
                assert connection.execute("SELECT x FROM t").fetchall() == [(3,)]
                with pytest.raises(sqlite3.OperationalError):
                    connection.execute("INSERT INTO t VALUES (4)")

    def test_closed_backend_refuses_use(self, tmp_path):
        backend = SqliteFileBackend(str(tmp_path / "data.db"))
        backend.primary  # materialize
        backend.close()
        with pytest.raises(StorageError):
            backend.primary
        with pytest.raises(StorageError):
            backend.open_reader()
        with pytest.raises(StorageError):
            backend.acquire()
        backend.close()  # idempotent

    def test_empty_path_rejected(self):
        with pytest.raises(StorageError):
            SqliteFileBackend("")

    def test_temporary_database_is_deleted_on_close(self):
        backend = SqliteFileBackend.temporary()
        backend.primary.execute("CREATE TABLE t (x)")
        backend.primary.commit()
        directory = os.path.dirname(backend.path)
        assert os.path.exists(backend.path)
        backend.close()
        assert not os.path.exists(directory)


# ----------------------------------------------------------------------
# WAL concurrency (what the annotation service builds on)
# ----------------------------------------------------------------------


class TestWalConcurrency:
    def test_wal_is_the_default_journal_mode(self, tmp_path):
        with SqliteFileBackend(str(tmp_path / "w.db")) as backend:
            mode = backend.primary.execute("PRAGMA journal_mode").fetchone()[0]
            assert mode == "wal"

    def test_database_made_in_another_mode_opens_in_wal(self, tmp_path):
        path = str(tmp_path / "legacy.db")
        legacy = sqlite3.connect(path)
        legacy.execute("PRAGMA journal_mode = delete")
        legacy.execute("CREATE TABLE t (x)")
        legacy.commit()
        legacy.close()
        with SqliteFileBackend(path) as backend:
            mode = backend.primary.execute("PRAGMA journal_mode").fetchone()[0]
            assert mode == "wal"
            with backend.acquire() as reader:
                assert reader.execute("PRAGMA journal_mode").fetchone()[0] == "wal"

    def test_unknown_journal_mode_rejected(self, tmp_path):
        for mode in ("delete", "bogus"):
            with pytest.raises(StorageError, match="journal mode"):
                get_backend("sqlite-file", path=str(tmp_path / "x.db"), journal_mode=mode)

    def test_negative_busy_timeout_rejected(self, tmp_path):
        with pytest.raises(StorageError, match="busy_timeout"):
            SqliteFileBackend(str(tmp_path / "x.db"), busy_timeout=-1.0)

    def test_busy_timeout_applied_to_connections(self, tmp_path):
        with SqliteFileBackend(
            str(tmp_path / "b.db"), busy_timeout=2.5
        ) as backend:
            millis = backend.primary.execute("PRAGMA busy_timeout").fetchone()[0]
            assert millis == 2500
            reader = backend.open_reader()
            assert reader.execute("PRAGMA busy_timeout").fetchone()[0] == 2500
            reader.close()

    def test_reader_progresses_inside_open_write_transaction(self, tmp_path):
        """The WAL property the concurrent service is built on: a reader
        completes (on the pre-write snapshot) while the primary holds an
        open, uncommitted write transaction."""
        with SqliteFileBackend(str(tmp_path / "wal.db")) as backend:
            primary = backend.primary
            primary.execute("CREATE TABLE t (x)")
            primary.execute("INSERT INTO t VALUES (1)")
            primary.commit()
            primary.execute("BEGIN")
            primary.execute("INSERT INTO t VALUES (2)")
            assert primary.in_transaction
            seen = []

            def read():
                reader = backend.open_reader()
                try:
                    rows = reader.execute(
                        "SELECT COUNT(*) FROM t"
                    ).fetchone()
                    seen.append(rows[0])
                finally:
                    reader.close()

            thread = threading.Thread(target=read)
            thread.start()
            thread.join(5.0)
            assert not thread.is_alive(), "reader blocked on the writer"
            assert seen == [1]  # snapshot view: committed data only
            primary.commit()
            probe = backend.open_reader()
            assert probe.execute("SELECT COUNT(*) FROM t").fetchone() == (2,)
            probe.close()

    def test_checkpoint_truncates_the_wal(self, tmp_path):
        path = tmp_path / "cp.db"
        with SqliteFileBackend(str(path)) as backend:
            backend.primary.execute("CREATE TABLE t (x)")
            backend.primary.executemany(
                "INSERT INTO t VALUES (?)", [(i,) for i in range(200)]
            )
            backend.primary.commit()
            wal = path.with_name(path.name + "-wal")
            assert wal.exists() and wal.stat().st_size > 0
            backend.checkpoint()
            assert wal.stat().st_size == 0


# ----------------------------------------------------------------------
# get_backend: the by-name constructor
# ----------------------------------------------------------------------


class TestRegistry:
    def test_get_backend_by_name(self, tmp_path):
        with get_backend(
            "sqlite-file", path=str(tmp_path / "a.db"), pool_size=2
        ) as backend:
            assert isinstance(backend, SqliteFileBackend)
            assert backend.name == "sqlite-file"
            assert backend.pool_size == 2

    def test_unknown_name_lists_registered(self):
        for name in ("postgres", "sqlite-memory"):
            with pytest.raises(StorageError, match="sqlite-file"):
                get_backend(name)

    def test_file_backend_requires_path(self):
        with pytest.raises(StorageError, match="path"):
            get_backend("sqlite-file")


# ----------------------------------------------------------------------
# Config knobs
# ----------------------------------------------------------------------


class TestConfigKnobs:
    def test_defaults(self):
        config = NebulaConfig()
        assert config.storage_backend == "sqlite-file"
        assert config.pool_size == 4
        # The config's constants name the backend's own defaults (the CLI
        # opens the backend with those; perfbench passes these copies).
        defaults = inspect.signature(SqliteFileBackend).parameters
        assert config.pool_size == defaults["pool_size"].default
        assert config.busy_timeout == defaults["busy_timeout"].default

    def test_pool_size_validated(self, tmp_path):
        # The backend owns the pool: a pool with no slot is refused where
        # it is built, not at the first read's acquire().
        for size in (0, -1):
            with pytest.raises(StorageError, match="pool_size"):
                get_backend("sqlite-file", path=str(tmp_path / "p.db"), pool_size=size)
        with pytest.raises(TypeError):
            NebulaConfig(pool_size=2)  # type: ignore[call-arg]

    def test_journal_mode_and_busy_timeout_defaults(self):
        config = NebulaConfig()
        assert config.journal_mode == "wal"
        assert config.busy_timeout == 5.0

    def test_journal_mode_validated(self):
        # WAL is a class constant, not a field: no mode can be passed.
        for mode in ("wal", "bogus"):
            with pytest.raises(TypeError):
                NebulaConfig(journal_mode=mode)  # type: ignore[call-arg]

    def test_busy_timeout_validated(self, tmp_path):
        with pytest.raises(StorageError, match="busy_timeout"):
            get_backend("sqlite-file", path=str(tmp_path / "t.db"), busy_timeout=-0.1)
        with pytest.raises(TypeError):
            NebulaConfig(busy_timeout=1.0)  # type: ignore[call-arg]

    def test_registry_forwards_journal_knobs(self, tmp_path):
        with get_backend(
            "sqlite-file",
            path=str(tmp_path / "k.db"),
            journal_mode="wal",
            busy_timeout=1.0,
        ) as backend:
            mode = backend.primary.execute("PRAGMA journal_mode").fetchone()[0]
            assert mode == "wal"
            assert backend.busy_timeout == 1.0


# ----------------------------------------------------------------------
# Nebula takes a backend, not a bare connection
# ----------------------------------------------------------------------


class TestNebulaStorage:
    def test_bare_connection_rejected(self, tmp_path):
        with get_backend("sqlite-file", path=str(tmp_path / "n.db")) as backend:
            build_figure1_connection(backend.primary)
            meta = build_figure1_meta()
            with pytest.raises(StorageError, match="Nebula\\(backend"):
                Nebula(backend.primary, meta)
            other = sqlite3.connect(str(tmp_path / "n.db"))
            with pytest.raises(StorageError, match="b.primary"):
                Nebula(other, meta, backend=backend)
            other.close()
            assert Nebula(backend, meta).backend is backend
            assert Nebula(backend.primary, meta, backend=backend).backend is backend
