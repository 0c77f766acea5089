"""The storage layer: dialect, pool, the file engine, get_backend.

The pipeline-facing contract (every sqlite3 call site routed through a
:class:`SqliteFileBackend`) is exercised indirectly by the whole suite,
which builds every world on that engine.  This module tests the layer
itself: dialect SQL construction, pool bounding/health/threading, engine
semantics (read-only readers, WAL concurrency, temporary databases), and
the by-name constructor.
"""

from __future__ import annotations

import os
import sqlite3
import threading

import pytest

from conftest import build_figure1_connection, build_figure1_meta
from repro import Nebula, NebulaConfig
from repro.errors import ConfigurationError, PoolExhaustedError, StorageError
from repro.storage import (
    SQLITE_DIALECT,
    ConnectionPool,
    Dialect,
    SqliteFileBackend,
    get_backend,
)

# ----------------------------------------------------------------------
# Dialect
# ----------------------------------------------------------------------


class TestDialect:
    def test_placeholders(self):
        assert SQLITE_DIALECT.placeholders(3) == "?, ?, ?"
        assert SQLITE_DIALECT.placeholders(1) == "?"
        assert SQLITE_DIALECT.placeholders(0) == ""

    def test_negative_placeholder_count_rejected(self):
        with pytest.raises(ValueError):
            SQLITE_DIALECT.placeholders(-1)

    def test_chunked_respects_max_variables(self):
        narrow = Dialect(max_variables=3)
        chunks = list(narrow.chunked(list(range(8))))
        assert chunks == [[0, 1, 2], [3, 4, 5], [6, 7]]

    def test_chunked_single_chunk_when_under_limit(self):
        assert list(SQLITE_DIALECT.chunked(["a", "b"])) == [["a", "b"]]

    def test_quote_identifier_escapes_quotes(self):
        assert SQLITE_DIALECT.quote_identifier("Gene") == '"Gene"'

    def test_quote_qualified(self):
        assert SQLITE_DIALECT.quote_qualified("Gene", "GID") == '"Gene"."GID"'

    def test_savepoint_statements_quote_the_name(self):
        assert SQLITE_DIALECT.savepoint_statement("sp1") == 'SAVEPOINT "sp1"'
        assert (
            SQLITE_DIALECT.release_statement("sp1") == 'RELEASE SAVEPOINT "sp1"'
        )
        assert (
            SQLITE_DIALECT.rollback_statement("sp1")
            == 'ROLLBACK TO SAVEPOINT "sp1"'
        )

    def test_frozen(self):
        with pytest.raises(Exception):
            SQLITE_DIALECT.placeholder = "%s"  # type: ignore[misc]


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
        with SqliteFileBackend(str(tmp_path / "data.db")) as backend:
            backend.primary.execute("CREATE TABLE t (x)")
            backend.primary.commit()
            with backend.acquire() as connection:
                connection.execute("INSERT INTO t VALUES (3)")
                connection.commit()
            count = backend.primary.execute("SELECT COUNT(*) FROM t").fetchone()
            assert count == (1,)

    def test_closed_backend_refuses_use(self, tmp_path):
        backend = SqliteFileBackend(str(tmp_path / "data.db"))
        backend.primary  # materialize
        backend.close()
        with pytest.raises(StorageError):
            backend.primary
        with pytest.raises(StorageError):
            backend.open_reader()
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

    def test_journal_mode_knob(self, tmp_path):
        with SqliteFileBackend(
            str(tmp_path / "d.db"), journal_mode="delete"
        ) as backend:
            mode = backend.primary.execute("PRAGMA journal_mode").fetchone()[0]
            assert mode == "delete"

    def test_unknown_journal_mode_rejected(self, tmp_path):
        with pytest.raises(StorageError, match="journal mode"):
            SqliteFileBackend(str(tmp_path / "x.db"), journal_mode="bogus")

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

    def test_checkpoint_is_a_noop_outside_wal(self, tmp_path):
        with SqliteFileBackend(
            str(tmp_path / "nw.db"), journal_mode="delete"
        ) as backend:
            backend.primary.execute("CREATE TABLE t (x)")
            backend.primary.commit()
            backend.checkpoint()  # must not raise


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

    def test_pool_size_validated(self):
        with pytest.raises(ConfigurationError):
            NebulaConfig(pool_size=0)  # nebula-lint: ignore[NBL003]

    def test_journal_mode_and_busy_timeout_defaults(self):
        config = NebulaConfig()
        assert config.journal_mode == "wal"
        assert config.busy_timeout == 5.0

    def test_journal_mode_validated(self):
        with pytest.raises(ConfigurationError):
            NebulaConfig(journal_mode="bogus")  # nebula-lint: ignore[NBL003]

    def test_busy_timeout_validated(self):
        with pytest.raises(ConfigurationError):
            NebulaConfig(busy_timeout=-0.1)  # nebula-lint: ignore[NBL003]

    def test_registry_forwards_journal_knobs(self, tmp_path):
        with get_backend(
            "sqlite-file",
            path=str(tmp_path / "k.db"),
            journal_mode="truncate",
            busy_timeout=1.0,
        ) as backend:
            assert backend.journal_mode == "truncate"
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
