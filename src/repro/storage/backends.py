"""The storage engine behind the annotation pipeline.

:class:`SqliteFileBackend` is the engine's whole window onto persistent
storage: the **primary** read-write connection the pipeline runs on,
and a bounded :class:`~repro.storage.pool.ConnectionPool` of read-only
**reader** connections that run concurrently with the primary's write
transaction (the annotation service leases one per read).

There is one engine: a SQLite database file in WAL mode, so readers
never block the single writer.  A throwaway database (tests, ``repro
demo``, the examples, the paper-figure benchmarks) is the same engine on
a file in a fresh temporary directory (:meth:`SqliteFileBackend.temporary`),
deleted when the backend closes.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
import weakref
from pathlib import Path
from types import TracebackType
from typing import Optional, Type

from ..errors import StorageError
from . import compat
from .compat import Connection
from .pool import ConnectionPool, PooledConnection


def _read_only_uri(path: str) -> str:
    return Path(path).resolve().as_uri() + "?mode=ro"


class SqliteFileBackend:
    """A SQLite database file in WAL mode with pooled read-only readers.

    WAL lets readers proceed while a write transaction is open, the
    property the concurrent annotation service builds on.  Every
    connection waits up to ``busy_timeout`` seconds on a briefly locked
    database instead of failing immediately.  The primary connection and
    the reader pool are created on first use; :meth:`close` releases
    both.
    """

    #: Engine identifier (reported by the service's health probe).
    name = "sqlite-file"

    def __init__(
        self,
        path: str,
        pool_size: int = 4,
        pool_timeout: float = 5.0,
        busy_timeout: float = 5.0,
    ) -> None:
        if not path:
            raise StorageError("sqlite-file backend requires a database path")
        if pool_size < 1:
            raise StorageError("pool_size must be >= 1")
        if busy_timeout < 0:
            raise StorageError("busy_timeout must be >= 0 seconds")
        self.path = str(path)
        self.pool_size = pool_size
        self.pool_timeout = pool_timeout
        self.busy_timeout = busy_timeout
        self._primary: Optional[Connection] = None
        self._pool: Optional[ConnectionPool] = None
        self._lock = threading.Lock()
        self._closed = False
        #: Removes a temporary database's directory (see :meth:`temporary`).
        self._remove_directory: Optional[weakref.finalize] = None

    @classmethod
    def temporary(cls) -> "SqliteFileBackend":
        """A throwaway database in a fresh temporary directory.

        :meth:`close` deletes the directory.  A backend that is never
        closed deletes it when garbage-collected or at interpreter exit,
        so keep the backend (not only its connection) alive while the
        database is in use.
        """
        directory = tempfile.mkdtemp(prefix="nebula-")
        backend = cls(os.path.join(directory, "nebula.db"))
        backend._remove_directory = weakref.finalize(
            backend, shutil.rmtree, directory, ignore_errors=True
        )
        return backend

    @property
    def primary(self) -> Connection:
        """The main read-write connection (stable identity)."""
        with self._lock:
            self._ensure_open()
            if self._primary is None:
                # Lazy one-time init: connect() runs PRAGMAs under the
                # backend-local lock exactly once; afterwards this path
                # is a pure dictionary read.
                self._primary = self.connect()  # nebula-lint: ignore[NBL011]
            return self._primary

    @property
    def pool(self) -> ConnectionPool:
        """The bounded pool of :meth:`open_reader` connections."""
        with self._lock:
            self._ensure_open()
            if self._pool is None:
                self._pool = ConnectionPool(
                    self.open_reader, size=self.pool_size, timeout=self.pool_timeout
                )
            return self._pool

    def acquire(self, timeout: Optional[float] = None) -> PooledConnection:
        """Lease a read-only reader connection from the pool."""
        return self.pool.acquire(timeout=timeout)

    def _apply_busy_timeout(self, connection: Connection) -> None:
        # PRAGMA takes no bound parameters; the value is a validated
        # non-negative float coerced to integer milliseconds.
        millis = int(self.busy_timeout * 1000)
        connection.execute(f"PRAGMA busy_timeout = {millis:d}")  # nebula-lint: ignore[NBL001]

    def connect(self) -> Connection:
        """Open a new read-write connection to the database (in WAL mode)."""
        # check_same_thread=False: the service's writer thread runs on
        # the primary, which the thread that opened the engine created.
        connection = compat.connect(self.path, check_same_thread=False)
        self._apply_busy_timeout(connection)
        # The journal mode is a property of the database file; setting it
        # on each read-write connection is idempotent.
        connection.execute("PRAGMA journal_mode = wal")
        return connection

    def open_reader(self) -> Connection:
        """A read-only connection safe for reads concurrent with the
        primary.  The caller owns the handle and must close it; the
        pool behind :meth:`acquire` is made of these."""
        self._ensure_open()
        # check_same_thread=False: a pooled reader is leased by one
        # thread at a time, but not always by the same thread.  mode=ro
        # connections cannot change the journal mode (and need not: it
        # lives in the database file); the busy timeout still applies so
        # readers ride out checkpoint locks.
        reader = compat.connect(
            _read_only_uri(self.path), uri=True, check_same_thread=False
        )
        self._apply_busy_timeout(reader)
        return reader

    def checkpoint(self) -> None:
        """Fold the write-ahead log back into the database file.

        Startup recovery calls this so a crash's WAL remnants are
        truncated before the service goes ready.
        """
        self.primary.execute("PRAGMA wal_checkpoint(TRUNCATE)")

    def close(self) -> None:
        """Release the pool and the primary connection (idempotent); a
        temporary database's directory is deleted."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pool, self._pool = self._pool, None
            primary, self._primary = self._primary, None
        if pool is not None:
            pool.close()
        if primary is not None:
            primary.close()
        if self._remove_directory is not None:
            self._remove_directory()

    def _ensure_open(self) -> None:
        if self._closed:
            raise StorageError(f"storage backend {self.name!r} is closed")

    def __enter__(self) -> "SqliteFileBackend":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self.close()


def get_backend(
    name: str,
    path: str = "",
    pool_size: int = 4,
    *,
    journal_mode: str = "wal",
    busy_timeout: float = 5.0,
) -> SqliteFileBackend:
    """Open the storage engine ``name`` on the database file at ``path``.

    ``"sqlite-file"`` is the only engine and ``"wal"`` its only journal
    mode; anything else raises :class:`~repro.errors.StorageError`.
    """
    if name != SqliteFileBackend.name:
        raise StorageError(
            f"unknown storage backend {name!r} "
            f"(the only engine is {SqliteFileBackend.name!r})"
        )
    if journal_mode != "wal":
        raise StorageError(
            f"unsupported journal mode {journal_mode!r} (the engine runs in 'wal')"
        )
    return SqliteFileBackend(path, pool_size=pool_size, busy_timeout=busy_timeout)
