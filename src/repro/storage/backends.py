"""Pluggable storage backends behind the annotation pipeline.

A :class:`StorageBackend` is the engine's whole window onto persistent
storage: the **primary** read-write connection the pipeline runs on, a
:class:`~repro.storage.pool.ConnectionPool` of auxiliary handles, a
factory for **reader** connections that may run concurrently with the
primary (the annotation service's per-read connections), and the
:class:`~repro.storage.dialect.Dialect` describing the SQL flavor.

Three concrete engines ship with the reproduction:

* :class:`SqliteFileBackend` — a file-backed SQLite database; readers
  are ``mode=ro`` URI connections, so reads can run concurrently with
  the main connection's write transaction;
* :class:`SqliteMemoryBackend` — a named shared-cache in-memory SQLite
  database.  Unlike a bare ``:memory:`` connection (private to its
  opener), the shared cache lets the pool and readers open additional
  handles onto the *same* data;
* :class:`RawConnectionBackend` — the backward-compatibility adapter
  wrapping an externally created :class:`Connection` (the historical
  ``Nebula(connection=...)`` construction).  When the wrapped
  connection is file-backed it regains full reader/pool support by
  deriving the path; a private ``:memory:`` connection degrades to a
  single-handle backend.

Registering a fourth engine (Postgres, DuckDB, ...) means implementing
this protocol plus a :class:`Dialect` and calling
:func:`repro.storage.registry.register_backend` — the pipeline itself
never changes (see docs/storage.md).
"""

from __future__ import annotations

import itertools
import os
import threading
from pathlib import Path
from types import TracebackType
from typing import Optional, Protocol, Type, runtime_checkable

from ..errors import StorageError
from . import compat
from .compat import Connection
from .dialect import SQLITE_DIALECT, Dialect
from .pool import ConnectionPool, PooledConnection


@runtime_checkable
class StorageBackend(Protocol):
    """What every storage engine must provide to the pipeline."""

    #: Engine identifier (``"sqlite-file"``, ``"sqlite-memory"``, ...).
    name: str
    #: SQL flavor of this engine.
    dialect: Dialect

    @property
    def primary(self) -> Connection:
        """The engine's main read-write connection (stable identity)."""
        ...

    def connect(self) -> Connection:
        """Open a new read-write connection to the same database."""
        ...

    def open_reader(self) -> Optional[Connection]:
        """A connection safe for reads concurrent with the primary, or
        ``None`` when the engine cannot provide one.  The caller owns
        the handle and must close it."""
        ...

    def acquire(self, timeout: Optional[float] = None) -> PooledConnection:
        """Lease an auxiliary connection from the backend's pool."""
        ...

    def close(self) -> None:
        """Release the pool and every owned connection."""
        ...

    def __enter__(self) -> "StorageBackend":
        ...

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        ...


class _SqliteBackendBase:
    """Shared lifecycle: lazy primary, lazy pool, close bookkeeping."""

    name = "sqlite"

    def __init__(
        self,
        pool_size: int = 4,
        pool_timeout: float = 5.0,
        dialect: Dialect = SQLITE_DIALECT,
    ) -> None:
        self.dialect = dialect
        self.pool_size = pool_size
        self.pool_timeout = pool_timeout
        self._primary: Optional[Connection] = None
        self._pool: Optional[ConnectionPool] = None
        self._lock = threading.Lock()
        self._closed = False
        #: Whether ``close`` also closes the primary connection.
        self._owns_primary = True

    # -- to implement ---------------------------------------------------

    def connect(self) -> Connection:
        raise NotImplementedError

    def open_reader(self) -> Optional[Connection]:
        return None

    # -- shared machinery ----------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def primary(self) -> Connection:
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
        with self._lock:
            self._ensure_open()
            if self._pool is None:
                self._pool = ConnectionPool(
                    self.connect, size=self.pool_size, timeout=self.pool_timeout
                )
            return self._pool

    def acquire(self, timeout: Optional[float] = None) -> PooledConnection:
        return self.pool.acquire(timeout=timeout)

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pool, self._pool = self._pool, None
            primary, self._primary = self._primary, None
        if pool is not None:
            pool.close()
        if primary is not None and self._owns_primary:
            primary.close()

    def _ensure_open(self) -> None:
        if self._closed:
            raise StorageError(f"storage backend {self.name!r} is closed")

    def __enter__(self) -> "_SqliteBackendBase":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self.close()


def _read_only_uri(path: str) -> str:
    return Path(path).resolve().as_uri() + "?mode=ro"


#: Journal modes :class:`SqliteFileBackend` accepts (SQLite's set).
JOURNAL_MODES = frozenset(
    {"wal", "delete", "truncate", "persist", "memory", "off"}
)


class SqliteFileBackend(_SqliteBackendBase):
    """A file-backed SQLite database with read-only reader connections.

    The backend opens every connection in ``journal_mode`` (WAL by
    default — readers proceed while a write transaction is open, the
    property the concurrent annotation service builds on) and with a
    ``busy_timeout`` so a briefly locked database waits instead of
    failing immediately.
    """

    name = "sqlite-file"

    def __init__(
        self,
        path: str,
        pool_size: int = 4,
        pool_timeout: float = 5.0,
        dialect: Dialect = SQLITE_DIALECT,
        journal_mode: str = "wal",
        busy_timeout: float = 5.0,
    ) -> None:
        super().__init__(pool_size, pool_timeout, dialect)
        if not path:
            raise StorageError("sqlite-file backend requires a database path")
        if journal_mode not in JOURNAL_MODES:
            raise StorageError(
                f"unknown journal mode {journal_mode!r} "
                f"(choose from {sorted(JOURNAL_MODES)})"
            )
        if busy_timeout < 0:
            raise StorageError("busy_timeout must be >= 0 seconds")
        self.path = str(path)
        self.journal_mode = journal_mode
        self.busy_timeout = busy_timeout

    def _apply_busy_timeout(self, connection: Connection) -> None:
        # PRAGMA takes no bound parameters; the value is a validated
        # non-negative float coerced to integer milliseconds.
        millis = int(self.busy_timeout * 1000)
        connection.execute(f"PRAGMA busy_timeout = {millis:d}")  # nebula-lint: ignore[NBL001]

    def connect(self) -> Connection:
        # check_same_thread=False: pooled handles may be leased by one
        # thread and returned (or closed at shutdown) by another; each
        # lease is still used by a single thread at a time.
        connection = compat.connect(self.path, check_same_thread=False)
        self._apply_busy_timeout(connection)
        # The journal mode is a property of the database file; setting it
        # on each read-write connection is idempotent.  The value is
        # whitelisted in __init__, never caller-interpolated.
        connection.execute(f"PRAGMA journal_mode = {self.journal_mode}")  # nebula-lint: ignore[NBL001]
        return connection

    def open_reader(self) -> Optional[Connection]:
        self._ensure_open()
        # mode=ro connections cannot change the journal mode (and need
        # not: it lives in the database file); the busy timeout still
        # applies so readers ride out checkpoint locks.
        reader = compat.connect(
            _read_only_uri(self.path), uri=True, check_same_thread=False
        )
        self._apply_busy_timeout(reader)
        return reader

    def checkpoint(self) -> None:
        """Fold the write-ahead log back into the database file.

        A no-op outside WAL mode.  Startup recovery calls this so a
        crash's WAL remnants are truncated before the service goes
        ready.
        """
        if self.journal_mode == "wal":
            self.primary.execute("PRAGMA wal_checkpoint(TRUNCATE)")


#: Process-wide counter giving each shared-cache database a unique name.
_MEMORY_IDS = itertools.count(1)


class SqliteMemoryBackend(_SqliteBackendBase):
    """A named shared-cache in-memory SQLite database.

    The backend keeps one *anchor* connection (the primary) open for its
    whole lifetime — a shared-cache database lives exactly as long as
    its last connection — and every pooled or reader handle attaches to
    the same cache, so all of them see one database.
    """

    name = "sqlite-memory"

    def __init__(
        self,
        identifier: Optional[str] = None,
        pool_size: int = 4,
        pool_timeout: float = 5.0,
        dialect: Dialect = SQLITE_DIALECT,
    ) -> None:
        super().__init__(pool_size, pool_timeout, dialect)
        name = identifier or f"nebula-mem-{os.getpid()}-{next(_MEMORY_IDS)}"
        self.uri = f"file:{name}?mode=memory&cache=shared"
        # Materialize the anchor eagerly: a lazily created primary would
        # let an early pooled connection create (then drop) the database.
        with self._lock:
            self._primary = self.connect()

    def connect(self) -> Connection:
        return compat.connect(self.uri, uri=True, check_same_thread=False)

    def open_reader(self) -> Optional[Connection]:
        self._ensure_open()
        return self.connect()


class RawConnectionBackend(_SqliteBackendBase):
    """Compatibility adapter over an externally created connection.

    ``close()`` releases the pool and readers but leaves the wrapped
    connection to its creator (matching the historical contract where
    callers of ``Nebula(connection, ...)`` owned the handle).
    """

    name = "sqlite-raw"

    def __init__(
        self,
        connection: Connection,
        pool_size: int = 4,
        pool_timeout: float = 5.0,
        dialect: Dialect = SQLITE_DIALECT,
    ) -> None:
        super().__init__(pool_size, pool_timeout, dialect)
        self._owns_primary = False
        self._primary = connection
        #: Filesystem path of the wrapped database; None when in-memory.
        self.path = compat.database_path(connection)

    def connect(self) -> Connection:
        if self.path is None:
            raise StorageError(
                "cannot open additional connections to a private in-memory "
                "database (use SqliteMemoryBackend for a shareable one)"
            )
        return compat.connect(self.path, check_same_thread=False)

    def open_reader(self) -> Optional[Connection]:
        self._ensure_open()
        if self.path is None:
            return None
        return compat.connect(
            _read_only_uri(self.path), uri=True, check_same_thread=False
        )


def wrap_connection(connection: Connection, pool_size: int = 4) -> RawConnectionBackend:
    """The documented adapter: a raw connection as a storage backend."""
    return RawConnectionBackend(connection, pool_size=pool_size)


def as_backend(source: object, pool_size: int = 4) -> StorageBackend:
    """Coerce ``source`` (backend or raw connection) into a backend."""
    if isinstance(source, Connection):
        return wrap_connection(source, pool_size=pool_size)
    if isinstance(source, StorageBackend):
        return source
    raise StorageError(
        f"expected a storage backend or a database connection, "
        f"got {type(source).__name__}"
    )
