"""The storage layer.

Everything below the annotation pipeline that touches a database driver
lives here: the :mod:`sqlite3` compatibility adapter
(:mod:`repro.storage.compat` — the package's single driver import), the
thread-safe :class:`ConnectionPool`, and the one engine,
:class:`SqliteFileBackend` (a WAL database file whose pool serves
read-only readers), opened by name through :func:`get_backend`.

See docs/storage.md for the engine's contract.
"""

from .backends import SqliteFileBackend, get_backend
from .compat import Connection, Cursor
from .pool import ConnectionPool, PooledConnection, PoolStats

__all__ = [
    "Connection",
    "Cursor",
    "ConnectionPool",
    "PooledConnection",
    "PoolStats",
    "SqliteFileBackend",
    "get_backend",
]
