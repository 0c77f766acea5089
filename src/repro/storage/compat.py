"""The documented sqlite3 compatibility adapter.

This module is the **only** place in the ``repro`` package that imports
the :mod:`sqlite3` driver (enforced by nebula-lint rule NBL007).  Every
other layer refers to driver types and errors through the aliases
re-exported here, and obtains connections through the backends in
:mod:`repro.storage.backends` — which in turn call :func:`connect`.

Centralizing the driver import buys two things:

* a single seam where a future non-SQLite engine can swap the concrete
  ``Connection``/error types without touching twenty call sites;
* an auditable inventory of every connection the process opens — the
  pool and backends route through :func:`connect`, so nothing opens a
  database the storage layer does not know about.
"""

from __future__ import annotations

import sqlite3
from typing import Union

#: The DB-API connection type every layer annotates against.
Connection = sqlite3.Connection
#: The DB-API cursor type returned by ``execute``/``executemany``.
Cursor = sqlite3.Cursor
#: The dict-like row factory (opt-in; the engine uses plain tuples).
Row = sqlite3.Row

#: Driver exception hierarchy, re-exported under stable names.
Error = sqlite3.Error
DatabaseError = sqlite3.DatabaseError
IntegrityError = sqlite3.IntegrityError
OperationalError = sqlite3.OperationalError
ProgrammingError = sqlite3.ProgrammingError


def connect(
    database: Union[str, bytes],
    *,
    uri: bool = False,
    timeout: float = 5.0,
    check_same_thread: bool = True,
) -> Connection:
    """Open a raw driver connection (storage-layer internal).

    Call sites outside :mod:`repro.storage` must not use this directly —
    they acquire handles from a backend instead, so pooling, health
    checks, and lifecycle accounting stay in one place.
    """
    return sqlite3.connect(
        database, uri=uri, timeout=timeout, check_same_thread=check_same_thread
    )
