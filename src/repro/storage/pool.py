"""A thread-safe connection pool with leases and health checks.

:class:`ConnectionPool` owns a set of driver connections created by a
backend-supplied factory.  Callers borrow one with :meth:`acquire`,
which returns a :class:`PooledConnection` *lease* — a context manager
that returns the connection to the pool on exit, so a handle can never
leak past its scope::

    with pool.acquire() as connection:
        connection.execute("SELECT 1")

Guarantees:

* **bounded** — at most ``size`` connections exist at once; an
  ``acquire`` beyond that blocks up to ``timeout`` seconds and then
  raises :class:`~repro.errors.PoolExhaustedError`;
* **healthy** — an idle connection is probed (``SELECT 1``) before
  being handed out; a probe failure discards it and opens a fresh one,
  so a handle poisoned by a crashed writer never reaches a caller;
* **thread-safe** — all state transitions happen under one condition
  variable, while health probes and connection creation run *outside*
  it (a slow sqlite round-trip never stalls other acquirers); leases
  may be acquired and released from different threads.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from types import TracebackType
from typing import Callable, List, Optional, Type

from ..errors import PoolExhaustedError, StorageError
from .compat import Connection, Error


@dataclass
class PoolStats:
    """Lifetime accounting for one pool (monotonic counters)."""

    created: int = 0
    acquired: int = 0
    reused: int = 0
    #: Idle connections discarded after a failed health probe.
    recycled: int = 0
    #: ``acquire`` calls that found no free slot and had to wait (once
    #: per call, however often the wait wakes).
    waited: int = 0


class PooledConnection:
    """One borrowed connection; returns itself to the pool on exit."""

    def __init__(self, pool: "ConnectionPool", connection: Connection) -> None:
        self._pool = pool
        self.connection = connection
        self._released = False

    def release(self) -> None:
        """Hand the connection back (idempotent)."""
        if not self._released:
            self._released = True
            self._pool._return(self.connection)

    def __enter__(self) -> Connection:
        return self.connection

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self.release()


@dataclass
class _PoolState:
    idle: List[Connection] = field(default_factory=list)
    leased: int = 0
    closed: bool = False


class ConnectionPool:
    """Bounded, health-checked pool over a connection factory."""

    def __init__(
        self,
        factory: Callable[[], Connection],
        size: int = 4,
        timeout: float = 5.0,
    ) -> None:
        if size < 1:
            raise StorageError("connection pool size must be >= 1")
        self._factory = factory
        self.size = size
        self.timeout = timeout
        self.stats = PoolStats()
        self._state = _PoolState()
        self._condition = threading.Condition()

    # ------------------------------------------------------------------

    def acquire(self, timeout: Optional[float] = None) -> PooledConnection:
        """Borrow a connection, blocking up to ``timeout`` seconds.

        Raises :class:`~repro.errors.PoolExhaustedError` when every slot
        stays leased past the deadline, and
        :class:`~repro.errors.StorageError` on a closed pool.
        """
        timeout = self.timeout if timeout is None else timeout
        deadline = time.monotonic() + timeout
        with self._condition:
            if self._state.closed:
                raise StorageError("connection pool is closed")
            if self._full():
                self.stats.waited += 1
            # Re-check after every wakeup, against the one deadline: a
            # release notifies one waiter, and another acquirer may take
            # the freed slot first.
            while self._full():
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise PoolExhaustedError(
                        f"no pooled connection available within {timeout}s "
                        f"(size={self.size}, leased={self._state.leased})"
                    )
                self._condition.wait(remaining)
                if self._state.closed:
                    raise StorageError("connection pool is closed")
            # Claim the slot and a candidate atomically; the health probe
            # and factory call happen outside the lock so a slow sqlite
            # round-trip never stalls other acquirers or releasers.
            candidate = self._state.idle.pop() if self._state.idle else None
            self._state.leased += 1
            self.stats.acquired += 1
        try:
            connection = self._vet(candidate)
        except BaseException:
            with self._condition:
                self._state.leased -= 1
                self._condition.notify()
            raise
        return PooledConnection(self, connection)

    def close(self) -> None:
        """Close every idle connection and refuse further acquires.

        Leased connections are closed as they come back.
        """
        with self._condition:
            self._state.closed = True
            idle, self._state.idle = self._state.idle, []
            self._condition.notify_all()
        for connection in idle:
            self._close_quietly(connection)

    @property
    def idle_count(self) -> int:
        with self._condition:
            return len(self._state.idle)

    @property
    def leased_count(self) -> int:
        with self._condition:
            return self._state.leased

    def __enter__(self) -> "ConnectionPool":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self.close()

    # ------------------------------------------------------------------

    def _full(self) -> bool:
        """No idle connection and no free slot (call under the condition)."""
        return not self._state.idle and self._state.leased >= self.size

    def _vet(self, candidate: Optional[Connection]) -> Connection:
        """Probe candidates (lock-free) until one is healthy, else create.

        The caller already owns the leased slot, so at most ``size``
        connections exist even while the probe runs unlocked; replacement
        candidates are popped back under the condition.
        """
        while candidate is not None:
            if self._healthy(candidate):
                with self._condition:
                    self.stats.reused += 1
                return candidate
            self._close_quietly(candidate)
            with self._condition:
                self.stats.recycled += 1
                candidate = (
                    self._state.idle.pop() if self._state.idle else None
                )
        with self._condition:
            self.stats.created += 1
        return self._factory()

    def _return(self, connection: Connection) -> None:
        with self._condition:
            self._state.leased -= 1
            if self._state.closed:
                self._close_quietly(connection)
            else:
                self._state.idle.append(connection)
            self._condition.notify()

    @staticmethod
    def _healthy(connection: Connection) -> bool:
        try:
            connection.execute("SELECT 1").fetchone()
        except Error:
            return False
        return True

    @staticmethod
    def _close_quietly(connection: Connection) -> None:
        try:
            connection.close()
        except Error:  # pragma: no cover - close failures are best-effort
            pass
