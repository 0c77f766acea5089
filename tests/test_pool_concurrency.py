"""ConnectionPool under real thread contention: exhaustion, health-probe
eviction, and stats accuracy (PR 6, satellite of the service work)."""

import sqlite3
import threading
import time

import pytest

from repro.errors import PoolExhaustedError
from repro.storage import ConnectionPool


@pytest.fixture()
def factory(tmp_path):
    path = str(tmp_path / "pool.db")
    bootstrap = sqlite3.connect(path)
    bootstrap.execute("CREATE TABLE t (x INTEGER)")
    bootstrap.execute("INSERT INTO t VALUES (1)")
    bootstrap.commit()
    bootstrap.close()

    def connect():
        return sqlite3.connect(path, check_same_thread=False)

    return connect


class TestExhaustion:
    def test_held_leases_exhaust_the_pool(self, factory):
        pool = ConnectionPool(factory, size=2, timeout=0.05)
        first = pool.acquire()
        second = pool.acquire()
        assert pool.leased_count == 2
        with pytest.raises(PoolExhaustedError):
            pool.acquire(timeout=0.05)
        assert pool.stats.waited >= 1
        # A release unblocks the next acquire.
        first.release()
        third = pool.acquire(timeout=0.05)
        third.release()
        second.release()
        pool.close()

    def test_blocked_acquire_wakes_on_release(self, factory):
        pool = ConnectionPool(factory, size=1, timeout=5.0)
        lease = pool.acquire()
        acquired = threading.Event()

        def waiter():
            inner = pool.acquire(timeout=5.0)
            acquired.set()
            inner.release()

        thread = threading.Thread(target=waiter)
        thread.start()
        assert not acquired.wait(0.05)  # genuinely blocked
        lease.release()
        assert acquired.wait(5.0)
        thread.join()
        assert pool.stats.waited >= 1
        pool.close()

    def test_timeout_is_one_deadline_under_churn(self, factory):
        # Another thread releases and re-takes the only slot every 50 ms.
        # Each release wakes the waiter, which finds the slot taken
        # again: the wait must still end at its deadline, counted once.
        pool = ConnectionPool(factory, size=1, timeout=5.0)
        holding = threading.Event()
        stop = threading.Event()

        def churn():
            lease = pool.acquire()
            holding.set()
            while not stop.is_set():
                time.sleep(0.05)
                lease.release()
                lease = pool.acquire()
            lease.release()

        outcome = []

        def waiter():
            started = time.monotonic()
            try:
                pool.acquire(timeout=0.25).release()
                outcome.append(("acquired", time.monotonic() - started))
            except PoolExhaustedError:
                outcome.append(("exhausted", time.monotonic() - started))

        churner = threading.Thread(target=churn)
        churner.start()
        assert holding.wait(5.0)
        blocked = threading.Thread(target=waiter)
        blocked.start()
        blocked.join(3.0)
        waiter_hung = blocked.is_alive()
        stop.set()
        churner.join(5.0)
        blocked.join(5.0)
        assert not churner.is_alive() and not blocked.is_alive()
        assert not waiter_hung, "acquire(timeout=0.25) outlived its deadline"
        assert outcome[0][0] == "exhausted"
        assert outcome[0][1] < 2.0
        assert pool.stats.waited == 1
        pool.close()


class TestHealthProbe:
    def test_poisoned_idle_connection_is_evicted(self, factory):
        pool = ConnectionPool(factory, size=2)
        lease = pool.acquire()
        # Close the driver handle behind the pool's back: the idle
        # connection is now poisoned and must fail its next probe.
        lease.connection.close()
        lease.release()
        assert pool.idle_count == 1
        replacement = pool.acquire()
        replacement.connection.execute("SELECT x FROM t").fetchone()
        replacement.release()
        assert pool.stats.recycled == 1
        assert pool.stats.created == 2  # original + replacement
        pool.close()


class TestStatsUnderContention:
    def test_stats_accurate_with_many_threads(self, factory):
        pool = ConnectionPool(factory, size=3, timeout=10.0)
        rounds = 25
        workers = 8
        errors = []

        def worker():
            for _ in range(rounds):
                try:
                    with pool.acquire(timeout=10.0) as connection:
                        row = connection.execute("SELECT x FROM t").fetchone()
                        assert row == (1,)
                except Exception as error:  # pragma: no cover - diagnostics
                    errors.append(error)

        threads = [threading.Thread(target=worker) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        stats = pool.stats
        assert stats.acquired == workers * rounds
        assert stats.created + stats.reused == stats.acquired
        assert stats.created <= pool.size  # bounded: never over-allocates
        assert pool.leased_count == 0
        assert pool.idle_count <= pool.size
        pool.close()

    def test_bounded_under_burst(self, factory):
        pool = ConnectionPool(factory, size=2, timeout=10.0)
        barrier = threading.Barrier(6)
        peak = []
        lock = threading.Lock()

        def worker():
            barrier.wait()
            with pool.acquire(timeout=10.0):
                with lock:
                    peak.append(pool.leased_count)

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert max(peak) <= 2
        pool.close()
