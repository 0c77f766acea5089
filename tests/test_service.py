"""The concurrent annotation service: admission control, deadlines,
coalescing, load shedding, per-request isolation, and shutdown (PR 6)."""

import sys
import threading
import time

import pytest

from repro import (
    AnnotationService,
    FaultInjector,
    Nebula,
    NebulaConfig,
    ServiceConfig,
    generate_bio_database,
)
from repro.datagen.biodb import BioDatabaseSpec
from repro.datagen.workload import WorkloadSpec, generate_workload
from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    PipelineStageError,
    ServiceOverloadedError,
    ServiceUnavailableError,
)
from repro.observability import MetricsRegistry, set_metrics
from repro.resilience import SERVICE_SHED
from repro.storage import SqliteFileBackend
from repro.storage.compat import OperationalError
from repro.types import CellRef


@pytest.fixture()
def db(storage_backend):
    return generate_bio_database(
        BioDatabaseSpec(genes=30, proteins=18, publications=100, seed=11),
        backend=storage_backend,
    )


@pytest.fixture()
def faults():
    return FaultInjector()


@pytest.fixture()
def metrics():
    registry = MetricsRegistry()
    previous = set_metrics(registry)
    yield registry
    set_metrics(previous)


@pytest.fixture()
def nebula(db, storage_backend, faults, metrics):
    config = NebulaConfig(epsilon=0.6, fault_injector=faults)
    return Nebula(storage_backend, db.meta, config, aliases=db.aliases)


def make_service(nebula, **overrides):
    defaults = dict(queue_capacity=16, max_batch=8, flush_interval=0.02)
    defaults.update(overrides)
    return AnnotationService(nebula, ServiceConfig(**defaults))


def texts(db, n, tag="note"):
    genes = db.genes
    return [
        f"{tag} {i}: gene {genes[i % len(genes)].gid} looks interesting"
        for i in range(n)
    ]


class TestConfig:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"queue_capacity": 0},
            {"max_batch": 0},
            {"flush_interval": 0.0},
            {"default_deadline": -1.0},
            {"shed_recovery": -0.1},
            {"shed_watermark": 0.0},
            {"shed_watermark": 1.5},
            {"shed_recovery": 0.9, "shed_watermark": 0.5},
        ],
    )
    def test_invalid_config_rejected(self, overrides):
        with pytest.raises(ConfigurationError):
            ServiceConfig(**overrides)


class TestAdmissionControl:
    def test_full_queue_rejects_with_overload(self, db, nebula):
        # Not started: nothing drains, so the queue fills deterministically.
        service = make_service(nebula, queue_capacity=4)
        for text in texts(db, 4):
            service.submit(text)
        with pytest.raises(ServiceOverloadedError) as excinfo:
            service.submit("one too many")
        assert excinfo.value.capacity == 4
        assert service.stats().rejected == 1
        # The queued work still flushes once the writer starts.
        service.start()
        assert service.stop() is True
        assert service.stats().ingested == 4

    def test_submit_after_stop_is_unavailable(self, db, nebula):
        service = make_service(nebula).start()
        service.stop()
        with pytest.raises(ServiceUnavailableError):
            service.submit("too late")

    def test_rejected_submission_is_not_lost_work(self, db, nebula):
        service = make_service(nebula, queue_capacity=2)
        tickets = [service.submit(text) for text in texts(db, 2)]
        with pytest.raises(ServiceOverloadedError):
            service.submit("rejected")
        service.start()
        reports = [ticket.result(timeout=10.0) for ticket in tickets]
        assert all(report.annotation_id for report in reports)
        service.stop()
        stats = service.stats()
        assert stats.submitted == 2 and stats.rejected == 1


class TestDeadlines:
    def test_expired_submission_fails_with_deadline_error(self, db, nebula):
        service = make_service(nebula)
        ticket = service.submit(texts(db, 1)[0], deadline=0.01)
        time.sleep(0.05)  # expire while the writer is not yet running
        service.start()
        with pytest.raises(DeadlineExceededError):
            ticket.result(timeout=10.0)
        service.stop()
        stats = service.stats()
        assert stats.expired == 1 and stats.ingested == 0

    def test_default_deadline_applies(self, db, nebula):
        service = make_service(nebula, default_deadline=0.01)
        ticket = service.submit(texts(db, 1)[0])
        assert ticket.deadline == 0.01

    def test_invalid_deadline_rejected(self, db, nebula):
        service = make_service(nebula)
        with pytest.raises(Exception):
            service.submit("x", deadline=-2.0)

    def test_result_timeout_leaves_ticket_in_flight(self, db, nebula):
        service = make_service(nebula)  # never started
        ticket = service.submit(texts(db, 1)[0])
        with pytest.raises(TimeoutError):
            ticket.result(timeout=0.01)
        assert not ticket.done
        service.start()
        ticket.result(timeout=10.0)
        service.stop()


class TestCoalescing:
    def test_queued_submissions_flush_as_one_batch(self, db, nebula):
        service = make_service(nebula, max_batch=16)
        tickets = [service.submit(text) for text in texts(db, 6)]
        service.start()
        for ticket in tickets:
            ticket.result(timeout=10.0)
        service.stop()
        stats = service.stats()
        assert stats.ingested == 6
        assert stats.batches == 1  # all six coalesced into one flush

    def test_concurrent_clients_all_complete(self, db, nebula):
        service = make_service(nebula, queue_capacity=64).start()
        outcomes = []
        lock = threading.Lock()

        def client(i):
            report = service.ingest(
                f"client note {i}: gene {db.genes[i % len(db.genes)].gid}",
                timeout=30.0,
            )
            with lock:
                outcomes.append(report.annotation_id)

        threads = [threading.Thread(target=client, args=(i,)) for i in range(10)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert service.stop() is True
        assert len(outcomes) == 10
        assert len(set(outcomes)) == 10  # ten distinct annotations


class TestLoadShedding:
    def test_deep_queue_triggers_approximate_search(self, db, nebula):
        service = make_service(
            nebula,
            queue_capacity=8,
            max_batch=2,
            shed_watermark=0.5,
            shed_recovery=0.25,
        )
        tickets = [service.submit(text) for text in texts(db, 8)]
        service.start()
        reports = [ticket.result(timeout=30.0) for ticket in tickets]
        service.stop()
        shed = [r for r in reports if SERVICE_SHED in r.degradations]
        assert shed, "a deep queue must shed into approximate search"
        # Shedding disengages once the queue drains below the recovery mark.
        assert service.stats().shedding is False

    def test_light_load_does_not_shed(self, db, nebula):
        service = make_service(nebula).start()
        report = service.ingest(texts(db, 1)[0], timeout=10.0)
        service.stop()
        assert SERVICE_SHED not in report.degradations


class TestPoisonedBatch:
    def test_one_bad_member_does_not_fail_neighbors(self, db, nebula, faults):
        service = make_service(nebula, max_batch=8)
        tickets = [service.submit(text) for text in texts(db, 3)]
        # First firing poisons the whole batch; it is retried per-request
        # where the fault is exhausted, so every member lands.
        faults.arm("queue.triage", times=1)
        service.start()
        reports = [ticket.result(timeout=10.0) for ticket in tickets]
        service.stop()
        assert len(reports) == 3
        assert service.dead_letter_count() == 0

    def test_persistent_failure_dead_letters_only_its_request(
        self, db, nebula, faults
    ):
        service = make_service(nebula, max_batch=8)
        tickets = [service.submit(text) for text in texts(db, 3)]
        # Firing 1 poisons the batch; firing 2 hits the first member on
        # the per-request fallback path and dead-letters it alone.
        faults.arm("queue.triage", times=2)
        service.start()
        outcomes = []
        for ticket in tickets:
            try:
                outcomes.append(ticket.result(timeout=10.0))
            except PipelineStageError as error:
                outcomes.append(error)
        service.stop()
        failures = [o for o in outcomes if isinstance(o, PipelineStageError)]
        assert len(failures) == 1
        assert failures[0].dead_letter_id is not None
        assert service.dead_letter_count() == 1
        stats = service.stats()
        assert stats.ingested == 2 and stats.failed == 1


class TestShutdown:
    def test_clean_stop_flushes_queued_work(self, db, nebula):
        service = make_service(nebula)
        tickets = [service.submit(text) for text in texts(db, 5)]
        service.start()
        assert service.stop() is True
        for ticket in tickets:
            assert ticket.result(timeout=0).annotation_id

    def test_timed_out_stop_fails_stranded_submissions(self, db, nebula, faults):
        service = make_service(nebula, max_batch=1, flush_interval=0.01)
        # Every flush stalls long enough that a tiny shutdown budget
        # cannot drain four of them.
        faults.arm_stall("service.flush", 0.3, times=-1)
        tickets = [service.submit(text) for text in texts(db, 4)]
        service.start()
        assert service.stop(timeout=0.05) is False
        stranded = 0
        for ticket in tickets:
            try:
                ticket.result(timeout=10.0)
            except ServiceUnavailableError:
                stranded += 1
        assert stranded >= 1
        # Let the writer finish its in-flight item before the backend
        # fixture tears down.
        writer = service._writer
        if writer is not None:
            writer.join(10.0)

    def test_double_start_rejected(self, db, nebula):
        service = make_service(nebula).start()
        with pytest.raises(Exception):
            service.start()
        service.stop()


class TestHealth:
    def test_health_transitions(self, db, nebula):
        service = make_service(nebula)
        assert service.health()["status"] == "starting"
        assert not service.ready()
        service.start()
        assert service.ready()
        assert service.health()["status"] == "ok"
        service.stop()
        assert service.health()["status"] == "stopped"
        assert not service.ready()

    def test_health_reports_the_acg_build_time(self, nebula, metrics):
        assert nebula.acg_build_seconds > 0
        gauge = metrics.gauge("nebula_acg_build_seconds")
        assert gauge.value == nebula.acg_build_seconds
        health = make_service(nebula).health()
        assert health["acg_build_seconds"] == nebula.acg_build_seconds

    def test_stats_account_for_every_submission(self, db, nebula):
        service = make_service(nebula, queue_capacity=4)
        for text in texts(db, 4):
            service.submit(text)
        with pytest.raises(ServiceOverloadedError):
            service.submit("overflow")
        service.start()
        service.stop()
        stats = service.stats()
        assert stats.submitted == 4
        assert stats.rejected == 1
        assert stats.submitted == stats.ingested + stats.failed + stats.expired


class TestReadEndpoints:
    def test_reads_see_committed_annotations(self, db, nebula):
        service = make_service(nebula).start()
        before = service.annotation_count()
        report = service.ingest(
            f"flagged observation: gene {db.genes[0].gid} drifted", timeout=10.0
        )
        assert service.annotation_count() == before + 1
        found = service.find_annotations("flagged observation")
        assert any(row[0] == report.annotation_id for row in found)
        service.stop()

    def test_reader_fault_falls_back_without_failing(
        self, db, nebula, faults, metrics
    ):
        service = make_service(nebula).start()
        service.ingest(texts(db, 1)[0], timeout=10.0)
        count = service.annotation_count()
        faults.arm("service.reader", times=1)
        assert service.annotation_count() == count  # degraded, not broken
        assert (
            metrics.counter("nebula_service_reader_fallbacks_total").value >= 1
        )
        service.stop()

    def test_transient_lock_during_read_retries_on_primary(
        self, db, nebula, metrics
    ):
        # A reader that meets a transient lock (a checkpoint or WAL
        # recovery outlasting the busy timeout) must retry the read on
        # the primary.
        service = make_service(nebula).start()
        service.ingest(texts(db, 1)[0], timeout=10.0)
        seen = []

        def flaky(connection):
            seen.append(connection)
            if len(seen) == 1:
                raise OperationalError(
                    "database table is locked: _nebula_annotations"
                )
            row = connection.execute(
                "SELECT COUNT(*) FROM _nebula_annotations"
            ).fetchone()
            return int(row[0])

        assert service._read(flaky) >= 1
        assert seen[-1] is nebula.connection
        assert (
            metrics.counter("nebula_service_reader_fallbacks_total").value >= 1
        )
        service.stop()

    def test_non_transient_read_errors_propagate(self, db, nebula):
        service = make_service(nebula).start()
        with pytest.raises(OperationalError, match="no such table"):
            service._read(
                lambda connection: connection.execute(
                    "SELECT * FROM _nebula_no_such_table"
                ).fetchall()
            )
        service.stop()

    def test_read_survives_open_write_transaction_on_primary(
        self, db, nebula
    ):
        # The writer-side shape of the race: an open transaction holds
        # the annotation table's write lock while a reader counts it.
        # The WAL reader sees the committed snapshot and completes.
        service = make_service(nebula)  # deliberately not started: the
        # primary connection is free for the test to hold a transaction
        nebula.insert_annotation(
            texts(db, 1, tag="pre")[0], author="setup"
        )
        connection = nebula.connection
        connection.execute("BEGIN")
        connection.execute("UPDATE _nebula_annotations SET author = author")
        try:
            assert service.annotation_count() >= 1
        finally:
            connection.rollback()

    def test_pending_verifications_listing(self, db, nebula):
        service = make_service(nebula).start()
        service.ingest(
            f"gene {db.genes[2].gid} interacts with gene {db.genes[3].gid}",
            timeout=10.0,
        )
        rows = service.pending_verifications(limit=5)
        for task_id, annotation_id, table, rowid, confidence in rows:
            assert 0.0 <= confidence <= 1.0
            assert rowid >= 1
        service.stop()


    def test_annotations_for_returns_every_edge_that_applies(
        self, figure1_backend, figure1_meta
    ):
        # A range over rows 3-6, a table-level and a column-level edge
        # apply to rows 3 and 4, at a pin and, once the table-level edge
        # is detached, at the head: as the store's row read says.
        nebula = Nebula(figure1_backend, figure1_meta, NebulaConfig(epsilon=0.6))
        manager = nebula.manager
        ranged = manager.add_annotation("rows 3-6")
        manager.attach_range(ranged.annotation_id, "Gene", 3, 6)
        whole = manager.add_annotation("the whole table")
        table_edge = manager.attach_true(whole.annotation_id, CellRef("Gene", None))
        family = manager.add_annotation("the family column")
        manager.attach_true(family.annotation_id, CellRef("Gene", None, "Family"))
        nebula.connection.commit()
        pin = nebula.head_commit()
        manager.store.detach(table_edge.attachment_id)
        nebula.connection.commit()
        service = make_service(nebula)
        expected = [
            (note.annotation_id, note.content, 1.0, "true")
            for note in (ranged, whole, family)
        ]
        for rowid in (3, 4):
            assert service.annotations_for("Gene", rowid, as_of=pin) == expected
            assert [
                row[0] for row in service.annotations_for("Gene", rowid)
            ] == [ranged.annotation_id, family.annotation_id]
            assert [
                a.annotation_id
                for a in manager.store.attachments_on("Gene", rowid, as_of=pin)
            ] == [row[0] for row in expected]
        assert service.annotations_for("Gene", 7, as_of=pin) == expected[1:]


class TestWritesBesideReader:
    def test_no_write_fails_while_a_reader_runs(self, storage_backend, metrics):
        """Service writes interleaved with a reader thread's reads all
        land: WAL readers take no lock a write could meet."""
        db = generate_bio_database(
            BioDatabaseSpec(genes=80, proteins=48, publications=400, seed=3),
            backend=storage_backend,
        )
        stream = generate_workload(
            db, WorkloadSpec(sizes=(50, 100), annotations_per_band=20, seed=3)
        )
        nebula = Nebula(storage_backend, db.meta, NebulaConfig(), aliases=db.aliases)
        service = AnnotationService(nebula).start()
        stop = threading.Event()
        reads, read_errors = [], []

        def reader():
            try:
                while not stop.is_set():
                    service.pending_verifications(limit=20)
                    service.annotations_for("Gene", 1)
                    reads.append(1)
            except Exception as error:
                read_errors.append(error)

        thread = threading.Thread(target=reader)
        thread.start()
        errors = []
        try:
            for annotation in stream.annotations:
                ticket = service.submit(annotation.text, attach_to=annotation.focal(1))
                try:
                    ticket.result(10.0)
                except Exception as error:
                    errors.append(error)
        finally:
            stop.set()
            thread.join(10.0)
            service.stop()
        assert not thread.is_alive()
        assert len(stream.annotations) == 120
        assert errors == []
        assert read_errors == []
        assert reads
        assert nebula.commit_log.verify_head() is True


class TestPooledReaders:
    """Service reads lease read-only readers from the backend's pool."""

    def test_reused_reader_sees_later_commits(self, db, nebula, storage_backend):
        service = make_service(nebula).start()
        try:
            before = service.annotation_count()
            service.ingest(texts(db, 1)[0], timeout=10.0)
            assert service.annotation_count() == before + 1
        finally:
            service.stop()
        # One reader served both counts: the second lease reused it.
        stats = storage_backend.pool.stats
        assert stats.created == 1
        assert stats.reused >= 1

    def test_more_reader_threads_than_pool_slots(
        self, db, nebula, storage_backend, metrics
    ):
        service = make_service(nebula).start()
        stop = threading.Event()
        served, read_errors = [], []

        def reader():
            try:
                while not stop.is_set():
                    service.annotations_for("Gene", 1)
                    service.pending_verifications(limit=5)
                    served.append(1)
            except Exception as error:  # pragma: no cover - failure detail
                read_errors.append(error)

        threads = [
            threading.Thread(target=reader)
            for _ in range(storage_backend.pool_size + 2)
        ]
        before = service.annotation_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            reports = [
                service.ingest(text, timeout=10.0)
                for text in texts(db, 12, tag="beside readers")
            ]
        finally:
            stop.set()
            for thread in threads:
                thread.join(10.0)
            sys.setswitchinterval(interval)
            service.stop()
        assert not any(thread.is_alive() for thread in threads)
        assert read_errors == []
        assert len(served) >= len(threads)
        assert len({report.annotation_id for report in reports}) == 12
        assert nebula.manager.store.count_annotations() == before + 12
        assert nebula.commit_log.verify_head() is True
        assert metrics.counter("nebula_service_reader_fallbacks_total").value == 0
        assert storage_backend.pool.stats.created <= storage_backend.pool_size

    def test_reads_open_at_most_pool_size_readers(
        self, nebula, storage_backend, monkeypatch
    ):
        opened = []
        open_reader = storage_backend.open_reader

        def counting_open_reader():
            opened.append(1)
            return open_reader()

        monkeypatch.setattr(storage_backend, "open_reader", counting_open_reader)
        service = make_service(nebula).start()

        def reads():
            for _ in range(10):
                service.annotation_count()

        threads = [threading.Thread(target=reads) for _ in range(8)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(10.0)
        finally:
            service.stop()
        assert not any(thread.is_alive() for thread in threads)
        assert storage_backend.pool.stats.acquired >= 80
        assert 1 <= len(opened) <= storage_backend.pool_size

    def test_exhausted_pool_falls_back_to_primary(self, metrics, tmp_path):
        backend = SqliteFileBackend(
            str(tmp_path / "one-reader.db"), pool_size=1, pool_timeout=0.05
        )
        try:
            world = generate_bio_database(
                BioDatabaseSpec(genes=12, proteins=6, publications=20, seed=2),
                backend=backend,
            )
            nebula = Nebula(backend, world.meta, NebulaConfig(), aliases=world.aliases)
            service = make_service(nebula)  # not started: reads only
            expected = service.annotation_count()
            with backend.acquire():  # the only reader is taken
                assert service.annotation_count() == expected
            fallbacks = metrics.counter("nebula_service_reader_fallbacks_total")
            assert fallbacks.value == 1
        finally:
            backend.close()
