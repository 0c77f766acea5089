"""Chaos suite: the service under writer stalls, reader outages, and
mid-batch crashes (PR 6 acceptance).

The invariants proved here:

* a saturated (stalled) writer never blocks readers — WAL reads keep
  completing — and admission control rejects instead of buffering
  without bound;
* a mid-batch crash between flush and commit loses nothing that was
  acknowledged and duplicates nothing on restart: recovery rolls the
  unacked batch back and the resubmitted requests land exactly once;
* dead letters captured before a restart are replayed exactly once by
  startup recovery, claim-protected against double ingestion;
* whichever fault point fires, a restart on the same engine leaves the
  head equal to the log, the index equal to the data, the engine's
  graph and hop profile equal to the database, and every submission
  stored once if it was acknowledged or dead-lettered, never otherwise.
"""

import threading
import time

import pytest

from repro import (
    AnnotationService,
    ChaosHarness,
    FaultInjector,
    Nebula,
    NebulaConfig,
    ServiceConfig,
    generate_bio_database,
)
from repro.core.acg import AnnotationsConnectivityGraph, PersistentHopProfile
from repro.datagen.biodb import BioDatabaseSpec
from repro.errors import PipelineStageError, ServiceOverloadedError
from repro.observability import MetricsRegistry, set_metrics
from repro.resilience import FAULT_POINTS, SimulatedCrash
from repro.search.index import InvertedValueIndex
from repro.storage import get_backend
from repro.versioning import timetravel


@pytest.fixture()
def metrics():
    registry = MetricsRegistry()
    previous = set_metrics(registry)
    yield registry
    set_metrics(previous)


@pytest.fixture()
def file_backend(tmp_path):
    """WAL concurrent reads are the property under test."""
    backend = get_backend("sqlite-file", path=str(tmp_path / "chaos.db"))
    yield backend
    backend.close()


@pytest.fixture()
def faults():
    return FaultInjector()


@pytest.fixture()
def world(file_backend, faults, metrics):
    db = generate_bio_database(
        BioDatabaseSpec(genes=30, proteins=18, publications=100, seed=23),
        backend=file_backend,
    )
    nebula = Nebula(
        file_backend,
        db.meta,
        NebulaConfig(epsilon=0.6, fault_injector=faults),
        aliases=db.aliases,
    )
    return db, nebula


def wait_until(predicate, timeout=10.0, interval=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestWriterSaturation:
    def test_readers_progress_and_overload_rejects(self, world, faults):
        db, nebula = world
        chaos = ChaosHarness(faults)
        service = AnnotationService(
            nebula,
            ServiceConfig(queue_capacity=4, max_batch=1, flush_interval=0.01),
        ).start()
        baseline = service.annotation_count()
        # Every flush stalls: the writer saturates while work piles up.
        chaos.writer_stall(seconds=0.25, times=-1)
        service.submit(f"stalled note: gene {db.genes[0].gid}")
        assert wait_until(lambda: chaos.fired("service.flush") >= 1)
        # 1) The writer is mid-stall; reads complete anyway, fast.
        started = time.monotonic()
        assert service.annotation_count() == baseline
        assert service.find_annotations("nothing-matches-this") == []
        assert time.monotonic() - started < 0.2
        # 2) Admission control bounds the backlog: fill the queue, then
        #    overflow must reject rather than buffer.
        admitted = 0
        rejected = 0
        for i in range(12):
            try:
                service.submit(f"overflow probe {i}: gene {db.genes[1].gid}")
                admitted += 1
            except ServiceOverloadedError:
                rejected += 1
        assert rejected >= 1
        assert service.stats().queue_depth <= 4
        faults.reset()
        assert service.stop(timeout=30.0) is True
        # Every admitted request was eventually ingested, none lost.
        assert service.stats().ingested == 1 + admitted
        assert service.annotation_count() == baseline + 1 + admitted


class TestReaderOutage:
    def test_read_path_survives_reader_failures(self, world, faults, metrics):
        db, nebula = world
        chaos = ChaosHarness(faults)
        service = AnnotationService(nebula).start()
        service.ingest(f"resilient note: gene {db.genes[0].gid}", timeout=10.0)
        count = service.annotation_count()
        chaos.reader_outage(times=3)
        for _ in range(3):
            assert service.annotation_count() == count
        assert chaos.fired("service.reader") == 3
        assert (
            metrics.counter("nebula_service_reader_fallbacks_total").value >= 3
        )
        service.stop()


class TestMidBatchCrash:
    def test_crash_then_restart_ingests_exactly_once(self, world, faults):
        db, nebula = world
        chaos = ChaosHarness(faults)
        service = AnnotationService(
            nebula, ServiceConfig(max_batch=8, flush_interval=0.01)
        ).start()
        committed = service.ingest(
            f"committed before crash: gene {db.genes[0].gid}", timeout=10.0
        )
        assert committed.annotation_id is not None
        # The next batch dies after flushing, before committing.
        chaos.crash_before_commit()
        doomed = [
            service.submit(f"doomed batch member {i}: gene {db.genes[i].gid}")
            for i in range(3)
        ]
        assert wait_until(lambda: service.crashed is not None)
        assert isinstance(service.crashed, SimulatedCrash)
        assert not service.ready()
        assert service.health()["status"] == "crashed"
        # The crashed batch was never acknowledged.
        assert not any(ticket.done for ticket in doomed)
        assert service.stop() is False

        # --- restart on the same database ---------------------------------
        revived = AnnotationService(
            nebula, ServiceConfig(max_batch=8, flush_interval=0.01)
        ).start()  # start() recovers: the unacked batch rolls back
        # The acknowledged annotation survived the crash...
        assert revived.find_annotations("committed before crash")
        # ...the unacked batch did not (no partial, no ghost rows)...
        assert revived.find_annotations("doomed batch member") == []
        # ...and resubmitting it lands every member exactly once.
        for i in range(3):
            revived.ingest(
                f"doomed batch member {i}: gene {db.genes[i].gid}", timeout=10.0
            )
        rows = revived.find_annotations("doomed batch member", limit=50)
        assert len(rows) == 3
        assert len({content for _, content, _ in rows}) == 3
        assert revived.stop() is True

    def test_recovery_makes_engine_memory_equal_the_database(self, world, faults):
        db, nebula = world
        chaos = ChaosHarness(faults)
        genes, proteins = db.community_members(0)
        service = AnnotationService(
            nebula, ServiceConfig(max_batch=8, flush_interval=0.01)
        ).start()
        committed = service.ingest(
            f"committed before crash: gene {genes[0].gid}",
            attach_to=[db.resolve("gene", genes[1].gid)],
            timeout=10.0,
        )
        # Each doomed note has a focal and a candidate above the upper
        # bound: triage auto-accepts it, adding an ACG edge and a hop to
        # the profile before the crash discards the batch.
        chaos.crash_before_commit()
        for i in range(3):
            service.submit(
                f"doomed batch member {i}: gene {genes[i + 1].gid} "
                f"and protein {proteins[i].pid}",
                attach_to=[db.resolve("gene", genes[i].gid)],
            )
        assert wait_until(lambda: service.crashed is not None)
        assert service.stop() is False
        doomed = {committed.annotation_id + 1 + i for i in range(3)}
        assert doomed <= set(nebula.acg._tuples_of)
        assert all(len(nebula.acg._tuples_of[a]) > 1 for a in doomed)
        crashed_hops = nebula.profile.total

        revived = AnnotationService(
            nebula, ServiceConfig(max_batch=8, flush_interval=0.01)
        ).start()
        rebuilt = AnnotationsConnectivityGraph.build_from_manager(nebula.manager)
        assert nebula.acg._annotations_of == rebuilt._annotations_of
        assert nebula.acg._tuples_of == rebuilt._tuples_of
        assert nebula.acg._adjacency == rebuilt._adjacency
        assert nebula.acg.edge_count == rebuilt.edge_count
        assert nebula.queue.acg is nebula.acg
        assert nebula.profile == PersistentHopProfile(nebula.connection)
        assert nebula.profile.total < crashed_hops
        assert revived.stop() is True

    def test_recovery_replays_dead_letters_exactly_once(self, world, faults):
        db, nebula = world
        # Capture a dead letter the "previous process" left behind.
        faults.arm("queue.triage", times=1)
        with pytest.raises(PipelineStageError):
            nebula.insert_annotation(
                f"letter to replay: gene {db.genes[0].gid}",
                author="chaos",
            )
        nebula.connection.commit()
        assert len(nebula.dead_letters.pending()) == 1

        service = AnnotationService(nebula).start()
        stats = service.stats()
        assert stats.replayed == 1
        assert service.dead_letter_count() == 0
        rows = service.find_annotations("letter to replay")
        assert len(rows) == 1  # replayed exactly once
        # A second recovery pass finds nothing left to replay.
        assert service.recover() == []
        assert service.find_annotations("letter to replay") == rows
        service.stop()


def _arm(point, faults, nebula):
    """Arm ``point`` the way the service or the pipeline meets it."""
    chaos = ChaosHarness(faults)
    if point == "service.crash":
        chaos.crash_before_commit()
    elif point == "service.flush":
        chaos.writer_stall(seconds=0.05)
    elif point == "service.reader":
        chaos.reader_outage(times=2)
    else:
        if point == "spreading.scope":
            # The world's ACG has not judged itself stable yet (Definition
            # 6.1 needs a batch of 50 annotations): mark it stable so the
            # spreading search, and with it this fault point, runs.
            nebula.stability.stable = True
        # Twice: a failing point fails the coalesced batch, then the
        # first member re-run alone, which is dead-lettered.
        faults.arm(point, times=2)


def _outcome(ticket):
    """``"acked"``, ``"dead-lettered"`` or ``"unacked"`` (never completed)."""
    if not ticket.done:
        return "unacked"
    try:
        ticket.result(timeout=0)
    except PipelineStageError as error:
        assert error.dead_letter_id is not None
        return "dead-lettered"
    return "acked"


class TestCrashPointSweep:
    @pytest.mark.parametrize("point", FAULT_POINTS)
    def test_restart_after_a_fault_recovers_every_invariant(
        self, world, faults, point
    ):
        db, nebula = world
        genes, proteins = db.community_members(0)
        config = ServiceConfig(max_batch=8, flush_interval=0.01)
        service = AnnotationService(nebula, config).start()
        _arm(point, faults, nebula)
        # Each note has a focal and a candidate above the upper bound, so
        # triage auto-accepts an edge into the graph and the hop profile.
        notes = [
            (
                f"sweep note {i}: gene {genes[i + 1].gid} "
                f"and protein {proteins[i].pid}",
                db.resolve("gene", genes[i].gid),
            )
            for i in range(3)
        ]
        tickets = {
            text: service.submit(text, attach_to=[focal]) for text, focal in notes
        }
        if point == "service.crash":
            assert wait_until(lambda: service.crashed is not None)
        else:
            assert wait_until(lambda: all(t.done for t in tickets.values()))
            # Reads meet the reader fault point (and fall back).
            service.annotation_count()
            service.find_annotations("sweep note")
        assert faults.fired(point) >= 1
        outcomes = {text: _outcome(ticket) for text, ticket in tickets.items()}
        expected = {
            "service.crash": "unacked",
            "store.add": "dead-lettered",
            "queue.triage": "dead-lettered",
        }.get(point, "acked")
        assert expected in outcomes.values(), outcomes
        assert service.stop() is (point != "service.crash")
        faults.reset()

        revived = AnnotationService(nebula, config).start()
        connection = nebula.connection
        assert nebula.commit_log.verify_head() is True
        assert timetravel.head_fingerprint(
            connection
        ) == timetravel.state_fingerprint(connection)
        reference = InvertedValueIndex.build(connection, nebula.searchable_columns())
        assert nebula.engine.index.parity_mismatches(reference) == []
        rebuilt = AnnotationsConnectivityGraph.build_from_manager(nebula.manager)
        assert nebula.acg._annotations_of == rebuilt._annotations_of
        assert nebula.acg._tuples_of == rebuilt._tuples_of
        assert nebula.acg._adjacency == rebuilt._adjacency
        assert nebula.acg.edge_count == rebuilt.edge_count
        assert nebula.profile == PersistentHopProfile(connection)
        # Acknowledged notes are stored once, dead-lettered ones once
        # through their replay, the rest (a crashed batch) not at all.
        assert nebula.dead_letters.pending() == []
        for text, outcome in outcomes.items():
            (stored,) = connection.execute(
                "SELECT COUNT(*) FROM _nebula_annotations WHERE content = ?",
                (text,),
            ).fetchone()
            assert stored == (0 if outcome == "unacked" else 1), (text, outcome)
        assert revived.stop() is True


class TestConcurrentMixedLoad:
    def test_clients_mixing_reads_and_writes_lose_nothing(self, world):
        db, nebula = world
        service = AnnotationService(
            nebula, ServiceConfig(queue_capacity=64, max_batch=8)
        ).start()
        results = {"ok": 0, "rejected": 0, "reads": 0}
        lock = threading.Lock()

        def client(c):
            for i in range(5):
                try:
                    service.ingest(
                        f"mixed client {c} note {i}: "
                        f"gene {db.genes[(c * 5 + i) % len(db.genes)].gid}",
                        timeout=30.0,
                    )
                    with lock:
                        results["ok"] += 1
                except ServiceOverloadedError:
                    with lock:
                        results["rejected"] += 1
                service.find_annotations(f"client {c} note")
                with lock:
                    results["reads"] += 1

        threads = [
            threading.Thread(target=client, args=(c,)) for c in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert service.stop() is True
        assert results["ok"] + results["rejected"] == 30  # nothing lost
        assert results["reads"] == 30
        stats = service.stats()
        assert stats.ingested == results["ok"]
