"""The service telemetry plane (PR 7): per-request trace propagation,
streaming quantiles, the structured event log, Prometheus exposition,
and the HTTP endpoint.

The invariants proved here:

* every accepted submission is traceable end-to-end by one unique
  ``request_id`` — stamped on the report, resolvable through span links
  to exactly one writer flush, correlated in the event log, and (on
  failure) recorded on its dead-letter row;
* ``/metrics`` renders a valid exposition *while ingestion is live*,
  with cumulative-monotone histogram buckets;
* the quantile estimators are exact over their retained window and
  survive snapshot/restore.
"""

import json
import os
import subprocess
import sys
import threading

import pytest

import repro

from repro import (
    AnnotationService,
    ChaosHarness,
    FaultInjector,
    Nebula,
    NebulaConfig,
    ServiceConfig,
    generate_bio_database,
)
from repro.datagen.biodb import BioDatabaseSpec
from repro.errors import PipelineStageError
from repro.observability import (
    EVENT_KINDS,
    EventLog,
    ExpositionError,
    MetricsRegistry,
    PhaseQuantiles,
    StreamingQuantiles,
    TelemetryServer,
    iter_spans,
    parse_exposition,
    read_jsonl_events,
    render_health_gauges,
    render_metrics,
    scrape,
    set_metrics,
    validate_exposition,
)
from repro.service import mint_batch_id, mint_request_id


@pytest.fixture()
def metrics():
    registry = MetricsRegistry()
    previous = set_metrics(registry)
    yield registry
    set_metrics(previous)


@pytest.fixture()
def db(storage_backend):
    return generate_bio_database(
        BioDatabaseSpec(genes=30, proteins=18, publications=100, seed=31),
        backend=storage_backend,
    )


@pytest.fixture()
def faults():
    return FaultInjector()


@pytest.fixture()
def nebula(db, storage_backend, faults, metrics):
    """A traced engine: the suite asserts on exported span trees."""
    engine = Nebula(
        storage_backend,
        db.meta,
        NebulaConfig(
            epsilon=0.6,
            tracing=True,
            trace_buffer_size=256,
            fault_injector=faults,
        ),
        aliases=db.aliases,
    )
    yield engine
    engine.close()


def make_service(nebula, **overrides):
    defaults = dict(queue_capacity=32, max_batch=8, flush_interval=0.02)
    defaults.update(overrides)
    return AnnotationService(nebula, ServiceConfig(**defaults))


def texts(db, n, tag="note"):
    genes = db.genes
    return [
        f"{tag} {i}: gene {genes[i % len(genes)].gid} looks interesting"
        for i in range(n)
    ]


def flush_spans(nebula):
    """Every service flush span (batched or isolated) in the ring buffer."""
    spans = []
    for record in nebula.trace_buffer.last(256):
        for span in iter_spans(record):
            if span["name"] in ("service.batch_flush", "service.request"):
                spans.append(span)
    return spans


# ----------------------------------------------------------------------
# Request-id minting
# ----------------------------------------------------------------------


class TestRequestIds:
    def test_request_ids_are_unique_and_typed(self):
        ids = {mint_request_id() for _ in range(1000)}
        assert len(ids) == 1000
        assert all(i.startswith("req-") for i in ids)

    def test_batch_ids_use_a_distinct_namespace(self):
        assert mint_batch_id().startswith("batch-")
        assert mint_batch_id() != mint_batch_id()

    def test_minting_is_thread_safe(self):
        seen = []
        lock = threading.Lock()

        def mint(n=200):
            local = [mint_request_id() for _ in range(n)]
            with lock:
                seen.extend(local)

        threads = [threading.Thread(target=mint) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(set(seen)) == len(seen) == 1600


# ----------------------------------------------------------------------
# End-to-end trace propagation
# ----------------------------------------------------------------------


class TestTracePropagation:
    def test_concurrent_clients_trace_end_to_end(self, db, nebula):
        """≥4 client threads: every report carries a unique request_id
        whose span links resolve to exactly one writer flush."""
        service = make_service(nebula).start()
        reports = []
        lock = threading.Lock()

        def client(c):
            for i in range(5):
                gid = db.genes[(c * 5 + i) % len(db.genes)].gid
                report = service.ingest(
                    f"client {c} note {i}: gene {gid}", timeout=30.0
                )
                with lock:
                    reports.append(report)

        threads = [
            threading.Thread(target=client, args=(c,)) for c in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert service.stop() is True

        ids = [report.request_id for report in reports]
        assert len(ids) == 20
        assert len(set(ids)) == 20, "request ids must be unique"
        assert all(rid and rid.startswith("req-") for rid in ids)

        resolved = {}
        for span in flush_spans(nebula):
            for link in span.get("links", []):
                rid = link.get("request_id")
                if rid is not None:
                    resolved.setdefault(rid, []).append(span)
        for rid in ids:
            assert len(resolved.get(rid, [])) == 1, (
                f"{rid} must link to exactly one flush span"
            )

    def test_events_correlate_request_to_its_batch(self, db, nebula):
        service = make_service(nebula).start()
        report = service.ingest(texts(db, 1)[0], timeout=30.0)
        assert service.stop() is True
        rid = report.request_id
        records = service.events.for_request(rid)
        kinds = [record["kind"] for record in records]
        assert "request_admitted" in kinds
        assert "request_flushed" in kinds
        assert "batch_flushed" in kinds
        flushed = next(r for r in records if r["kind"] == "request_flushed")
        batch = next(r for r in records if r["kind"] == "batch_flushed")
        assert flushed["batch_id"] == batch["batch_id"]
        assert rid in batch["request_ids"]
        assert flushed["batch_id"].startswith("batch-")
        assert flushed["e2e_seconds"] >= 0.0

    def test_latency_phases_recorded_per_request(self, db, nebula):
        service = make_service(nebula).start()
        for text in texts(db, 4):
            service.ingest(text, timeout=30.0)
        stats = service.stats()
        service.stop()
        counts = service.latency.counts()
        assert counts["queue"] == 4
        assert counts["e2e"] == 4
        assert counts["flush"] >= 1
        for phases in (
            stats.queue_wait_seconds, stats.flush_seconds, stats.e2e_seconds
        ):
            assert set(phases) == {"p50", "p95", "p99"}
            assert 0.0 <= phases["p50"] <= phases["p95"] <= phases["p99"]
        health = service.health()
        assert set(health["latency_seconds"]) == {"queue", "flush", "e2e"}


# ----------------------------------------------------------------------
# Chaos: failures stay correlated
# ----------------------------------------------------------------------


class TestChaosCorrelation:
    def test_dead_letter_rows_carry_the_request_id(self, db, nebula, faults):
        service = make_service(nebula)
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
                outcomes.append((ticket, error))
        service.stop()
        failures = [o for o in outcomes if isinstance(o, tuple)]
        assert len(failures) == 1
        ticket, error = failures[0]
        assert error.dead_letter_id is not None

        letters = nebula.dead_letters.for_request(ticket.request_id)
        assert [letter.letter_id for letter in letters] == [
            error.dead_letter_id
        ]
        assert letters[0].request_id == ticket.request_id

        records = service.events.for_request(ticket.request_id)
        kinds = [record["kind"] for record in records]
        assert "request_dead_lettered" in kinds
        assert "request_failed" in kinds
        lettered = next(
            r for r in records if r["kind"] == "request_dead_lettered"
        )
        assert lettered["letter_id"] == error.dead_letter_id
        assert lettered["stage"] == "queue.triage"
        # The isolated retry ran under a per-request span linked back to
        # the poisoned batch.
        isolated = [
            span
            for span in flush_spans(nebula)
            if span["name"] == "service.request"
            and span["attributes"].get("request_id") == ticket.request_id
        ]
        assert len(isolated) == 1
        assert isolated[0]["links"][0]["batch_id"].startswith("batch-")

    def test_rejection_and_expiry_emit_correlated_events(
        self, db, nebula, faults
    ):
        chaos = ChaosHarness(faults)
        service = make_service(
            nebula, queue_capacity=2, max_batch=1, flush_interval=0.01
        ).start()
        chaos.writer_stall(seconds=0.3, times=-1)
        admitted, rejected = [], []
        for text in texts(db, 8):
            try:
                admitted.append(service.submit(text, deadline=30.0))
            except Exception:
                rejected.append(text)
        assert rejected, "a stalled writer must overflow the tiny queue"
        faults.reset()
        service.stop()
        kinds = {record["kind"] for record in service.events.tail(200)}
        assert "request_rejected" in kinds
        rejected_events = service.events.tail(200, kind="request_rejected")
        assert all(
            event["request_id"].startswith("req-")
            for event in rejected_events
        )


# ----------------------------------------------------------------------
# Streaming quantiles
# ----------------------------------------------------------------------


class TestStreamingQuantiles:
    def test_exact_over_small_window(self):
        est = StreamingQuantiles(window=100)
        for v in range(1, 101):
            est.observe(float(v))
        assert est.quantile(0.0) == 1.0
        assert est.quantile(1.0) == 100.0
        assert est.quantile(0.5) == pytest.approx(50.5)
        p = est.percentiles()
        assert p["p95"] == pytest.approx(95.05)
        assert p["p50"] <= p["p95"] <= p["p99"]

    def test_window_evicts_oldest(self):
        est = StreamingQuantiles(window=4)
        for v in (100.0, 1.0, 2.0, 3.0, 4.0):  # 100.0 falls out
            est.observe(v)
        assert len(est) == 4
        assert est.count == 5
        assert est.quantile(1.0) == 4.0

    def test_empty_window_reads_zero(self):
        est = StreamingQuantiles(window=8)
        assert est.quantile(0.99) == 0.0
        assert est.percentiles() == {"p50": 0.0, "p95": 0.0, "p99": 0.0}

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            StreamingQuantiles(window=0)
        with pytest.raises(ValueError):
            StreamingQuantiles(window=4).quantile(1.5)

    def test_snapshot_restore_round_trip(self):
        est = StreamingQuantiles(window=4)
        for v in (5.0, 1.0, 2.0, 3.0, 4.0):
            est.observe(v)
        dump = json.loads(json.dumps(est.snapshot()))
        revived = StreamingQuantiles(window=4)
        revived.restore(dump)
        assert revived.count == est.count
        assert revived.percentiles() == est.percentiles()

    def test_phase_quantiles_publish_gauges(self, metrics):
        latency = PhaseQuantiles(
            metrics, "nebula_test_latency_seconds", ("queue", "e2e"), window=16
        )
        for v in (0.1, 0.2, 0.3):
            latency.observe("queue", v)
        latency.publish()
        gauge = metrics.gauge(
            "nebula_test_latency_seconds",
            {"phase": "queue", "quantile": "p50"},
        )
        assert gauge.value == pytest.approx(0.2)
        # Unobserved phases publish zeros rather than vanishing.
        assert (
            metrics.gauge(
                "nebula_test_latency_seconds",
                {"phase": "e2e", "quantile": "p99"},
            ).value
            == 0.0
        )
        assert latency.counts() == {"queue": 3, "e2e": 0}


# ----------------------------------------------------------------------
# Event log
# ----------------------------------------------------------------------


class TestEventLog:
    def test_ring_is_bounded_and_counts_drops(self):
        log = EventLog(capacity=4)
        for i in range(10):
            log.emit("request_admitted", request_id=f"req-{i}")
        assert len(log) == 4
        assert log.emitted == 10
        assert log.dropped == 6
        assert [r["request_id"] for r in log.tail(10)] == [
            "req-6", "req-7", "req-8", "req-9"
        ]

    def test_unknown_kinds_recorded_for_forward_compatibility(self):
        log = EventLog()
        record = log.emit("future_kind", request_id="req-x")
        assert record["kind"] == "future_kind"
        assert log.tail(1, kind="future_kind") == [record]
        # The service's own vocabulary is closed over EVENT_KINDS.
        assert "batch_flushed" in EVENT_KINDS
        with pytest.raises(ValueError):
            EventLog(capacity=0)

    def test_for_request_matches_direct_and_batch_membership(self):
        log = EventLog()
        log.emit("request_admitted", request_id="req-a")
        log.emit("batch_flushed", batch_id="batch-1",
                 request_ids=["req-a", "req-b"])
        log.emit("request_admitted", request_id="req-c")
        assert [r["kind"] for r in log.for_request("req-a")] == [
            "request_admitted", "batch_flushed"
        ]
        assert [r["kind"] for r in log.for_request("req-b")] == [
            "batch_flushed"
        ]

    def test_jsonl_sink_round_trips(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        log = EventLog(capacity=8, path=path, clock=lambda: 123.0)
        log.emit("shed_engaged", queue_depth=9)
        log.emit("shed_released", queue_depth=1)
        records = read_jsonl_events(path)
        assert [r["kind"] for r in records] == [
            "shed_engaged", "shed_released"
        ]
        assert records[0]["ts"] == 123.0
        assert records[0]["seq"] < records[1]["seq"]

    def test_malformed_jsonl_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "slow_op", "ts": 1, "seq": 0}\nnot json\n')
        with pytest.raises(ValueError):
            read_jsonl_events(str(path))

    def test_service_event_log_spills_to_jsonl(self, db, nebula, tmp_path):
        path = str(tmp_path / "service-events.jsonl")
        service = make_service(nebula, event_log_path=path).start()
        report = service.ingest(texts(db, 1)[0], timeout=30.0)
        service.stop()
        records = read_jsonl_events(path)
        assert any(
            r["kind"] == "request_flushed"
            and r["request_id"] == report.request_id
            for r in records
        )


# ----------------------------------------------------------------------
# Prometheus exposition
# ----------------------------------------------------------------------


class TestExposition:
    def test_render_parses_and_validates(self, metrics):
        metrics.counter("nebula_requests_total").inc(3)
        metrics.gauge("nebula_queue_depth").set(2)
        histogram = metrics.histogram(
            "nebula_wait_seconds", (0.1, 1.0), {"phase": "queue"}
        )
        for v in (0.05, 0.5, 5.0):
            histogram.observe(v)
        text = render_metrics(metrics)
        families = parse_exposition(text)
        validate_exposition(text)
        assert families["nebula_requests_total"].value() == 3.0
        assert families["nebula_queue_depth"].value() == 2.0
        wait = families["nebula_wait_seconds"]
        # Buckets render cumulative: 1, 2, +Inf=3 == _count.
        buckets = wait.samples["nebula_wait_seconds_bucket"]
        assert [v for _, v in buckets] == [1.0, 2.0, 3.0]
        assert wait.samples["nebula_wait_seconds_sum"][0][1] == pytest.approx(5.55)
        assert wait.samples["nebula_wait_seconds_count"][0][1] == 3.0

    def test_health_gauges_ride_along(self):
        text = render_health_gauges(
            {"status": "ok", "backend": "sqlite-file", "ready": True}
        )
        families = parse_exposition(text)
        assert families["nebula_service_up"].value() == 1.0
        assert families["nebula_service_ready"].value() == 1.0
        info = families["nebula_service_info"]
        assert info.value({"backend": "sqlite-file", "status": "ok"}) == 1.0
        crashed = parse_exposition(
            render_health_gauges({"status": "crashed", "ready": False})
        )
        assert crashed["nebula_service_up"].value() == 0.0

    @pytest.mark.parametrize(
        "bad",
        [
            "# TYPE nebula_x counter\nnebula_x{oops 1\n",
            "# TYPE nebula_x\n",
            "nebula_x_bucket{le=\"1\"} 2\nnebula_x_bucket{le=\"+Inf\"} 1\n"
            "nebula_x_count 1\nnebula_x_sum 1\n"
            "# TYPE nebula_x histogram\n",
        ],
    )
    def test_malformed_or_inconsistent_rejected(self, bad):
        with pytest.raises(ExpositionError):
            parse_exposition(bad)
            validate_exposition(bad)

    def test_non_monotone_buckets_rejected(self):
        bad = (
            "# TYPE nebula_x histogram\n"
            'nebula_x_bucket{le="1"} 5\n'
            'nebula_x_bucket{le="+Inf"} 3\n'
            "nebula_x_sum 1\n"
            "nebula_x_count 3\n"
        )
        with pytest.raises(ExpositionError):
            validate_exposition(bad)


# ----------------------------------------------------------------------
# The HTTP endpoint
# ----------------------------------------------------------------------


class TestTelemetryServer:
    def test_endpoints_serve_and_404(self):
        body = "# TYPE nebula_up gauge\nnebula_up 1\n"
        with TelemetryServer(
            lambda: body,
            lambda: {"status": "ok", "ready": True},
            lambda: True,
        ) as server:
            assert scrape(server.url + "metrics") == body
            health = json.loads(scrape(server.url + "healthz"))
            assert health["status"] == "ok"
            assert scrape(server.url + "readyz") == "ready\n"
            with pytest.raises(Exception):
                scrape(server.url + "nope")

    def test_crashed_service_fails_the_health_probe(self):
        import urllib.error

        with TelemetryServer(
            lambda: "", lambda: {"status": "crashed"}, lambda: False
        ) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                scrape(server.url + "healthz")
            assert excinfo.value.code == 503
            with pytest.raises(urllib.error.HTTPError):
                scrape(server.url + "readyz")

    def test_live_scrape_during_ingestion(self, db, nebula):
        """The acceptance gate: /metrics stays valid mid-ingestion."""
        service = make_service(nebula).start()
        server = service.serve_metrics(port=0)
        stop = threading.Event()

        def churn():
            i = 0
            while not stop.is_set():
                gid = db.genes[i % len(db.genes)].gid
                service.ingest(f"churn {i}: gene {gid}", timeout=30.0)
                i += 1

        worker = threading.Thread(target=churn)
        worker.start()
        try:
            for _ in range(3):
                text = scrape(server.url + "metrics")
                validate_exposition(text)
                families = parse_exposition(text)
                assert families["nebula_service_up"].value() == 1.0
                assert "nebula_service_latency_seconds" in families
        finally:
            stop.set()
            worker.join()
            server.stop()
            service.stop()
        final = parse_exposition(service.render_exposition())
        submitted = final["nebula_service_submitted_total"].value()
        ingested = final["nebula_service_ingested_total"].value()
        assert submitted == ingested >= 1.0


def test_importing_the_cli_loads_no_http_server():
    # http.server pulls in http.client and ssl; only a process that starts
    # the telemetry endpoint should pay for them.
    script = (
        "import sys\n"
        "import repro.cli\n"
        "print(sorted(m for m in ('http.server', 'ssl') if m in sys.modules))\n"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    output = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True,
    ).stdout
    assert output.strip() == "[]"
