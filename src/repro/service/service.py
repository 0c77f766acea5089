"""The concurrent annotation service: many clients, one writer.

:class:`AnnotationService` wraps a :class:`~repro.core.nebula.Nebula`
engine behind the concurrency design the Ontologia storage spec
prescribes for SQLite — **WAL + single writer + concurrent readers**:

* every mutation flows through a bounded :class:`SubmissionQueue` into
  one **writer thread**, which coalesces concurrent submissions into
  ``insert_annotations`` batches (admission control rejects with
  :class:`~repro.errors.ServiceOverloadedError` when the queue is full,
  and per-request **deadlines** expire stale work before it costs a
  Stage 0 write);
* **read endpoints** (search / stats / verification listings) run on the
  caller's thread against read-only reader connections leased from the
  storage backend's pool, so they never block — nor are blocked by — the
  writer;
* under sustained pressure the writer **sheds load** down the graceful-
  degradation ladder: it pins the cheaper approximate (spreading) search
  for the batches it flushes, recorded as
  :data:`~repro.resilience.degradation.SERVICE_SHED` on every report;
* a batch poisoned by one bad member falls back to **per-request
  isolation**: the batch rolls back as a whole (capturing no dead
  letters), then each member is re-ingested alone, so only the genuinely
  failing request is dead-lettered while its neighbors land;
* results are **acknowledged only after commit**, which is what makes
  recovery exact: a crash between flush and commit leaves the accepted-
  but-unacked requests invisible, and startup recovery (rollback, WAL
  checkpoint, claim-protected dead-letter replay) converges the database
  to exactly the acknowledged state plus replayed letters.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

from ..core.nebula import DiscoveryReport, Nebula
from ..errors import (
    ConfigurationError,
    PipelineStageError,
    ServiceError,
    ServiceUnavailableError,
)
from ..observability import (
    TIME_BUCKETS,
    EventLog,
    PhaseQuantiles,
    TelemetryServer,
    render_health_gauges,
    render_metrics,
)
from ..perf import AnnotationRequest, RequestLike, coerce_request
from ..resilience.degradation import (
    SERVICE_READER_FALLBACK,
    SERVICE_SHED,
    count_degradation,
)
from ..resilience.degradation import logger as _logger
from ..resilience.retry import is_transient_operational_error
from ..storage.compat import Connection, Error
from ..types import TupleRef
from ..versioning import timetravel
from .queue import Submission, SubmissionQueue, mint_batch_id

T = TypeVar("T")

#: Sentinel distinguishing "use the configured default deadline" from an
#: explicit ``deadline=None`` ("no deadline at all").
_DEFAULT_DEADLINE = object()

#: Seconds above which a flush or end-to-end latency emits a ``slow_op``
#: event into the structured event log.
SLOW_OP_SECONDS = 1.0


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of the annotation service (validated on construction)."""

    #: Bounded submission-queue capacity; a full queue rejects (429).
    queue_capacity: int = 64
    #: Most submissions one writer flush coalesces into a single batch.
    max_batch: int = 16
    #: Seconds the writer blocks waiting for the first submission of a
    #: batch (also the responsiveness bound of shutdown).
    flush_interval: float = 0.05
    #: Default per-request deadline in seconds (None = no deadline).
    default_deadline: Optional[float] = None
    #: Queue-depth fraction at which load shedding engages.
    shed_watermark: float = 0.75
    #: Queue-depth fraction at which load shedding disengages.
    shed_recovery: float = 0.25
    #: Also append every event as one JSON line to this file (None = no
    #: file; the in-memory ring is always on).
    event_log_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise ConfigurationError("queue_capacity must be >= 1")
        if self.max_batch < 1:
            raise ConfigurationError("max_batch must be >= 1")
        if self.flush_interval <= 0:
            raise ConfigurationError("flush_interval must be > 0")
        if self.default_deadline is not None and self.default_deadline <= 0:
            raise ConfigurationError("default_deadline must be > 0 or None")
        if not 0.0 < self.shed_watermark <= 1.0:
            raise ConfigurationError("shed_watermark must be in (0, 1]")
        if not 0.0 <= self.shed_recovery < self.shed_watermark:
            raise ConfigurationError(
                "shed_recovery must satisfy 0 <= shed_recovery < shed_watermark"
            )


@dataclass(frozen=True)
class ServiceStats:
    """A point-in-time snapshot of the service's accounting.

    ``submitted == ingested + failed + expired + queue_depth +
    in-flight`` at every quiescent point; the smoke harness asserts the
    closed-world version of this (no lost requests) after shutdown.
    """

    submitted: int
    rejected: int
    ingested: int
    failed: int
    expired: int
    batches: int
    replayed: int
    queue_depth: int
    shedding: bool
    writer_alive: bool
    running: bool
    #: p50/p95/p99 of the queue-wait phase (seconds, sliding window).
    queue_wait_seconds: Mapping[str, float] = field(default_factory=dict)
    #: p50/p95/p99 of the writer-flush phase (seconds, sliding window).
    flush_seconds: Mapping[str, float] = field(default_factory=dict)
    #: p50/p95/p99 of submit-to-ack latency (seconds, sliding window).
    e2e_seconds: Mapping[str, float] = field(default_factory=dict)
    #: Engine-open cost of the search index ("loaded" persisted images
    #: skip the rebuild; see ``Nebula.index_cold_start_seconds``).
    index_cold_start_seconds: float = 0.0
    #: Where the index came from: "loaded" / "rebuilt".
    index_source: str = "rebuilt"


class _ReadHandle:
    """One borrowed read connection plus how to give it back."""

    def __init__(self, connection: Connection, closer: Callable[[], None]) -> None:
        self.connection = connection
        self._closer = closer

    def release(self) -> None:
        try:
            self._closer()
        except Error:  # pragma: no cover - release is best-effort
            pass


class AnnotationService:
    """A long-running, threaded, multi-client annotation service."""

    def __init__(
        self,
        nebula: Nebula,
        config: Optional[ServiceConfig] = None,
    ) -> None:
        self.nebula = nebula
        self.config = config or ServiceConfig()
        self.backend = nebula.backend
        self.tracer = nebula.tracer
        self.metrics = nebula.metrics
        self._faults = nebula.config.fault_injector
        self._queue = SubmissionQueue(self.config.queue_capacity)
        #: Serializes the writer's flush against last-resort reads on the
        #: primary connection.  The writer never waits on readers —
        #: readers fall back to the primary only when no pooled reader
        #: can serve them.
        self._write_lock = threading.Lock()
        self._writer: Optional[threading.Thread] = None
        self._writer_alive = False
        self._started = False
        self._stopped = False
        self._shedding = False
        self._crash: Optional[BaseException] = None
        #: Writer-thread-only counters (single writer: no lock needed).
        self._ingested = 0
        self._failed = 0
        self._expired = 0
        self._batches = 0
        self._replayed = 0
        self._m_ingested = self.metrics.counter("nebula_service_ingested_total")
        self._m_failed = self.metrics.counter("nebula_service_failed_total")
        self._m_expired = self.metrics.counter(
            "nebula_service_deadline_expired_total"
        )
        self._m_rejected = self.metrics.counter("nebula_service_rejected_total")
        self._m_submitted = self.metrics.counter("nebula_service_submitted_total")
        self._m_batches = self.metrics.counter("nebula_service_batches_total")
        self._m_batch_fallbacks = self.metrics.counter(
            "nebula_service_batch_fallbacks_total"
        )
        self._m_reader_fallbacks = self.metrics.counter(
            "nebula_service_reader_fallbacks_total"
        )
        self._m_shed = self.metrics.gauge("nebula_service_shedding")
        self._m_depth = self.metrics.gauge("nebula_service_queue_depth")
        self._m_batch_size = self.metrics.histogram(
            "nebula_service_batch_size",
            buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0),
        )
        self._m_request_seconds = self.metrics.histogram(
            "nebula_service_request_seconds", TIME_BUCKETS
        )
        self._m_queue_wait_seconds = self.metrics.histogram(
            "nebula_service_queue_wait_seconds", TIME_BUCKETS
        )
        self._m_flush_seconds = self.metrics.histogram(
            "nebula_service_flush_seconds", TIME_BUCKETS
        )
        self.metrics.gauge("nebula_service_queue_capacity").set(
            float(self.config.queue_capacity)
        )
        #: Streaming p50/p95/p99 per latency phase over the last 1,024
        #: observations, published as
        #: ``nebula_service_latency_seconds{phase,quantile}`` gauges when
        #: they are read: by every exposition render and once in stop().
        self.latency = PhaseQuantiles(
            self.metrics,
            "nebula_service_latency_seconds",
            ("queue", "flush", "e2e"),
        )
        #: The structured, correlated event stream (a ring of the last
        #: 512 events + optional JSONL file) — the third telemetry plane
        #: next to the metrics registry and the trace tree.
        self.events = EventLog(path=self.config.event_log_path)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "AnnotationService":
        """Recover, then start the writer loop and go ready."""
        if self._started:
            raise ServiceError("annotation service already started")
        if self._stopped:
            raise ServiceError("annotation service already stopped")
        self.recover()
        self._writer_alive = True
        self._writer = threading.Thread(
            target=self._writer_loop, name="nebula-service-writer", daemon=True
        )
        self._writer.start()
        self._started = True
        return self

    def stop(self, timeout: float = 5.0) -> bool:
        """Graceful, bounded shutdown.

        Closes the queue to new submissions, lets the writer flush
        everything already admitted, and joins it for up to ``timeout``
        seconds.  Whatever could not be flushed in the budget fails with
        :class:`ServiceUnavailableError` — a client is never left
        blocked on a ticket the service will not complete.  Returns True
        when the shutdown was clean (writer exited, nothing stranded).
        """
        self._stopped = True
        self._queue.close()
        writer = self._writer
        if writer is not None and writer.is_alive():
            writer.join(timeout)
        clean = writer is None or not writer.is_alive()
        stranded = self._queue.clear()
        for submission in stranded:
            submission.fail(
                ServiceUnavailableError(
                    "annotation service stopped before this submission "
                    "was flushed"
                )
            )
        self._update_depth_gauge()
        self.latency.publish()
        return clean and not stranded and self._crash is None

    def __enter__(self) -> "AnnotationService":
        return self.start()

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.stop()

    def recover(self) -> List[DiscoveryReport]:
        """Crash-safe startup recovery; returns the replayed reports.

        Rolls back any transaction a dead writer left half-flushed
        (acknowledged work was committed, so only unacked effects are
        discarded), truncates the WAL back into the database file,
        makes the engine's memory equal the database again when the
        rollback discarded work or the head was restored
        (:meth:`~repro.core.nebula.Nebula.resync`), releases dead-letter
        claims stranded by a crashed replayer, and replays the pending
        dead letters — claim-protected, so a concurrent or repeated
        recovery cannot ingest a letter twice.
        """
        with self.tracer.span("service.recover") as span:
            discarded = self.nebula.connection.in_transaction
            self.nebula.connection.rollback()
            self.backend.checkpoint()
            # Log-parity check: the materialized head tables must equal
            # the pure-history reconstruction through the current-version
            # views.  They commit atomically, so a mismatch means torn
            # state (e.g. a partially restored backup) — replay the head
            # from the append-only log, which is the source of truth.
            head_ok = self.nebula.commit_log.verify_head()
            span.set_attribute("head_parity", head_ok)
            if not head_ok:
                _logger.warning(
                    "materialized head diverged from the commit log; "
                    "restoring it from history"
                )
                self.nebula.commit_log.restore_head()
                self.metrics.counter("nebula_head_restores_total").inc()
            # Discarded or restored rows leave the engine's graph, hop
            # profile and caches describing a state the database no
            # longer holds.
            resync = discarded or not head_ok
            if resync:
                self.nebula.resync()
            span.set_attribute("resynced", resync)
            # The crash (or data loaded while the service was down) may
            # have left the persisted search index behind the data; the
            # stamp check rebuilds it before any traffic is accepted.
            index_rebuilt = self.nebula.ensure_index_fresh()
            span.set_attribute("index_rebuilt", index_rebuilt)
            released = self.nebula.dead_letters.release_claims()
            reports = self.nebula.reprocess_dead_letters()
            self.nebula.connection.commit()
            self._replayed += len(reports)
            span.set_attribute("released_claims", released)
            span.set_attribute("replayed", len(reports))
        self.metrics.counter("nebula_service_recoveries_total").inc()
        return reports

    @property
    def running(self) -> bool:
        return self._started and not self._stopped

    @property
    def crashed(self) -> Optional[BaseException]:
        """The BaseException that killed the writer thread, if any."""
        return self._crash

    def ready(self) -> bool:
        """Readiness probe: accepting work and able to make progress."""
        return self.running and self._writer_alive

    def health(self) -> Dict[str, object]:
        """Liveness/health probe (cheap: no database access)."""
        if self._crash is not None:
            status = "crashed"
        elif not self.running:
            status = "stopped" if self._stopped else "starting"
        elif self._shedding:
            status = "degraded"
        else:
            status = "ok"
        return {
            "status": status,
            "ready": self.ready(),
            "backend": self.backend.name,
            "queue_depth": self._queue.depth,
            "queue_capacity": self.config.queue_capacity,
            "shedding": self._shedding,
            "writer_alive": self._writer_alive,
            "latency_seconds": {
                "queue": self.latency.percentiles("queue"),
                "flush": self.latency.percentiles("flush"),
                "e2e": self.latency.percentiles("e2e"),
            },
            "index_cold_start_seconds": self.nebula.index_cold_start_seconds,
            "index_source": self.nebula.index_source,
            "acg_build_seconds": self.nebula.acg_build_seconds,
        }

    def stats(self) -> ServiceStats:
        return ServiceStats(
            submitted=self._queue.admitted,
            rejected=self._queue.rejected,
            ingested=self._ingested,
            failed=self._failed,
            expired=self._expired,
            batches=self._batches,
            replayed=self._replayed,
            queue_depth=self._queue.depth,
            shedding=self._shedding,
            writer_alive=self._writer_alive,
            running=self.running,
            queue_wait_seconds=self.latency.percentiles("queue"),
            flush_seconds=self.latency.percentiles("flush"),
            e2e_seconds=self.latency.percentiles("e2e"),
            index_cold_start_seconds=self.nebula.index_cold_start_seconds,
            index_source=self.nebula.index_source,
        )

    # ------------------------------------------------------------------
    # Telemetry endpoint
    # ------------------------------------------------------------------

    def render_exposition(self) -> str:
        """The Prometheus text exposition of this service's registry.

        Latency-percentile gauges are refreshed first, and the health
        document rides along as synthetic gauges — one render is a
        complete picture.  Each render runs under a ``service.export``
        span so scrape cost shows up in the trace taxonomy.
        """
        with self.tracer.span("service.export") as span:
            self.latency.publish()
            body = render_metrics(self.metrics) + render_health_gauges(
                self.health()
            )
            span.set_attribute("bytes", len(body))
        return body

    def serve_metrics(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> TelemetryServer:
        """Start the telemetry HTTP endpoint; returns the running server.

        ``/metrics`` serves :meth:`render_exposition`, ``/healthz`` the
        :meth:`health` document (503 once the writer crashed), and
        ``/readyz`` the :meth:`ready` probe.  ``port=0`` binds an
        ephemeral port (read it from ``.port``).  The caller owns the
        server's lifecycle (``.stop()``); stopping the service does not
        stop an exporter still being scraped.
        """
        return TelemetryServer(
            self.render_exposition, self.health, self.ready, host=host, port=port
        ).start()

    # ------------------------------------------------------------------
    # Write path (client side)
    # ------------------------------------------------------------------

    def submit(
        self,
        request: RequestLike,
        attach_to: Sequence[TupleRef] = (),
        author: Optional[str] = None,
        deadline: object = _DEFAULT_DEADLINE,
    ) -> Submission:
        """Admit one annotation for ingestion; returns the ticket.

        ``request`` may be a prepared :class:`AnnotationRequest` or bare
        text (with ``attach_to``/``author`` applying to the latter).
        Raises :class:`ServiceOverloadedError` when admission control
        rejects (queue full) and :class:`ServiceUnavailableError` when
        the service is stopped.  Block on ``.result()`` for the report —
        a completed ticket means the annotation is committed.
        """
        if isinstance(request, str):
            prepared = AnnotationRequest.build(request, attach_to, author)
        else:
            prepared = coerce_request(request)
        seconds = (
            self.config.default_deadline
            if deadline is _DEFAULT_DEADLINE
            else deadline
        )
        if seconds is not None and not (
            isinstance(seconds, (int, float)) and seconds > 0
        ):
            raise ServiceError("deadline must be a positive number or None")
        submission = Submission(prepared, deadline=seconds)
        try:
            self._queue.put(submission)
        except Exception as error:
            self._m_rejected.inc()
            self.events.emit(
                "request_rejected",
                request_id=submission.request_id,
                reason=type(error).__name__,
                queue_depth=self._queue.depth,
            )
            raise
        self._m_submitted.inc()
        self._update_depth_gauge()
        self.events.emit(
            "request_admitted",
            request_id=submission.request_id,
            queue_depth=self._queue.depth,
        )
        return submission

    def ingest(
        self,
        request: RequestLike,
        attach_to: Sequence[TupleRef] = (),
        author: Optional[str] = None,
        deadline: object = _DEFAULT_DEADLINE,
        timeout: Optional[float] = None,
    ) -> DiscoveryReport:
        """Synchronous convenience: ``submit`` + ``result``."""
        ticket = self.submit(request, attach_to, author, deadline)
        report = ticket.result(timeout)
        assert isinstance(report, DiscoveryReport)
        return report

    # ------------------------------------------------------------------
    # Writer loop
    # ------------------------------------------------------------------

    def _writer_loop(self) -> None:
        try:
            while True:
                batch = self._queue.drain(
                    self.config.max_batch, self.config.flush_interval
                )
                self._update_depth_gauge()
                if not batch:
                    if self._queue.closed:
                        break
                    continue
                try:
                    self._flush(batch)
                except Exception as error:
                    # An unexpected (non-pipeline) failure must not kill
                    # the writer: fail this batch, serve the next one.
                    _logger.warning("service flush failed: %s", error)
                    self._rollback_quietly()
                    for submission in batch:
                        submission.fail(error)
                    self._failed += len(batch)
                    self._m_failed.inc(len(batch))
        except BaseException as crash:
            # A simulated (or real) crash: record it, acknowledge
            # nothing — recovery owns the truth from here.
            self._crash = crash
        finally:
            self._writer_alive = False

    def _flush(self, batch: List[Submission]) -> None:
        now = time.monotonic()
        live: List[Submission] = []
        for submission in batch:
            if submission.expired(now):
                self._expire(submission)
            else:
                live.append(submission)
        if not live:
            return
        self._update_shedding()
        if self._faults is not None:
            # Writer-stall / scripted-failure chaos point.
            self._faults.check("service.flush")
        batch_id = mint_batch_id()
        flush_started = time.monotonic()
        for submission in live:
            # Queue wait ends here: the flush owns the request from now
            # on, whatever path (batched or isolated) it takes.
            submission.batch_id = batch_id
            wait = flush_started - submission.submitted_at
            self.latency.observe("queue", wait)
            self._m_queue_wait_seconds.observe(wait)
        with self.tracer.span("service.batch_flush") as span:
            span.set_attribute("batch_size", len(live))
            span.set_attribute("batch_id", batch_id)
            shedding = self._shedding
            span.set_attribute("shedding", shedding)
            for submission in live:
                # Span links: one per member, resolving the coalesced
                # flush back to each admitted request.
                span.add_link(request_id=submission.request_id)
            try:
                with self._write_lock:
                    self._begin()
                    reports = self.nebula.insert_annotations(
                        [submission.request for submission in live],
                        use_spreading=True if shedding else None,
                        capture_dead_letter=False,
                        request_id=batch_id,
                    )
                    if self._faults is not None:
                        # Mid-batch crash chaos point: after the flush,
                        # before the commit — the acid test of ack-
                        # after-commit recovery.
                        self._faults.check("service.crash")
                    self._commit()
            except PipelineStageError:
                # One poisoned member must not fail its neighbors: the
                # batch rolled back without capturing dead letters;
                # isolate each member on the per-request path.
                span.set_attribute("poisoned", True)
                self._m_batch_fallbacks.inc()
                self._flush_individually(live, batch_id)
                return
            for submission, report in zip(live, reports):
                if shedding:
                    report.degradations.append(SERVICE_SHED)
                self._complete(submission, report, flush_started=flush_started)
        self._finish_batch(batch_id, live, flush_started, shedding)

    def _finish_batch(
        self,
        batch_id: str,
        live: List[Submission],
        flush_started: float,
        shedding: bool,
        poisoned: bool = False,
    ) -> None:
        elapsed = time.monotonic() - flush_started
        self._batches += 1
        self._m_batches.inc()
        self._m_batch_size.observe(float(len(live)))
        self.latency.observe("flush", elapsed)
        self._m_flush_seconds.observe(elapsed)
        self.events.emit(
            "batch_flushed",
            batch_id=batch_id,
            request_ids=[submission.request_id for submission in live],
            size=len(live),
            flush_seconds=round(elapsed, 6),
            shedding=shedding,
            poisoned=poisoned,
        )
        if elapsed > SLOW_OP_SECONDS:
            self.events.emit(
                "slow_op",
                op="flush",
                batch_id=batch_id,
                seconds=round(elapsed, 6),
                threshold=SLOW_OP_SECONDS,
            )

    def _flush_individually(
        self, submissions: List[Submission], batch_id: str
    ) -> None:
        """Per-request isolation after a poisoned batch.

        Each member re-runs alone; only the genuinely failing ones are
        dead-lettered (by ``insert_annotation`` itself, with the
        submission's ``request_id`` stamped onto the captured row) and
        failed back to their clients.
        """
        flush_started = time.monotonic()
        for submission in submissions:
            if submission.expired():
                self._expire(submission)
                continue
            with self.tracer.span("service.request") as span:
                span.set_attribute("request_id", submission.request_id)
                span.add_link(batch_id=batch_id)
                request = submission.request
                try:
                    with self._write_lock:
                        self._begin()
                        report = self.nebula.insert_annotation(
                            request.text,
                            attach_to=request.focal,
                            author=request.author,
                            request_id=submission.request_id,
                        )
                        self._commit()
                except PipelineStageError as error:
                    span.set_attribute("dead_letter_id", error.dead_letter_id)
                    self._fail(submission, error)
                else:
                    self._complete(submission, report)
        self._finish_batch(
            batch_id, submissions, flush_started, self._shedding, poisoned=True
        )

    def _complete(
        self,
        submission: Submission,
        report: DiscoveryReport,
        flush_started: Optional[float] = None,
    ) -> None:
        completed = time.monotonic()
        e2e = completed - submission.submitted_at
        report.request_id = submission.request_id
        self._ingested += 1
        self._m_ingested.inc()
        self._m_request_seconds.observe(e2e)
        self.latency.observe("e2e", e2e)
        self.events.emit(
            "request_flushed",
            request_id=submission.request_id,
            batch_id=submission.batch_id,
            annotation_id=report.annotation_id,
            e2e_seconds=round(e2e, 6),
        )
        if e2e > SLOW_OP_SECONDS:
            self.events.emit(
                "slow_op",
                op="e2e",
                request_id=submission.request_id,
                batch_id=submission.batch_id,
                seconds=round(e2e, 6),
                threshold=SLOW_OP_SECONDS,
            )
        submission.succeed(report)

    def _fail(self, submission: Submission, error: PipelineStageError) -> None:
        """Fail one poisoned member: stamp + record its dead letter."""
        self._failed += 1
        self._m_failed.inc()
        letter_id = error.dead_letter_id
        if letter_id is not None:
            try:
                self.nebula.dead_letters.assign_request(
                    int(letter_id), submission.request_id
                )
            except Exception as stamp_error:  # pragma: no cover - best effort
                _logger.warning(
                    "could not stamp request id on dead letter %s: %s",
                    letter_id, stamp_error,
                )
        self.events.emit(
            "request_dead_lettered",
            request_id=submission.request_id,
            batch_id=submission.batch_id,
            letter_id=letter_id,
            stage=error.stage,
        )
        self.events.emit(
            "request_failed",
            request_id=submission.request_id,
            batch_id=submission.batch_id,
            error=type(error).__name__,
        )
        submission.fail(error)

    def _expire(self, submission: Submission) -> None:
        submission.expire()
        self._expired += 1
        self._m_expired.inc()
        self.events.emit(
            "request_expired",
            request_id=submission.request_id,
            waited_seconds=round(submission.waited(), 6),
            deadline=submission.deadline,
        )

    def _begin(self) -> None:
        """Open an explicit transaction for the coming flush.

        Without it the pipeline's outermost SAVEPOINT *is* the
        transaction — SQLite commits on its RELEASE — and the service's
        commit-before-ack step would be a no-op: a crash after the flush
        could then leave never-acknowledged annotations durable.  With
        the explicit ``BEGIN`` the savepoint nests inside the service's
        transaction, and durability happens exactly at :meth:`_commit`.
        """
        if not self.nebula.connection.in_transaction:
            self.nebula.connection.execute("BEGIN")

    def _commit(self) -> None:
        """The flush's durability point, traced as ``service.commit``."""
        with self.tracer.span("service.commit") as span:
            self.nebula.retry.run(self.nebula.connection.commit, "service.commit")
            span.set_attribute("head", self.nebula.commit_log.head())

    def _rollback_quietly(self) -> None:
        try:
            self.nebula.connection.rollback()
        except Error:  # pragma: no cover - rollback is best-effort
            pass

    def _update_shedding(self) -> None:
        depth = self._queue.depth
        capacity = self.config.queue_capacity
        if not self._shedding and depth >= capacity * self.config.shed_watermark:
            self._shedding = True
            self._m_shed.set(1)
            count_degradation(SERVICE_SHED)
            self.events.emit(
                "shed_engaged", queue_depth=depth, queue_capacity=capacity
            )
            _logger.warning(
                "service shedding load: queue %d/%d, pinning approximate search",
                depth, capacity,
            )
        elif self._shedding and depth <= capacity * self.config.shed_recovery:
            self._shedding = False
            self._m_shed.set(0)
            self.events.emit(
                "shed_released", queue_depth=depth, queue_capacity=capacity
            )

    def _update_depth_gauge(self) -> None:
        self._m_depth.set(self._queue.depth)

    # ------------------------------------------------------------------
    # Read path (caller's thread; never blocks the writer)
    # ------------------------------------------------------------------

    def annotation_count(self) -> int:
        """Total stored annotations (reader connection)."""
        return self._read(
            lambda connection: int(
                connection.execute(
                    "SELECT COUNT(*) FROM _nebula_annotations"
                ).fetchone()[0]
            )
        )

    def head_commit(self) -> Optional[int]:
        """The newest commit id in the append-only log.

        A client pins this once, then passes it as ``as_of`` to the read
        endpoints: because history rows are immutable, every pinned read
        sees the same snapshot no matter how many batches the writer
        commits in between.  None on a database with no commits yet.
        """
        return self._read(
            lambda connection: (
                lambda value: None if value is None else int(value)
            )(
                connection.execute(
                    "SELECT MAX(commit_id) FROM _nebula_commits"
                ).fetchone()[0]
            )
        )

    def find_annotations(
        self, needle: str, limit: int = 20, as_of: Optional[int] = None
    ) -> List[Tuple[int, str, Optional[str]]]:
        """Substring search over annotation content, newest first.

        ``as_of`` pins the search to a commit id (see
        :meth:`head_commit`); the default reads the materialized head.
        """
        if as_of is None:
            sql = (
                "SELECT annotation_id, content, author "
                "FROM _nebula_annotations "
                "WHERE content LIKE '%' || ? || '%' "
                "ORDER BY annotation_id DESC LIMIT ?"
            )
            params: Tuple = (needle, int(limit))
        else:
            sql = timetravel.FIND_ANNOTATIONS_AS_OF
            params = (int(as_of), needle, int(limit))
        return self._read(
            lambda connection: [
                (int(row[0]), str(row[1]), row[2])
                for row in connection.execute(sql, params)
            ]
        )

    def annotations_for(
        self, table: str, rowid: int, as_of: Optional[int] = None
    ) -> List[Tuple[int, str, float, str]]:
        """Annotations that apply to one tuple: (id, content, confidence,
        kind) for each of its exact, cell, column-level, table-level and
        covering-range edges, strongest first.  ``as_of`` pins the read
        to a commit."""
        pin = None if as_of is None else int(as_of)
        return self._read(
            lambda connection: timetravel.annotations_on_row(
                connection, table, int(rowid), pin
            )
        )

    def pending_verifications(
        self, limit: Optional[int] = None, as_of: Optional[int] = None
    ) -> List[Tuple[int, int, str, int, float]]:
        """Pending verification tasks: (task, annotation, table, rowid,
        confidence), most confident first.

        With ``as_of`` the listing is restricted to tasks whose
        annotation was visible at the pinned commit (the task table is
        operational state, not itself versioned).
        """
        bound = -1 if limit is None else int(limit)
        if as_of is None:
            sql = (
                "SELECT task_id, annotation_id, target_table, target_rowid, "
                "confidence FROM _nebula_verification_tasks "
                "WHERE status = 'pending' "
                "ORDER BY confidence DESC, task_id LIMIT ?"
            )
            params: Union[Tuple, Dict[str, object]] = (bound,)
        else:
            sql = timetravel.PENDING_TASKS_AS_OF
            params = {"pin": int(as_of), "limit": bound}
        return self._read(
            lambda connection: [
                (int(r[0]), int(r[1]), str(r[2]), int(r[3]), float(r[4]))
                for r in connection.execute(sql, params)
            ]
        )

    def dead_letter_count(self) -> int:
        """Pending dead letters (reader connection)."""
        return self._read(
            lambda connection: int(
                connection.execute(
                    "SELECT COUNT(*) FROM _nebula_dead_letters "
                    "WHERE status = 'pending'"
                ).fetchone()[0]
            )
        )

    def _read(self, fn: Callable[[Connection], T]) -> T:
        """``fn(connection)`` on a leased reader (or, degraded, the primary).

        ``fn`` must materialize its rows before returning: a cursor left
        open past the lease keeps that reader's snapshot pinned, so its
        next lease would miss commits made in between.
        """
        handle = self._acquire_reader()
        try:
            return fn(handle.connection)
        except Error as error:
            # A WAL reader does not wait on the writer, but it can still
            # meet a transient lock that outlasts the busy timeout (a
            # TRUNCATE checkpoint, WAL recovery after a crash).
            # Serialize this one read against the writer on the primary
            # connection and retry.
            if handle.connection is self.nebula.connection:
                raise
            if not is_transient_operational_error(error):
                raise
            self._m_reader_fallbacks.inc()
            count_degradation(SERVICE_READER_FALLBACK)
            self._write_lock.acquire()
        finally:
            handle.release()
        retry = _ReadHandle(self.nebula.connection, self._write_lock.release)
        try:
            return fn(retry.connection)
        finally:
            retry.release()

    def _acquire_reader(self) -> _ReadHandle:
        """A connection safe for reads concurrent with the writer.

        The ladder: a read-only reader leased from the backend's pool
        (waiting for a free one when ``pool_size`` reads are running);
        then, on a reader outage or an exhausted pool, the primary
        connection serialized against the writer by the write lock.  The
        step down is recorded as :data:`SERVICE_READER_FALLBACK`.
        """
        try:
            if self._faults is not None:
                # Reader-outage chaos point.
                self._faults.check("service.reader")
            lease = self.backend.acquire()
            return _ReadHandle(lease.connection, lease.release)
        except Exception as error:
            _logger.warning("service reader unavailable, degrading: %s", error)
        self._m_reader_fallbacks.inc()
        count_degradation(SERVICE_READER_FALLBACK)
        self._write_lock.acquire()
        return _ReadHandle(self.nebula.connection, self._write_lock.release)


#: The historical spelling some tools prefer.
def serve(nebula: Nebula, config: Optional[ServiceConfig] = None) -> AnnotationService:
    """Construct and start an :class:`AnnotationService` (one call)."""
    return AnnotationService(nebula, config).start()
