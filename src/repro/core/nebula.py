"""The Nebula engine facade: Stages 0-3 wired end to end (Figure 16).

:class:`Nebula` sits on top of the passive annotation manager and the
keyword-search engine.  Its lifecycle per new annotation:

* **Stage 0** — store the annotation, establish its focal (the manual
  attachments), update the ACG and the stability tracker;
* **Stage 1** — generate weighted keyword queries from the text;
* **Stage 2** — execute them: full-database search through the shared
  multi-query executor, or — once the ACG is stable — the approximate
  focal-based spreading search over the K-hop mini database; apply the
  focal-based confidence adjustment;
* **Stage 3** — triage the candidates into auto-accept / pending /
  auto-reject verification tasks.

``insert_annotation`` and ``insert_annotations`` run the same pipeline;
a single insert is a one-member batch under its own commit kind.
``analyze`` runs Stages 1-2 only, with no persistence — the probe the
benchmarks and the bounds-tuning algorithm use.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..annotations.commands import CommandProcessor, CommandResult
from ..annotations.engine import AnnotationManager
from ..annotations.store import Annotation
from ..config import NebulaConfig
from ..errors import PipelineStageError, StorageError
from ..meta.repository import NebulaMeta
from ..observability import (
    NOOP_TRACER,
    SpanLike,
    TIME_BUCKETS,
    JsonlExporter,
    MetricsRegistry,
    RingBufferExporter,
    Tracer,
    get_metrics,
)
from ..perf import AnalysisCache, AnnotationRequest, RequestLike, coerce_request
from ..perf.cache import MISS
from ..resilience import (
    EXECUTOR_FALLBACK,
    MINI_DROP_LEAK,
    SPREADING_FALLBACK,
    DeadLetterQueue,
    RetryPolicy,
    Savepoint,
    count_degradation,
    pipeline_stage,
)
from ..resilience.degradation import logger as _resilience_logger
from ..search.engine import KeywordSearchEngine, SearchResult, SearchScope
from ..search.persist import PersistentValueIndex
from ..storage.backends import SqliteFileBackend
from ..storage.compat import Connection
from ..types import CellRef, ScoredTuple, TupleRef
from ..versioning import CommitLog
from .acg import AnnotationsConnectivityGraph, PersistentHopProfile, StabilityTracker
from .execution import IdentifiedTuples, identify_related_tuples
from .query_generation import QueryGenerationResult, generate_queries
from .shared_execution import SharedExecutor
from .spam import SpamGuard, SpamVerdict, count_searchable_tuples
from .spreading import select_radius, spreading_scope
from .verification import VerificationQueue, VerificationTask


def _storage_backend(
    storage: object, backend: Optional[SqliteFileBackend]
) -> SqliteFileBackend:
    """The backend of ``Nebula(backend, ...)``, or of the older spelling
    ``Nebula(backend.primary, ..., backend=backend)``."""
    if backend is None and isinstance(storage, SqliteFileBackend):
        return storage
    if backend is not None and storage is backend.primary:
        return backend
    raise StorageError(
        "Nebula takes a storage backend as its first argument (or b.primary "
        f"with backend=b), got {type(storage).__name__}; open one with "
        "get_backend('sqlite-file', path=...) or SqliteFileBackend.temporary() "
        "and pass it: Nebula(backend, meta, ...)"
    )


def _decision_counts(tasks: Sequence[VerificationTask]) -> Dict[str, int]:
    """Triage outcome tally, keyed by the decision value (Figure 16)."""
    counts: Dict[str, int] = {}
    for task in tasks:
        counts[task.decision.value] = counts.get(task.decision.value, 0) + 1
    return counts


@dataclass
class DiscoveryReport:
    """Everything one annotation's pass through the pipeline produced."""

    text: str
    focal: Tuple[TupleRef, ...]
    generation: QueryGenerationResult
    identified: IdentifiedTuples
    #: ``"full"`` or ``"spreading"``.
    mode: str
    #: Radius used by the spreading search (None for full search).
    radius: Optional[int] = None
    #: Number of tuples in the restricted scope (None for full search).
    scope_size: Optional[int] = None
    annotation_id: Optional[int] = None
    tasks: List[VerificationTask] = field(default_factory=list)
    #: Set when the spam guard quarantined the annotation (no triage ran).
    spam_verdict: Optional[SpamVerdict] = None
    #: Graceful-degradation labels: optimizations that failed and fell
    #: back to a simpler technique while producing this report (see
    #: :mod:`repro.resilience.degradation`).  Empty on a clean run.
    degradations: List[str] = field(default_factory=list)
    #: Wall seconds of the call that produced this report: the analysis
    #: for :meth:`Nebula.analyze`, the whole ingestion call (shared by
    #: every report of a batch) for the insert paths.
    elapsed: float = 0.0
    #: The finished trace tree of this pass (root-span dict), populated
    #: only when tracing is enabled on the engine.
    trace: Optional[Dict] = None
    #: Metrics-registry snapshot taken right after this pass, populated
    #: only when tracing is enabled (the default hot path stays free).
    metrics: Optional[Dict] = None
    #: Correlation id of the service submission that produced this
    #: report (``req-<pid>-<seq>``), stamped by the annotation service;
    #: None for direct (non-service) pipeline calls.
    request_id: Optional[str] = None
    #: The ``_nebula_commits`` row this ingestion's writes landed under
    #: (``ingest``/``batch``/``replay``); the time-travel pin at which
    #: ``as_of`` reads reproduce this report's post-state exactly.  None
    #: only for :meth:`Nebula.analyze` dry runs, which persist nothing.
    commit_id: Optional[int] = None

    @property
    def candidates(self) -> List[ScoredTuple]:
        return self.identified.tuples

    @property
    def query_count(self) -> int:
        return len(self.generation.queries)


class Nebula:
    """The proactive annotation-management engine."""

    def __init__(
        self,
        storage: Union[SqliteFileBackend, Connection],
        meta: NebulaMeta,
        config: Optional[NebulaConfig] = None,
        aliases: Optional[Dict[str, Tuple[str, Optional[str]]]] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        backend: Optional[SqliteFileBackend] = None,
    ) -> None:
        self.meta = meta
        self.config = config or NebulaConfig()
        #: The engine's storage backend, passed as ``storage``; it stays
        #: owned (and closed) by its creator.
        self.backend = _storage_backend(storage, backend)
        self.connection = self.backend.primary
        connection = self.connection
        self.retry = RetryPolicy()
        self._faults = self.config.fault_injector
        #: Metrics registry shared with every sub-component (the process
        #: default unless injected — tests inject a fresh one).
        self.metrics = metrics if metrics is not None else get_metrics()
        #: Ring-buffer exporter backing ``trace --last N`` (None when the
        #: tracer was injected or tracing is disabled).
        self.trace_buffer: Optional[RingBufferExporter] = None
        if tracer is not None:
            self.tracer = tracer
        elif self.config.tracing:
            self.trace_buffer = RingBufferExporter()
            exporters: List = [self.trace_buffer]
            if self.config.trace_path:
                exporters.append(JsonlExporter(self.config.trace_path))
            self.tracer = Tracer(exporters)
        else:
            self.tracer = NOOP_TRACER
        self._m_ingested = self.metrics.counter("nebula_annotations_ingested_total")
        self._m_quarantined = self.metrics.counter(
            "nebula_annotations_quarantined_total"
        )
        self._m_insert_seconds = self.metrics.histogram(
            "nebula_insert_seconds", TIME_BUCKETS
        )
        self._m_analyze_seconds = self.metrics.histogram(
            "nebula_analyze_seconds", TIME_BUCKETS
        )
        self._m_acg_edges = self.metrics.gauge("nebula_acg_edges")
        self.manager = AnnotationManager(connection, retry=self.retry)
        self.dead_letters = DeadLetterQueue(connection, retry=self.retry)
        #: Generation-versioned memo table for keyword analysis; size 0
        #: disables it (every lookup misses).
        self.analysis_cache = AnalysisCache(
            self.config.analysis_cache_size, metrics=self.metrics
        )
        #: Cold-start accounting of the search index: how long the open
        #: took and whether a persisted image was adopted ("loaded") or
        #: rebuilt + persisted ("rebuilt").
        index_started = time.perf_counter()
        self.index, self.index_source = PersistentValueIndex.open(
            connection,
            self._searchable_columns(),
            metrics=self.metrics,
            tracer=self.tracer,
        )
        self.index_cold_start_seconds = time.perf_counter() - index_started
        self.metrics.counter(
            "nebula_index_opens_total", {"source": self.index_source}
        ).inc()
        self.metrics.gauge("nebula_index_cold_start_seconds").set(
            self.index_cold_start_seconds
        )
        self.engine = KeywordSearchEngine(
            connection,
            searchable_columns=self._searchable_columns(),
            aliases=aliases,
            lexicon=meta.lexicon,
            retry=self.retry,
            metrics=self.metrics,
            analysis_cache=self.analysis_cache,
            index=self.index,
        )
        self.acg = self._build_acg()
        self.profile = PersistentHopProfile(connection)
        self.stability = StabilityTracker(
            batch_size=self.config.batch_size, mu=self.config.stability_mu
        )
        self.queue = VerificationQueue(self.manager, acg=self.acg, profile=self.profile)
        self.commands = CommandProcessor(self.manager, resolver=self.queue)
        self.executor = SharedExecutor(self.engine)
        self.spam_guard = SpamGuard()
        self._searchable_tuple_count = count_searchable_tuples(
            connection, [table for table, _ in self._searchable_columns()]
        )

    def _build_acg(self) -> AnnotationsConnectivityGraph:
        """The ACG built at once from the store's true attachments; its
        wall time lands in ``acg_build_seconds`` and the
        ``nebula_acg_build_seconds`` gauge."""
        started = time.perf_counter()
        graph = AnnotationsConnectivityGraph.build_from_manager(self.manager)
        self.acg_build_seconds = time.perf_counter() - started
        self.metrics.gauge("nebula_acg_build_seconds").set(self.acg_build_seconds)
        return graph

    def resync(self) -> None:
        """Make the engine's memory equal the database after it changed
        behind the engine: a rollback the pipeline did not run, or a head
        restored from the commit log (both in a service recovery).

        Rebuilds the ACG in place (the verification queue shares it),
        reloads the hop profile, and clears the analysis cache, whose
        ``acg.as_of`` entries are keyed by commit ids the rollback freed
        for reuse.  The stability tracker lives only in memory, so its
        window keeps what it counted.
        """
        self.acg.adopt(self._build_acg())
        self.profile.reload()
        self.analysis_cache.clear()

    def ensure_index_fresh(self) -> bool:
        """Revalidate the persisted search index against the live data.

        Returns True when the image was stale (rows loaded behind the
        index's back, deletions, a changed searchable-column set) and a
        rebuild was persisted and committed.  The service's startup
        recovery calls this before accepting traffic so a recovered
        process cannot serve search results from a stale index.
        """
        rebuilt = self.index.refresh(self._searchable_columns())
        if rebuilt:
            self.index_source = "rebuilt"
            self.metrics.counter("nebula_index_refreshes_total").inc()
        return rebuilt

    def searchable_columns(self) -> List[Tuple[str, str]]:
        """The (table, column) pairs the search index covers.

        ``repro index`` builds/verifies the persisted index over exactly
        this set.
        """
        return self._searchable_columns()

    def _searchable_columns(self) -> List[Tuple[str, str]]:
        columns: List[Tuple[str, str]] = []
        for concept in self.meta.concepts:
            for column in sorted(
                concept.referencing_columns, key=lambda c: (c.table, c.column)
            ):
                pair = (column.table, column.column)
                if pair not in columns:
                    columns.append(pair)
        return columns

    # ------------------------------------------------------------------
    # Stages 1-2 (no persistence)
    # ------------------------------------------------------------------

    def acg_as_of(self, as_of: int) -> AnnotationsConnectivityGraph:
        """The ACG as it stood right after commit ``as_of`` (memoized).

        Rebuilt from the time-travel read of the true attachments and
        cached in the analysis cache keyed by the commit id — pinned
        history is immutable, so an entry can never go stale.
        """
        cached = self.analysis_cache.get("acg.as_of", as_of, as_of)
        if cached is not MISS:
            assert isinstance(cached, AnnotationsConnectivityGraph)
            return cached
        graph = AnnotationsConnectivityGraph.build_from_manager(
            self.manager, as_of=as_of
        )
        self.analysis_cache.put("acg.as_of", as_of, as_of, graph)
        return graph

    def analyze(
        self,
        text: str,
        focal: Sequence[TupleRef] = (),
        use_spreading: Optional[bool] = None,
        radius: Optional[int] = None,
        shared: bool = False,
        as_of: Optional[int] = None,
    ) -> DiscoveryReport:
        """Generate queries and identify candidate tuples for ``text``.

        ``use_spreading`` defaults to the ACG stability flag (the paper's
        trigger); ``radius`` defaults to the profile-guided selection;
        ``shared`` runs the SQL through the shared multi-query executor
        instead of query by query — Figure 13's comparison, answers
        unchanged.

        ``as_of`` replays the analysis against the annotation graph as it
        stood at that commit: focal adjustment and the spreading scope
        use the historical ACG instead of the live one (the user data
        tables themselves are not versioned).  This is the
        ``repro annotate --as-of`` path — "what would Nebula have
        predicted back then?".

        With tracing enabled the pass is one ``analyze`` span holding the
        ``stage1.*`` generation spans and the ``stage2.execute`` span; a
        standalone call exports it as its own trace, the spreading member
        of an ingestion nests it under that trace's root.
        """
        with self.tracer.span("analyze") as span:
            report = self._analyze(
                text, tuple(focal), use_spreading, radius, shared, span, as_of
            )
        self._m_analyze_seconds.observe(report.elapsed)
        self._attach_trace(report)
        return report

    def _analyze(
        self,
        text: str,
        focal: Tuple[TupleRef, ...],
        use_spreading: Optional[bool],
        radius: Optional[int],
        shared: bool,
        span: SpanLike,
        as_of: Optional[int] = None,
    ) -> DiscoveryReport:
        started = time.perf_counter()
        generation = generate_queries(text, self.meta, self.config, tracer=self.tracer)
        degradations: List[str] = list(generation.degradations)
        acg = self.acg if as_of is None else self.acg_as_of(as_of)

        spreading = (
            use_spreading if use_spreading is not None else self.stability.stable
        )
        spreading = spreading and bool(focal)
        scope: Optional[SearchScope] = None
        mini = None
        chosen_radius: Optional[int] = None
        with self.tracer.span("stage2.execute") as execute_span:
            if spreading:
                try:
                    if self._faults is not None:
                        self._faults.check("spreading.scope")
                    # An explicit radius of 0 means "search the focal only"
                    # and must not fall through to the profile selection.
                    chosen_radius = (
                        radius
                        if radius is not None
                        else select_radius(
                            self.profile,
                            self.config.target_recall,
                            self.config.spreading_hops,
                        )
                    )
                    scope, mini = spreading_scope(
                        self.connection, acg, focal, chosen_radius,
                        retry=self.retry,
                    )
                except Exception as error:
                    # Degradation ladder: a broken scope construction falls
                    # back to the exact whole-database search.
                    _resilience_logger.warning(
                        "spreading scope failed, using full search: %s", error
                    )
                    degradations.append(SPREADING_FALLBACK)
                    count_degradation(SPREADING_FALLBACK)
                    spreading = False
                    scope, mini, chosen_radius = None, None, None

            def identify(executor: Optional[SharedExecutor]) -> IdentifiedTuples:
                return identify_related_tuples(
                    generation.queries,
                    self.engine,
                    scope=scope,
                    acg=acg if self.config.focal_adjustment else None,
                    focal=focal,
                    executor=executor,
                )

            try:
                if shared:
                    try:
                        if self._faults is not None:
                            self._faults.check("executor.run")
                        identified = identify(self.executor)
                    except Exception as error:
                        # Degradation ladder: shared execution is an
                        # optimization — re-run each query sequentially.
                        _resilience_logger.warning(
                            "shared executor failed, executing sequentially: %s",
                            error,
                        )
                        degradations.append(EXECUTOR_FALLBACK)
                        count_degradation(EXECUTOR_FALLBACK)
                        identified = identify(None)
                else:
                    identified = identify(None)
            finally:
                if mini is not None:
                    try:
                        mini.drop()
                    except Exception as error:
                        # A failed cleanup must not mask the pipeline outcome
                        # (nor any in-flight exception); the temp tables leak
                        # until the connection closes.
                        _resilience_logger.warning(
                            "failed to drop spreading mini-database (leaked): %s",
                            error,
                        )
                        degradations.append(MINI_DROP_LEAK)
                        count_degradation(MINI_DROP_LEAK)
            execute_span.set_attribute("mode", "spreading" if spreading else "full")
            execute_span.set_attribute("radius", chosen_radius)
            execute_span.set_attribute(
                "scope_size", scope.size() if scope is not None else None
            )
            execute_span.set_attribute("raw_tuples", identified.raw_tuple_count)
            execute_span.set_attribute("candidates", len(identified.tuples))
        span.set_attribute("query_count", len(generation.queries))
        span.set_attribute("candidates", len(identified.tuples))
        if degradations:
            span.set_attribute("degradations", list(degradations))
        return DiscoveryReport(
            text=text,
            focal=focal,
            generation=generation,
            identified=identified,
            mode="spreading" if spreading else "full",
            radius=chosen_radius,
            scope_size=scope.size() if scope is not None else None,
            degradations=degradations,
            elapsed=time.perf_counter() - started,
        )

    def _attach_trace(self, report: DiscoveryReport) -> None:
        """Surface the finished trace + a metrics snapshot on the report.

        Only a *root* span produces a trace (a nested ``analyze`` inside
        an ingestion is exported with that trace instead), and only when
        tracing is enabled — the no-op tracer never has one.
        """
        if self.tracer.enabled and self.tracer.depth == 0:
            report.trace = self.tracer.last_trace
            report.metrics = self.metrics.snapshot()

    # ------------------------------------------------------------------
    # Full pipeline (Stages 0-3, persisted)
    # ------------------------------------------------------------------

    def insert_annotation(
        self,
        text: str,
        attach_to: Sequence[TupleRef] = (),
        author: Optional[str] = None,
        use_spreading: Optional[bool] = None,
        radius: Optional[int] = None,
        capture_dead_letter: bool = True,
        request_id: Optional[str] = None,
        replay_of: Optional[int] = None,
    ) -> DiscoveryReport:
        """Insert a new annotation and proactively discover its missing
        attachments; predictions are triaged into verification tasks.

        The annotation runs alone through the one Stage 0-3 pipeline that
        :meth:`insert_annotations` describes.  Every write of the pass —
        annotation row, focal edges, predicted and auto-accepted
        attachments — lands under one ``ingest`` commit in the
        append-only log (``replay`` when ``replay_of`` names the dead
        letter being replayed), carrying ``author`` and ``request_id``
        provenance; its id is stamped onto the report as
        :attr:`DiscoveryReport.commit_id`.

        The whole pipeline runs inside a SQLite SAVEPOINT: a Stage 0-3
        failure that cannot be degraded around rolls the Stage 0 writes
        (annotation row, focal attachments, ACG edges) back atomically,
        captures the inputs in the dead-letter queue (unless
        ``capture_dead_letter`` is False), and raises
        :class:`~repro.errors.PipelineStageError`.

        With tracing enabled the pass becomes one exported trace rooted
        at ``insert_annotation`` with ``stage0.store``, ``stage1.*``,
        ``stage2.batch_execute`` and ``stage3.curate`` children (a
        spreading search runs its Stages 1-2 under an ``analyze`` span
        instead); the finished tree plus a metrics snapshot land on the
        returned report, whose ``elapsed`` is the whole call.
        """
        started = time.perf_counter()
        request = AnnotationRequest.build(text, attach_to, author)
        with self.tracer.span("insert_annotation") as span:
            (report,) = self._ingest(
                [request],
                use_spreading,
                radius,
                capture_dead_letter,
                "ingest" if replay_of is None else "replay",
                author=author,
                request_id=request_id,
                note=None if replay_of is None else f"dead-letter:{replay_of}",
            )
            span.set_attribute("annotation_id", report.annotation_id)
            span.set_attribute("query_count", report.query_count)
            span.set_attribute("candidates", len(report.candidates))
            span.set_attribute("tasks", len(report.tasks))
        self._record_call([report], started)
        return report

    def insert_annotations(
        self,
        batch: Sequence[RequestLike],
        use_spreading: Optional[bool] = None,
        radius: Optional[int] = None,
        capture_dead_letter: bool = True,
        request_id: Optional[str] = None,
    ) -> List[DiscoveryReport]:
        """Ingest a batch of annotations with cross-annotation sharing.

        Produces, per request, exactly the report and database state a
        loop over :meth:`insert_annotation` would — in batch order — and
        both run the same pipeline:

        * **Stage 0** bulk-writes every annotation row and focal edge with
          two ``executemany`` statements;
        * **Stage 2** pools the SQL of *all* full-search members through
          one shared dedup/batch pass (``SharedExecutor.execute_groups``),
          so annotations mentioning the same values probe the database
          once;
        * the ACG-dependent steps (focal edges, confidence adjustment,
          spam screen, triage) still run per annotation in order, which is
          what makes the per-request results identical to sequential
          ingestion.

        Differences from a loop over :meth:`insert_annotation`, by design:

        * the spreading decision is **pinned** at batch start (a mid-batch
          stability flip cannot change execution strategy); members with a
          focal then use the per-annotation spreading path, without
          cross-annotation sharing;
        * the whole batch is one SAVEPOINT under one ``batch`` commit: any
          member's hard failure rolls back every member, captures one dead
          letter *per request* (so :meth:`reprocess_dead_letters` replays
          the batch), and raises :class:`~repro.errors.PipelineStageError`.
        """
        requests = [coerce_request(item) for item in batch]
        if not requests:
            return []
        started = time.perf_counter()
        with self.tracer.span("insert_annotations") as span:
            reports = self._ingest(
                requests,
                use_spreading,
                radius,
                capture_dead_letter,
                "batch",
                request_id=request_id,
                note=f"batch of {len(requests)}",
            )
            span.set_attribute("batch_size", len(requests))
            span.set_attribute(
                "quarantined", sum(1 for r in reports if r.spam_verdict is not None)
            )
        self._record_call(reports, started)
        return reports

    def _record_call(self, reports: Sequence[DiscoveryReport], started: float) -> None:
        """Call-level bookkeeping after a successful ingestion call; every
        report's ``elapsed`` becomes the call's wall time since ``started``."""
        elapsed = time.perf_counter() - started
        self._m_insert_seconds.observe(elapsed)
        self._m_acg_edges.set(self.acg.edge_count)
        for report in reports:
            report.elapsed = elapsed
            self._attach_trace(report)

    def _ingest(
        self,
        requests: Sequence[AnnotationRequest],
        use_spreading: Optional[bool],
        radius: Optional[int],
        capture_dead_letter: bool,
        kind: str,
        author: Optional[str] = None,
        request_id: Optional[str] = None,
        note: Optional[str] = None,
    ) -> List[DiscoveryReport]:
        """Stages 0-3 for ``requests`` in one SAVEPOINT and one ``kind``
        commit; the body of both public ingestion calls."""
        # Pin the spreading decision for the whole call; per member it
        # still requires a non-empty focal, exactly as in analyze().
        pinned = use_spreading if use_spreading is not None else self.stability.stable
        spreading_flags = [pinned and bool(r.focal) for r in requests]
        savepoint = Savepoint(self.connection, "nebula_ingest").begin()
        # The commit opens *inside* the SAVEPOINT: a rollback removes the
        # commit row and its history rows together.
        commit_id = self.commit_log.begin(
            kind, author=author, request_id=request_id, note=note
        )
        inserted: List[Annotation] = []
        reports: List[DiscoveryReport] = []
        #: Per member: (attachments, new_edges, quarantined) — stability
        #: and counter updates are deferred until the call commits, so a
        #: rollback leaves the tracker and metrics untouched.
        outcomes: List[Tuple[int, int, bool]] = []
        decision_totals: Dict[str, int] = {}
        try:
            # Stage 0 — bulk-persist annotations + focal edges.
            with self.tracer.span("stage0.store") as store_span:
                with pipeline_stage("store.add", self._faults):
                    inserted = self.manager.bulk_add_annotations(
                        [
                            (
                                request.text,
                                [CellRef(ref.table, ref.rowid) for ref in request.focal],
                                request.author,
                            )
                            for request in requests
                        ]
                    )
                store_span.set_attribute("batch_size", len(inserted))

            # Stage 1 for the pooled (full-search) members.  Query
            # generation depends only on the text, the meta-repository,
            # and the config — never on the ACG — so it can run up front.
            generations: Dict[int, QueryGenerationResult] = {}
            with pipeline_stage("pipeline.analyze"):
                for position, request in enumerate(requests):
                    if not spreading_flags[position]:
                        generations[position] = generate_queries(
                            request.text, self.meta, self.config, tracer=self.tracer
                        )

            # Stage 2 — one shared pass over every pooled member's SQL.
            # The statements read only user data tables (Stage 0 touched
            # only ``_nebula_*`` tables), so executing them before any
            # ACG mutation cannot change any member's answer set.
            shared_failed = False
            group_results: Dict[int, Dict[str, SearchResult]] = {}
            positions = sorted(generations)
            if positions:
                with self.tracer.span("stage2.batch_execute") as execute_span:
                    try:
                        if self._faults is not None:
                            self._faults.check("executor.run")
                        grouped = self.executor.execute_groups(
                            [generations[p].queries for p in positions]
                        )
                        group_results = dict(zip(positions, grouped))
                    except Exception as error:
                        # Degradation ladder: shared execution is an
                        # optimization — fall back to per-member
                        # sequential execution below.
                        _resilience_logger.warning(
                            "shared execution failed, "
                            "executing members sequentially: %s",
                            error,
                        )
                        shared_failed = True
                        count_degradation(EXECUTOR_FALLBACK)
                    execute_span.set_attribute("groups", len(positions))
                    execute_span.set_attribute(
                        "hit_ratio", self.executor.last_stats.hit_ratio
                    )

            # Stages 2'-3, per member in order: ACG focal edges, grouping
            # + focal adjustment, spam screen, triage.
            for position, (request, annotation) in enumerate(zip(requests, inserted)):
                report, outcome = self._finish_member(
                    request,
                    annotation,
                    generations.get(position),
                    group_results.get(position),
                    spreading=spreading_flags[position],
                    shared_failed=shared_failed,
                    radius=radius,
                    decision_totals=decision_totals,
                )
                reports.append(report)
                outcomes.append(outcome)
        except Exception as error:
            self._abort(savepoint, inserted)
            failure = (
                error
                if isinstance(error, PipelineStageError)
                else PipelineStageError("pipeline", error)
            )
            if capture_dead_letter:
                # One letter per request: the failed member is not
                # isolatable after a whole-call rollback, and replaying
                # every letter reconstructs the call exactly.
                for request in requests:
                    letter = self.dead_letters.capture(
                        request.text,
                        request.focal,
                        request.author,
                        failure.stage,
                        repr(failure.original),
                    )
                    if failure.dead_letter_id is None:
                        failure.dead_letter_id = letter.letter_id
            if failure is not error:
                raise failure from error
            raise
        savepoint.release()
        self.commit_log.finish()
        for report in reports:
            report.commit_id = commit_id
        for attachments, new_edges, quarantined in outcomes:
            self.stability.record_annotation(
                attachments=attachments, new_edges=new_edges
            )
            if quarantined:
                self._m_quarantined.inc()
            else:
                self._m_ingested.inc()
        for decision, count in decision_totals.items():
            self.metrics.counter(
                "nebula_triage_decisions_total", {"decision": decision}
            ).inc(count)
        return reports

    def _finish_member(
        self,
        request: AnnotationRequest,
        annotation: Annotation,
        generation: Optional[QueryGenerationResult],
        per_query: Optional[Dict[str, SearchResult]],
        spreading: bool,
        shared_failed: bool,
        radius: Optional[int],
        decision_totals: Dict[str, int],
    ) -> Tuple[DiscoveryReport, Tuple[int, int, bool]]:
        """Run the ACG-order-dependent tail of the pipeline for one member."""
        focal = request.focal
        edges_before = self.acg.edge_count
        focal_new_edges = 0
        for ref in focal:
            focal_new_edges += self.acg.add_attachment(annotation.annotation_id, ref)

        # Optimization failures degrade inside; anything that escapes is
        # a hard Stage 1-2 failure.
        with pipeline_stage("pipeline.analyze"):
            if spreading:
                # Spreading members search their K-hop mini database —
                # scoped per member, so nothing to share across members.
                report = self.analyze(
                    request.text, focal=focal, use_spreading=True, radius=radius
                )
            else:
                assert generation is not None
                degradations = list(generation.degradations)
                if shared_failed:
                    degradations.append(EXECUTOR_FALLBACK)
                identified = identify_related_tuples(
                    generation.queries,
                    self.engine,
                    acg=self.acg if self.config.focal_adjustment else None,
                    focal=focal,
                    precomputed=None if shared_failed else per_query,
                )
                report = DiscoveryReport(
                    text=request.text,
                    focal=focal,
                    generation=generation,
                    identified=identified,
                    mode="full",
                    degradations=degradations,
                )
        report.annotation_id = annotation.annotation_id

        verdict = self.spam_guard.screen(
            report.candidates, self._searchable_tuple_count
        )
        if verdict.is_spam:
            # Footnote-1 guard: a spam-like annotation is quarantined —
            # its focal stays, but no predicted attachments are created.
            report.spam_verdict = verdict
            return report, (len(focal), focal_new_edges, True)

        # Stage 3 — triage the candidates into verification tasks.
        with self.tracer.span("stage3.curate") as curate_span:
            with pipeline_stage("queue.triage", self._faults):
                report.tasks = self.queue.triage(
                    annotation.annotation_id,
                    report.candidates,
                    self.config.beta_lower,
                    self.config.beta_upper,
                    focal=focal,
                )
            curate_span.set_attribute("tasks", len(report.tasks))
            for decision, count in _decision_counts(report.tasks).items():
                curate_span.set_attribute(decision, count)
        accepted = sum(1 for t in report.tasks if t.decision.is_accepted)
        for decision, count in _decision_counts(report.tasks).items():
            decision_totals[decision] = decision_totals.get(decision, 0) + count
        # ACG delta across the member: focal edges + edges from
        # auto-accepted attachments (added during triage).
        return report, (
            len(focal) + accepted,
            self.acg.edge_count - edges_before,
            False,
        )

    def _abort(self, savepoint: Savepoint, inserted: Sequence[Annotation]) -> None:
        """Undo a failed ingestion completely.

        The SAVEPOINT rollback restores the database (annotation rows,
        attachments, verification tasks, the hop-profile table); the
        in-memory ACG and hop profile are restored to match.  The
        stability tracker records a call only at the SAVEPOINT's
        release, so a failure here leaves it untouched.  That
        release is the outer commit only when no transaction encloses the
        call: under the service's ``BEGIN``, a commit lost after the
        release leaves the tracker ahead of the database, and nothing
        restores it (the tracker is not persisted).
        """
        savepoint.rollback()
        self.commit_log.abandon()
        self.profile.reload()
        for annotation in inserted:
            self.acg.remove_annotation(annotation.annotation_id)

    def reprocess_dead_letters(self) -> List[DiscoveryReport]:
        """Drain the dead-letter queue by re-running the full pipeline.

        Each pending letter is replayed through :meth:`insert_annotation`
        with its captured text / focal / author; a successful replay
        resolves the letter, a failed one bumps its attempt counter and
        leaves it pending (the replay never captures a second letter).
        Returns the reports of the successful replays, in letter order.

        Replays are **idempotent under concurrent or repeated
        invocation**: a letter is first *claimed* with an atomic
        compare-and-set (:meth:`~repro.resilience.DeadLetterQueue.claim`)
        and skipped when another replayer already holds it, so one row
        can never be ingested twice.  Successful replays count into
        ``nebula_dead_letter_replayed_total``.
        """
        reports: List[DiscoveryReport] = []
        for letter in self.dead_letters.pending(include_claimed=False):
            if not self.dead_letters.claim(letter.letter_id):
                continue
            try:
                report = self.insert_annotation(
                    letter.content,
                    attach_to=letter.focal,
                    author=letter.author,
                    capture_dead_letter=False,
                    replay_of=letter.letter_id,
                )
            except PipelineStageError as error:
                self.dead_letters.record_attempt(
                    letter.letter_id, repr(error.original)
                )
                continue
            # Stamp the replay commit onto the resolved letter: the
            # letter row names the exact log entry its re-ingestion
            # produced, and the commit's note names the letter back.
            self.dead_letters.mark_resolved(
                letter.letter_id, commit_id=report.commit_id
            )
            self.metrics.counter("nebula_dead_letter_replayed_total").inc()
            reports.append(report)
        return reports

    # ------------------------------------------------------------------
    # Versioning
    # ------------------------------------------------------------------

    @property
    def commit_log(self) -> "CommitLog":
        """The append-only commit log every write of this engine joins."""
        return self.manager.store.versioning

    def head_commit(self) -> Optional[int]:
        """The newest commit id — the pin for snapshot-consistent reads."""
        return self.commit_log.head()

    # ------------------------------------------------------------------
    # Stage-3 passthroughs
    # ------------------------------------------------------------------

    def verify_attachment(self, task_id: int) -> VerificationTask:
        return self.queue.verify(task_id)

    def reject_attachment(self, task_id: int) -> VerificationTask:
        return self.queue.reject(task_id)

    def pending_tasks(self, annotation_id: Optional[int] = None) -> List[VerificationTask]:
        return self.queue.pending(annotation_id)

    def execute_command(self, statement: str) -> CommandResult:
        """Run one extended-SQL statement (ADD ANNOTATION / VERIFY / ...)."""
        return self.commands.execute(statement)
