"""Command-line interface.

Usage (after ``pip install -e .``)::

    python -m repro generate --db curated.db --genes 400 --publications 2000
    python -m repro stats --db curated.db
    python -m repro annotate --db curated.db --text "gene JW0014 matters" \\
        --attach Gene:3 --trace
    python -m repro annotate-batch --db curated.db --file notes.txt
    python -m repro trace --db curated.db --last 2
    python -m repro pending --db curated.db
    python -m repro verify --db curated.db --task 7
    python -m repro serve --db curated.db --clients 4 --metrics-port 0
    python -m repro top --url http://127.0.0.1:9464 --once
    python -m repro index status --db curated.db
    python -m repro history 3 --db curated.db
    python -m repro migrate status --db curated.db
    python -m repro demo

``generate`` persists a synthetic curated database (plus its NebulaMeta
concepts, rebuilt on open from the stored schema); the other commands
operate on it through a fresh Nebula engine.

``annotate --trace`` also appends the pass's trace tree to
``<db>.trace.jsonl`` and accumulates a metrics snapshot in
``<db>.metrics.json``; ``trace`` pretty-prints those traces and ``stats``
folds the persisted metrics into its report.

``serve --metrics-port`` exposes the running service's telemetry plane
(``/metrics``, ``/healthz``, ``/readyz``) over HTTP while the clients
run, and ``top`` polls such an endpoint to render a live dashboard:
queue depth, shedding state, throughput, and latency percentiles.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Mapping, Optional, Sequence

from .config import NebulaConfig
from .core.nebula import Nebula
from .datagen.biodb import BioDatabaseSpec, generate_bio_database, _build_meta
from .datagen.stats import collect_stats
from .datagen.workload import WorkloadSpec, generate_workload
from .perf import AnnotationRequest
from .observability import (
    MetricsRegistry,
    format_trace,
    read_jsonl_traces,
    set_metrics,
    validate_trace_file,
)
from .storage import SqliteFileBackend, get_backend
from .types import TupleRef


def _trace_path(db: str) -> str:
    return f"{db}.trace.jsonl"


def _metrics_path(db: str) -> str:
    return f"{db}.metrics.json"


def _load_metrics(db: str) -> MetricsRegistry:
    """A registry seeded from the database's persisted snapshot (if any),
    so traced CLI runs accumulate metrics across processes."""
    registry = MetricsRegistry()
    path = _metrics_path(db)
    if os.path.exists(path):
        with open(path) as handle:
            registry.restore(json.load(handle))
    return registry


def _save_metrics(db: str, registry: MetricsRegistry) -> None:
    with open(_metrics_path(db), "w") as handle:
        json.dump(registry.snapshot(), handle, indent=2)


_LATENCY_PREFIX = 'nebula_service_latency_seconds{'

#: Display order of the service latency phases (extras sort after).
_LATENCY_PHASES = ("queue", "flush", "e2e")


def _latency_rows(table: Mapping[str, Mapping[str, float]]) -> List[str]:
    """Aligned ``phase  p50/p95/p99`` rows from phase -> quantile ->
    seconds (known phases first, in display order; extras sort after)."""
    ordered = [p for p in _LATENCY_PHASES if p in table]
    ordered += sorted(set(table) - set(_LATENCY_PHASES))
    rows = []
    for phase in ordered:
        cells = "  ".join(
            f"{q}={table[phase].get(q, 0.0) * 1e3:9.2f}ms"
            for q in ("p50", "p95", "p99")
        )
        rows.append(f"{phase:<6} {cells}")
    return rows


def _service_latency_rows(gauges: Mapping[str, float]) -> List[str]:
    """:func:`_latency_rows` from latency-percentile gauges, keyed by the
    registry's encoded form, e.g.
    ``nebula_service_latency_seconds{phase="queue",quantile="p50"}``.
    """
    table: Dict[str, Dict[str, float]] = {}
    for key, value in gauges.items():
        if not key.startswith(_LATENCY_PREFIX) or not key.endswith("}"):
            continue
        labels: Dict[str, str] = {}
        for part in key[len(_LATENCY_PREFIX):-1].split(","):
            name, _, raw = part.partition("=")
            labels[name.strip()] = raw.strip().strip('"')
        phase = labels.get("phase", "?")
        table.setdefault(phase, {})[labels.get("quantile", "?")] = value
    return _latency_rows(table)


def _open_engine(
    path: str,
    epsilon: float,
    trace: bool = False,
    persist_metrics: bool = False,
) -> Nebula:
    # The backend is surfaced on the returned engine (``nebula.backend``)
    # and closing it releases every handle — the connection opened here
    # can no longer leak past the command.
    config = NebulaConfig(
        epsilon=epsilon,
        tracing=trace,
        trace_path=_trace_path(path) if trace else None,
    )
    backend = get_backend(config.storage_backend, path=path)
    meta = _build_meta(backend.primary)
    aliases = {
        "genes": ("Gene", None),
        "proteins": ("Protein", None),
        "id": ("Gene", "GID"),
        "accession": ("Protein", "PID"),
    }
    metrics = None
    if trace or persist_metrics:
        # Route the resilience layer's module-level counters into the
        # same restored registry the engine will snapshot.
        metrics = _load_metrics(path)
        set_metrics(metrics)
    return Nebula(backend, meta, config, aliases=aliases, metrics=metrics)


def _close_engine(nebula: Nebula) -> None:
    """Release the engine's storage backend (every connection)."""
    nebula.backend.close()


def _parse_ref(text: str) -> TupleRef:
    table, _, rowid = text.partition(":")
    if not rowid.isdigit():
        raise argparse.ArgumentTypeError(
            f"expected TABLE:ROWID (e.g. Gene:3), got {text!r}"
        )
    return TupleRef(table, int(rowid))


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------


def cmd_generate(args: argparse.Namespace) -> int:
    spec = BioDatabaseSpec(
        genes=args.genes,
        proteins=args.proteins,
        publications=args.publications,
        community_size=args.community_size,
        seed=args.seed,
    )
    with get_backend("sqlite-file", path=args.db) as backend:
        connection = backend.primary
        db = generate_bio_database(spec, connection=connection)
        connection.commit()
        print(
            f"generated {args.db}: {len(db.genes)} genes, {len(db.proteins)} "
            f"proteins, {db.manager.store.count_annotations()} publication-annotations"
        )
        if args.workload:
            workload = generate_workload(db, WorkloadSpec(seed=args.seed))
            with open(args.workload, "w") as handle:
                json.dump(workload.to_dict(), handle, indent=2)
            print(
                f"workload oracle written to {args.workload} "
                f"({len(workload)} annotations)"
            )
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    with get_backend("sqlite-file", path=args.db) as backend:
        stats = collect_stats(backend.primary)
    for line in stats.lines():
        print(line)
    metrics_path = _metrics_path(args.db)
    if os.path.exists(metrics_path):
        print()
        print(f"pipeline metrics ({metrics_path}):")
        registry = _load_metrics(args.db)
        for line in registry.lines():
            print(f"  {line}")
        rows = _service_latency_rows(registry.snapshot()["gauges"])
        if rows:
            print()
            print("service latency percentiles (last serve run):")
            for row in rows:
                print(f"  {row}")
    return 0


def cmd_annotate(args: argparse.Namespace) -> int:
    nebula = _open_engine(args.db, args.epsilon, trace=args.trace)
    try:
        attach = list(args.attach or [])
        if args.as_of is not None:
            return _annotate_as_of(nebula, args, attach)
        report = nebula.insert_annotation(
            args.text, attach_to=attach, author=args.author
        )
        nebula.connection.commit()
        if args.trace:
            _save_metrics(args.db, nebula.metrics)
        print(f"annotation {report.annotation_id} inserted ({report.mode} search)")
        print(f"queries: {[q.keywords for q in report.generation.queries]}")
        if report.spam_verdict is not None and report.spam_verdict.is_spam:
            print(f"QUARANTINED as spam ({report.spam_verdict.reason})")
            return 1
        for task in report.tasks:
            print(
                f"  task {task.task_id}: {task.ref} "
                f"confidence={task.confidence:.2f} -> {task.decision.value}"
            )
        if args.trace and report.trace is not None:
            print(f"trace (appended to {_trace_path(args.db)}):")
            for line in format_trace(report.trace, indent=1):
                print(line)
        return 0
    finally:
        _close_engine(nebula)


def _annotate_as_of(
    nebula: Nebula, args: argparse.Namespace, attach: List[TupleRef]
) -> int:
    """``annotate --as-of N``: historical dry run, persists nothing.

    Replays the Stage-1/Stage-2 analysis against the annotation graph as
    it stood at commit N — "what would Nebula have predicted back then?"
    — and prints the candidates instead of inserting anything.
    """
    from .errors import UnknownCommitError

    try:
        commit = nebula.commit_log.get_commit(args.as_of)
    except UnknownCommitError:
        head = nebula.head_commit()
        print(
            f"annotate: unknown commit {args.as_of} "
            f"(head is {head if head is not None else 'empty'})",
            file=sys.stderr,
        )
        return 2
    report = nebula.analyze(args.text, focal=attach, as_of=args.as_of)
    print(
        f"historical analysis at commit {commit.commit_id} "
        f"({commit.kind} @ {commit.created_at}) — nothing persisted"
    )
    print(f"queries: {[q.keywords for q in report.generation.queries]}")
    if not report.candidates:
        print("  no candidate tuples at that commit")
    for candidate in report.candidates:
        print(f"  {candidate.ref} confidence={candidate.confidence:.2f}")
    return 0


def _parse_batch_line(line: str) -> AnnotationRequest:
    """One batch-file line: ``text`` or ``TABLE:ROWID<TAB>text``."""
    focal, tab, rest = line.partition("\t")
    if tab and ":" in focal and focal.partition(":")[2].isdigit():
        return AnnotationRequest.build(rest.strip(), [_parse_ref(focal.strip())])
    return AnnotationRequest.build(line.strip())


def cmd_annotate_batch(args: argparse.Namespace) -> int:
    import dataclasses
    import time

    with open(args.file) as handle:
        lines = [line.rstrip("\n") for line in handle]
    requests = [_parse_batch_line(line) for line in lines if line.strip()]
    if args.author:
        requests = [
            dataclasses.replace(request, author=args.author)
            for request in requests
        ]
    if not requests:
        print(f"no annotations in {args.file}", file=sys.stderr)
        return 2
    nebula = _open_engine(args.db, args.epsilon)
    try:
        started = time.perf_counter()
        reports = nebula.insert_annotations(requests)
        elapsed = time.perf_counter() - started
        nebula.connection.commit()
        tasks = sum(len(report.tasks) for report in reports)
        spam = sum(
            1
            for report in reports
            if report.spam_verdict is not None and report.spam_verdict.is_spam
        )
        rate = len(reports) / elapsed if elapsed > 0 else float("inf")
        print(
            f"inserted {len(reports)} annotations in {elapsed * 1e3:.1f}ms "
            f"({rate:.1f}/s): {tasks} verification tasks, {spam} quarantined"
        )
        stats = nebula.executor.last_stats
        if stats is not None and stats.total_sql:
            print(
                f"shared execution: {stats.executed_statements}/"
                f"{stats.total_sql} statements executed "
                f"(hit ratio {stats.hit_ratio:.2f})"
            )
        if args.verbose:
            for report in reports:
                print(
                    f"  annotation {report.annotation_id}: "
                    f"{len(report.tasks)} tasks"
                )
        return 0
    finally:
        _close_engine(nebula)


def cmd_trace(args: argparse.Namespace) -> int:
    if not args.path and not args.db:
        print("trace: one of --db or --path is required", file=sys.stderr)
        return 2
    path = args.path or _trace_path(args.db)
    if args.validate:
        try:
            validate_trace_file(path, minimum=max(args.last, 1))
        except ValueError as error:
            print(f"trace validation failed: {error}", file=sys.stderr)
            return 1
        print(f"{path}: OK")
    if not os.path.exists(path):
        print(f"no trace file at {path} (run annotate --trace first)")
        return 0 if args.validate else 1
    traces = read_jsonl_traces(path)
    for record in traces[-max(args.last, 0):]:
        for line in format_trace(record):
            print(line)
        print()
    return 0


def cmd_pending(args: argparse.Namespace) -> int:
    nebula = _open_engine(args.db, args.epsilon)
    try:
        pending = nebula.pending_tasks()
        if not pending:
            print("no pending verification tasks")
            return 0
        from .core.explain import explain_task

        for task in pending:
            explanation = explain_task(nebula.manager, task)
            for line in explanation.lines():
                print(line)
            print()
        return 0
    finally:
        _close_engine(nebula)


def cmd_verify(args: argparse.Namespace) -> int:
    nebula = _open_engine(args.db, args.epsilon)
    try:
        statement = (
            "REJECT" if args.reject else "VERIFY"
        ) + f" ATTACHMENT {args.task}"
        result = nebula.execute_command(statement)
        nebula.connection.commit()
        print(result.message)
        return 0
    finally:
        _close_engine(nebula)


def cmd_demo(args: argparse.Namespace) -> int:
    with SqliteFileBackend.temporary() as backend:
        db = generate_bio_database(
            BioDatabaseSpec(genes=100, proteins=60, publications=400, seed=args.seed),
            backend=backend,
        )
        nebula = Nebula(
            backend, db.meta, NebulaConfig(epsilon=0.6), aliases=db.aliases
        )
        gene, other = db.genes[0], db.genes[1]
        text = f"From the exp, this gene is correlated to gene {other.gid}."
        print(f"inserting: {text!r} (attached to {gene.gid})")
        report = nebula.insert_annotation(
            text, attach_to=[db.resolve("gene", gene.gid)], author="demo"
        )
        for task in report.tasks:
            print(f"  {task.ref} confidence={task.confidence:.2f} -> {task.decision.value}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Drive the concurrent annotation service with N client threads.

    Every client mixes ingestion (through the service's admission-
    controlled queue) with searches (served by concurrent readers);
    exit status 1 when any request is lost — neither acknowledged,
    failed, nor rejected — or the shutdown was not clean.
    """
    import threading
    import time

    from .errors import ServiceOverloadedError
    from .service import AnnotationService, ServiceConfig

    nebula = _open_engine(args.db, args.epsilon, persist_metrics=True)
    print(
        f"search index: {nebula.index_source} in "
        f"{nebula.index_cold_start_seconds * 1e3:.1f}ms"
    )
    gids = [
        row[0]
        for row in nebula.connection.execute("SELECT GID FROM Gene LIMIT 16")
    ]
    if not gids:
        print(f"{args.db} has no Gene rows; run `repro generate` first",
              file=sys.stderr)
        _close_engine(nebula)
        return 2
    service = AnnotationService(
        nebula,
        ServiceConfig(
            queue_capacity=args.queue_capacity,
            max_batch=args.max_batch,
            default_deadline=args.deadline,
        ),
    ).start()
    telemetry = None
    if args.metrics_port is not None:
        telemetry = service.serve_metrics(port=args.metrics_port)
        print(f"telemetry: {telemetry.url}metrics (scrape with `repro top`)")
    counts = {"ok": 0, "rejected": 0, "failed": 0, "searches": 0}
    lock = threading.Lock()

    def client(c: int) -> None:
        for i in range(args.requests):
            gid = gids[(c + i) % len(gids)]
            text = f"client {c} note {i}: gene {gid} flagged for review"
            try:
                ticket = service.submit(text, author=f"client-{c}")
            except ServiceOverloadedError:
                with lock:
                    counts["rejected"] += 1
                continue
            try:
                ticket.result(timeout=60.0)
                outcome = "ok"
            except Exception:
                outcome = "failed"
            with lock:
                counts[outcome] += 1
            if i % 3 == 0:
                service.find_annotations("flagged", limit=5)
                with lock:
                    counts["searches"] += 1

    threads = [
        threading.Thread(target=client, args=(c,), name=f"client-{c}")
        for c in range(args.clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if telemetry is not None and args.linger > 0:
        print(f"lingering {args.linger:g}s for scrapes (ctrl-c to stop early)")
        try:
            time.sleep(args.linger)
        except KeyboardInterrupt:
            pass
    stats = service.stats()
    clean = service.stop()
    if telemetry is not None:
        telemetry.stop()
    _save_metrics(args.db, nebula.metrics)
    _close_engine(nebula)
    attempts = args.clients * args.requests
    accounted = counts["ok"] + counts["failed"] + counts["rejected"]
    lost = attempts - accounted
    print(
        f"{attempts} requests from {args.clients} clients: "
        f"{counts['ok']} ingested, {counts['rejected']} rejected "
        f"(admission control), {counts['failed']} failed, "
        f"{counts['searches']} concurrent searches"
    )
    print(
        f"service: {stats.batches} batches, peak shedding={stats.shedding}, "
        f"clean shutdown={clean}"
    )
    if stats.e2e_seconds:
        print("latency percentiles (seconds):")
        for row in _latency_rows(
            {
                "queue": stats.queue_wait_seconds,
                "flush": stats.flush_seconds,
                "e2e": stats.e2e_seconds,
            }
        ):
            print(f"  {row}")
    if lost or not clean:
        print(f"LOST {lost} request(s), clean={clean}", file=sys.stderr)
        return 1
    return 0


def _family_value(
    families: Mapping[str, object],
    name: str,
    labels: Optional[Mapping[str, str]] = None,
    default: float = 0.0,
) -> float:
    """One sample value out of parsed exposition families (or ``default``)."""
    family = families.get(name)
    if family is None:
        return default
    value = family.value(labels)  # type: ignore[attr-defined]
    return default if value is None else float(value)


def _render_top_frame(
    families: Mapping[str, object], rate: Optional[float]
) -> List[str]:
    """One ``repro top`` dashboard frame from parsed ``/metrics`` families."""
    from .observability import MetricFamily

    status = "unknown"
    info = families.get("nebula_service_info")
    if isinstance(info, MetricFamily):
        for labels, _ in info.samples.get("nebula_service_info", []):
            status = labels.get("status", "unknown")
    depth = _family_value(families, "nebula_service_queue_depth")
    capacity = _family_value(families, "nebula_service_queue_capacity")
    shedding = _family_value(families, "nebula_service_shedding")
    lines = [
        f"nebula service [{status}]  queue {depth:g}/{capacity:g}"
        + ("  SHEDDING" if shedding else ""),
        "  requests   " + " ".join(
            f"{label}={_family_value(families, metric):g}"
            for label, metric in (
                ("submitted", "nebula_service_submitted_total"),
                ("ingested", "nebula_service_ingested_total"),
                ("rejected", "nebula_service_rejected_total"),
                ("failed", "nebula_service_failed_total"),
                ("expired", "nebula_service_deadline_expired_total"),
            )
        ),
        "  writer     " + " ".join(
            f"{label}={_family_value(families, metric):g}"
            for label, metric in (
                ("batches", "nebula_service_batches_total"),
                ("batch-fallbacks", "nebula_service_batch_fallbacks_total"),
                ("reader-fallbacks", "nebula_service_reader_fallbacks_total"),
                ("recoveries", "nebula_service_recoveries_total"),
            )
        )
        + (f"  rate={rate:.1f} ann/s" if rate is not None else ""),
    ]
    latency = families.get("nebula_service_latency_seconds")
    if isinstance(latency, MetricFamily):
        gauges = {
            _LATENCY_PREFIX[:-1]
            + "{"
            + ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
            + "}": value
            for labels, value in latency.samples.get(
                "nebula_service_latency_seconds", []
            )
        }
        rows = _service_latency_rows(gauges)
        if rows:
            lines.append("  latency")
            lines.extend(f"    {row}" for row in rows)
    return lines


def cmd_top(args: argparse.Namespace) -> int:
    """Live dashboard over a service telemetry endpoint.

    Polls the ``/metrics`` endpoint exposed by ``repro serve
    --metrics-port`` (or any embedded :meth:`AnnotationService.
    serve_metrics` server) and renders queue depth, shedding state,
    request/writer counters, throughput (from counter deltas between
    polls), and the streaming latency percentiles, in place.
    """
    import time

    from .observability import parse_exposition, scrape

    base = args.url or f"http://{args.host}:{args.port}/"
    if not base.endswith("/"):
        base += "/"
    count = 1 if args.once else args.count
    previous: Optional[tuple] = None
    frames = 0
    clear = sys.stdout.isatty() and count != 1
    while True:
        try:
            text = scrape(base + "metrics", timeout=max(args.interval, 1.0) + 5.0)
        except OSError as error:
            print(f"top: cannot scrape {base}metrics: {error}", file=sys.stderr)
            return 1
        try:
            families = parse_exposition(text)
        except ValueError as error:
            print(f"top: malformed exposition: {error}", file=sys.stderr)
            return 1
        now = time.monotonic()
        ingested = _family_value(families, "nebula_service_ingested_total")
        rate = None
        if previous is not None and now > previous[0]:
            rate = max(0.0, ingested - previous[1]) / (now - previous[0])
        previous = (now, ingested)
        if clear:
            print("\x1b[2J\x1b[H", end="")
        for line in _render_top_frame(families, rate):
            print(line)
        sys.stdout.flush()
        frames += 1
        if count and frames >= count:
            return 0
        try:
            time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0


def cmd_index(args: argparse.Namespace) -> int:
    """Manage the persisted search index: build / status / verify.

    * ``build`` forces a rebuild-and-persist regardless of staleness.
    * ``status`` reports how the engine opened the index (a valid
      persisted image is "loaded" without scanning a single posting)
      plus the stored layout: generation, columns, tokens, postings.
    * ``verify`` rebuilds the reference in-memory index from the data
      and exits 1 unless the persisted image matches it exactly.
    """
    import time

    from .search import InvertedValueIndex

    nebula = _open_engine(args.db, args.epsilon)
    try:
        index = nebula.index
        if args.action == "build":
            started = time.perf_counter()
            index.rebuild(nebula.searchable_columns())
            elapsed = time.perf_counter() - started
            description = index.describe()
            print(
                f"rebuilt in {elapsed * 1e3:.1f}ms: "
                f"{description['tokens']} tokens, "
                f"{description['postings']} postings, "
                f"generation {description['generation']}"
            )
            return 0
        if args.action == "status":
            # Opening the engine already validated the stamps: "loaded"
            # means the persisted image was adopted as-is, "rebuilt"
            # means it was absent or stale and was just re-persisted.
            description = index.describe()
            print(f"source:         {nebula.index_source}")
            print(f"cold start:     {nebula.index_cold_start_seconds * 1e3:.1f}ms")
            print(f"schema version: {description['schema_version']}")
            print(f"generation:     {description['generation']}")
            print(f"columns:        {len(description['columns'])}")
            print(f"tokens:         {description['tokens']}")
            print(f"postings:       {description['postings']}")
            return 0
        reference = InvertedValueIndex.build(
            nebula.connection, nebula.searchable_columns()
        )
        problems = index.parity_mismatches(reference)
        if problems:
            print(f"persisted index DIVERGES from the data ({len(problems)}):")
            for problem in problems:
                print(f"  {problem}")
            return 1
        print(
            f"persisted index verified: {len(index)} tokens, "
            f"{index.posting_count()} postings match the in-memory build"
        )
        return 0
    finally:
        _close_engine(nebula)


def cmd_history(args: argparse.Namespace) -> int:
    """Print the append-only version history of one annotation.

    Every row ever logged for the annotation and its attachment edges,
    joined with the ``_nebula_commits`` provenance (kind, author,
    request id, wall-clock) — the audit trail of ISSUE 10.  With no
    ``annotation_id`` the command lists the newest commits instead.
    """
    from .versioning import timetravel

    nebula = _open_engine(args.db, args.epsilon)
    try:
        log = nebula.commit_log
        if args.annotation_id is None:
            commits = log.commits(limit=args.limit)
            if not commits:
                print("no commits recorded")
                return 0
            print(f"{len(commits)} newest commits (head={log.head()}):")
            for commit in commits:
                extras = " ".join(
                    f"{name}={value}"
                    for name, value in (
                        ("author", commit.author),
                        ("request", commit.request_id),
                        ("note", commit.note),
                    )
                    if value is not None
                )
                print(
                    f"  commit {commit.commit_id}  {commit.kind:<8} "
                    f"{commit.created_at}" + (f"  {extras}" if extras else "")
                )
            return 0
        rows = timetravel.annotation_history_rows(
            nebula.connection, args.annotation_id
        )
        if not rows:
            print(
                f"history: annotation {args.annotation_id} has no logged "
                "versions",
                file=sys.stderr,
            )
            return 1
        print(f"annotation {args.annotation_id}: {len(rows)} version(s)")
        for row in rows:
            (_, commit_id, op, content, author, _, kind, c_author,
             request_id, note, created_at) = row
            who = author or c_author or "-"
            line = (
                f"  commit {commit_id}  {kind:<8} {op:<6} by {who} "
                f"@ {created_at}: {content!r}"
            )
            if request_id:
                line += f"  request={request_id}"
            if note:
                line += f"  note={note}"
            print(line)
        edges = timetravel.attachment_history_rows(
            nebula.connection, args.annotation_id
        )
        print(f"attachment edges: {len(edges)} logged version(s)")
        for row in edges:
            (_, commit_id, op, attachment_id, table, rowid, _, column,
             confidence, edge_kind, kind, c_author, request_id,
             created_at) = row
            target = f"{table}:{rowid}" + (f".{column}" if column else "")
            line = (
                f"  commit {commit_id}  {kind:<8} {op:<7} "
                f"attachment {attachment_id} -> {target} "
                f"[{edge_kind}, confidence={confidence:.2f}] @ {created_at}"
            )
            if request_id:
                line += f"  request={request_id}"
            print(line)
        return 0
    finally:
        _close_engine(nebula)


def cmd_migrate(args: argparse.Namespace) -> int:
    """Schema-revision management: ``status`` / ``up`` / ``down``.

    Runs the :mod:`repro.versioning.migrations` chain against the raw
    backend connection — deliberately *not* through ``_open_engine``,
    whose store construction auto-applies pending migrations and would
    mask the very state this command reports (and make ``down``
    pointless, re-upgrading the file on open).
    """
    from .versioning import MigrationRunner

    backend = get_backend("sqlite-file", path=args.db)
    try:
        runner = MigrationRunner(backend.primary)
        if args.action == "status":
            status = runner.status()
            print(f"current revision: {status['current'] or '<none>'}")
            for record in status["applied"]:  # type: ignore[union-attr]
                print(
                    f"  applied {record['revision']}  {record['name']} "
                    f"@ {record['applied_at']}"
                )
            for entry in status["pending"]:  # type: ignore[union-attr]
                print(f"  pending {entry['revision']}  {entry['name']}")
            return 0 if not status["pending"] else 1
        if args.action == "up":
            applied = runner.upgrade(target=args.target)
            backend.primary.commit()
            if not applied:
                print(f"already at {runner.current_revision()}: nothing to apply")
            else:
                print(
                    f"applied {', '.join(applied)} "
                    f"(now at {runner.current_revision()})"
                )
            return 0
        reverted = runner.downgrade(
            target=args.target if args.target is not None else "0001"
        )
        backend.primary.commit()
        if not reverted:
            print(f"already at {runner.current_revision()}: nothing to revert")
        else:
            print(
                f"reverted {', '.join(reverted)} "
                f"(now at {runner.current_revision()})"
            )
        return 0
    finally:
        backend.close()


# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Nebula: proactive annotation management (SIGMOD 2015 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate", help="generate a synthetic curated database")
    generate.add_argument("--db", required=True, help="output SQLite file")
    generate.add_argument("--genes", type=int, default=240)
    generate.add_argument("--proteins", type=int, default=140)
    generate.add_argument("--publications", type=int, default=1400)
    generate.add_argument("--community-size", type=int, default=10)
    generate.add_argument("--seed", type=int, default=7)
    generate.add_argument("--workload", help="also write the workload oracle JSON here")
    generate.set_defaults(func=cmd_generate)

    stats = sub.add_parser("stats", help="summarize an annotated database")
    stats.add_argument("--db", required=True)
    stats.set_defaults(func=cmd_stats)

    annotate = sub.add_parser("annotate", help="insert an annotation proactively")
    annotate.add_argument("--db", required=True)
    annotate.add_argument("--text", required=True)
    annotate.add_argument(
        "--attach", action="append", metavar="TABLE:ROWID", type=_parse_ref,
        help="manual attachment target (repeatable)",
    )
    annotate.add_argument("--author")
    annotate.add_argument("--epsilon", type=float, default=0.6)
    annotate.add_argument(
        "--trace", action="store_true",
        help="trace the pipeline pass; appends to <db>.trace.jsonl and "
        "accumulates metrics in <db>.metrics.json",
    )
    annotate.add_argument(
        "--as-of", type=int, default=None, metavar="COMMIT",
        help="dry run: analyze against the annotation graph as it stood "
        "at this commit and print the candidates; persists nothing",
    )
    annotate.set_defaults(func=cmd_annotate)

    annotate_batch = sub.add_parser(
        "annotate-batch",
        help="insert a file of annotations through the batched fast path",
    )
    annotate_batch.add_argument("--db", required=True)
    annotate_batch.add_argument(
        "--file", required=True,
        help="one annotation per line: TEXT, or TABLE:ROWID<TAB>TEXT "
        "to attach manually",
    )
    annotate_batch.add_argument("--author", help="author recorded for every line")
    annotate_batch.add_argument("--epsilon", type=float, default=0.6)
    annotate_batch.add_argument(
        "--verbose", action="store_true", help="also print one line per annotation"
    )
    annotate_batch.set_defaults(func=cmd_annotate_batch)

    trace = sub.add_parser("trace", help="pretty-print recorded pipeline traces")
    trace.add_argument("--db", help="database whose <db>.trace.jsonl to read")
    trace.add_argument("--path", help="explicit trace JSONL file (overrides --db)")
    trace.add_argument("--last", type=int, default=1, metavar="N",
                       help="show the most recent N traces (default 1)")
    trace.add_argument(
        "--validate", action="store_true",
        help="exit 1 unless the file holds >= N well-formed nested traces",
    )
    trace.set_defaults(func=cmd_trace)

    pending = sub.add_parser("pending", help="list pending verification tasks")
    pending.add_argument("--db", required=True)
    pending.add_argument("--epsilon", type=float, default=0.6)
    pending.set_defaults(func=cmd_pending)

    verify = sub.add_parser("verify", help="resolve a pending verification task")
    verify.add_argument("--db", required=True)
    verify.add_argument("--task", type=int, required=True)
    verify.add_argument("--reject", action="store_true", help="reject instead of verify")
    verify.add_argument("--epsilon", type=float, default=0.6)
    verify.set_defaults(func=cmd_verify)

    serve = sub.add_parser(
        "serve",
        help="exercise the concurrent annotation service with N clients",
    )
    serve.add_argument("--db", required=True)
    serve.add_argument("--clients", type=int, default=4,
                       help="concurrent client threads (default 4)")
    serve.add_argument("--requests", type=int, default=8,
                       help="annotations per client (default 8)")
    serve.add_argument("--queue-capacity", type=int, default=64)
    serve.add_argument("--max-batch", type=int, default=16)
    serve.add_argument("--deadline", type=float, default=None,
                       help="per-request deadline in seconds (default none)")
    serve.add_argument("--epsilon", type=float, default=0.6)
    serve.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="serve /metrics, /healthz and /readyz on this port while the "
        "clients run (0 = ephemeral; default: not served)",
    )
    serve.add_argument(
        "--linger", type=float, default=0.0, metavar="SECONDS",
        help="keep the service (and telemetry endpoint) alive this long "
        "after the clients finish, for external scrapes / `repro top`",
    )
    serve.set_defaults(func=cmd_serve)

    top = sub.add_parser(
        "top",
        help="live dashboard over a service telemetry endpoint",
    )
    top.add_argument("--url", help="endpoint base URL (overrides --host/--port)")
    top.add_argument("--host", default="127.0.0.1")
    top.add_argument("--port", type=int, default=9464)
    top.add_argument("--interval", type=float, default=1.0, metavar="SECONDS",
                     help="seconds between polls (default 1)")
    top.add_argument("--count", type=int, default=0, metavar="N",
                     help="frames to render before exiting (0 = until ctrl-c)")
    top.add_argument("--once", action="store_true",
                     help="render a single frame and exit (same as --count 1)")
    top.set_defaults(func=cmd_top)

    index = sub.add_parser(
        "index",
        help="manage the persisted search index (build / status / verify)",
    )
    index.add_argument(
        "action", choices=("build", "status", "verify"),
        help="build: force rebuild-and-persist; status: report the "
        "stored image; verify: compare against a fresh in-memory build",
    )
    index.add_argument("--db", required=True)
    index.add_argument("--epsilon", type=float, default=0.6)
    index.set_defaults(func=cmd_index)

    history = sub.add_parser(
        "history",
        help="print an annotation's append-only version history "
        "(or the newest commits)",
    )
    history.add_argument(
        "annotation_id", type=int, nargs="?", default=None,
        help="annotation to show history for (omit to list commits)",
    )
    history.add_argument("--db", required=True)
    history.add_argument(
        "--limit", type=int, default=20, metavar="N",
        help="commits to list when no annotation id is given (default 20)",
    )
    history.add_argument("--epsilon", type=float, default=0.6)
    history.set_defaults(func=cmd_history)

    migrate = sub.add_parser(
        "migrate",
        help="manage schema revisions (status / up / down)",
    )
    migrate.add_argument(
        "action", choices=("status", "up", "down"),
        help="status: report applied+pending revisions (exit 1 if any "
        "pending); up: apply pending migrations; down: revert to the "
        "legacy base schema (or --target)",
    )
    migrate.add_argument("--db", required=True)
    migrate.add_argument(
        "--target", metavar="REVISION", default=None,
        help="stop at this revision (up: apply through it; "
        "down: keep it and everything below)",
    )
    migrate.set_defaults(func=cmd_migrate)

    demo = sub.add_parser(
        "demo", help="run a tiny end-to-end demo on a temporary database file"
    )
    demo.add_argument("--seed", type=int, default=7)
    demo.set_defaults(func=cmd_demo)

    # nebula-lint owns its flags: main() forwards every argument after
    # ``lint`` to it unparsed (``repro lint --help`` lists them).
    sub.add_parser(
        "lint",
        add_help=False,
        help="run nebula-lint (project-specific static analysis) over a tree",
    )

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args, rest = parser.parse_known_args(argv)
    if args.command == "lint":
        from .analysis.cli import main as lint_main

        return lint_main(rest)
    if rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
