"""Metrics-scrape smoke: /metrics stays valid during live ingestion.

Starts an :class:`~repro.service.AnnotationService` over a generated
bio-database with its telemetry HTTP endpoint on an ephemeral port,
then drives concurrent client threads through the admission-controlled
queue while the main thread scrapes ``/metrics`` and ``/healthz`` at
least three times.  Every scrape is run through the validating
exposition parser: each line must type-check against its family, and
every histogram's cumulative buckets must be monotone with the ``+Inf``
bucket equal to ``_count``.

Also asserts the telemetry invariants themselves — the service reports
up/ready while running, the latency-percentile gauges appear once
requests flow, and the final scrape's counters match the closed-world
request accounting.

The database is a temporary file, deleted on exit.  Exits non-zero on
any violated invariant.

Run::

    PYTHONPATH=src python examples/metrics_scrape_smoke.py
"""

import json
import sys
import threading
import time

from repro import (
    AnnotationService,
    BioDatabaseSpec,
    Nebula,
    NebulaConfig,
    ServiceConfig,
    SqliteFileBackend,
    generate_bio_database,
    parse_exposition,
    validate_exposition,
)
from repro.errors import ServiceOverloadedError
from repro.observability import scrape

CLIENTS = 4
REQUESTS_PER_CLIENT = 6
SCRAPES = 3


def main() -> int:
    backend = SqliteFileBackend.temporary()
    db = generate_bio_database(
        BioDatabaseSpec(genes=60, proteins=36, publications=240, seed=17),
        backend=backend,
    )
    nebula = Nebula(
        backend, db.meta, NebulaConfig(epsilon=0.6), aliases=db.aliases
    )
    service = AnnotationService(
        nebula,
        ServiceConfig(queue_capacity=32, max_batch=8, flush_interval=0.02),
    ).start()
    server = service.serve_metrics(port=0)
    print(f"telemetry up on {backend.name}: {server.url}metrics")

    counts = {"ok": 0, "rejected": 0, "failed": 0}
    lock = threading.Lock()

    def client(c: int) -> None:
        for i in range(REQUESTS_PER_CLIENT):
            gene = db.genes[(c * REQUESTS_PER_CLIENT + i) % len(db.genes)]
            try:
                ticket = service.submit(
                    f"scrape client {c} note {i}: gene {gene.gid} "
                    "flagged during review",
                    author=f"client-{c}",
                )
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
            time.sleep(0.01)  # keep ingestion live across the scrapes

    threads = [
        threading.Thread(target=client, args=(c,), name=f"client-{c}")
        for c in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()

    failures = []
    scraped = 0
    try:
        # Scrape while the clients are (still) ingesting.
        for attempt in range(SCRAPES):
            text = scrape(server.url + "metrics", timeout=10.0)
            try:
                validate_exposition(text)
            except ValueError as error:
                failures.append(f"scrape {attempt + 1} invalid: {error}")
                continue
            families = parse_exposition(text)
            scraped += 1
            if families["nebula_service_up"].value() != 1.0:
                failures.append(f"scrape {attempt + 1}: service not up")
            health = json.loads(scrape(server.url + "healthz", timeout=10.0))
            if health["status"] not in ("ok", "degraded"):
                failures.append(
                    f"scrape {attempt + 1}: healthz status {health['status']!r}"
                )
            ready = scrape(server.url + "readyz", timeout=10.0)
            if ready.strip() != "ready":
                failures.append(f"scrape {attempt + 1}: readyz said {ready!r}")
            time.sleep(0.05)
    finally:
        for thread in threads:
            thread.join()

    # One final scrape after the clients finish: counters must close the
    # books, and the latency gauges must have materialized.
    text = scrape(server.url + "metrics", timeout=10.0)
    validate_exposition(text)
    families = parse_exposition(text)
    stats = service.stats()
    clean = service.stop()
    server.stop()

    if scraped < SCRAPES:
        failures.append(f"only {scraped}/{SCRAPES} live scrapes validated")
    submitted = families["nebula_service_submitted_total"].value() or 0.0
    ingested = families["nebula_service_ingested_total"].value() or 0.0
    if int(submitted) != counts["ok"] + counts["failed"]:
        failures.append(
            f"submitted counter {submitted:g} != admitted "
            f"{counts['ok'] + counts['failed']}"
        )
    if int(ingested) != counts["ok"]:
        failures.append(f"ingested counter {ingested:g} != acked {counts['ok']}")
    latency = families.get("nebula_service_latency_seconds")
    if latency is None:
        failures.append("latency percentile gauges never appeared")
    else:
        for phase in ("queue", "flush", "e2e"):
            p95 = latency.value({"phase": phase, "quantile": "p95"})
            if p95 is None or p95 < 0.0:
                failures.append(f"missing p95 gauge for phase {phase!r}")
    if stats.ingested != counts["ok"]:
        failures.append(
            f"stats.ingested {stats.ingested} != acked {counts['ok']}"
        )
    if not clean:
        failures.append("shutdown was not clean")

    backend.close()
    if failures:
        for failure in failures:
            print(f"SCRAPE SMOKE FAILURE: {failure}", file=sys.stderr)
        return 1
    print(
        f"metrics scrape smoke passed: {scraped} live scrapes validated, "
        f"{counts['ok']} acked / {counts['rejected']} rejected, "
        "clean shutdown"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
