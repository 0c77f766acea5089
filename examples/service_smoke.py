"""Service smoke: concurrent clients against the annotation service.

Starts an :class:`~repro.service.AnnotationService` over a generated
bio-database and fires at least four concurrent clients at it, each
mixing ingestion (admission-controlled submissions through the bounded
queue) with searches (served by concurrent readers).  Asserts the
closed-world accounting — every request either acknowledged, failed, or
rejected, none lost — and a clean, bounded shutdown.

The database is a temporary file, deleted on exit.  Exits non-zero on
any violated invariant.

Run::

    PYTHONPATH=src python examples/service_smoke.py
"""

import sys
import threading

from repro import (
    AnnotationService,
    BioDatabaseSpec,
    Nebula,
    NebulaConfig,
    ServiceConfig,
    SqliteFileBackend,
    generate_bio_database,
)
from repro.errors import ServiceOverloadedError

CLIENTS = 4
REQUESTS_PER_CLIENT = 8


def main() -> int:
    backend = SqliteFileBackend.temporary()
    db = generate_bio_database(
        BioDatabaseSpec(genes=60, proteins=36, publications=240, seed=13),
        backend=backend,
    )
    nebula = Nebula(
        backend, db.meta, NebulaConfig(epsilon=0.6), aliases=db.aliases
    )
    service = AnnotationService(
        nebula,
        ServiceConfig(queue_capacity=32, max_batch=8, flush_interval=0.02),
    ).start()
    print(f"service up on {backend.name}: {service.health()}")

    counts = {"ok": 0, "rejected": 0, "failed": 0, "reads": 0}
    lock = threading.Lock()

    def client(c: int) -> None:
        for i in range(REQUESTS_PER_CLIENT):
            gene = db.genes[(c * REQUESTS_PER_CLIENT + i) % len(db.genes)]
            try:
                ticket = service.submit(
                    f"smoke client {c} note {i}: gene {gene.gid} "
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
            # Interleave reads with writes: these must never block on
            # (or be blocked by) the single writer.
            service.find_annotations(f"client {c} note", limit=5)
            service.annotation_count()
            with lock:
                counts["reads"] += 2

    threads = [
        threading.Thread(target=client, args=(c,), name=f"client-{c}")
        for c in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    stats = service.stats()
    clean = service.stop()
    stored = counts["ok"]  # each acked ticket is one committed annotation
    attempts = CLIENTS * REQUESTS_PER_CLIENT
    accounted = counts["ok"] + counts["failed"] + counts["rejected"]
    print(
        f"{attempts} requests: {counts['ok']} acked, "
        f"{counts['rejected']} rejected, {counts['failed']} failed, "
        f"{counts['reads']} interleaved reads; "
        f"{stats.batches} writer batches; clean shutdown={clean}"
    )

    failures = []
    if accounted != attempts:
        failures.append(f"lost {attempts - accounted} request(s)")
    if stats.ingested != stored:
        failures.append(
            f"acked {stored} but service ingested {stats.ingested}"
        )
    if not clean:
        failures.append("shutdown was not clean")
    found = [
        row
        for c in range(CLIENTS)
        for row in service.find_annotations(f"smoke client {c} note", limit=100)
    ]
    if len(found) != stored:
        failures.append(f"readers see {len(found)} annotations, acked {stored}")

    backend.close()
    if failures:
        for failure in failures:
            print(f"SMOKE FAILURE: {failure}", file=sys.stderr)
        return 1
    print("service smoke passed: zero lost requests, clean shutdown")
    return 0


if __name__ == "__main__":
    sys.exit(main())
