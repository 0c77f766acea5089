"""Golden output fingerprint of one fixed, seeded ingestion stream.

The stream drives a generated world through every ingestion path with
an observable result: 48 single inserts, a dead letter from an armed
``queue.triage`` fault and its replay, one verify and one reject, and
two batches of 16.  Its SHA-256 digest covers each report (mode, commit
id, annotation id, candidates, tasks; confidences rounded to 9 places),
the pending tasks, ``state_fingerprint`` and the commit log's
provenance.  A change that should not alter output must leave
``GOLDEN_DIGEST`` as it is; an intended output change updates it and
records why in CHANGES.md.

Each hash seed runs in its own interpreter, because ``PYTHONHASHSEED``
is read once at start-up.  To print the digest:
``PYTHONPATH=src python tests/test_golden_output.py``.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN_DIGEST = "e30c32b0b1fdb60ea881847b1c4e79a69f98b658fd924e265bd947ceacb5e2e0"

SINGLE_INSERTS = 48
BATCHES = 2
BATCH_SIZE = 16


def _candidate(scored):
    return [
        scored.ref.table,
        scored.ref.rowid,
        round(scored.confidence, 9),
        list(scored.provenance),
    ]


def _task(task):
    return [
        task.task_id,
        task.annotation_id,
        task.ref.table,
        task.ref.rowid,
        round(task.confidence, 9),
        list(task.evidence),
        task.decision.value,
    ]


def _report(report):
    return [
        report.mode,
        report.commit_id,
        report.annotation_id,
        [_candidate(c) for c in report.candidates],
        [_task(t) for t in report.tasks],
    ]


def stream_digest() -> str:
    """Run the golden stream on a fresh world and hash what it produced."""
    from repro import BioDatabaseSpec, Nebula, NebulaConfig, generate_bio_database
    from repro.datagen.workload import WorkloadSpec, generate_workload
    from repro.errors import PipelineStageError
    from repro.perf import AnnotationRequest
    from repro.resilience import FaultInjector
    from repro.versioning.timetravel import state_fingerprint

    db = generate_bio_database(
        BioDatabaseSpec(genes=40, proteins=24, publications=150, seed=11)
    )
    faults = FaultInjector()
    nebula = Nebula(
        db.backend,
        db.meta,
        NebulaConfig(epsilon=0.6, batch_size=10, fault_injector=faults),
        aliases=db.aliases,
    )
    connection = nebula.connection
    workload = generate_workload(
        db, WorkloadSpec(sizes=(50, 100), annotations_per_band=14, seed=11)
    )
    requests = [
        AnnotationRequest.build(a.text, a.focal(1), f"curator-{i % 3}")
        for i, a in enumerate(workload.annotations)
    ]
    reports = []
    for request in requests[:SINGLE_INSERTS]:
        reports.append(
            nebula.insert_annotation(
                request.text, attach_to=request.focal, author=request.author
            )
        )
        connection.commit()

    doomed = requests[SINGLE_INSERTS]
    faults.arm("queue.triage")
    try:
        nebula.insert_annotation(
            doomed.text, attach_to=doomed.focal, author=doomed.author
        )
    except PipelineStageError:
        connection.commit()
    else:  # pragma: no cover - the armed fault must fire
        raise AssertionError("the armed queue.triage fault did not fire")
    reports.extend(nebula.reprocess_dead_letters())
    connection.commit()

    pending = nebula.pending_tasks()
    nebula.verify_attachment(pending[0].task_id)
    nebula.reject_attachment(pending[1].task_id)
    connection.commit()

    start = SINGLE_INSERTS + 1
    for index in range(BATCHES):
        first = start + index * BATCH_SIZE
        reports.extend(nebula.insert_annotations(requests[first:first + BATCH_SIZE]))
        connection.commit()

    commits = connection.execute(
        "SELECT commit_id, kind, author, request_id, note "
        "FROM _nebula_commits ORDER BY commit_id"
    ).fetchall()
    payload = {
        "reports": [_report(r) for r in reports],
        "pending": [_task(t) for t in nebula.pending_tasks()],
        "state": state_fingerprint(connection),
        "commits": [list(row) for row in commits],
    }
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    db.backend.close()
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("hash_seed", ["0", "1", "2", "3"])
def test_golden_digest(hash_seed):
    import repro

    source = str(Path(repro.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        PYTHONHASHSEED=hash_seed,
        PYTHONPATH=source + (os.pathsep + inherited if inherited else ""),
    )
    result = subprocess.run(
        [sys.executable, __file__],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == GOLDEN_DIGEST


if __name__ == "__main__":
    print(stream_digest())
