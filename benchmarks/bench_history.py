"""Read-path cost of the append-only versioned annotation store.

Not a paper figure: the operational companion to ISSUE 10's commit log.
The design claim under test is that versioning is (nearly) free at read
time — the head tables stay materialized, history is appended beside
them — so latest-state reads must stay within a small factor of a
legacy (pre-versioning) schema holding identical content.  Time-travel
(``as_of``) reads reconstruct state from the history tables and are
expected to cost more; this benchmark reports how much, at ~10x and
~100x the figure-dataset history depth (one commit per ingested
publication annotation).

Exports the machine-readable summary CI tracks to
``benchmarks/results/BENCH_history.json``.  Set ``BENCH_SMOKE=1`` for
the small CI world with relaxed assertions.

Each world (and its legacy clone) is a temporary database file,
deleted after its scale runs.

Run::

    PYTHONPATH=src python -m pytest benchmarks/bench_history.py -q
"""

import json
import os
import time

from repro import BioDatabaseSpec, SqliteFileBackend, generate_bio_database
from repro.versioning import CommitLog, timetravel
from repro.versioning.schema import LEGACY_DDL

from conftest import RESULTS_DIR, report, table

BENCH_SMOKE = os.environ.get("BENCH_SMOKE") == "1"

#: The tests' figure-dataset shape; history depth scales with the
#: publication count (one ingest commit each).
FIGURE_SPEC = BioDatabaseSpec(genes=96, proteins=56, publications=300, seed=13)

SCALES = {"10x": 2, "100x": 4} if BENCH_SMOKE else {"10x": 10, "100x": 100}

#: Timed iterations per query shape (reads are sub-millisecond; the
#: loop beats timer noise).
READ_LOOPS = 30 if BENCH_SMOKE else 200

#: Interleaved head/legacy timing rounds; the gate compares the medians
#: of the per-round totals, so one noisy round cannot fail it.
ROUNDS = 5

#: Acceptance ceiling: latest-state reads vs the legacy baseline.
MAX_HEAD_OVERHEAD = 2.0 if BENCH_SMOKE else 1.2

# The three latest-state query shapes the service read path issues most:
# substring find, attachments-on-a-tuple (the head form of the edges that
# apply to a row, :func:`repro.versioning.timetravel.attachments_on_row`),
# and the corpus count.  The head tables and the legacy tables share one
# schema (the clone also gets revision 0005's range index, which the row
# read searches), so the identical statements run on both with the same
# plans — the overhead measured is storage-layout cost, not SQL
# differences.

_FIND = (
    "SELECT annotation_id, content, author FROM _nebula_annotations "
    "WHERE content LIKE '%' || ? || '%' ORDER BY annotation_id DESC LIMIT ?"
)

_COUNT = "SELECT COUNT(*) FROM _nebula_annotations"


def _build_world(factor):
    backend = SqliteFileBackend.temporary()
    db = generate_bio_database(FIGURE_SPEC.scaled(factor), backend=backend)
    return backend, db


def _clone_legacy(connection):
    """A pre-versioning database holding the same latest-state content."""
    backend = SqliteFileBackend.temporary()
    legacy = backend.primary
    legacy.executescript(LEGACY_DDL)
    legacy.execute(
        "CREATE INDEX _nebula_attachments_by_range ON _nebula_attachments "
        "(target_table, target_rowid) WHERE target_rowid_hi IS NOT NULL"
    )
    legacy.executemany(
        "INSERT INTO _nebula_annotations VALUES (?, ?, ?, ?)",
        connection.execute(
            "SELECT annotation_id, content, author, created_seq "
            "FROM _nebula_annotations"
        ).fetchall(),
    )
    legacy.executemany(
        "INSERT INTO _nebula_attachments VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
        connection.execute(
            "SELECT attachment_id, annotation_id, target_table, target_rowid, "
            "target_rowid_hi, target_column, confidence, kind "
            "FROM _nebula_attachments"
        ).fetchall(),
    )
    return backend


def _time_ms(fn):
    fn()  # warm caches / query plans
    started = time.perf_counter()
    for _ in range(READ_LOOPS):
        fn()
    return (time.perf_counter() - started) * 1e3 / READ_LOOPS


def _read_suite_ms(connection):
    """Total latest-state read latency (ms) over the three query shapes."""
    find = _time_ms(
        lambda: connection.execute(_FIND, ("gene", 25)).fetchall()
    )
    attach = _time_ms(lambda: timetravel.attachments_on_row(connection, "Gene", 17))
    count = _time_ms(lambda: connection.execute(_COUNT).fetchone())
    return {"find_ms": find, "attachments_ms": attach, "count_ms": count,
            "total_ms": find + attach + count}


def _median_round(rounds):
    """The round with the median total (ROUNDS is odd)."""
    return sorted(rounds, key=lambda r: r["total_ms"])[len(rounds) // 2]


def _asof_suite_ms(connection, pin):
    find = _time_ms(
        lambda: connection.execute(
            timetravel.FIND_ANNOTATIONS_AS_OF, (pin, "gene", 25)
        ).fetchall()
    )
    attach = _time_ms(
        lambda: timetravel.attachments_on_row(connection, "Gene", 17, as_of=pin)
    )
    count = _time_ms(lambda: timetravel.count_annotations(connection, pin))
    return {"find_ms": find, "attachments_ms": attach, "count_ms": count,
            "total_ms": find + attach + count}


def _measure_scale(factor):
    backend, db = _build_world(factor)
    legacy_backend = None
    try:
        connection = db.connection
        log = CommitLog(connection)
        pin = log.head()
        assert pin is not None  # every publication annotation committed
        asof_head = _asof_suite_ms(connection, pin)
        asof_mid = _asof_suite_ms(connection, max(1, pin // 2))
        legacy_backend = _clone_legacy(connection)
        head_rounds, legacy_rounds = [], []
        for _ in range(ROUNDS):
            head_rounds.append(_read_suite_ms(connection))
            legacy_rounds.append(_read_suite_ms(legacy_backend.primary))
        head = _median_round(head_rounds)
        legacy = _median_round(legacy_rounds)
        # Correctness cross-check while the worlds are hot: the pin at
        # head reconstructs exactly the head count.
        head_count = int(connection.execute(_COUNT).fetchone()[0])
        assert timetravel.count_annotations(connection, pin) == head_count
        return {
            "factor": factor,
            "commits": log.count_commits(),
            "annotations": head_count,
            "head": head,
            "legacy": legacy,
            "asof_head": asof_head,
            "asof_mid": asof_mid,
            "head_overhead": head["total_ms"] / legacy["total_ms"]
            if legacy["total_ms"] > 0
            else float("inf"),
        }
    finally:
        if legacy_backend is not None:
            legacy_backend.close()
        backend.close()


def test_history_read_overhead():
    results = {name: _measure_scale(factor) for name, factor in SCALES.items()}

    rows = [
        [
            name,
            r["commits"],
            r["legacy"]["total_ms"],
            r["head"]["total_ms"],
            f"{r['head_overhead']:.2f}x",
            r["asof_head"]["total_ms"],
            r["asof_mid"]["total_ms"],
        ]
        for name, r in results.items()
    ]
    report(
        "history_reads",
        table(
            [
                "scale",
                "commits",
                "legacy_ms",
                "head_ms",
                "overhead",
                "asof_head_ms",
                "asof_mid_ms",
            ],
            rows,
        ),
    )
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "BENCH_history.json"), "w") as handle:
        json.dump(
            {
                "mode": "smoke" if BENCH_SMOKE else "full",
                "backend": SqliteFileBackend.name,
                "read_loops": READ_LOOPS,
                "rounds": ROUNDS,
                "max_head_overhead": MAX_HEAD_OVERHEAD,
                "scales": results,
            },
            handle,
            indent=2,
            sort_keys=True,
        )

    for name, r in results.items():
        # The design claim: materialized-head reads stay within the
        # acceptance ceiling of the pre-versioning layout (an absolute
        # floor guards the sub-10µs regime where ratios are all noise).
        assert r["head"]["total_ms"] <= (
            r["legacy"]["total_ms"] * MAX_HEAD_OVERHEAD + 0.05
        ), (name, r["head"], r["legacy"])
        # Time travel must function at every scale; it may cost more
        # than head reads but not pathologically so (reconstruction is
        # one aggregate scan of the history, not a per-row replay).
        assert r["asof_head"]["total_ms"] < max(
            r["head"]["total_ms"] * 50.0, 250.0
        ), (name, r["asof_head"])
