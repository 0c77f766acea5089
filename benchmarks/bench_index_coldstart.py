"""Cold-start cost of the persisted search index (rebuild vs load).

Not a paper figure: the operational companion to the EMBANKS-style
persistence layer (``repro.search.persist``).  The in-memory inverted
index is rebuilt from a full scan of every searchable column on every
engine open; a valid persisted image is adopted after O(#columns) stamp
probes instead.  This benchmark measures both paths on the same world at
~10x and ~100x the figure-dataset size, then checks that the lazy
page-cached index does not regress steady-state Stage-1/Stage-2 latency
(``generate_queries`` + ``identify_related_tuples``) against a search
engine over the in-memory build.

Exports the machine-readable summary CI tracks to
``benchmarks/results/BENCH_index.json``.  Set ``BENCH_SMOKE=1`` for the
small CI world with relaxed assertions.

Each world is a temporary database file, deleted after its scale runs.

Run::

    PYTHONPATH=src python -m pytest benchmarks/bench_index_coldstart.py -q
"""

import json
import os
import time

from repro import (
    BioDatabaseSpec,
    KeywordSearchEngine,
    Nebula,
    NebulaConfig,
    SqliteFileBackend,
    generate_bio_database,
)
from repro.core.execution import identify_related_tuples
from repro.core.query_generation import generate_queries
from repro.perf import AnalysisCache

from conftest import RESULTS_DIR, report, table

BENCH_SMOKE = os.environ.get("BENCH_SMOKE") == "1"

#: The tests' figure-dataset shape (tests/conftest.py SMALL_SPEC ratio);
#: gene count stays below 10,000 at 100x to keep JW#### identifiers.
FIGURE_SPEC = BioDatabaseSpec(genes=96, proteins=56, publications=300, seed=13)

SCALES = {"10x": 2, "100x": 4} if BENCH_SMOKE else {"10x": 10, "100x": 100}

#: Stage-1/Stage-2 probe annotations per engine configuration.
PROBES = 4 if BENCH_SMOKE else 12

#: Acceptance floor for persisted-load vs rebuild on the 10x world.
MIN_SPEEDUP = 2.0 if BENCH_SMOKE else 5.0


def _build_world(factor):
    backend = SqliteFileBackend.temporary()
    db = generate_bio_database(FIGURE_SPEC.scaled(factor), backend=backend)
    return backend, db


def _stage12_ms(engine, db, config):
    """Mean Stage-1 + Stage-2 latency of ``engine`` over PROBES texts."""
    texts = [
        f"this gene interacts with gene {db.genes[(7 * i) % len(db.genes)].gid}"
        for i in range(PROBES)
    ]

    def analyze(text):
        generation = generate_queries(text, db.meta, config)
        identify_related_tuples(generation.queries, engine)

    analyze(texts[0])  # warm the analysis cache's cold misses
    started = time.perf_counter()
    for text in texts:
        analyze(text)
    return (time.perf_counter() - started) * 1e3 / PROBES


def _measure_scale(factor):
    backend, db = _build_world(factor)
    try:
        config = NebulaConfig(epsilon=0.6)
        # First open: no persisted image exists, so the engine scans
        # every searchable column and persists the postings.
        cold = Nebula(db.backend, db.meta, config, aliases=db.aliases)
        assert cold.index_source == "rebuilt"
        rebuild_seconds = cold.index_cold_start_seconds
        description = cold.index.describe()
        # Second open: the stamps match, so the image is adopted after
        # O(#columns) probes without reading a single posting.
        warm = Nebula(db.backend, db.meta, config, aliases=db.aliases)
        assert warm.index_source == "loaded"
        loaded_seconds = warm.index_cold_start_seconds
        persistent_ms = _stage12_ms(warm.engine, db, config)
        # The reference: the same search engine over the in-memory index
        # rebuilt from the data, with an analysis cache of its own.
        memory = KeywordSearchEngine(
            db.connection,
            searchable_columns=warm.searchable_columns(),
            aliases=db.aliases,
            lexicon=db.meta.lexicon,
            analysis_cache=AnalysisCache(config.analysis_cache_size),
            index=None,
        )
        memory_ms = _stage12_ms(memory, db, config)
        return {
            "factor": factor,
            "genes": len(db.genes),
            "publications": FIGURE_SPEC.publications * factor,
            "tokens": description["tokens"],
            "postings": description["postings"],
            "rebuild_seconds": rebuild_seconds,
            "loaded_seconds": loaded_seconds,
            "speedup": rebuild_seconds / loaded_seconds
            if loaded_seconds > 0
            else float("inf"),
            "stage12_persistent_ms": persistent_ms,
            "stage12_memory_ms": memory_ms,
        }
    finally:
        backend.close()


def test_index_cold_start():
    results = {name: _measure_scale(factor) for name, factor in SCALES.items()}

    rows = [
        [
            name,
            r["postings"],
            r["rebuild_seconds"] * 1e3,
            r["loaded_seconds"] * 1e3,
            f"{r['speedup']:.1f}x",
            r["stage12_memory_ms"],
            r["stage12_persistent_ms"],
        ]
        for name, r in results.items()
    ]
    report(
        "index_coldstart",
        table(
            [
                "scale",
                "postings",
                "rebuild_ms",
                "load_ms",
                "speedup",
                "stage12_mem_ms",
                "stage12_disk_ms",
            ],
            rows,
        ),
    )
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "BENCH_index.json"), "w") as handle:
        json.dump(
            {
                "mode": "smoke" if BENCH_SMOKE else "full",
                "backend": SqliteFileBackend.name,
                "scales": results,
            },
            handle,
            indent=2,
            sort_keys=True,
        )

    for name, r in results.items():
        # The persisted image must actually shortcut the scan ...
        assert r["loaded_seconds"] < r["rebuild_seconds"], name
        # ... and the lazy page-cached index must stay in the same
        # latency regime as the in-memory build for Stages 1-2 (4x is a
        # generous noise bound; the steady-state numbers track closely).
        assert r["stage12_persistent_ms"] < max(
            r["stage12_memory_ms"] * 4.0, r["stage12_memory_ms"] + 20.0
        ), name
    assert results["10x"]["speedup"] >= MIN_SPEEDUP
