"""E17 — end-to-end throughput of the full proactive pipeline.

Not a paper figure: an operational summary of what Nebula costs per
inserted annotation (Stages 0-3 with persistence) under the execution
strategies — full search (its SQL shared within the annotation) and the
focal-based spreading search.  This is the number a deployment would care
about; it aggregates everything the individual figure benchmarks measure.

``test_batched_ingestion_speedup`` additionally measures the batched
ingestion API (``insert_annotations``) against per-annotation loops on
identically generated worlds — the sustained-traffic regime where
cross-annotation sharing pays — and exports the machine-readable summary CI tracks to
``benchmarks/results/BENCH_throughput.json``.  Set ``BENCH_SMOKE=1`` to
run it on a small world with a relaxed threshold (the CI smoke job).
"""

import gc
import json
import os
import time

import pytest

from repro import BioDatabaseSpec, Nebula, NebulaConfig, generate_bio_database
from repro.datagen.workload import WorkloadSpec, generate_workload
from repro.perf import AnnotationRequest

from conftest import BASE_SPEC, RESULTS_DIR, SCALES, report, table

#: Smoke mode: small world, relaxed speedup bar — used by CI's bench-smoke
#: job where the point is "the fast path works and is not a regression",
#: not a stable absolute number.
BENCH_SMOKE = os.environ.get("BENCH_SMOKE") == "1"

SMOKE_SPEC = BioDatabaseSpec(genes=150, proteins=90, publications=700, seed=7)
FULL_SPEC = BioDatabaseSpec(
    genes=1000, proteins=600, publications=3000, community_size=8
)


def _fresh_mid_world():
    """A freshly generated D_mid database and an engine over it.

    Each strategy row (and the pytest-benchmark loop) ingests into its
    own world: sharing one database would hand every later row the
    earlier rows' annotations, ACG edges and warm ``db.meta`` memo, so
    the rows would depend on their order.
    """
    db = generate_bio_database(BASE_SPEC.scaled(SCALES["mid"]))
    nebula = Nebula(
        db.backend, db.meta, NebulaConfig(epsilon=0.6), aliases=db.aliases
    )
    return db, nebula


@pytest.mark.benchmark(group="throughput")
def test_insert_throughput(benchmark):
    rows = []
    rates = {}
    for label, kwargs in (
        ("full", {"use_spreading": False}),
        ("spreading K=2", {"use_spreading": True, "radius": 2}),
    ):
        db, nebula = _fresh_mid_world()
        workload = generate_workload(db, WorkloadSpec(seed=61))
        annotations = workload.group(100) + workload.group(500)
        started = time.perf_counter()
        tasks_created = 0
        for annotation in annotations:
            result = nebula.insert_annotation(
                annotation.text,
                attach_to=annotation.focal(1),
                **kwargs,
            )
            tasks_created += len(result.tasks)
        elapsed = time.perf_counter() - started
        rate = len(annotations) / elapsed
        rates[label] = rate
        rows.append(
            [label, len(annotations), elapsed * 1e3 / len(annotations),
             rate, tasks_created]
        )
        db.backend.close()
    report(
        "throughput",
        table(
            ["strategy", "annotations", "ms_per_annotation",
             "annotations_per_sec", "tasks"],
            rows,
        ),
    )

    # Sanity: every strategy sustains a usable interactive rate.
    assert all(rate > 10 for rate in rates.values())

    db, nebula = _fresh_mid_world()
    workload = generate_workload(db, WorkloadSpec(seed=67))
    samples = iter(workload.annotations * 50)

    def insert_one():
        annotation = next(samples)
        nebula.insert_annotation(annotation.text, attach_to=annotation.focal(1))

    benchmark(insert_one)
    db.backend.close()


# ----------------------------------------------------------------------
# Batched ingestion (sustained-traffic regime)
# ----------------------------------------------------------------------


def _fresh_ingestion_world(**config_updates):
    """A fresh database + engine + request list, deterministic per mode.

    Full mode replays eight workload seeds (480 annotations) over the
    benchmark suite's D_small-scale world — sustained traffic, where the
    cross-annotation vocabulary saturates and batching pays; smoke mode
    keeps one seed on a small world.
    """
    spec = SMOKE_SPEC if BENCH_SMOKE else FULL_SPEC
    seeds = (61,) if BENCH_SMOKE else tuple(range(61, 69))
    db = generate_bio_database(spec)
    nebula = Nebula(
        db.backend,
        db.meta,
        NebulaConfig(epsilon=0.6).with_updates(**config_updates),
        aliases=db.aliases,
    )
    requests = []
    for seed in seeds:
        workload = generate_workload(db, WorkloadSpec(seed=seed))
        requests.extend(
            AnnotationRequest.build(a.text, a.focal(1))
            for a in workload.annotations
        )
    return nebula, requests


@pytest.mark.benchmark(group="throughput")
def test_batched_ingestion_speedup(benchmark):
    """Batched vs per-annotation ingestion on identical fresh worlds.

    Three strategies over the same workload: an ``insert_annotation``
    loop with all memoization disabled (every call re-resolves its
    keyword mappings — the baseline of the speedup claim), the same loop
    with the analysis caches, and one ``insert_annotations`` batch.  Every
    strategy shares SQL through the executor; a single insert shares
    within its own queries (Fig. 13), the batch across annotations.
    Results are proven identical by the equivalence test suite; here only
    the rates and sharing ratios are measured.
    """
    rows = []
    rates = {}
    hit_ratios = {}

    def timed(label, run, hit_ratio=None):
        # Collector pauses land arbitrarily across strategies (the heap is
        # already warm from earlier benchmarks); keep them out of the
        # timed sections so the rates compare ingestion work only.
        gc.collect()
        gc.disable()
        try:
            started = time.perf_counter()
            run()
            elapsed = time.perf_counter() - started
        finally:
            gc.enable()
        count = len(requests)
        rates[label] = count / elapsed
        if hit_ratio is not None:
            hit_ratios[label] = hit_ratio()
        rows.append([label, count, elapsed * 1e3 / count, rates[label],
                     hit_ratios.get(label, "")])

    # The per-annotation baseline of the speedup claim: no keyword-
    # analysis memo, no estimator memo.
    nebula, requests = _fresh_ingestion_world(analysis_cache_size=0)
    nebula.meta.configure_cache(0)
    timed("per-annotation", lambda: [
        nebula.insert_annotation(r.text, attach_to=r.focal, use_spreading=False)
        for r in requests
    ])

    nebula, requests = _fresh_ingestion_world()
    ratios = []

    def cached_loop():
        for r in requests:
            nebula.insert_annotation(
                r.text, attach_to=r.focal, use_spreading=False
            )
            ratios.append(nebula.executor.last_stats.hit_ratio)

    timed("per-annotation+cache", cached_loop,
          hit_ratio=lambda: sum(ratios) / len(ratios))

    nebula, requests = _fresh_ingestion_world()
    timed(
        "batched",
        lambda: nebula.insert_annotations(requests, use_spreading=False),
        hit_ratio=lambda: nebula.executor.last_stats.hit_ratio,
    )

    speedup = rates["batched"] / rates["per-annotation"]
    report(
        "batched_throughput",
        table(
            ["strategy", "annotations", "ms_per_annotation",
             "annotations_per_sec", "hit_ratio"],
            rows,
        ) + [f"speedup (batched / per-annotation): {speedup:.2f}x"],
    )
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "BENCH_throughput.json"), "w") as handle:
        json.dump(
            {
                "mode": "smoke" if BENCH_SMOKE else "full",
                "annotations": len(requests),
                "annotations_per_sec": rates,
                "hit_ratio": hit_ratios,
                "speedup": speedup,
            },
            handle,
            indent=2,
            sort_keys=True,
        )

    # Pooling every annotation's SQL shares strictly more than the
    # per-annotation pass can (batch-wide vs within-annotation Fig. 13).
    assert hit_ratios["batched"] > hit_ratios["per-annotation+cache"]
    assert speedup >= (1.2 if BENCH_SMOKE else 2.0)

    nebula, requests = _fresh_ingestion_world()
    chunks = iter([requests[i:i + 10] for i in range(0, len(requests), 10)] * 50)

    def insert_chunk():
        nebula.insert_annotations(next(chunks), use_spreading=False)

    benchmark(insert_chunk)
