"""E1 — Figure 11(a): query-generation time split across the three phases.

Paper shape: map generation takes ~2/3 of the time; larger cutoff
thresholds do less downstream work; time grows with annotation size m.
"""

import pytest

from repro.core.query_generation import (
    PHASE_CONTEXT,
    PHASE_MAPS,
    PHASE_QUERIES,
    generate_queries,
)

from conftest import EPSILONS, SIZE_GROUPS, dump_metrics, make_nebula, report, table


@pytest.mark.benchmark(group="fig11a")
@pytest.mark.parametrize("epsilon", EPSILONS)
def test_fig11a_query_generation_time(benchmark, dataset_large, epsilon):
    db, workload = dataset_large
    nebula = make_nebula(db, epsilon)
    # db.meta is shared by every epsilon: swap in a cold value memo so each
    # row times the same map generation, not what earlier runs memoized.
    nebula.meta.configure_cache(nebula.config.analysis_cache_size)

    rows = []
    for size in SIZE_GROUPS:
        annotations = workload.group(size)
        totals = {PHASE_MAPS: 0.0, PHASE_CONTEXT: 0.0, PHASE_QUERIES: 0.0}
        for annotation in annotations:
            result = generate_queries(annotation.text, nebula.meta, nebula.config)
            for phase, elapsed in result.phase_times.items():
                totals[phase] += elapsed
        n = len(annotations)
        total = sum(totals.values())
        rows.append(
            [
                f"eps={epsilon}",
                f"L^{size}",
                totals[PHASE_MAPS] / n * 1e3,
                totals[PHASE_CONTEXT] / n * 1e3,
                totals[PHASE_QUERIES] / n * 1e3,
                total / n * 1e3,
                totals[PHASE_MAPS] / total if total else 0.0,
            ]
        )
    report(
        f"fig11a_eps{epsilon}",
        table(
            ["config", "set", "maps_ms", "context_ms", "queries_ms",
             "total_ms", "maps_share"],
            rows,
        ),
    )

    # Benchmark the full generation over a representative mid-size text.
    sample = workload.group(500)[0]
    benchmark(generate_queries, sample.text, nebula.meta, nebula.config)

    # Per-phase histograms + per-type query counters next to the table.
    dump_metrics("fig11a_metrics")
