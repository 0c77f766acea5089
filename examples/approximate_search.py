"""Approximate focal-based spreading search in action (paper §6.3).

Shows the full lifecycle of the approximation machinery:

1. stream annotations into the ACG and watch the stability flag flip
   (Definition 6.1);
2. build the hop-distance profile from discovery history (Figure 7);
3. let the profile auto-select the radius K for a target coverage;
4. compare a full-database search against the K-hop mini-database search
   for the same new annotation.

Run:  python examples/approximate_search.py
"""

import time

from repro import (
    BioDatabaseSpec,
    Nebula,
    NebulaConfig,
    generate_bio_database,
    generate_workload,
)
from repro.core.acg import AnnotationsConnectivityGraph, StabilityTracker
from repro.datagen.workload import WorkloadSpec


def main() -> None:
    db = generate_bio_database(
        BioDatabaseSpec(genes=480, proteins=288, publications=2000,
                        community_size=8, seed=99)
    )
    workload = generate_workload(db, WorkloadSpec(seed=7))
    nebula = Nebula(db.backend, db.meta, NebulaConfig(epsilon=0.6),
                    aliases=db.aliases)

    # ------------------------------------------------------------------
    # 1. ACG stability over the annotation stream (Definition 6.1).
    # ------------------------------------------------------------------
    print("== ACG stability over the annotation stream ==")
    acg = AnnotationsConnectivityGraph()
    tracker = StabilityTracker(batch_size=200, mu=0.5)
    per_annotation = {}
    for annotation_id, ref in db.manager.store.true_attachment_pairs():
        per_annotation.setdefault(annotation_id, []).append(ref)
    for annotation_id in sorted(per_annotation):
        refs = per_annotation[annotation_id]
        new_edges = sum(acg.add_attachment(annotation_id, r) for r in refs)
        flipped = tracker.record_annotation(len(refs), new_edges)
        if flipped is not None:
            m, n, stable = tracker.history[-1]
            print(
                f"  batch {len(tracker.history):2}: M={m:5} new-edges N={n:5} "
                f"ratio={n / max(1, m):.3f}  stable={stable}"
            )
    print(f"  final state: stable={tracker.stable}")

    # ------------------------------------------------------------------
    # 2. Build the hop profile from discovery history (Figure 7).
    # ------------------------------------------------------------------
    print("\n== hop-distance profile from the first 40 workload annotations ==")
    for annotation in workload.annotations[:40]:
        focal = annotation.focal(1)
        result = nebula.analyze(annotation.text, focal=focal)
        for candidate in result.candidates:
            if candidate.ref not in focal:
                nebula.profile.record(nebula.acg.shortest_hops(candidate.ref, focal))
    for hops, count, coverage in nebula.profile.as_rows(k_max=5):
        bar = "#" * int(40 * count / max(1, nebula.profile.total))
        print(f"  {hops} hops: {count:4}  cum={coverage:5.1%}  {bar}")

    # ------------------------------------------------------------------
    # 3. Profile-guided K.
    # ------------------------------------------------------------------
    for target in (0.7, 0.9, 0.97):
        print(f"  K for {target:.0%} coverage -> {nebula.profile.select_k(target)}")

    # ------------------------------------------------------------------
    # 4. Full search vs spreading search for one new annotation.
    # ------------------------------------------------------------------
    print("\n== full vs spreading search for a new annotation ==")
    annotation = workload.group(100)[-1]
    focal = annotation.focal(2)
    started = time.perf_counter()
    full = nebula.analyze(annotation.text, focal=focal, use_spreading=False)
    full_time = time.perf_counter() - started
    started = time.perf_counter()
    spread = nebula.analyze(annotation.text, focal=focal, use_spreading=True)
    spread_time = time.perf_counter() - started
    print(f"  full search:      {len(full.candidates)} candidates, "
          f"{full_time * 1e3:.2f} ms (entire database)")
    print(f"  spreading search: {len(spread.candidates)} candidates, "
          f"{spread_time * 1e3:.2f} ms (scope: {spread.scope_size} tuples, "
          f"K={spread.radius})")
    missing = set(annotation.missing(focal))
    print(f"  missing attachments found: full="
          f"{len(missing & set(full.identified.refs))}/{len(missing)}  "
          f"spreading={len(missing & set(spread.identified.refs))}/{len(missing)}")


if __name__ == "__main__":
    main()
