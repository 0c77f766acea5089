"""Build one workload's world and request stream from its seed.

Runs in a process of its own, before the measuring process, so that
neither the set-up time nor the peak memory the benchmark reports
includes ``repro.datagen``.  Writes ``world.db`` (the curated database,
opened once through the CLI's engine-open path so its search index is
persisted, then checkpointed into a single file) and ``inputs.json``
(the requests with their oracle, plus what the read load draws from).

    python3 perfbench/world.py --workload annotate-long --seed 1 \\
        --seconds 40 --out DIR
"""

from __future__ import annotations

import argparse
import os
import random
import sys

from repro.cli import _close_engine, _open_engine
from repro.config import NebulaConfig
from repro.datagen.biodb import generate_bio_database
from repro.datagen.workload import WorkloadSpec, generate_workload
from repro.storage import get_backend

from workloads import FOCAL_DELTA, WORKLOADS, Inputs, Request, save_inputs


def build(workload_name: str, seed: int, seconds: int, out: str) -> None:
    workload = WORKLOADS[workload_name]
    db_path = os.path.join(out, "world.db")
    count = workload.stream_length(seconds)
    with get_backend("sqlite-file", path=db_path) as backend:
        database = generate_bio_database(workload.spec(seed), connection=backend.primary)
        backend.primary.commit()
        bands = len(WorkloadSpec().bands)
        per_band = -(-count // (bands * len(workload.sizes)))
        generated = generate_workload(
            database,
            WorkloadSpec(sizes=workload.sizes, annotations_per_band=per_band, seed=seed),
        )
        annotations = list(generated.annotations)
        # Interleave the size groups and reference bands so every prefix
        # of the stream has the same mix.
        random.Random(f"stream:{seed}").shuffle(annotations)
        requests = []
        for annotation in annotations[:count]:
            focal = annotation.focal(FOCAL_DELTA, seed=seed)
            requests.append(
                Request(
                    annotation.text,
                    tuple((ref.table, ref.rowid) for ref in focal),
                    tuple((ref.table, ref.rowid) for ref in annotation.missing(focal)),
                )
            )
        names = sorted({g.name for g in database.genes} | {p.pname for p in database.proteins})
        needles = random.Random(f"needles:{seed}").sample(names, min(200, len(names)))
        inputs = Inputs(
            workload=workload.name,
            seed=seed,
            requests=requests,
            tables={"Gene": len(database.genes), "Protein": len(database.proteins)},
            needles=needles,
            annotations_before=database.manager.store.count_annotations(),
        )
    nebula = _open_engine(db_path, NebulaConfig().epsilon)
    try:
        if nebula.index_source != "rebuilt":
            raise RuntimeError(f"expected a fresh index build, got {nebula.index_source}")
        nebula.backend.checkpoint()
    finally:
        _close_engine(nebula)
    save_inputs(os.path.join(out, "inputs.json"), inputs)


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    build(args.workload, args.seed, args.seconds, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
