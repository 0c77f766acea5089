"""Shared benchmark fixtures and reporting helpers.

The benchmark suite regenerates every table and figure of the paper's
Section 8 (see DESIGN.md's experiment index).  Three dataset scales mirror
``D_small`` / ``D_mid`` / ``D_large`` at laptop size (1x / 4x / 8x of the
base spec — same ratio structure as the paper's 2 / 9 / 18 GB extracts).

Every benchmark both:

* exercises a representative operation under ``pytest-benchmark`` (so
  ``--benchmark-only`` reports wall-clock comparisons), and
* writes the paper-style table into ``benchmarks/results/<name>.txt``
  (and stdout), which is what EXPERIMENTS.md is compiled from.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, Iterable, List, Sequence, Tuple

import pytest

from repro import (
    Nebula,
    NebulaConfig,
    generate_bio_database,
    generate_workload,
)
from repro.core.bounds import TrainingSample
from repro.datagen.biodb import BioDatabase, BioDatabaseSpec
from repro.datagen.workload import AnnotationWorkload, WorkloadSpec
from repro.observability import get_metrics
from repro.utils.tokenize import normalize_word

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

# Base spec scaled 1x / 4x / 8x for D_small / D_mid / D_large — the same
# ratio structure as the paper's 2 / 9 / 18 GB extracts.  The searchable
# Gene/Protein tables are sized so full-database scans dominate execution
# at the large scale (the regime Figures 12-14 live in); gene count stays
# below 10,000 to keep the JW#### identifier scheme intact.
BASE_SPEC = BioDatabaseSpec(
    genes=1000, proteins=600, publications=3000, community_size=8
)
SCALES = {"small": 1, "mid": 4, "large": 8}

EPSILONS = (0.4, 0.6, 0.8)
SIZE_GROUPS = (50, 100, 500, 1000)


def report(name: str, lines: Iterable[str]) -> str:
    """Write a result table to benchmarks/results/<name>.txt and stdout."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    text = "\n".join(lines) + "\n"
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w") as handle:
        handle.write(text)
    sys.stdout.write(f"\n=== {name} ===\n{text}")
    return path


def table(header: Sequence[str], rows: Iterable[Sequence[object]]) -> List[str]:
    """Render an aligned text table."""
    rendered_rows = [[_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in header]
    for row in rendered_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def line(cells):
        return "  ".join(c.ljust(widths[i]) for i, c in enumerate(cells))
    out = [line(header), line(["-" * w for w in widths])]
    out.extend(line(row) for row in rendered_rows)
    return out


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def dump_metrics(name: str) -> str:
    """Write the process metrics snapshot to benchmarks/results/<name>.json.

    Benchmarks call this after their measured section so the counters the
    pipeline accumulated (queries per type, SQL executed, sharing ratios)
    land next to the paper-style tables; EXPERIMENTS.md cross-checks them
    against Figures 11(a) / 12(a) / 13.
    """
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.json")
    with open(path, "w") as handle:
        json.dump(get_metrics().snapshot(), handle, indent=2, sort_keys=True)
    return path


@pytest.fixture(scope="session", autouse=True)
def metrics_session_snapshot():
    """Persist the whole benchmark session's metrics on teardown."""
    yield
    dump_metrics("metrics_session")


# ----------------------------------------------------------------------
# Datasets (session scope: built once per benchmark run, each on a
# temporary database file removed when the process exits)
# ----------------------------------------------------------------------


def _build(scale_name: str) -> Tuple[BioDatabase, AnnotationWorkload]:
    db = generate_bio_database(BASE_SPEC.scaled(SCALES[scale_name]))
    workload = generate_workload(db, WorkloadSpec(seed=29))
    return db, workload


@pytest.fixture(scope="session")
def dataset_small():
    return _build("small")


@pytest.fixture(scope="session")
def dataset_mid():
    return _build("mid")


@pytest.fixture(scope="session")
def dataset_large():
    return _build("large")


@pytest.fixture(scope="session")
def all_datasets(dataset_small, dataset_mid, dataset_large):
    return {"small": dataset_small, "mid": dataset_mid, "large": dataset_large}


# ----------------------------------------------------------------------
# Engines
# ----------------------------------------------------------------------

_ENGINE_CACHE: Dict[Tuple[int, float, Tuple], Nebula] = {}


def make_nebula(db: BioDatabase, epsilon: float = 0.6, **config_updates) -> Nebula:
    """Engine over ``db`` (cached per db + config across benches)."""
    key = (id(db), epsilon, tuple(sorted(config_updates.items())))
    if key not in _ENGINE_CACHE:
        _ENGINE_CACHE[key] = Nebula(
            db.backend,
            db.meta,
            NebulaConfig(epsilon=epsilon).with_updates(**config_updates),
            aliases=db.aliases,
        )
    return _ENGINE_CACHE[key]


# ----------------------------------------------------------------------
# Oracle helpers
# ----------------------------------------------------------------------


def query_quality(annotation, generation) -> Tuple[int, int, int]:
    """(true-positive queries, false-positive queries, missed references).

    A generated query is a true-positive when one of its keywords is one of
    the annotation's embedded-reference keywords; a reference is missed
    when no query covers its keyword — the mechanical version of the
    paper's "manual investigation" for Figure 11(c).
    """
    ideal = set(annotation.ideal_keywords)
    tp = fp = 0
    covered = set()
    for query in generation.queries:
        keywords = {normalize_word(k) for k in query.keywords}
        hit = keywords & ideal
        if hit:
            tp += 1
            covered |= hit
        else:
            fp += 1
    missed = len(ideal - covered)
    return tp, fp, missed


def training_samples(
    db: BioDatabase,
    nebula: Nebula,
    count: int = 100,
    delta: int = 1,
    seed: int = 5,
) -> List[TrainingSample]:
    """Build BoundsSetting training samples from the database's own
    publications (the paper's D_Training: annotations with known complete
    attachments, distorted to ``delta`` surviving links)."""
    from repro.utils.rng import make_rng

    rng = make_rng(seed, "training")
    truths = list(db.truths.values())
    rng.shuffle(truths)
    samples: List[TrainingSample] = []
    for truth in truths:
        if len(samples) >= count:
            break
        if len(truth.refs) <= delta:
            continue
        focal = tuple(sorted(rng.sample(list(truth.refs), delta)))
        annotation = db.manager.annotation(truth.annotation_id)
        report = nebula.analyze(annotation.content, focal=focal)
        samples.append(
            TrainingSample(
                candidates=tuple(report.candidates),
                ideal=frozenset(truth.refs),
                focal=focal,
            )
        )
    return samples
