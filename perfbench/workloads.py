"""The workloads, their worlds and their request streams.

Each workload is a world (the synthetic curated database) and a stream
of new annotations drawn from ``repro.datagen``, both made from the
workload seed.  :mod:`world` builds them in a process of its own; the
measuring process only reads them back with :func:`load_inputs`.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, replace
from typing import Dict, List, Sequence, Tuple

from repro.config import NebulaConfig
from repro.datagen.biodb import BioDatabaseSpec
from repro.perf import AnnotationRequest
from repro.types import TupleRef

#: The 1x world: Gene / Protein / Publication at the paper's ratios.
BASE_SPEC = BioDatabaseSpec(genes=1000, proteins=600, publications=3000, community_size=8)

#: Distortion degree: each new annotation keeps one ideal link as focal.
FOCAL_DELTA = 1

#: serve-mixed's ACG-stability window ``B`` (``NebulaConfig.batch_size``,
#: default 50): longer than any run, so the engine never judges the ACG
#: stable and its writer keeps to the full search and the pooled
#: ``execute_groups`` path.  With B = 50 the verdict is reached from a
#: run's first few hundred short annotations, and whether it came out
#: stable depended on the seed (2 of 5 seeds, whose runs then spent
#: twice as long per write in the spreading search).  annotate-long's
#: runs are long enough that the default window's verdicts average out.
SERVE_STABILITY_WINDOW = 10**9

# serve-mixed offered load: writes at about a tenth of the writer's
# capacity, so a slow spell of the host does not queue work behind it.
WRITE_RATE = 10.0  # Poisson writes per second
HEAD_READ_RATE = 50.0  # head reads per second
PIN_PERIOD = 0.3  # one pinned (as_of) read every PIN_PERIOD seconds
PIN_GAP = 0.08  # head reads keep clear of this much time after a pinned read
PIN_REFRESH = 2.0  # re-pin the as_of commit from head_commit() this often

# annotate-long's read probe, spread over its write phase.
PROBE_HEAD_READS = 4000
PROBE_PINNED_READS = 200

#: Read mix of head reads: (kind, share).
READ_MIX = (("annotations_for", 0.7), ("pending", 0.2), ("find", 0.1))


@dataclass(frozen=True)
class Workload:
    name: str
    #: The ``L^m`` size groups the annotations are drawn from.
    sizes: Tuple[int, ...]
    #: Driven through a started AnnotationService (open loop) rather
    #: than ``insert_annotation`` calls (closed loop).
    service: bool
    #: Requests generated per measured second: the closed loop stops
    #: early if a much faster program drains the stream.
    stream_rate: float
    #: Requests of the fixed-work traced run per measured second.
    traced_rate: float
    #: Requests committed untimed through ``insert_annotation`` before
    #: the write phase, so the engine's caches are warm when timing starts.
    warmup: int
    #: The engine's configuration.
    engine: NebulaConfig = NebulaConfig()

    def spec(self, seed: int) -> BioDatabaseSpec:
        return replace(BASE_SPEC, seed=seed)

    def stream_length(self, seconds: int) -> int:
        return self.warmup + int(math.ceil(self.stream_rate * seconds))

    def traced_count(self, seconds: int) -> int:
        """Requests the traced run's timed part ends at (warm-up included)."""
        return self.warmup + int(math.ceil(self.traced_rate * seconds))


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("annotate-long", (500, 1000), False, 300.0, 25.0, 200),
        Workload("serve-mixed", (50, 100), True, WRITE_RATE, WRITE_RATE, 50,
                 NebulaConfig(batch_size=SERVE_STABILITY_WINDOW)),
    )
}


#: A tuple as a plain (table, rowid) pair.
Pair = Tuple[str, int]


@dataclass(frozen=True)
class Request:
    """One new annotation: its text, focal, and the links it is missing.

    Tuples are plain (table, rowid) pairs, which the garbage collector
    stops tracking, so a long request stream held by the harness does not
    lengthen the program's collection pauses.
    """

    text: str
    focal: Tuple[Pair, ...]
    missing: Tuple[Pair, ...]

    def build(self) -> AnnotationRequest:
        return AnnotationRequest.build(self.text, [TupleRef(t, r) for t, r in self.focal])


@dataclass
class Inputs:
    """Everything the measuring process gets besides the database file."""

    workload: str
    seed: int
    requests: List[Request]
    #: Row count per annotatable table (rowids are 1..count).
    tables: Dict[str, int]
    #: Substrings for ``find_annotations``.
    needles: List[str]
    #: Annotations stored in the prepared database.
    annotations_before: int


def _pairs(rows: List[List]) -> Tuple[Pair, ...]:
    return tuple((str(table), int(rowid)) for table, rowid in rows)


def save_inputs(path: str, inputs: Inputs) -> None:
    payload = {
        "workload": inputs.workload,
        "seed": inputs.seed,
        "tables": inputs.tables,
        "needles": inputs.needles,
        "annotations_before": inputs.annotations_before,
        "requests": [
            {
                "text": r.text,
                "focal": [list(pair) for pair in r.focal],
                "missing": [list(pair) for pair in r.missing],
            }
            for r in inputs.requests
        ],
    }
    with open(path, "w") as handle:
        json.dump(payload, handle)


def load_inputs(path: str) -> Inputs:
    with open(path) as handle:
        payload = json.load(handle)
    return Inputs(
        workload=payload["workload"],
        seed=int(payload["seed"]),
        requests=[
            Request(item["text"], _pairs(item["focal"]), _pairs(item["missing"]))
            for item in payload["requests"]
        ],
        tables={str(k): int(v) for k, v in payload["tables"].items()},
        needles=list(payload["needles"]),
        annotations_before=int(payload["annotations_before"]),
    )


@dataclass(frozen=True)
class Read:
    """One scheduled read: due offset (s), kind, and random draws."""

    due: float
    kind: str
    #: Uniform draws choosing the target: [0] picks uniform vs recent,
    #: [1] the tuple or needle.
    draws: Tuple[float, float]


def read_kinds(rng: random.Random, count: int) -> List[str]:
    kinds: List[str] = []
    for _ in range(count):
        roll = rng.random()
        for kind, share in READ_MIX:
            roll -= share
            if roll < 0:
                kinds.append(kind)
                break
        else:
            kinds.append(READ_MIX[-1][0])
    return kinds


def service_schedule(
    seed: int, seconds: int, writes: int
) -> Tuple[List[float], List[Read]]:
    """Write due offsets (Poisson, exactly ``writes`` of them) and the
    read schedule: a pinned read at the start of every PIN_PERIOD frame,
    head reads spread evenly over the rest of the frame."""
    rng = random.Random(f"serve-mixed:{seed}")
    write_due = sorted(rng.uniform(0.0, seconds) for _ in range(writes))
    frames = int(round(seconds / PIN_PERIOD))
    per_frame = int(round(HEAD_READ_RATE * PIN_PERIOD))
    spacing = (PIN_PERIOD - PIN_GAP) / per_frame
    kinds = read_kinds(rng, frames * per_frame)
    reads: List[Read] = []
    for frame in range(frames):
        base = frame * PIN_PERIOD
        reads.append(Read(base, "pinned", (rng.random(), rng.random())))
        for slot in range(per_frame):
            reads.append(
                Read(
                    base + PIN_GAP + slot * spacing,
                    kinds[frame * per_frame + slot],
                    (rng.random(), rng.random()),
                )
            )
    return write_due, reads


def probe_schedule(seed: int) -> List[Read]:
    """annotate-long's probe reads, in order: the head-read mix with a
    pinned read after every ``PROBE_HEAD_READS / PROBE_PINNED_READS`` of
    them, so both kinds spread over the write phase."""
    rng = random.Random(f"probe:{seed}")
    stride = PROBE_HEAD_READS // PROBE_PINNED_READS
    kinds: List[str] = []
    for number, kind in enumerate(read_kinds(rng, PROBE_HEAD_READS), 1):
        kinds.append(kind)
        if number % stride == 0:
            kinds.append("pinned")
    return [Read(0.0, kind, (rng.random(), rng.random())) for kind in kinds]


def read_target(
    read: Read, tables: Dict[str, int], recent: Sequence[TupleRef]
) -> TupleRef:
    """Half the tuple reads go to a uniform tuple, half to a tuple that a
    recent acknowledged write attached (``recent`` may be a deque the
    writer appends to: its length only grows until it is full)."""
    size = len(recent)
    if read.draws[0] < 0.5 and size:
        return recent[min(int(read.draws[1] * size), size - 1)]
    total = sum(tables.values())
    pick = int(read.draws[1] * total)
    for table in sorted(tables):
        if pick < tables[table]:
            return TupleRef(table, pick + 1)
        pick -= tables[table]
    last = sorted(tables)[-1]
    return TupleRef(last, tables[last])


def needle_of(read: Read, needles: List[str]) -> str:
    return needles[min(int(read.draws[1] * len(needles)), len(needles) - 1)]
