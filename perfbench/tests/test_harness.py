"""Self-tests of the benchmark harness, on a small world.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List

import pytest

from repro.datagen.biodb import BioDatabaseSpec, generate_bio_database
from repro.datagen.workload import WorkloadSpec, generate_workload
from repro.errors import ServiceOverloadedError
from repro.service import AnnotationService
from repro.storage import get_backend

import stats
from loadgen import (
    Outcome,
    PhaseResult,
    ReadProbe,
    close_engine,
    open_engine,
    run_service,
    run_single,
)
from tracing import Tracer, install_layers
from workloads import WORKLOADS, Inputs, Request

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SMALL = BioDatabaseSpec(genes=60, proteins=36, publications=250, community_size=8, seed=5)


# ----------------------------------------------------------------------
# Percentile naming
# ----------------------------------------------------------------------


def test_percentile_needs_ten_samples_beyond_it():
    with pytest.raises(stats.TooFewSamples):
        stats.percentile([float(v) for v in range(999)], 99)
    assert stats.percentile([float(v) for v in range(1000)], 99) == pytest.approx(989.01)
    with pytest.raises(stats.TooFewSamples):
        stats.percentile([1.0] * 99, 90)
    assert stats.percentile([2.0] * 100, 90) == 2.0
    with pytest.raises(stats.TooFewSamples):
        stats.percentile([1.0] * 19, 50)


def test_benchmark_json_lists_exactly_the_printed_metrics():
    from measure import END_TO_END_UNITS, PER_LAYER_UNITS

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == PER_LAYER_UNITS
    assert {w["name"] for w in declared["workloads"]} == set(WORKLOADS)


# ----------------------------------------------------------------------
# Self time across nested spans on two threads
# ----------------------------------------------------------------------


class _Work:
    def outer(self) -> None:
        time.sleep(0.02)
        self.inner()
        time.sleep(0.02)

    def inner(self) -> None:
        time.sleep(0.03)


def test_self_time_is_per_thread_across_nested_spans():
    tracer = Tracer()
    tracer.wrap(_Work, "outer", "outer")
    tracer.wrap(_Work, "inner", "inner")
    try:
        work = _Work()
        started = threading.Barrier(2)

        def nested() -> None:
            started.wait()
            with tracer.request("req-a"):
                work.outer()

        def alone() -> None:
            started.wait()
            time.sleep(0.025)  # overlaps the other thread's outer span
            with tracer.request("req-b"):
                work.inner()

        threads = [threading.Thread(target=nested), threading.Thread(target=alone)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(5)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    calls, outer_total, outer_self = totals["outer"]
    assert calls == 1
    # Only this thread's inner call is outer's child: self time is the
    # two 20 ms sleeps, not reduced by the other thread's inner span.
    assert 0.035 <= outer_self <= 0.06
    assert outer_total - outer_self == pytest.approx(totals["inner"][1] / 2, abs=0.01)
    assert totals["inner"][0] == 2
    requests = {(request, name) for request, name, *_rest in tracer.spans()}
    assert requests == {("req-a", "outer"), ("req-a", "inner"), ("req-b", "inner")}
    assert not hasattr(_Work.__dict__["outer"], "__wrapped__")  # the original is back


# ----------------------------------------------------------------------
# Due-time accounting of the open loop
# ----------------------------------------------------------------------


class _Ticket:
    def __init__(self, report: object, done_at: float) -> None:
        self.batch_id = None
        self._report = report
        self._done_at = done_at

    def result(self, timeout=None):
        wait = self._done_at - time.perf_counter()
        if wait > 0:
            if timeout is not None and timeout < wait:
                time.sleep(timeout)
                raise TimeoutError("still in flight")
            time.sleep(wait)
        return self._report


class _Report:
    annotation_id = 1
    mode = "full"
    degradations = ()
    tasks = ()


class _FakeService:
    """Stalls the first submit and the first read; refuses every third write."""

    def __init__(self) -> None:
        self.submits = 0
        self.reads = 0

    def submit(self, request):
        self.submits += 1
        if self.submits == 1:
            time.sleep(0.15)
        if self.submits % 3 == 0:
            raise ServiceOverloadedError(64, 64)
        return _Ticket(_Report(), time.perf_counter() + 0.005)

    def head_commit(self):
        return 1

    def _read(self):
        self.reads += 1
        if self.reads == 1:
            time.sleep(0.1)
        return []

    def annotations_for(self, table, rowid, as_of=None):
        return self._read()

    def pending_verifications(self, limit=None, as_of=None):
        return self._read()

    def find_annotations(self, needle, limit=20, as_of=None):
        return self._read()


def test_open_loop_charges_lateness_and_counts_refusals():
    inputs = Inputs("serve-mixed", 3, [], {"Gene": 10, "Protein": 5}, ["abc"], 0)
    requests = [Request(f"note {i}", (), ()) for i in range(40)]
    result = PhaseResult()
    run_service(_FakeService(), requests, inputs, 1, None, result)
    assert result.refused == 13
    assert result.failed == 13
    assert len(result.acks) == 27
    assert result.attempted == 40 + len(result.head_reads) + len(result.pinned_reads)
    # Writes due during the stalled first submit start late, and their
    # latency counts from the due time, so it includes the stall.
    assert max(result.write_late) >= 0.05
    assert max(result.acks) >= max(result.write_late)
    # The stalled first read (the pinned read at t=0) delays the head
    # reads due behind it; their latency includes that lateness.
    assert result.pinned_reads[0] >= 0.1
    assert max(result.read_late) >= 0.02
    assert result.head_reads[0] >= result.read_late[1]


# ----------------------------------------------------------------------
# Transparency and determinism of the wrappers
# ----------------------------------------------------------------------


def _small_world(directory: Path) -> tuple:
    path = directory / "small.db"
    with get_backend("sqlite-file", path=str(path)) as backend:
        database = generate_bio_database(SMALL, connection=backend.primary)
        backend.primary.commit()
        stream = generate_workload(
            database, WorkloadSpec(sizes=(50, 100), annotations_per_band=4, seed=5)
        )
    requests = [
        Request(a.text, tuple((r.table, r.rowid) for r in a.focal(1, seed=5)), ())
        for a in stream.annotations
    ]
    close_engine(open_engine(str(path)))  # persist the index, as world.py does
    return path, requests


def _digest(result: PhaseResult) -> str:
    lines = []
    for outcome in result.outcomes:
        tasks = sorted((table, rowid, decision, round(confidence, 9))
                       for table, rowid, decision, confidence in outcome.tasks)
        lines.append(json.dumps([outcome.index, outcome.annotation_id, outcome.mode, tasks]))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _run(path: Path, requests: List[Request], tracer) -> PhaseResult:
    """The closed loop over every request."""
    result = PhaseResult()
    nebula = open_engine(str(path))
    try:
        run_single(nebula, requests, float("inf"), len(requests), tracer, result)
    finally:
        close_engine(nebula)
    return result


def _run_service(path: Path, requests: List[Request], tracer) -> PhaseResult:
    """Every request through a started service, one at a time, so each
    flush holds exactly one submission and the outcome repeats."""
    result = PhaseResult()
    nebula = open_engine(str(path))
    service = AnnotationService(nebula).start()
    try:
        for index, request in enumerate(requests):
            report = service.submit(request.build()).result(30)
            result.outcomes.append(Outcome.of(index, report))
    finally:
        assert service.stop()
        close_engine(nebula)
    return result


@pytest.mark.parametrize("path", ["loop", "service"])
def test_wrappers_are_transparent(tmp_path, path):
    run = _run if path == "loop" else _run_service
    prepared, requests = _small_world(tmp_path)
    plain_path = tmp_path / "plain.db"
    traced_path = tmp_path / "traced.db"
    shutil.copyfile(prepared, plain_path)
    shutil.copyfile(prepared, traced_path)
    plain = run(plain_path, requests, None)
    tracer = Tracer()
    with tracer.installed(install_layers):
        traced = run(traced_path, requests, tracer)
    assert len(plain.outcomes) == len(requests)
    assert _digest(traced) == _digest(plain)
    totals = tracer.totals()
    assert totals["core.generate_queries"][0] == len(requests)
    assert totals["search.execute"][0] > 0
    if path == "service":
        # One flush per request, each joined to its batch id.
        assert totals["core.insert_annotations"][0] == len(requests)
        assert len(tracer.events("succeed")) == len(requests)
    # Uninstalled: the program's own functions are back in place.
    import repro.core.nebula as nebula_module
    from repro.core.query_generation import generate_queries

    assert nebula_module.generate_queries is generate_queries


def test_probe_spreads_its_reads_outside_the_write_clock(tmp_path):
    prepared, requests = _small_world(tmp_path)
    inputs = Inputs("annotate-long", 5, requests, {"Gene": 60, "Protein": 36}, ["JW"], 0)
    half = len(requests) // 2
    nebula = open_engine(str(prepared))
    try:
        result = PhaseResult()
        run_single(nebula, requests, float("inf"), half, None, result)
        probe = ReadProbe(nebula, inputs)
        start_pin = probe.pin
        wall = result.wall
        probe.catch_up(0.5, result)
        assert len(result.head_reads) + len(result.pinned_reads) == len(probe.schedule) // 2
        assert result.wall == wall  # reads are not charged to the writes
        run_single(nebula, requests, float("inf"), len(requests), None, result, first=half)
        probe.catch_up(1.0, result)
        assert len(result.head_reads) + len(result.pinned_reads) == len(probe.schedule)
        assert result.attempted == len(requests) + len(probe.schedule)
        assert result.failed == 0
        # Every pinned read held the snapshot the phase started from,
        # while the writes moved the head past it.
        assert result.pinned_samples
        assert {pin for pin, *_rest in result.pinned_samples} == {start_pin}
        assert AnnotationService(nebula).head_commit() > start_pin
    finally:
        close_engine(nebula)


_COUNTS_SCRIPT = """
import json, shutil, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from pathlib import Path
from test_harness import _run, _small_world
from tracing import Tracer, install_layers
workdir = Path(sys.argv[3])
prepared, requests = _small_world(workdir)
tracer = Tracer()
with tracer.installed(install_layers):
    result = _run(prepared, requests, tracer)
counts = {name: calls for name, (calls, _t, _s) in sorted(tracer.totals().items())}
tasks = sum(len(outcome.tasks) for outcome in result.outcomes)
print(json.dumps([counts, tasks]))
"""


def test_traced_counts_repeat_across_processes(tmp_path):
    outputs = []
    for run in range(2):
        workdir = tmp_path / f"run{run}"
        workdir.mkdir()
        env = dict(os.environ, PYTHONHASHSEED="0")
        completed = subprocess.run(
            [sys.executable, "-c", _COUNTS_SCRIPT, str(ROOT / "src"), str(HERE.parent),
             str(workdir)],
            env=env, cwd=str(HERE), capture_output=True, text=True, timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        outputs.append(completed.stdout.strip().splitlines()[-1])
    assert outputs[0] == outputs[1]
    counts: Dict[str, int] = json.loads(outputs[0])[0]
    assert counts["core.insert_annotation"] > 0
    assert counts["core.shortest_hops"] > 0
