"""The measuring process: set-up, the timed phase, the correctness gate.

Gets only the prepared database file and ``inputs.json`` that
:mod:`world` wrote.  With ``--trace 0`` it reports the end-to-end
metrics; with ``--trace 1`` the per-layer metrics of a traced phase plus
the tracing overhead against an untraced phase of the same work.  The
last line of standard output is the result object.  A failed
correctness gate prints the problems to standard error, reports no
metrics and exits 1; a run with too few samples to name one of its
percentiles does the same and exits 6.

    PYTHONHASHSEED=0 PYTHONPATH=src:perfbench python3 perfbench/measure.py \\
        --workload annotate-long --seconds 40 --trace 0 --dir DIR
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import sys
from contextlib import nullcontext
from typing import Callable, Dict, List, Optional, Tuple

from repro.observability import get_metrics
from repro.search import InvertedValueIndex
from repro.service import AnnotationService, ServiceConfig
from repro.types import TupleRef

from loadgen import (
    PhaseResult,
    ReadProbe,
    clock,
    close_engine,
    open_engine,
    run_service,
    run_single,
)
from stats import TooFewSamples, mean, median, percentile
from tracing import Tracer, install_layers
from workloads import WORKLOADS, Inputs, Workload, load_inputs

#: Cold opens per run; set-up time is their median.
SETUP_OPENS = 9

#: Alternating untraced/traced chunks of annotate-long's traced run.
PAIRED_CHUNKS = 8

#: Exit status of a run whose correctness gate failed.
EXIT_INCORRECT = 1
#: Exit status of a run with too few samples to name a percentile.
EXIT_TOO_FEW_SAMPLES = 6

#: Program counters read before and after a phase (summed over labels).
DEGRADATIONS = "nebula_degradation_events_total"
RETRIES = "nebula_retry_attempts_total"
READER_FALLBACKS = "nebula_service_reader_fallbacks_total"
#: The service writer's flush durations (a histogram).
FLUSH_SECONDS = "nebula_service_flush_seconds"


def _labelled_total(section: Dict, name: str, value) -> float:
    return sum(
        value(entry) for key, entry in section.items()
        if key == name or key.startswith(name + "{")
    )


def counter_total(name: str) -> float:
    return _labelled_total(get_metrics().snapshot()["counters"], name, float)


def histogram_sum(name: str) -> float:
    return _labelled_total(get_metrics().snapshot()["histograms"], name,
                           lambda entry: float(entry["sum"]))


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------


def cold_open(path: str, workload: Workload) -> float:
    """Seconds to open the engine (and start the service) on ``path``,
    from a collected heap, as a freshly started process would."""
    gc.collect()
    began = clock()
    nebula = open_engine(path, workload.engine)
    running = AnnotationService(nebula, ServiceConfig()).start() if workload.service else None
    took = clock() - began
    if running is not None:
        running.stop()
    close_engine(nebula)
    return took


# ----------------------------------------------------------------------
# One measured phase
# ----------------------------------------------------------------------


class Observed:
    """A phase's result plus the program state around it."""

    def __init__(self, result: PhaseResult) -> None:
        self.result = result
        self.peak_rss_mb = 0.0
        self.store_growth = 0
        #: Change over the phase of each :func:`_program_state` entry.
        self.delta: Dict[str, float] = {}

    @property
    def acked(self) -> int:
        return len(self.result.outcomes)


def _history_rows(nebula) -> int:
    row = nebula.connection.execute(
        "SELECT (SELECT COUNT(*) FROM _nebula_annotation_history) + "
        "(SELECT COUNT(*) FROM _nebula_attachment_history)"
    ).fetchone()
    return int(row[0])


def _program_state(nebula) -> Dict[str, float]:
    pages = nebula.engine.index.describe()["page_cache"]
    cache = nebula.analysis_cache.stats
    return {
        "commits": nebula.commit_log.count_commits(),
        "history_rows": _history_rows(nebula),
        "page_hits": pages["hits"],
        "page_misses": pages["misses"],
        "cache_hits": cache.hits,
        "cache_misses": cache.misses,
        "degradations": counter_total(DEGRADATIONS),
        "retries": counter_total(RETRIES),
        "reader_fallbacks": counter_total(READER_FALLBACKS),
        "flush_seconds": histogram_sum(FLUSH_SECONDS),
    }


class Phase:
    """One engine on a fresh copy of the prepared database."""

    def __init__(self, workload: Workload, path: str, inputs: Inputs) -> None:
        self.workload = workload
        self.path = path
        self.inputs = inputs
        self.requests = inputs.requests
        self.result = PhaseResult()
        self.nebula = open_engine(path, workload.engine)
        self.nebula.backend.checkpoint()
        self.size_before = os.path.getsize(path)
        self.before: Dict[str, float] = {}

    def warm_up(self) -> None:
        """Commit the warm-up requests, untimed and untraced."""
        if self.workload.warmup:
            scratch = PhaseResult()
            run_single(self.nebula, self.requests, float("inf"), self.workload.warmup,
                       None, scratch)
            self.result.warmup = len(scratch.outcomes)

    def begin(self) -> None:
        self.before = _program_state(self.nebula)

    def run(self, seconds: float, limit: Optional[int], tracer: Optional[Tracer],
            probe: Optional[ReadProbe] = None, first: Optional[int] = None) -> None:
        if not self.workload.service:
            start = self.workload.warmup if first is None else first
            run_single(self.nebula, self.requests, seconds, limit, tracer, self.result,
                       start, probe)
            return
        service = AnnotationService(self.nebula, ServiceConfig()).start()
        try:
            run_service(service, self.requests, self.inputs, seconds, tracer, self.result,
                        self.workload.warmup)
        finally:
            self.result.clean_stop = service.stop()

    def finish(self) -> Observed:
        observed = Observed(self.result)
        observed.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        after = _program_state(self.nebula)
        observed.delta = {key: after[key] - value for key, value in self.before.items()}
        self.nebula.backend.checkpoint()
        observed.store_growth = os.path.getsize(self.path) - self.size_before
        self.close()
        return observed

    def close(self) -> None:
        if self.nebula is not None:
            close_engine(self.nebula)
            self.nebula = None


def run_phase(
    workload: Workload,
    prepared: str,
    inputs: Inputs,
    seconds: float,
    tracer: Optional[Tracer],
    name: str,
) -> Tuple[Observed, str]:
    """One timed phase on a fresh copy of the prepared database; an
    untraced closed loop spreads the read probe over it."""
    path = fresh_copy(prepared, name)
    phase = Phase(workload, path, inputs)
    try:
        phase.warm_up()
        probe = None
        if not workload.service and tracer is None:
            probe = ReadProbe(phase.nebula, inputs)
        phase.begin()
        gc.collect()
        phase.run(seconds, None, tracer, probe)
        if probe is not None:
            probe.catch_up(1.0, phase.result)
        return phase.finish(), path
    finally:
        phase.close()


def run_paired(
    workload: Workload,
    prepared: str,
    inputs: Inputs,
    tracer: Tracer,
    limit: int,
) -> Tuple[Observed, Observed]:
    """The closed loop's traced run: the same fixed work untraced and
    traced, on two engines, alternating in chunks so that drift in the
    host's speed falls on both sides alike.  Which side runs a chunk
    first alternates too: whichever goes second finds process-wide
    memo tables already filled by the first."""
    untraced = Phase(workload, fresh_copy(prepared, "untraced.db"), inputs)
    traced = Phase(workload, fresh_copy(prepared, "traced.db"), inputs)
    try:
        untraced.warm_up()
        traced.warm_up()
        untraced.begin()
        traced.begin()
        gc.collect()
        first = workload.warmup
        step = -(-(limit - first) // PAIRED_CHUNKS)
        sides = [(untraced, False), (traced, True)]
        for chunk, head in enumerate(range(first, limit, step)):
            stop = min(head + step, limit)
            for phase, is_traced in sides if chunk % 2 == 0 else sides[::-1]:
                wrappers = tracer.installed(install_layers) if is_traced else nullcontext()
                with wrappers:
                    phase.run(float("inf"), stop, tracer if is_traced else None, first=head)
        return untraced.finish(), traced.finish()
    finally:
        untraced.close()
        traced.close()


# ----------------------------------------------------------------------
# Correctness gate
# ----------------------------------------------------------------------


def gate(path: str, inputs: Inputs, observed: Observed) -> List[str]:
    """Reopen the database in a fresh backend and check the phase's outcome."""
    result = observed.result
    problems: List[str] = []
    if not result.clean_stop:
        problems.append("the service did not stop cleanly")
    if observed.delta["degradations"]:
        problems.append(
            f"{observed.delta['degradations']:g} degradation events (shedding or fallbacks)"
        )
    labelled = sum(1 for outcome in result.outcomes if outcome.degraded)
    if labelled:
        problems.append(f"{labelled} reports carry degradation labels")
    if not result.outcomes:
        problems.append("no annotation was acknowledged")
    nebula = open_engine(path)
    try:
        stored = nebula.manager.store.count_annotations()
        expected = inputs.annotations_before + result.warmup + observed.acked
        if stored != expected:
            problems.append(f"{stored} annotations stored, expected {expected}")
        if not nebula.commit_log.verify_head():
            problems.append("verify_head(): head differs from the commit log")
        if nebula.index_source != "loaded":
            problems.append(f"persisted index was stale on reopen ({nebula.index_source})")
        reference = InvertedValueIndex.build(nebula.connection, nebula.searchable_columns())
        mismatches = nebula.engine.index.parity_mismatches(reference)
        if mismatches:
            problems.append(f"index parity: {len(mismatches)} mismatches, e.g. {mismatches[0]}")
        service = AnnotationService(nebula)
        for as_of, table, rowid, rows in result.pinned_samples:
            again = service.annotations_for(table, rowid, as_of=as_of)
            if again != rows:
                problems.append(f"pinned read {table}:{rowid}@{as_of} changed")
    finally:
        close_engine(nebula)
    return problems


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def quality(inputs: Inputs, result: PhaseResult) -> Tuple[float, float]:
    """Micro-averaged recall and precision of the predicted attachments
    (auto-accepted plus pending) against each request's missing links."""
    hits = truth = predicted = 0
    for outcome in result.outcomes:
        missing = {TupleRef(t, r) for t, r in inputs.requests[outcome.index].missing}
        guessed = set(outcome.predicted())
        hits += len(guessed & missing)
        truth += len(missing)
        predicted += len(guessed)
    return hits / max(truth, 1), hits / max(predicted, 1)


#: End-to-end metrics and their units (``BENCHMARK.json`` lists the same).
END_TO_END_UNITS = {
    "setup_s": "s",
    "ingest_ann_per_s": "1/s",
    "ack_p50_ms": "ms",
    "read_p50_ms": "ms",
    "asof_read_p50_ms": "ms",
    "discovery_recall": "ratio",
    "discovery_precision": "ratio",
    "peak_rss_mb": "MB",
    "store_bytes_per_ann": "B/ann",
}

#: Per-layer metrics and their units (``BENCHMARK.json`` lists the same).
PER_LAYER_UNITS = {
    "meta.value_mappings.calls_per_ann": "calls/ann",
    "meta.value_mappings.ms_per_ann": "ms/ann",
    "meta.concept_mappings.ms_per_ann": "ms/ann",
    "core.generate_queries.self_ms_per_ann": "ms/ann",
    "core.identify.self_ms_per_ann": "ms/ann",
    "core.execute_groups.ms_per_batch": "ms/batch",
    "core.shared_hit_ratio": "ratio",
    "core.spreading_scope.ms_per_ann": "ms/ann",
    "core.spreading_share": "ratio",
    "core.triage.self_ms_per_ann": "ms/ann",
    "core.shortest_hops.calls_per_ann": "calls/ann",
    "core.shortest_hops.ms_per_ann": "ms/ann",
    "search.generate.ms_per_ann": "ms/ann",
    "search.statements_per_ann": "stmts/ann",
    "search.execute.ms_per_ann": "ms/ann",
    "search.rows_per_statement": "rows/stmt",
    "perf.index_page_hit_ratio": "ratio",
    "perf.analysis_cache_hit_ratio": "ratio",
    "annotations.add.ms_per_ann": "ms/ann",
    "annotations.attach.calls_per_ann": "calls/ann",
    "annotations.attach.ms_per_ann": "ms/ann",
    "versioning.history_rows_per_ann": "rows/ann",
    "versioning.commits_per_ann": "commits/ann",
    "versioning.record.ms_per_ann": "ms/ann",
    "storage.open_reader.calls_per_read": "calls/read",
    "storage.open_reader.ms_per_read": "ms/read",
    "storage.reader_fallbacks": "count",
    "service.queue_wait.p50_ms": "ms",
    "service.queue_wait.p95_ms": "ms",
    "service.flush.ms_per_batch": "ms/batch",
    "service.ack_delay.ms_per_batch": "ms/batch",
    "service.batch_size.mean": "ann/batch",
    "service.refused": "count",
    "resilience.savepoint.ms_per_ann": "ms/ann",
    "resilience.retries": "count",
    "resilience.degradations": "count",
    "open.meta_bootstrap.ms": "ms",
    "open.migrations.ms": "ms",
    "open.index.ms": "ms",
    "open.acg_build.ms": "ms",
    "open.recover.ms": "ms",
    "open.verify_head.ms": "ms",
    "loadgen.ack.p95_ms": "ms",
    "loadgen.read.p99_ms": "ms",
    "loadgen.asof_read.p90_ms": "ms",
    "loadgen.write_late.p95_ms": "ms",
    "loadgen.read_late.p99_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


def with_units(values: Dict[str, float], units: Dict[str, str]) -> Dict[str, Dict]:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def end_to_end(setup: List[float], observed: Observed, inputs: Inputs,
               service: bool) -> Dict[str, Dict]:
    result = observed.result
    recall, precision = quality(inputs, result)
    # The closed loop's write calls take all of its write time.  The open
    # loop's wall time is set by its schedule, so its rate is taken over
    # the time the service's writer spent flushing.
    busy = observed.delta["flush_seconds"] if service else result.wall
    return with_units(
        {
            "setup_s": median(setup),
            "ingest_ann_per_s": observed.acked / busy,
            "ack_p50_ms": percentile(result.acks, 50) * 1e3,
            "read_p50_ms": percentile(result.head_reads, 50) * 1e3,
            "asof_read_p50_ms": percentile(result.pinned_reads, 50) * 1e3,
            "discovery_recall": recall,
            "discovery_precision": precision,
            "peak_rss_mb": observed.peak_rss_mb,
            "store_bytes_per_ann": observed.store_growth / (result.warmup + observed.acked),
        },
        END_TO_END_UNITS,
    )


OPEN_SPANS = (
    ("open.meta_bootstrap.ms", "open.meta_bootstrap"),
    ("open.migrations.ms", "open.migrations"),
    ("open.index.ms", "open.index"),
    ("open.acg_build.ms", "open.acg_build"),
    ("open.recover.ms", "open.recover"),
    ("open.verify_head.ms", "open.verify_head"),
)


def traced_opens(tracer: Tracer, path: str, workload: Workload) -> Dict[str, float]:
    """Median per-open milliseconds of each engine-open step."""
    samples: Dict[str, List[float]] = {name: [] for name, _span in OPEN_SPANS}
    for number in range(SETUP_OPENS):
        before = tracer.totals()
        with tracer.request(f"open-{number}"):
            cold_open(path, workload)
        after = tracer.totals()
        for name, span in OPEN_SPANS:
            took = after.get(span, (0, 0.0, 0.0))[1] - before.get(span, (0, 0.0, 0.0))[1]
            samples[name].append(took * 1e3)
    return {name: median(values) for name, values in samples.items()}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _tail(values: List[float], q: float) -> float:
    """Milliseconds at the q-th percentile; 0 where the layer was idle."""
    return percentile(values, q) * 1e3 if values else 0.0


def per_layer(
    tracer: Tracer,
    traced: Observed,
    untraced: Observed,
    opens: Dict[str, float],
    service: bool,
) -> Dict[str, Dict]:
    totals = tracer.totals()
    result = traced.result
    delta = traced.delta
    annotations = max(traced.acked, 1)
    reads = max(len(result.head_reads) + len(result.pinned_reads), 1)

    def calls(name: str) -> int:
        return totals.get(name, (0, 0.0, 0.0))[0]

    def ms(name: str) -> float:
        return totals.get(name, (0, 0.0, 0.0))[1] * 1e3

    def self_ms(name: str) -> float:
        return totals.get(name, (0, 0.0, 0.0))[2] * 1e3

    statements = calls("search.execute")
    spreading = sum(1 for outcome in result.outcomes if outcome.mode == "spreading")
    batches = {
        request_id: (size, start, end)
        for request_id, size, start, end in tracer.events("insert_annotations")
        if request_id is not None
    }
    # Service layer: joined on the batch id the writer passes to
    # insert_annotations.
    last_succeed: Dict[str, float] = {}
    for batch_id, when in tracer.events("succeed"):
        last_succeed[batch_id] = max(when, last_succeed.get(batch_id, when))
    flushed = [b for b in batches if b in last_succeed]
    waits = [batches[b][1] - submitted for submitted, b in result.submissions if b in batches]
    late = untraced.result
    # Closed loops do the same work on both sides, so wall time compares;
    # the open loop's wall time is set by its schedule, so CPU time does.
    overhead = _ratio(result.cpu, late.cpu) if service else _ratio(result.wall, late.wall)
    values = {
        "meta.value_mappings.calls_per_ann": calls("meta.value_mappings") / annotations,
        "meta.value_mappings.ms_per_ann": ms("meta.value_mappings") / annotations,
        "meta.concept_mappings.ms_per_ann": ms("meta.concept_mappings") / annotations,
        "core.generate_queries.self_ms_per_ann": self_ms("core.generate_queries") / annotations,
        "core.identify.self_ms_per_ann": self_ms("core.identify") / annotations,
        "core.execute_groups.ms_per_batch": _ratio(
            ms("core.execute_groups"), calls("core.execute_groups")),
        "core.shared_hit_ratio": _ratio(
            tracer.counter("shared.saved"), tracer.counter("shared.total_sql")),
        "core.spreading_scope.ms_per_ann": ms("core.spreading_scope") / annotations,
        "core.spreading_share": spreading / annotations,
        "core.triage.self_ms_per_ann": self_ms("core.triage") / annotations,
        "core.shortest_hops.calls_per_ann": calls("core.shortest_hops") / annotations,
        "core.shortest_hops.ms_per_ann": ms("core.shortest_hops") / annotations,
        "search.generate.ms_per_ann": ms("search.generate") / annotations,
        "search.statements_per_ann": statements / annotations,
        "search.execute.ms_per_ann": ms("search.execute") / annotations,
        "search.rows_per_statement": _ratio(tracer.counter("search.rows"), statements),
        "perf.index_page_hit_ratio": _ratio(
            delta["page_hits"], delta["page_hits"] + delta["page_misses"]),
        "perf.analysis_cache_hit_ratio": _ratio(
            delta["cache_hits"], delta["cache_hits"] + delta["cache_misses"]),
        "annotations.add.ms_per_ann": ms("annotations.add") / annotations,
        "annotations.attach.calls_per_ann": calls("annotations.attach") / annotations,
        "annotations.attach.ms_per_ann": ms("annotations.attach") / annotations,
        "versioning.history_rows_per_ann": delta["history_rows"] / annotations,
        "versioning.commits_per_ann": delta["commits"] / annotations,
        "versioning.record.ms_per_ann": ms("versioning.record") / annotations,
        "storage.open_reader.calls_per_read": calls("storage.open_reader") / reads,
        "storage.open_reader.ms_per_read": ms("storage.open_reader") / reads,
        "storage.reader_fallbacks": delta["reader_fallbacks"],
        "service.queue_wait.p50_ms": _tail(waits, 50),
        "service.queue_wait.p95_ms": _tail(waits, 95),
        "service.flush.ms_per_batch": mean(
            [last_succeed[b] - batches[b][1] for b in flushed]) * 1e3,
        "service.ack_delay.ms_per_batch": mean(
            [last_succeed[b] - batches[b][2] for b in flushed]) * 1e3,
        "service.batch_size.mean": mean([batches[b][0] for b in flushed]),
        "service.refused": float(result.refused),
        "resilience.savepoint.ms_per_ann": ms("resilience.savepoint") / annotations,
        "resilience.retries": delta["retries"],
        "resilience.degradations": delta["degradations"],
        "loadgen.ack.p95_ms": _tail(late.acks, 95),
        "loadgen.read.p99_ms": _tail(late.head_reads, 99),
        "loadgen.asof_read.p90_ms": _tail(late.pinned_reads, 90),
        "loadgen.write_late.p95_ms": _tail(late.write_late, 95),
        "loadgen.read_late.p99_ms": _tail(late.read_late, 99),
        "trace.overhead_ratio": overhead,
    }
    values.update(opens)
    return with_units(values, PER_LAYER_UNITS)


# ----------------------------------------------------------------------


def fresh_copy(prepared: str, name: str) -> str:
    target = os.path.join(os.path.dirname(prepared), name)
    shutil.copyfile(prepared, target)
    return target


class RunReport:
    """What the measuring process prints: metrics, or why there are none."""

    def __init__(self) -> None:
        self.problems: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.status = 0

    def count(self, observed: Observed) -> None:
        self.attempted += observed.result.attempted
        self.failed += observed.result.failed

    def report(self, metrics: Callable[[], Dict[str, Dict]]) -> Dict:
        """The result object; ``metrics`` is called only for a run that
        passed its gate, and one that cannot name a percentile fails."""
        values: Dict[str, Dict] = {}
        if self.problems:
            self.status = EXIT_INCORRECT
        else:
            try:
                values = metrics()
            except TooFewSamples as error:
                self.problems.append(f"too few samples to name a percentile: {error}")
                self.status = EXIT_TOO_FEW_SAMPLES
        for problem in self.problems:
            print(problem, file=sys.stderr)
        return {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": values,
        }


def measure(args: argparse.Namespace) -> Tuple[Dict, int]:
    workload = WORKLOADS[args.workload]
    prepared = os.path.join(args.dir, "world.db")
    service = workload.service
    # Set-up is timed before the request stream is loaded, so the
    # harness's memory is not on the heap the opens collect.
    setup = [] if args.trace else [cold_open(prepared, workload) for _ in range(SETUP_OPENS)]
    inputs = load_inputs(os.path.join(args.dir, "inputs.json"))
    report = RunReport()

    def checked(observed: Observed, path: str) -> Observed:
        for error in observed.result.errors:
            print(f"failed operation: {error}", file=sys.stderr)
        report.problems.extend(f"correctness gate: {p}" for p in gate(path, inputs, observed))
        report.count(observed)
        return observed

    if not args.trace:
        observed = checked(*run_phase(workload, prepared, inputs, args.seconds, None, "phase.db"))
        result = report.report(lambda: end_to_end(setup, observed, inputs, service))
        return result, report.status

    # Traced run.  annotate-long does a fixed amount of work, so its
    # counts repeat exactly from run to run, paired with the same work
    # untraced; serve-mixed keeps its schedule, untraced then traced.
    tracer = Tracer()
    with tracer.installed(install_layers):
        opens = traced_opens(tracer, prepared, workload)
    tracer.reset()
    if service:
        untraced = checked(*run_phase(workload, prepared, inputs, args.seconds, None,
                                      "untraced.db"))
        with tracer.installed(install_layers):
            traced = checked(*run_phase(workload, prepared, inputs, args.seconds, tracer,
                                        "traced.db"))
    else:
        untraced, traced = run_paired(
            workload, prepared, inputs, tracer, workload.traced_count(args.seconds)
        )
        checked(untraced, os.path.join(args.dir, "untraced.db"))
        checked(traced, os.path.join(args.dir, "traced.db"))
    if args.spans:
        tracer.write_spans(args.spans)
    result = report.report(lambda: per_layer(tracer, traced, untraced, opens, service))
    return result, report.status


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--dir", required=True, help="holds world.db and inputs.json")
    parser.add_argument("--spans", help="write the traced run's retained spans here")
    args = parser.parse_args(argv)
    result, status = measure(args)
    print(json.dumps(result))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
