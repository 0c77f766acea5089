"""Unit + integration tests for repro.observability (tracing PR).

Covers span nesting, JSONL export round-trips, histogram bucket edges,
the no-op tracer's zero-side-effect guarantee, registry snapshots, and
the end-to-end trace shape of a traced ingestion.
"""

import json

import pytest

from repro import NebulaConfig, Nebula, generate_bio_database
from repro.datagen.biodb import BioDatabaseSpec
from repro.observability import (
    NOOP_TRACER,
    Counter,
    Gauge,
    Histogram,
    JsonlExporter,
    MetricsRegistry,
    NoopTracer,
    RingBufferExporter,
    SqlProfiler,
    Tracer,
    encode_key,
    format_trace,
    non_zero_counters,
    read_jsonl_traces,
    set_metrics,
    span_names,
    validate_trace_file,
)
from repro.observability.profiling import OVERFLOW_KEY


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------


class TestTracer:
    def test_span_nesting(self):
        ring = RingBufferExporter()
        tracer = Tracer([ring])
        with tracer.span("root") as root:
            root.set_attribute("id", 7)
            with tracer.span("child1"):
                with tracer.span("grandchild"):
                    pass
            with tracer.span("child2") as child2:
                child2.set_attribute("rows", 3)
        (trace,) = ring.last(1)
        assert span_names(trace) == ["root", "child1", "grandchild", "child2"]
        assert trace["attributes"] == {"id": 7}
        assert trace["children"][1]["attributes"] == {"rows": 3}
        assert trace["duration_ms"] >= 0.0
        assert "timestamp" in trace
        assert tracer.depth == 0
        assert tracer.last_trace is trace

    def test_only_root_span_exports(self):
        ring = RingBufferExporter()
        tracer = Tracer([ring])
        with tracer.span("root"):
            with tracer.span("inner"):
                pass
            assert len(ring) == 0  # inner close must not export
        assert len(ring) == 1

    def test_exception_recorded_and_reraised(self):
        ring = RingBufferExporter()
        tracer = Tracer([ring])
        with pytest.raises(ValueError):
            with tracer.span("root"):
                with tracer.span("inner"):
                    raise ValueError("boom")
        (trace,) = ring.last(1)
        assert "boom" in trace["children"][0]["attributes"]["error"]
        assert tracer.depth == 0  # stack fully unwound

    def test_broken_exporter_does_not_sink_the_span(self):
        class Broken:
            def export(self, record):
                raise RuntimeError("exporter down")

        ring = RingBufferExporter()
        tracer = Tracer([Broken(), ring])
        with tracer.span("root"):
            pass
        assert len(ring) == 1  # later exporters still ran

    def test_ring_buffer_capacity_and_order(self):
        ring = RingBufferExporter(capacity=2)
        tracer = Tracer([ring])
        for name in ("a", "b", "c"):
            with tracer.span(name):
                pass
        assert [t["name"] for t in ring.last(5)] == ["b", "c"]
        assert ring.last(0) == []


class TestNoopTracer:
    def test_zero_side_effects(self):
        tracer = NoopTracer()
        span = tracer.span("anything")
        with span as inner:
            inner.set_attribute("ignored", 1)
        assert tracer.span("x") is tracer.span("y")  # shared singleton
        assert tracer.last_trace is None
        assert tracer.depth == 0
        assert not tracer.enabled
        assert not NOOP_TRACER.enabled

    def test_exceptions_propagate(self):
        with pytest.raises(RuntimeError):
            with NOOP_TRACER.span("x"):
                raise RuntimeError("boom")


class TestJsonlRoundTrip:
    def test_export_and_read_back(self, tmp_path):
        path = str(tmp_path / "sub" / "traces.jsonl")
        tracer = Tracer([JsonlExporter(path)])
        for i in range(3):
            with tracer.span(f"root{i}") as root:
                root.set_attribute("i", i)
                with tracer.span("child"):
                    pass
        traces = read_jsonl_traces(path)
        assert [t["name"] for t in traces] == ["root0", "root1", "root2"]
        assert traces[2]["attributes"] == {"i": 2}
        assert validate_trace_file(path, minimum=3)

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"name": "ok", "children": []}\nnot json\n')
        with pytest.raises(ValueError, match="malformed"):
            read_jsonl_traces(str(path))

    def test_record_missing_name_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"no_name": true}\n')
        with pytest.raises(ValueError, match="missing 'name'"):
            read_jsonl_traces(str(path))

    def test_validate_rejects_missing_empty_and_flat(self, tmp_path):
        with pytest.raises(ValueError, match="does not exist"):
            validate_trace_file(str(tmp_path / "nope.jsonl"))
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(ValueError, match="expected >="):
            validate_trace_file(str(empty))
        flat = tmp_path / "flat.jsonl"
        flat.write_text(json.dumps({"name": "root", "children": []}) + "\n")
        with pytest.raises(ValueError, match="no nested spans"):
            validate_trace_file(str(flat))

    def test_format_trace_renders_the_tree(self):
        record = {
            "name": "root",
            "duration_ms": 1.5,
            "attributes": {"id": 1},
            "children": [
                {"name": "child", "duration_ms": 0.5, "attributes": {}, "children": []}
            ],
        }
        lines = format_trace(record)
        assert lines[0] == "root  1.5ms  [id=1]"
        assert lines[1] == "  child  0.5ms"


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


class TestInstruments:
    def test_counter_is_monotonic(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = Gauge()
        gauge.set(5)
        gauge.inc()
        gauge.dec(2)
        assert gauge.value == 4

    def test_histogram_bucket_edges(self):
        histogram = Histogram((1, 2, 5))
        for value in (0.5, 1.0, 1.001, 2.0, 5.0, 5.001):
            histogram.observe(value)
        # le semantics: a value equal to a bound lands in that bucket.
        assert histogram.bucket_counts() == {
            "1.0": 2,   # 0.5, 1.0
            "2.0": 2,   # 1.001, 2.0
            "5.0": 1,   # 5.0
            "+Inf": 1,  # 5.001
        }
        assert histogram.count == 6
        assert histogram.sum == pytest.approx(14.502)
        assert histogram.mean == pytest.approx(14.502 / 6)

    def test_histogram_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            Histogram(())
        with pytest.raises(ValueError):
            Histogram((1, 1))
        with pytest.raises(ValueError):
            Histogram((2, 1))

    def test_encode_key_is_canonical(self):
        assert encode_key("m") == "m"
        assert (
            encode_key("m", {"b": "2", "a": "1"})
            == 'm{a="1",b="2"}'
        )


class TestRegistry:
    def test_get_or_create_identity(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")
        assert registry.counter("c", {"x": "1"}) is not registry.counter("c")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h", (1, 2)) is registry.histogram("h", (1, 2))

    def test_snapshot_restore_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("c", {"k": "v"}).inc(3)
        registry.gauge("g").set(7)
        registry.histogram("h", (1, 2)).observe(1.5)
        snapshot = registry.snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot  # serializable

        restored = MetricsRegistry()
        restored.restore(snapshot)
        assert restored.snapshot() == snapshot
        restored.counter("c", {"k": "v"}).inc()
        assert restored.snapshot()["counters"]['c{k="v"}'] == 4

    def test_non_zero_counters_helper(self):
        registry = MetricsRegistry()
        registry.counter("zero")
        registry.counter("hit").inc()
        assert non_zero_counters(registry.snapshot()) == ["hit"]

    def test_reset(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.reset()
        assert registry.snapshot()["counters"] == {}

    def test_set_metrics_swaps_the_default(self):
        from repro.observability import get_metrics

        mine = MetricsRegistry()
        previous = set_metrics(mine)
        try:
            assert get_metrics() is mine
        finally:
            set_metrics(previous)
        assert get_metrics() is previous


class TestSqlProfiler:
    def test_aggregates_per_statement(self):
        profiler = SqlProfiler()
        profiler.record("SELECT 1", 0.010, 5)
        profiler.record("SELECT 1", 0.020, 7)
        profiler.record("SELECT 2", 0.001, 1)
        (top,) = profiler.top(1)
        assert top.sql == "SELECT 1"
        assert top.calls == 2
        assert top.rows == 12
        assert top.total_seconds == pytest.approx(0.030)
        assert profiler.statement_count == 2
        assert profiler.total_calls == 3

    def test_overflow_collapses_into_other(self):
        profiler = SqlProfiler(max_statements=2)
        profiler.record("a", 0.001, 1)
        profiler.record("b", 0.001, 1)
        profiler.record("c", 0.001, 1)
        profiler.record("d", 0.001, 1)
        assert profiler.statement_count == 3  # a, b, <other>
        overflow = {p.sql: p for p in profiler.top(10)}[OVERFLOW_KEY]
        assert overflow.calls == 2


# ----------------------------------------------------------------------
# End-to-end: a traced ingestion
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def traced_setup(tmp_path_factory):
    db = generate_bio_database(
        BioDatabaseSpec(genes=30, proteins=18, publications=100, seed=13)
    )
    trace_path = str(tmp_path_factory.mktemp("traces") / "run.jsonl")
    registry = MetricsRegistry()
    previous = set_metrics(registry)
    nebula = Nebula(
        db.backend,
        db.meta,
        NebulaConfig(epsilon=0.6, tracing=True, trace_path=trace_path),
        aliases=db.aliases,
    )
    genes, _ = db.community_members(0)
    report = nebula.insert_annotation(
        f"We looked into gene {genes[1].gid} during the assay.",
        attach_to=[db.resolve("gene", genes[0].gid)],
        author="alice",
    )
    set_metrics(previous)
    return db, nebula, report, trace_path


class TestTracedPipeline:
    def test_trace_tree_shape(self, traced_setup):
        _, _, report, _ = traced_setup
        assert report.trace is not None
        assert report.trace["name"] == "insert_annotation"
        # A full-search insert is a one-member batch: its Stage 1-3 spans
        # hang directly off the root, with no analyze umbrella.
        assert [c["name"] for c in report.trace["children"]] == [
            "stage0.store",
            "stage1.maps",
            "stage1.context",
            "stage1.queries",
            "stage2.batch_execute",
            "stage3.curate",
        ]
        assert "analyze" not in span_names(report.trace)
        assert report.trace["attributes"]["annotation_id"] == report.annotation_id

    def test_spreading_insert_nests_analyze(self):
        db = generate_bio_database(
            BioDatabaseSpec(genes=30, proteins=18, publications=100, seed=13)
        )
        registry = MetricsRegistry()
        previous = set_metrics(registry)
        try:
            nebula = Nebula(
                db.backend,
                db.meta,
                NebulaConfig(epsilon=0.6, tracing=True),
                aliases=db.aliases,
                metrics=registry,
            )
            genes, _ = db.community_members(0)
            report = nebula.insert_annotation(
                f"Gene {genes[2].gid} again.",
                attach_to=[db.resolve("gene", genes[0].gid)],
                use_spreading=True,
                radius=2,
            )
        finally:
            set_metrics(previous)
        assert report.mode == "spreading"
        assert [c["name"] for c in report.trace["children"]] == [
            "stage0.store",
            "analyze",
            "stage3.curate",
        ]
        analyze = report.trace["children"][1]
        assert [c["name"] for c in analyze["children"]] == [
            "stage1.maps",
            "stage1.context",
            "stage1.queries",
            "stage2.execute",
        ]

    def test_trace_persisted_and_buffered(self, traced_setup):
        _, nebula, report, trace_path = traced_setup
        traces = validate_trace_file(trace_path)
        assert traces[-1]["attributes"]["annotation_id"] == report.annotation_id
        assert nebula.trace_buffer is not None
        assert nebula.trace_buffer.last(1)[0] == report.trace

    def test_metrics_snapshot_on_report(self, traced_setup):
        _, _, report, _ = traced_setup
        assert report.metrics is not None
        hits = non_zero_counters(report.metrics)
        for key in (
            "nebula_annotations_ingested_total",
            "nebula_queries_generated_total",
            "nebula_sql_statements_total",
            "nebula_tuples_scored_total",
        ):
            assert key in hits

    def test_sql_profiler_saw_the_statements(self, traced_setup):
        _, nebula, _, _ = traced_setup
        assert nebula.engine.profiler.total_calls >= 1
        assert nebula.engine.profiler.top(1)[0].calls >= 1

    def test_nested_analyze_does_not_export_its_own_trace(self, traced_setup):
        _, nebula, _, trace_path = traced_setup
        before = len(read_jsonl_traces(trace_path))
        report = nebula.analyze("gene JW0001 mentioned here")
        after = read_jsonl_traces(trace_path)
        # The standalone analyze IS a root: exactly one new trace.
        assert len(after) == before + 1
        assert after[-1]["name"] == "analyze"
        assert report.trace == after[-1]


class TestDisabledByDefault:
    def test_default_engine_has_no_trace(self):
        db = generate_bio_database(
            BioDatabaseSpec(genes=20, proteins=12, publications=60, seed=5)
        )
        registry = MetricsRegistry()
        previous = set_metrics(registry)
        try:
            nebula = Nebula(
                db.backend, db.meta, NebulaConfig(epsilon=0.6),
                aliases=db.aliases,
            )
            assert nebula.tracer is NOOP_TRACER
            assert nebula.trace_buffer is None
            genes, _ = db.community_members(0)
            report = nebula.insert_annotation(
                f"gene {genes[1].gid} discussed.",
                attach_to=[db.resolve("gene", genes[0].gid)],
            )
            assert report.trace is None
            assert report.metrics is None
            # Metrics still flow (they are always-on and cheap).
            assert "nebula_annotations_ingested_total" in non_zero_counters(
                registry.snapshot()
            )
        finally:
            set_metrics(previous)
