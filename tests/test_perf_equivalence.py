"""Equivalence properties of the ingestion fast paths.

The ingestion optimizations — batched ingestion with cross-annotation
shared execution and the versioned analysis cache — are pure *speed*
changes: the paper's sharing techniques "produce the same number of
output tuples" (Fig. 13), and this module pins that contract down as
executable properties.  Every test compares a
fast path against the plain sequential path on identically generated
worlds and requires byte-identical reports (candidates, confidences,
provenance, triage decisions) and identical logical database state.

Only surrogate ``attachment_id`` numbering may differ between the paths
(Stage-0 bulk writes all focal edges before any predicted edge, where
sequential ingestion interleaves them), so database state is compared on
attachment *content*, not ids.
"""

from __future__ import annotations

import pytest

from repro import (
    BioDatabaseSpec,
    Nebula,
    NebulaConfig,
    generate_bio_database,
)
from repro.core.shared_execution import SharedExecutor
from repro.datagen.workload import WorkloadSpec, generate_workload
from repro.errors import PipelineStageError
from repro.perf import AnnotationRequest
from repro.resilience.degradation import EXECUTOR_FALLBACK
from repro.resilience.faults import FaultInjector
from repro.search.engine import KeywordQuery, SearchScope
from repro.types import TupleRef

SPEC = BioDatabaseSpec(genes=60, proteins=36, publications=240, seed=11)
WORKLOAD = WorkloadSpec(seed=61)


def fresh_world(config=None):
    """A generated database plus an engine — deterministic per SPEC."""
    db = generate_bio_database(SPEC)
    nebula = Nebula(
        db.backend,
        db.meta,
        config or NebulaConfig(epsilon=0.6),
        aliases=db.aliases,
    )
    return db, nebula


def sample_requests(db, count=10):
    workload = generate_workload(db, WORKLOAD)
    return [
        AnnotationRequest.build(a.text, a.focal(1))
        for a in workload.annotations[:count]
    ]


def report_key(report):
    """Everything observable about one ingestion, minus wall-clock."""
    return (
        report.annotation_id,
        report.mode,
        tuple(q.keywords for q in report.generation.queries),
        tuple(
            (c.ref, round(c.confidence, 12), c.provenance)
            for c in report.candidates
        ),
        tuple(
            (t.task_id, t.ref, round(t.confidence, 12), t.decision.value, t.evidence)
            for t in report.tasks
        ),
        report.spam_verdict.is_spam if report.spam_verdict is not None else None,
    )


def annotation_rows(connection):
    return connection.execute(
        "SELECT annotation_id, content, author FROM _nebula_annotations "
        "ORDER BY annotation_id"
    ).fetchall()


def attachment_content(connection):
    """Attachment edges modulo the surrogate ``attachment_id``."""
    return sorted(
        tuple(row)
        for row in connection.execute(
            "SELECT annotation_id, target_table, target_rowid, target_rowid_hi, "
            "target_column, confidence, kind FROM _nebula_attachments"
        )
    )


def world_state(nebula):
    return {
        "annotations": annotation_rows(nebula.connection),
        "attachments": attachment_content(nebula.connection),
        "acg_edges": nebula.acg.edge_count,
        "acg_nodes": nebula.acg.node_count,
        "pending": [t.task_id for t in nebula.pending_tasks()],
    }


# ----------------------------------------------------------------------
# Batched vs sequential ingestion
# ----------------------------------------------------------------------


class TestBatchEquivalence:
    def test_batch_matches_sequential(self):
        _, sequential = fresh_world()
        db2, batched = fresh_world()
        requests = sample_requests(db2)

        seq_reports = [
            sequential.insert_annotation(
                r.text, attach_to=r.focal, author=r.author
            )
            for r in requests
        ]
        batch_reports = batched.insert_annotations(requests)

        assert [report_key(r) for r in batch_reports] == [
            report_key(r) for r in seq_reports
        ]
        assert world_state(batched) == world_state(sequential)
        # The pooled pass actually shared work across annotations.
        assert batched.executor.last_stats.saved_statements > 0

    def test_single_member_batch_matches_insert(self):
        _, sequential = fresh_world()
        db2, batched = fresh_world()
        (request,) = sample_requests(db2, count=1)

        seq_report = sequential.insert_annotation(request.text, attach_to=request.focal)
        (batch_report,) = batched.insert_annotations([request])

        assert report_key(batch_report) == report_key(seq_report)
        assert world_state(batched) == world_state(sequential)

    def test_empty_batch_is_a_noop(self, bio_nebula):
        before = bio_nebula.manager.store.count_annotations()
        assert bio_nebula.insert_annotations([]) == []
        assert bio_nebula.manager.store.count_annotations() == before

    def test_bare_strings_are_accepted(self, bio_nebula):
        (report,) = bio_nebula.insert_annotations(["a note about nothing much"])
        assert report.annotation_id is not None
        assert report.focal == ()

    def test_batch_matches_sequential_with_spreading(self):
        _, sequential = fresh_world()
        db2, batched = fresh_world()
        requests = sample_requests(db2, count=6)

        seq_reports = [
            sequential.insert_annotation(
                r.text, attach_to=r.focal, use_spreading=True, radius=2
            )
            for r in requests
        ]
        batch_reports = batched.insert_annotations(
            requests, use_spreading=True, radius=2
        )

        assert all(r.mode == "spreading" for r in batch_reports)
        assert [report_key(r) for r in batch_reports] == [
            report_key(r) for r in seq_reports
        ]
        assert world_state(batched) == world_state(sequential)


# ----------------------------------------------------------------------
# Shared execution under a scope / executor fallback
# ----------------------------------------------------------------------


class TestSharedExecutionEquivalence:
    def queries(self):
        return [
            KeywordQuery(("gene", "JW0013"), label="q1"),
            KeywordQuery(("gene", "JW0014"), label="q2"),
            KeywordQuery(("protein", "Ligase42"), label="q3"),
            KeywordQuery(("family", "F1"), label="q4"),
        ]

    def test_scoped_group_matches_isolated_search(self, figure1_backend, figure1_meta):
        nebula = Nebula(figure1_backend, figure1_meta, NebulaConfig(epsilon=0.6))
        scope = SearchScope.from_refs(
            [TupleRef("Gene", rowid) for rowid in (1, 2, 3)]
            + [TupleRef("Protein", 2)]
        )
        executor = SharedExecutor(nebula.engine)
        shared = executor.search_all(self.queries(), scope)
        for query in self.queries():
            isolated = nebula.engine.search(query, scope)
            assert shared[query.describe()].tuples == isolated.tuples

    def test_unscoped_group_matches_isolated_search(self, bio_nebula):
        queries = self.queries()
        executor = SharedExecutor(bio_nebula.engine)
        shared = executor.search_all(queries)
        for query in queries:
            assert shared[query.describe()].tuples == bio_nebula.engine.search(query).tuples

    def test_executor_fault_falls_back_with_identical_results(self):
        _, clean = fresh_world()
        faults = FaultInjector()
        db2, degraded = fresh_world(
            NebulaConfig(epsilon=0.6, fault_injector=faults)
        )
        *batch, single = sample_requests(db2, count=5)

        def ingest(nebula):
            return nebula.insert_annotations(batch) + [
                nebula.insert_annotation(single.text, attach_to=single.focal)
            ]

        clean_reports = ingest(clean)
        faults.arm("executor.run", times=2)
        degraded_reports = ingest(degraded)

        # Both calls, the batch and the single insert, took the fallback.
        assert faults.fired("executor.run") == 2
        assert all(EXECUTOR_FALLBACK in r.degradations for r in degraded_reports)
        stripped = [report_key(r) for r in degraded_reports]
        assert stripped == [report_key(r) for r in clean_reports]
        assert world_state(degraded) == world_state(clean)


# ----------------------------------------------------------------------
# Analysis cache
# ----------------------------------------------------------------------


class TestCacheEquivalence:
    def test_cached_analysis_matches_uncached(self):
        db, _ = fresh_world()
        uncached = Nebula(
            db.backend,
            db.meta,
            NebulaConfig(epsilon=0.6, analysis_cache_size=0),
            aliases=db.aliases,
        )
        cached = Nebula(
            db.backend, db.meta, NebulaConfig(epsilon=0.6), aliases=db.aliases
        )
        workload = generate_workload(db, WORKLOAD)
        texts = [(a.text, a.focal(1)) for a in workload.annotations[:8]]
        for _round in range(2):  # second round runs hot
            for text, focal in texts:
                plain = uncached.analyze(text, focal=focal)
                hot = cached.analyze(text, focal=focal)
                assert [
                    (c.ref, round(c.confidence, 12)) for c in hot.candidates
                ] == [(c.ref, round(c.confidence, 12)) for c in plain.candidates]
        assert uncached.analysis_cache.enabled is False
        assert cached.analysis_cache.stats.hits > 0

    def test_cache_invalidates_on_new_row(self, bio_nebula, bio_db):
        engine = bio_nebula.engine
        gid = bio_db.genes[0].gid
        before = engine.mapper.map_keyword(gid)
        hits_before = bio_nebula.analysis_cache.stats.hits
        assert engine.mapper.map_keyword(gid) == before
        assert bio_nebula.analysis_cache.stats.hits > hits_before

        # Mutate the index: the stale entry must be dropped, and the new
        # posting must be visible to the recomputed mapping.
        cursor = bio_nebula.connection.execute(
            "INSERT INTO Gene (GID, Name, Length, Seq, Family) "
            "VALUES ('JW9321', 'zzzQ', 1, 'A', 'F1')"
        )
        engine.index.add_row("Gene", "GID", cursor.lastrowid, "JW9321")
        invalidations_before = bio_nebula.analysis_cache.stats.invalidations
        engine.mapper.map_keyword(gid)
        assert (
            bio_nebula.analysis_cache.stats.invalidations > invalidations_before
        )
        fresh = engine.mapper.map_keyword("JW9321")
        assert any(
            m.kind.value == "value" and m.table == "Gene" for m in fresh
        )


# ----------------------------------------------------------------------
# Failure atomicity
# ----------------------------------------------------------------------


class TestBatchRollback:
    def snapshot(self, nebula):
        return {
            "annotations": nebula.manager.store.count_annotations(),
            "attachments": nebula.manager.store.count_attachments(),
            "acg_nodes": nebula.acg.node_count,
            "acg_edges": nebula.acg.edge_count,
        }

    def test_member_fault_rolls_back_whole_batch(self):
        faults = FaultInjector()
        db, nebula = fresh_world(NebulaConfig(epsilon=0.6, fault_injector=faults))
        requests = sample_requests(db, count=3)
        before = self.snapshot(nebula)

        faults.arm("queue.triage")
        with pytest.raises(PipelineStageError) as exc_info:
            nebula.insert_annotations(requests)

        assert exc_info.value.stage == "queue.triage"
        assert self.snapshot(nebula) == before
        # One dead letter per request, so a replay reconstructs the batch.
        assert nebula.dead_letters.count("pending") == len(requests)
        assert exc_info.value.dead_letter_id is not None

        replayed = nebula.reprocess_dead_letters()
        assert len(replayed) == len(requests)
        assert nebula.manager.store.count_annotations() == (
            before["annotations"] + len(requests)
        )

    def test_stability_tracker_untouched_by_failed_batch(self):
        faults = FaultInjector()
        db, nebula = fresh_world(NebulaConfig(epsilon=0.6, fault_injector=faults))
        history_before = list(nebula.stability.history)
        faults.arm("queue.triage")
        with pytest.raises(PipelineStageError):
            nebula.insert_annotations(sample_requests(db, count=2))
        assert nebula.stability.history == history_before
