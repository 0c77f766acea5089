"""Unit tests for verification tasks, triage, and expert resolution."""

import pytest

from repro.annotations.engine import AnnotationManager
from repro.core.acg import AnnotationsConnectivityGraph, HopProfile
from repro.core.verification import Decision, VerificationQueue
from repro.errors import UnknownVerificationTaskError, VerificationError
from repro.types import CellRef, ScoredTuple, TupleRef

from conftest import build_figure1_connection


def _world():
    connection = build_figure1_connection()
    manager = AnnotationManager(connection)
    acg = AnnotationsConnectivityGraph()
    profile = HopProfile()
    queue = VerificationQueue(manager, acg=acg, profile=profile)
    annotation = manager.add_annotation("note", attach_to=[CellRef("Gene", 1)])
    acg.add_attachment(annotation.annotation_id, TupleRef("Gene", 1))
    # Seed the ACG so hop distances are defined: Gene#1 - Gene#2.
    acg.add_attachment(77, TupleRef("Gene", 1))
    acg.add_attachment(77, TupleRef("Gene", 2))
    return manager, acg, profile, queue, annotation


@pytest.fixture
def world():
    return _world()


def _candidates():
    return [
        ScoredTuple(TupleRef("Gene", 2), 0.95, ("q1",)),   # auto-accept
        ScoredTuple(TupleRef("Gene", 3), 0.60, ("q2",)),   # pending
        ScoredTuple(TupleRef("Gene", 4), 0.10, ("q3",)),   # auto-reject
    ]


class TestTriage:
    def test_banding(self, world):
        manager, acg, profile, queue, annotation = world
        tasks = queue.triage(
            annotation.annotation_id, _candidates(), beta_lower=0.32, beta_upper=0.86
        )
        decisions = {t.ref.rowid: t.decision for t in tasks}
        assert decisions[2] is Decision.AUTO_ACCEPTED
        assert decisions[3] is Decision.PENDING
        assert decisions[4] is Decision.AUTO_REJECTED

    def test_focal_candidates_skipped(self, world):
        manager, acg, profile, queue, annotation = world
        tasks = queue.triage(
            annotation.annotation_id,
            [ScoredTuple(TupleRef("Gene", 1), 1.0, ())],
            beta_lower=0.32,
            beta_upper=0.86,
        )
        assert tasks == []

    def test_auto_accept_attaches_true(self, world):
        manager, acg, profile, queue, annotation = world
        queue.triage(annotation.annotation_id, _candidates(), 0.32, 0.86)
        assert TupleRef("Gene", 2) in manager.focal_of(annotation.annotation_id)

    def test_auto_accept_updates_acg_and_profile(self, world):
        manager, acg, profile, queue, annotation = world
        queue.triage(annotation.annotation_id, _candidates(), 0.32, 0.86)
        # The accepted tuple now shares the annotation with the focal.
        assert annotation.annotation_id in acg.annotations_of(TupleRef("Gene", 2))
        # Gene#2 was 1 hop from the focal before the acceptance.
        assert profile.buckets.get(1) == 1

    def test_auto_accept_creates_new_acg_edge(self, world):
        manager, acg, profile, queue, annotation = world
        edges_before = acg.edge_count
        queue.triage(
            annotation.annotation_id,
            [ScoredTuple(TupleRef("Gene", 7), 0.95, ())],  # no prior edge
            0.32,
            0.86,
        )
        assert acg.edge_count == edges_before + 1

    def test_pending_stores_predicted_edge(self, world):
        manager, acg, profile, queue, annotation = world
        queue.triage(annotation.annotation_id, _candidates(), 0.32, 0.86)
        predicted = manager.pending_predicted(annotation.annotation_id)
        assert [a.tuple_ref for a in predicted] == [TupleRef("Gene", 3)]

    def test_rejected_leaves_no_edge(self, world):
        manager, acg, profile, queue, annotation = world
        queue.triage(annotation.annotation_id, _candidates(), 0.32, 0.86)
        assert TupleRef("Gene", 4) not in manager.focal_of(annotation.annotation_id)

    def test_invalid_bounds(self, world):
        manager, acg, profile, queue, annotation = world
        with pytest.raises(VerificationError):
            queue.triage(annotation.annotation_id, [], 0.9, 0.3)

    def test_boundary_values_go_to_pending(self, world):
        manager, acg, profile, queue, annotation = world
        tasks = queue.triage(
            annotation.annotation_id,
            [ScoredTuple(TupleRef("Gene", 5), 0.32, ()),
             ScoredTuple(TupleRef("Gene", 6), 0.86, ())],
            beta_lower=0.32,
            beta_upper=0.86,
        )
        assert all(t.decision is Decision.PENDING for t in tasks)


class TestExpertResolution:
    def test_verify_promotes(self, world):
        manager, acg, profile, queue, annotation = world
        tasks = queue.triage(annotation.annotation_id, _candidates(), 0.32, 0.86)
        pending = next(t for t in tasks if t.decision is Decision.PENDING)
        resolved = queue.verify(pending.task_id)
        assert resolved.decision is Decision.VERIFIED
        assert TupleRef("Gene", 3) in manager.focal_of(annotation.annotation_id)
        assert queue.pending(annotation.annotation_id) == []

    def test_verify_after_a_reopen_records_the_continuous_hop(self):
        # Gene#3 is two hops from the focal Gene#1 and one from Gene#2,
        # which triage auto-accepts: a verify measures from the focal
        # triage saw, in the process that triaged or in a new one.
        recorded = []
        for reopen in (False, True):
            manager, acg, profile, queue, annotation = _world()
            acg.add_attachment(78, TupleRef("Gene", 2))
            acg.add_attachment(78, TupleRef("Gene", 3))
            tasks = queue.triage(annotation.annotation_id, _candidates(), 0.32, 0.86)
            pending = next(t for t in tasks if t.decision is Decision.PENDING)
            after_triage = dict(profile.buckets)
            if reopen:
                queue = VerificationQueue(manager, acg=acg, profile=profile)
            queue.verify(pending.task_id)
            recorded.append(
                {h: n - after_triage.get(h, 0) for h, n in profile.buckets.items()
                 if n != after_triage.get(h, 0)}
            )
        assert recorded == [{2: 1}, {2: 1}]

    def test_true_edge_attached_by_hand_counts_as_focal(self, world):
        # Definition 3.5: the focal is the manually attached tuples, also
        # those attached after ingestion.  Gene#3 reaches only Gene#4.
        manager, acg, profile, queue, annotation = world
        acg.add_attachment(79, TupleRef("Gene", 3))
        acg.add_attachment(79, TupleRef("Gene", 4))
        (task,) = queue.triage(
            annotation.annotation_id,
            [ScoredTuple(TupleRef("Gene", 3), 0.60, ())],
            0.32,
            0.86,
        )
        manager.attach_true(annotation.annotation_id, CellRef("Gene", 4))
        queue.verify(task.task_id)
        assert (profile.buckets, profile.unreachable) == ({1: 1}, 0)

    def test_annotation_without_focal_records_no_hop(self, world):
        manager, acg, profile, queue, _ = world
        bare = manager.add_annotation("no focal")
        tasks = queue.triage(
            bare.annotation_id,
            [ScoredTuple(TupleRef("Gene", 2), 0.95, ()),
             ScoredTuple(TupleRef("Gene", 1), 0.95, ())],
            0.32,
            0.86,
        )
        assert all(t.decision is Decision.AUTO_ACCEPTED for t in tasks)
        assert profile.total == 0

    def test_reject_discards(self, world):
        manager, acg, profile, queue, annotation = world
        tasks = queue.triage(annotation.annotation_id, _candidates(), 0.32, 0.86)
        pending = next(t for t in tasks if t.decision is Decision.PENDING)
        queue.reject(pending.task_id)
        assert manager.pending_predicted(annotation.annotation_id) == []
        assert TupleRef("Gene", 3) not in manager.focal_of(annotation.annotation_id)

    def test_double_resolution_fails(self, world):
        manager, acg, profile, queue, annotation = world
        tasks = queue.triage(annotation.annotation_id, _candidates(), 0.32, 0.86)
        pending = next(t for t in tasks if t.decision is Decision.PENDING)
        queue.verify(pending.task_id)
        with pytest.raises(UnknownVerificationTaskError):
            queue.verify(pending.task_id)

    def test_unknown_task(self, world):
        *_, queue, _ = world
        with pytest.raises(UnknownVerificationTaskError):
            queue.reject(424242)

    def test_evidence_round_trips(self, world):
        manager, acg, profile, queue, annotation = world
        tasks = queue.triage(annotation.annotation_id, _candidates(), 0.32, 0.86)
        pending = queue.pending(annotation.annotation_id)
        assert pending[0].evidence == ("q2",)

    def test_tasks_of_reports_all_decisions(self, world):
        manager, acg, profile, queue, annotation = world
        queue.triage(annotation.annotation_id, _candidates(), 0.32, 0.86)
        tasks = queue.tasks_of(annotation.annotation_id)
        assert len(tasks) == 3
        assert {t.decision for t in tasks} == {
            Decision.AUTO_ACCEPTED, Decision.PENDING, Decision.AUTO_REJECTED,
        }

    def test_verify_searches_the_annotations_tasks(self, world):
        # A verify derives its focal from the annotation's tasks: the read
        # costs that annotation's tasks, not the task table's.
        manager, acg, profile, queue, annotation = world
        tasks = queue.triage(annotation.annotation_id, _candidates(), 0.32, 0.86)
        pending = next(t for t in tasks if t.decision is Decision.PENDING)
        connection = manager.store.connection
        statements = []
        connection.set_trace_callback(statements.append)
        try:
            queue.verify(pending.task_id)
        finally:
            connection.set_trace_callback(None)
        (read,) = [
            s for s in statements
            if "FROM _nebula_verification_tasks WHERE annotation_id" in s
        ]
        lines = [str(row[3]) for row in connection.execute("EXPLAIN QUERY PLAN " + read)]
        assert lines == [
            "SEARCH _nebula_verification_tasks USING INDEX "
            "_nebula_verification_tasks_by_annotation (annotation_id=?)"
        ]


class TestDecision:
    def test_accepted_predicate(self):
        assert Decision.AUTO_ACCEPTED.is_accepted
        assert Decision.VERIFIED.is_accepted
        assert not Decision.REJECTED.is_accepted

    def test_resolved_predicate(self):
        assert not Decision.PENDING.is_resolved
        assert Decision.AUTO_REJECTED.is_resolved
