"""Stateful property test of the annotation store.

Drives random sequences of store operations (insert annotation, attach,
attach predicted, promote, detach, range attach) against a model kept in
plain Python, checking after every step that:

* attachment counts agree with the model;
* true edges always carry confidence 1.0, predicted ones < 1.0;
* the focal (true single-row attachments) matches the model;
* a promoted edge never reverts.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.annotations.engine import AnnotationManager
from repro.annotations.store import AttachmentKind
from repro.types import CellRef, TupleRef

from conftest import build_figure1_connection

ROWIDS = list(range(1, 8))  # the seven figure-1 genes


class StoreMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.manager = AnnotationManager(build_figure1_connection())
        #: model: annotation_id -> {rowid: kind}
        self.model = {}
        #: attachment ids known to be true (must never downgrade)
        self.promoted = set()

    # ------------------------------------------------------------------

    @rule()
    def add_annotation(self):
        annotation = self.manager.add_annotation(f"note {len(self.model)}")
        self.model[annotation.annotation_id] = {}

    @precondition(lambda self: self.model)
    @rule(rowid=st.sampled_from(ROWIDS), data=st.data())
    def attach_true(self, rowid, data):
        annotation_id = data.draw(st.sampled_from(sorted(self.model)))
        self.manager.attach_true(annotation_id, CellRef("Gene", rowid))
        self.model[annotation_id][rowid] = AttachmentKind.TRUE

    @precondition(lambda self: self.model)
    @rule(
        rowid=st.sampled_from(ROWIDS),
        confidence=st.floats(0.1, 0.95),
        data=st.data(),
    )
    def attach_predicted(self, rowid, confidence, data):
        annotation_id = data.draw(st.sampled_from(sorted(self.model)))
        self.manager.attach_predicted(
            annotation_id, CellRef("Gene", rowid), confidence
        )
        # Model: predicted never downgrades an existing true edge.
        current = self.model[annotation_id].get(rowid)
        if current is not AttachmentKind.TRUE:
            self.model[annotation_id][rowid] = AttachmentKind.PREDICTED

    @precondition(lambda self: any(
        AttachmentKind.PREDICTED in edges.values() for edges in self.model.values()
    ))
    @rule(data=st.data())
    def promote_predicted(self, data):
        candidates = [
            (annotation_id, rowid)
            for annotation_id, edges in self.model.items()
            for rowid, kind in edges.items()
            if kind is AttachmentKind.PREDICTED
        ]
        annotation_id, rowid = data.draw(st.sampled_from(candidates))
        for attachment in self.manager.store.attachments_of(annotation_id):
            if attachment.tuple_ref == TupleRef("Gene", rowid):
                self.manager.promote_attachment(attachment.attachment_id)
                self.promoted.add(attachment.attachment_id)
        self.model[annotation_id][rowid] = AttachmentKind.TRUE

    @precondition(lambda self: any(self.model.values()))
    @rule(data=st.data())
    def detach_existing(self, data):
        candidates = [
            (annotation_id, rowid)
            for annotation_id, edges in self.model.items()
            for rowid in edges
        ]
        annotation_id, rowid = data.draw(st.sampled_from(candidates))
        for attachment in self.manager.store.attachments_of(annotation_id):
            if attachment.tuple_ref == TupleRef("Gene", rowid):
                assert self.manager.discard_attachment(attachment.attachment_id)
                self.promoted.discard(attachment.attachment_id)
        del self.model[annotation_id][rowid]

    # ------------------------------------------------------------------

    @invariant()
    def counts_agree(self):
        expected = sum(len(edges) for edges in self.model.values())
        assert self.manager.store.count_attachments() == expected

    @invariant()
    def kinds_and_confidences_agree(self):
        for annotation_id, edges in self.model.items():
            stored = {
                a.tuple_ref.rowid: a
                for a in self.manager.store.attachments_of(annotation_id)
                if a.tuple_ref is not None
            }
            assert set(stored) == set(edges)
            for rowid, kind in edges.items():
                attachment = stored[rowid]
                assert attachment.kind is kind
                if kind is AttachmentKind.TRUE:
                    assert attachment.confidence == 1.0
                else:
                    assert attachment.confidence < 1.0

    @invariant()
    def focal_matches_model(self):
        for annotation_id, edges in self.model.items():
            expected = {
                TupleRef("Gene", rowid)
                for rowid, kind in edges.items()
                if kind is AttachmentKind.TRUE
            }
            assert set(self.manager.focal_of(annotation_id)) == expected


StoreMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)

TestStoreStateful = StoreMachine.TestCase
