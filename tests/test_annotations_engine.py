"""Unit tests for the AnnotationManager facade."""

import pytest

from repro.annotations.engine import AnnotationManager
from repro.errors import UnknownTupleError
from repro.types import CellRef, TupleRef

from conftest import build_figure1_connection


@pytest.fixture
def manager():
    return AnnotationManager(build_figure1_connection())


class TestAddAnnotation:
    def test_add_with_focal(self, manager):
        annotation = manager.add_annotation(
            "about grpC", attach_to=[CellRef("Gene", 1)], author="bob"
        )
        assert manager.focal_of(annotation.annotation_id) == (TupleRef("Gene", 1),)

    def test_add_verifies_targets(self, manager):
        with pytest.raises(UnknownTupleError):
            manager.add_annotation("x", attach_to=[CellRef("Gene", 9999)])

    def test_add_without_verification(self, manager):
        annotation = manager.add_annotation(
            "x", attach_to=[CellRef("Gene", 9999)], verify_targets=False
        )
        assert manager.focal_of(annotation.annotation_id) == (TupleRef("Gene", 9999),)

    def test_multi_target_focal_ordered(self, manager):
        annotation = manager.add_annotation(
            "x", attach_to=[CellRef("Gene", 2), CellRef("Protein", 1)]
        )
        assert manager.focal_of(annotation.annotation_id) == (
            TupleRef("Gene", 2),
            TupleRef("Protein", 1),
        )


class TestReads:
    def test_annotations_of_tuple(self, manager):
        a = manager.add_annotation("one", attach_to=[CellRef("Gene", 1)])
        manager.add_annotation("two", attach_to=[CellRef("Gene", 2)])
        found = manager.annotations_of_tuple(TupleRef("Gene", 1))
        assert [x.annotation_id for x in found] == [a.annotation_id]

    def test_predicted_hidden_by_default(self, manager):
        a = manager.add_annotation("one", attach_to=[CellRef("Gene", 1)])
        manager.attach_predicted(a.annotation_id, CellRef("Gene", 2), 0.5)
        assert manager.annotations_of_tuple(TupleRef("Gene", 2)) == []
        shown = manager.annotations_of_tuple(TupleRef("Gene", 2), include_predicted=True)
        assert [x.annotation_id for x in shown] == [a.annotation_id]

    def test_focal_excludes_predicted(self, manager):
        a = manager.add_annotation("one", attach_to=[CellRef("Gene", 1)])
        manager.attach_predicted(a.annotation_id, CellRef("Gene", 2), 0.5)
        assert manager.focal_of(a.annotation_id) == (TupleRef("Gene", 1),)


class TestMaintenance:
    def test_promote_and_discard(self, manager):
        a = manager.add_annotation("one", attach_to=[CellRef("Gene", 1)])
        predicted = manager.attach_predicted(a.annotation_id, CellRef("Gene", 2), 0.5)
        manager.promote_attachment(predicted.attachment_id)
        assert TupleRef("Gene", 2) in manager.focal_of(a.annotation_id)

    def test_discard(self, manager):
        a = manager.add_annotation("one", attach_to=[CellRef("Gene", 1)])
        predicted = manager.attach_predicted(a.annotation_id, CellRef("Gene", 2), 0.5)
        assert manager.discard_attachment(predicted.attachment_id)
        assert manager.pending_predicted(a.annotation_id) == []

    def test_pending_predicted_scoped(self, manager):
        a = manager.add_annotation("one", attach_to=[CellRef("Gene", 1)])
        b = manager.add_annotation("two", attach_to=[CellRef("Gene", 2)])
        manager.attach_predicted(a.annotation_id, CellRef("Gene", 3), 0.5)
        assert len(manager.pending_predicted(a.annotation_id)) == 1
        assert manager.pending_predicted(b.annotation_id) == []
