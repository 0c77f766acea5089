"""Tests for compact range attachments (the substrate's compression)."""

import pytest

from repro.annotations.engine import AnnotationManager
from repro.annotations.propagation import propagate
from repro.annotations.store import AttachmentKind
from repro.core.acg import AnnotationsConnectivityGraph
from repro.errors import StorageError
from repro.types import CellRef, TupleRef

from conftest import build_figure1_connection


@pytest.fixture
def manager():
    return AnnotationManager(build_figure1_connection())


class TestAttachRange:
    def test_single_stored_edge_covers_range(self, manager):
        note = manager.add_annotation("rows 2-5")
        attachment = manager.attach_range(note.annotation_id, "Gene", 2, 5)
        assert attachment.is_range
        assert manager.store.count_attachments() == 1
        for rowid in range(1, 7):
            covering = [] if rowid in (1, 6) else [attachment]
            assert manager.store.attachments_on("Gene", rowid) == covering

    def test_range_has_no_single_tuple_ref(self, manager):
        note = manager.add_annotation("rows 2-5")
        attachment = manager.attach_range(note.annotation_id, "Gene", 2, 5)
        assert attachment.tuple_ref is None

    def test_degenerate_range_collapses_to_plain(self, manager):
        note = manager.add_annotation("row 3 only")
        attachment = manager.attach_range(note.annotation_id, "Gene", 3, 3)
        assert not attachment.is_range
        assert attachment.tuple_ref == TupleRef("Gene", 3)

    def test_inverted_range_rejected(self, manager):
        note = manager.add_annotation("bad")
        with pytest.raises(StorageError):
            manager.attach_range(note.annotation_id, "Gene", 5, 2)

    def test_idempotent(self, manager):
        note = manager.add_annotation("rows 2-5")
        first = manager.attach_range(note.annotation_id, "Gene", 2, 5)
        second = manager.attach_range(note.annotation_id, "Gene", 2, 5)
        assert first.attachment_id == second.attachment_id
        assert manager.store.count_attachments() == 1

    def test_range_is_true_kind(self, manager):
        note = manager.add_annotation("rows 2-5")
        attachment = manager.attach_range(note.annotation_id, "Gene", 2, 5)
        assert attachment.kind is AttachmentKind.TRUE
        assert attachment.confidence == 1.0

    def test_column_scoped_range(self, manager):
        note = manager.add_annotation("names 1-3")
        attachment = manager.attach_range(
            note.annotation_id, "Gene", 1, 3, column="Name"
        )
        assert attachment.column == "Name"


class TestRangeVisibility:
    def test_attachments_on_sees_covered_rows(self, manager):
        note = manager.add_annotation("rows 2-5")
        manager.attach_range(note.annotation_id, "Gene", 2, 5)
        assert len(manager.store.attachments_on("Gene", rowid=3)) == 1
        assert manager.store.attachments_on("Gene", rowid=6) == []

    def test_annotations_of_tuple(self, manager):
        note = manager.add_annotation("rows 2-5")
        manager.attach_range(note.annotation_id, "Gene", 2, 5)
        found = manager.annotations_of_tuple(TupleRef("Gene", 4))
        assert [a.annotation_id for a in found] == [note.annotation_id]
        assert manager.annotations_of_tuple(TupleRef("Gene", 1)) == []

    def test_propagation_applies_range(self, manager):
        note = manager.add_annotation("rows 1-3 note")
        manager.attach_range(note.annotation_id, "Gene", 1, 3)
        rows = propagate(manager.connection, "Gene")
        covered = {
            row.ref.rowid
            for row in rows
            if any(text == "rows 1-3 note" for text, _ in row.annotations)
        }
        assert covered == {1, 2, 3}

    def test_true_attachment_pairs_expand_against_live_rows(self, manager):
        note = manager.add_annotation("rows 1-4")
        manager.attach_range(note.annotation_id, "Gene", 1, 4)
        pairs = manager.store.true_attachment_pairs()
        assert [(a, r.rowid) for a, r in pairs] == [
            (note.annotation_id, 1),
            (note.annotation_id, 2),
            (note.annotation_id, 3),
            (note.annotation_id, 4),
        ]
        # Deleting a row shrinks the expansion (no dangling tuples).
        manager.connection.execute("DELETE FROM Gene WHERE rowid = 2")
        pairs = manager.store.true_attachment_pairs()
        assert [r.rowid for _, r in pairs] == [1, 3, 4]

    def test_acg_builds_from_expanded_ranges(self, manager):
        note = manager.add_annotation("rows 1-3")
        manager.attach_range(note.annotation_id, "Gene", 1, 3)
        acg = AnnotationsConnectivityGraph.build_from_manager(manager)
        assert acg.node_count == 3
        assert acg.edge_count == 3  # a clique of the three covered rows

    def test_focal_of_includes_range_rows_via_pairs(self, manager):
        # focal_of walks attachments_of: a range appears as one attachment
        # with no single tuple_ref, so it contributes no focal tuples —
        # ranges are curator bulk annotations, not Nebula focals.
        note = manager.add_annotation("rows 1-3")
        manager.attach_range(note.annotation_id, "Gene", 1, 3)
        assert manager.focal_of(note.annotation_id) == ()

    def test_plain_and_range_coexist(self, manager):
        note = manager.add_annotation("mixed")
        manager.attach_true(note.annotation_id, CellRef("Gene", 7))
        manager.attach_range(note.annotation_id, "Gene", 1, 2)
        on_seven = manager.store.attachments_on("Gene", rowid=7)
        assert len(on_seven) == 1 and not on_seven[0].is_range
        on_one = manager.store.attachments_on("Gene", rowid=1)
        assert len(on_one) == 1 and on_one[0].is_range
