"""Unit tests for the annotation-aware data editor and join propagation."""

import pytest

from repro.annotations.editor import DataEditor
from repro.annotations.engine import AnnotationManager
from repro.annotations.propagation import propagate_join
from repro.annotations.rules import RuleEngine
from repro.errors import StorageError
from repro.search.index import InvertedValueIndex
from repro.types import CellRef, TupleRef

from conftest import build_figure1_connection


@pytest.fixture
def world():
    connection = build_figure1_connection()
    manager = AnnotationManager(connection)
    index = InvertedValueIndex.build(connection, [("Gene", "GID"), ("Gene", "Name")])
    rules = RuleEngine(manager)
    editor = DataEditor(manager, index=index, rules=rules)
    return connection, manager, index, rules, editor


class TestInsert:
    def test_insert_writes_row(self, world):
        connection, manager, index, rules, editor = world
        result = editor.insert(
            "Gene",
            {"GID": "JW0500", "Name": "abcZ", "Length": 700, "Seq": "ACGT",
             "Family": "F2"},
        )
        row = connection.execute(
            "SELECT GID FROM Gene WHERE rowid = ?", (result.ref.rowid,)
        ).fetchone()
        assert row == ("JW0500",)

    def test_insert_maintains_index(self, world):
        connection, manager, index, rules, editor = world
        result = editor.insert(
            "Gene",
            {"GID": "JW0501", "Name": "abcY", "Length": 700, "Seq": "ACGT",
             "Family": "F2"},
        )
        assert index.lookup("JW0501")[0].rowid == result.ref.rowid
        assert index.lookup("abcY")[0].rowid == result.ref.rowid
        assert set(result.indexed_columns) == {"GID", "Name"}

    def test_unindexed_columns_skipped(self, world):
        connection, manager, index, rules, editor = world
        result = editor.insert(
            "Gene",
            {"GID": "JW0502", "Name": "abcX", "Length": 700, "Seq": "ACGT",
             "Family": "F2"},
        )
        assert index.lookup("F2") == ()  # Family not indexed
        assert "Family" not in result.indexed_columns

    def test_insert_fires_rules(self, world):
        connection, manager, index, rules, editor = world
        note = manager.add_annotation("F2 watch list")
        rules.create_rule(note.annotation_id, "Gene", "Family = 'F2'",
                          apply_retroactively=False)
        result = editor.insert(
            "Gene",
            {"GID": "JW0503", "Name": "abcW", "Length": 700, "Seq": "ACGT",
             "Family": "F2"},
        )
        assert len(result.fired_rules) == 1
        assert result.ref in manager.focal_of(note.annotation_id)

    def test_insert_without_index(self, world):
        connection, manager, index, rules, _ = world
        editor = DataEditor(manager)
        result = editor.insert(
            "Gene",
            {"GID": "JW0504", "Name": "abcV", "Length": 700, "Seq": "ACGT",
             "Family": "F2"},
        )
        assert result.indexed_columns == []

    def test_invalid_column_rejected(self, world):
        *_, editor = world
        with pytest.raises(Exception):
            editor.insert("Gene", {"Nope": 1})


class TestDelete:
    def test_delete_detaches_annotations(self, world):
        connection, manager, index, rules, editor = world
        note = manager.add_annotation("row note", attach_to=[CellRef("Gene", 2)])
        detached = editor.delete(TupleRef("Gene", 2))
        assert detached == 1
        assert manager.focal_of(note.annotation_id) == ()
        assert connection.execute(
            "SELECT COUNT(*) FROM Gene WHERE rowid = 2"
        ).fetchone()[0] == 0

    def test_delete_keeps_range_and_table_edges(self, world):
        connection, manager, index, rules, editor = world
        ranged = manager.add_annotation("rows 3-6")
        manager.attach_range(ranged.annotation_id, "Gene", 3, 6)
        whole = manager.add_annotation("the whole table")
        manager.attach_true(whole.annotation_id, CellRef("Gene", None))
        own = manager.add_annotation("row 3", attach_to=[CellRef("Gene", 3)])
        assert editor.delete(TupleRef("Gene", 3)) == 1
        assert manager.focal_of(own.annotation_id) == ()
        # The range still applies to the rows that are present.
        assert [
            a.annotation_id for a in manager.annotations_of_tuple(TupleRef("Gene", 5))
        ] == [ranged.annotation_id, whole.annotation_id]
        assert [r.rowid for _, r in manager.store.true_attachment_pairs()] == [4, 5, 6]

    def test_delete_refuses_with_pending_predictions(self, world):
        connection, manager, index, rules, editor = world
        note = manager.add_annotation("note", attach_to=[CellRef("Gene", 1)])
        manager.attach_predicted(note.annotation_id, CellRef("Gene", 3), 0.6)
        with pytest.raises(StorageError):
            editor.delete(TupleRef("Gene", 3))
        # force bypasses the refusal
        assert editor.delete(TupleRef("Gene", 3), force=True) == 1

    def test_delete_leaves_column_level_annotations(self, world):
        connection, manager, index, rules, editor = world
        column_note = manager.add_annotation(
            "col note", attach_to=[CellRef("Gene", None, "Family")]
        )
        editor.delete(TupleRef("Gene", 4))
        remaining = manager.store.attachments_of(column_note.annotation_id)
        assert len(remaining) == 1


class TestPropagateJoin:
    def test_join_inherits_both_sides(self, world):
        connection, manager, *_ = world
        gene_note = manager.add_annotation("gene note", attach_to=[CellRef("Gene", 1)])
        protein_note = manager.add_annotation(
            "protein note", attach_to=[CellRef("Protein", 1)]
        )
        rows = propagate_join(
            connection, "Protein", "Gene", on="l.GID = r.GID",
            where="l.PID = ?", parameters=("P00001",),
        )
        assert len(rows) == 1
        contents = {text for text, _ in rows[0].annotations}
        assert contents == {"gene note", "protein note"}
        assert rows[0].refs == (TupleRef("Protein", 1), TupleRef("Gene", 1))

    def test_join_without_annotations(self, world):
        connection, *_ = world
        rows = propagate_join(connection, "Protein", "Gene", on="l.GID = r.GID")
        assert len(rows) == 3  # three proteins, each joining one gene
        assert all(row.annotations == () for row in rows)

    def test_join_empty_answer(self, world):
        connection, *_ = world
        rows = propagate_join(
            connection, "Protein", "Gene", on="l.GID = r.GID",
            where="l.PID = 'NOPE'",
        )
        assert rows == []

    def test_join_column_level_annotations_apply(self, world):
        connection, manager, *_ = world
        manager.add_annotation(
            "family column note", attach_to=[CellRef("Gene", None, "Family")]
        )
        rows = propagate_join(
            connection, "Protein", "Gene", on="l.GID = r.GID",
            where="l.PID = ?", parameters=("P00002",),
        )
        contents = {text for text, _ in rows[0].annotations}
        assert "family column note" in contents
