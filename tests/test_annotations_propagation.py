"""Unit tests for annotation propagation onto query answers."""

import pytest

from repro.annotations.engine import AnnotationManager
from repro.annotations.propagation import propagate
from repro.types import CellRef, TupleRef

from conftest import build_figure1_connection


@pytest.fixture
def world():
    connection = build_figure1_connection()
    manager = AnnotationManager(connection)
    row_note = manager.add_annotation("row note", attach_to=[CellRef("Gene", 1)])
    cell_note = manager.add_annotation(
        "cell note", attach_to=[CellRef("Gene", 1, "Name")]
    )
    column_note = manager.add_annotation(
        "column note", attach_to=[CellRef("Gene", None, "Family")]
    )
    return connection, manager, row_note, cell_note, column_note


class TestPropagate:
    def test_row_gets_applicable_annotations(self, world):
        connection, *_ = world
        rows = propagate(connection, "Gene", where="GID = ?", parameters=("JW0013",))
        assert len(rows) == 1
        contents = {text for text, _ in rows[0].annotations}
        assert contents == {"row note", "cell note", "column note"}

    def test_other_rows_get_only_column_level(self, world):
        connection, *_ = world
        rows = propagate(connection, "Gene", where="GID = ?", parameters=("JW0014",))
        contents = {text for text, _ in rows[0].annotations}
        assert contents == {"column note"}

    def test_projection_filters_cell_annotations(self, world):
        connection, *_ = world
        rows = propagate(
            connection, "Gene", columns=["GID", "Length"],
            where="GID = ?", parameters=("JW0013",),
        )
        contents = {text for text, _ in rows[0].annotations}
        # The cell note on Name and column note on Family fall outside the
        # projection; the row-level note always applies.
        assert contents == {"row note"}

    def test_values_match_projection(self, world):
        connection, *_ = world
        rows = propagate(
            connection, "Gene", columns=["Name"], where="GID = ?", parameters=("JW0013",)
        )
        assert rows[0].values == ("grpC",)
        assert rows[0].ref == TupleRef("Gene", 1)

    def test_empty_answer(self, world):
        connection, *_ = world
        assert propagate(connection, "Gene", where="GID = 'NOPE'") == []

    def test_full_table_scan(self, world):
        connection, *_ = world
        rows = propagate(connection, "Gene")
        assert len(rows) == 7
        assert rows[0].values == ("JW0013", "grpC", 1130, "TGCT", "F1")
        # Every row sees the column-level note under a * projection.
        assert all(
            "column note" in {text for text, _ in row.annotations} for row in rows
        )

    def test_predicted_excluded_by_default(self, world):
        connection, manager, row_note, *_ = world
        manager.attach_predicted(row_note.annotation_id, CellRef("Gene", 2), 0.6)
        rows = propagate(connection, "Gene", where="GID = ?", parameters=("JW0014",))
        contents = {text for text, _ in rows[0].annotations}
        assert "row note" not in contents
        shown = propagate(
            connection, "Gene", where="GID = ?", parameters=("JW0014",),
            include_predicted=True,
        )
        assert "row note" in {text for text, _ in shown[0].annotations}
