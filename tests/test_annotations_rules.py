"""Unit tests for predicate-based annotation rules."""

import pytest

from repro.annotations.engine import AnnotationManager
from repro.annotations.rules import RuleEngine
from repro.errors import CommandError, StorageError
from repro.types import TupleRef

from conftest import build_figure1_connection


@pytest.fixture
def world():
    connection = build_figure1_connection()
    manager = AnnotationManager(connection)
    engine = RuleEngine(manager)
    annotation = manager.add_annotation("flag for F1 members")
    return connection, manager, engine, annotation


class TestRuleCreation:
    def test_retroactive_application(self, world):
        connection, manager, engine, annotation = world
        rule, attached = engine.create_rule(
            annotation.annotation_id, "Gene", "Family = 'F1'"
        )
        assert attached == 4
        assert len(manager.focal_of(annotation.annotation_id)) == 4

    def test_without_retroactive_application(self, world):
        connection, manager, engine, annotation = world
        _, attached = engine.create_rule(
            annotation.annotation_id, "Gene", "Family = 'F1'",
            apply_retroactively=False,
        )
        assert attached == 0
        assert manager.focal_of(annotation.annotation_id) == ()

    def test_column_scoped_rule(self, world):
        connection, manager, engine, annotation = world
        rule, _ = engine.create_rule(
            annotation.annotation_id, "Gene", "Family = 'F1'", column="Family"
        )
        assert rule.column == "Family"
        attachments = manager.store.attachments_of(annotation.annotation_id)
        assert all(a.column == "Family" for a in attachments)

    def test_invalid_predicate_rejected(self, world):
        connection, manager, engine, annotation = world
        with pytest.raises(CommandError):
            engine.create_rule(annotation.annotation_id, "Gene", "NoSuchCol = 1")

    def test_injection_shape_rejected(self, world):
        connection, manager, engine, annotation = world
        with pytest.raises(CommandError):
            engine.create_rule(
                annotation.annotation_id, "Gene", "1=1; DROP TABLE Gene"
            )

    def test_rules_listing(self, world):
        connection, manager, engine, annotation = world
        engine.create_rule(annotation.annotation_id, "Gene", "Family = 'F1'")
        engine.create_rule(annotation.annotation_id, "Protein", "Mass > 50")
        assert len(engine.rules()) == 2
        assert len(engine.rules(table="Gene")) == 1


class TestRuleApplication:
    def test_new_tuple_fires_rule(self, world):
        connection, manager, engine, annotation = world
        engine.create_rule(annotation.annotation_id, "Gene", "Family = 'F1'")
        cursor = connection.execute(
            "INSERT INTO Gene VALUES ('JW0099', 'newG', 500, 'ACGT', 'F1')"
        )
        fired = engine.process_new_tuple(TupleRef("Gene", cursor.lastrowid))
        assert len(fired) == 1
        assert TupleRef("Gene", cursor.lastrowid) in manager.focal_of(
            annotation.annotation_id
        )

    def test_new_tuple_not_matching(self, world):
        connection, manager, engine, annotation = world
        engine.create_rule(annotation.annotation_id, "Gene", "Family = 'F1'")
        cursor = connection.execute(
            "INSERT INTO Gene VALUES ('JW0098', 'othG', 500, 'ACGT', 'F9')"
        )
        assert engine.process_new_tuple(TupleRef("Gene", cursor.lastrowid)) == []

    def test_deactivated_rule_does_not_fire(self, world):
        connection, manager, engine, annotation = world
        rule, _ = engine.create_rule(
            annotation.annotation_id, "Gene", "Family = 'F1'"
        )
        engine.deactivate(rule.rule_id)
        cursor = connection.execute(
            "INSERT INTO Gene VALUES ('JW0097', 'thrG', 500, 'ACGT', 'F1')"
        )
        assert engine.process_new_tuple(TupleRef("Gene", cursor.lastrowid)) == []

    def test_deactivate_unknown(self, world):
        *_, engine, _ = (world[0], world[1], world[2], world[3])
        with pytest.raises(StorageError):
            engine.deactivate(999)

    def test_sweep_is_idempotent(self, world):
        connection, manager, engine, annotation = world
        engine.create_rule(annotation.annotation_id, "Gene", "Family = 'F1'")
        before = manager.store.count_attachments()
        engine.sweep()
        assert manager.store.count_attachments() == before

    def test_sweep_catches_missed_tuples(self, world):
        connection, manager, engine, annotation = world
        engine.create_rule(annotation.annotation_id, "Gene", "Family = 'F1'")
        connection.execute(
            "INSERT INTO Gene VALUES ('JW0096', 'fouG', 500, 'ACGT', 'F1')"
        )
        created = engine.sweep(table="Gene")
        assert created == 1
