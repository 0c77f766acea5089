"""Tests for the exception hierarchy and the public code paths that
raise each class."""

import pytest

from repro import errors
from repro.annotations.commands import CommandProcessor
from repro.annotations.engine import AnnotationManager
from repro.config import NebulaConfig
from repro.core.verification import VerificationQueue
from repro.datagen.workload import WorkloadAnnotation
from repro.search.engine import KeywordQuery, KeywordSearchEngine
from repro.types import CellRef, TupleRef

from conftest import build_figure1_connection, build_figure1_meta


class TestHierarchy:
    @pytest.mark.parametrize(
        "exc_class",
        [
            errors.ConfigurationError,
            errors.StorageError,
            errors.MetadataError,
            errors.SearchError,
            errors.WorkloadError,
            errors.VerificationError,
            errors.CommandError,
        ],
    )
    def test_all_derive_from_base(self, exc_class):
        assert issubclass(exc_class, errors.NebulaError)

    def test_specific_storage_errors(self):
        assert issubclass(errors.UnknownTableError, errors.StorageError)
        assert issubclass(errors.UnknownColumnError, errors.StorageError)
        assert issubclass(errors.UnknownAnnotationError, errors.StorageError)
        assert issubclass(errors.UnknownTupleError, errors.StorageError)

    def test_unknown_table_carries_context(self):
        error = errors.UnknownTableError("Foo")
        assert error.table == "Foo"
        assert "Foo" in str(error)

    def test_unknown_column_carries_context(self):
        error = errors.UnknownColumnError("Gene", "Bar")
        assert (error.table, error.column) == ("Gene", "Bar")
        assert "Bar" in str(error)

    def test_unknown_annotation_carries_id(self):
        assert errors.UnknownAnnotationError(42).annotation_id == 42

    def test_unknown_tuple_carries_ref(self):
        error = errors.UnknownTupleError("Gene", 7)
        assert (error.table, error.rowid) == ("Gene", 7)

    def test_unknown_concept(self):
        assert issubclass(errors.UnknownConceptError, errors.MetadataError)
        assert errors.UnknownConceptError("X").concept == "X"

    def test_unknown_verification_task(self):
        error = errors.UnknownVerificationTaskError(9)
        assert error.task_id == 9
        assert issubclass(type(error), errors.VerificationError)

    def test_empty_query_is_search_error(self):
        assert issubclass(errors.EmptyQueryError, errors.SearchError)

    def test_catch_all(self):
        with pytest.raises(errors.NebulaError):
            raise errors.UnknownTableError("anything")

    def test_resilience_errors_in_hierarchy(self):
        assert issubclass(errors.TransientStorageError, errors.StorageError)
        assert issubclass(errors.PipelineStageError, errors.NebulaError)
        assert issubclass(errors.DeadLetterError, errors.NebulaError)

    def test_transient_storage_carries_attempts(self):
        error = errors.TransientStorageError("database is locked", attempts=3)
        assert error.attempts == 3
        assert "3 attempt" in str(error)

    def test_pipeline_stage_carries_stage_and_cause(self):
        original = RuntimeError("boom")
        error = errors.PipelineStageError("queue.triage", original)
        assert error.stage == "queue.triage"
        assert error.original is original
        assert error.dead_letter_id is None
        assert "queue.triage" in str(error)

    def test_dead_letter_carries_id(self):
        error = errors.DeadLetterError(7, "unknown dead letter")
        assert error.letter_id == 7
        assert "7" in str(error)


class TestPublicTriggers:
    """Every exception class raised through the public API that owns it."""

    @pytest.fixture()
    def manager(self):
        return AnnotationManager(build_figure1_connection())

    def test_unknown_table(self, manager):
        with pytest.raises(errors.UnknownTableError) as exc_info:
            manager.add_annotation("note", attach_to=[CellRef("NoSuchTable", 1)])
        assert exc_info.value.table == "NoSuchTable"

    def test_unknown_column(self, manager):
        annotation = manager.add_annotation("note")
        with pytest.raises(errors.UnknownColumnError) as exc_info:
            manager.attach_true(
                annotation.annotation_id, CellRef("Gene", 1, column="NoSuchColumn")
            )
        assert exc_info.value.column == "NoSuchColumn"

    def test_unknown_annotation(self, manager):
        with pytest.raises(errors.UnknownAnnotationError):
            manager.annotation(999)

    def test_unknown_tuple(self, manager):
        with pytest.raises(errors.UnknownTupleError) as exc_info:
            manager.add_annotation("note", attach_to=[CellRef("Gene", 999999)])
        assert exc_info.value.rowid == 999999

    def test_empty_content_is_storage_error(self, manager):
        with pytest.raises(errors.StorageError):
            manager.add_annotation("   ")

    def test_empty_query(self):
        engine = KeywordSearchEngine(
            build_figure1_connection(), searchable_columns=[("Gene", "GID")]
        )
        with pytest.raises(errors.EmptyQueryError):
            engine.search(KeywordQuery(()))

    def test_unknown_concept(self):
        with pytest.raises(errors.UnknownConceptError):
            build_figure1_meta().get_concept("nonexistent")

    def test_unknown_verification_task(self, manager):
        queue = VerificationQueue(manager)
        with pytest.raises(errors.UnknownVerificationTaskError):
            queue.verify(9999)

    def test_verification_bounds(self, manager):
        queue = VerificationQueue(manager)
        annotation = manager.add_annotation("note")
        with pytest.raises(errors.VerificationError):
            queue.triage(annotation.annotation_id, [], beta_lower=0.9, beta_upper=0.1)

    def test_command_errors(self, manager):
        commands = CommandProcessor(manager)
        with pytest.raises(errors.CommandError):
            commands.execute("   ")
        with pytest.raises(errors.CommandError):
            commands.execute("FROB THE DATABASE")

    def test_configuration_error(self):
        with pytest.raises(errors.ConfigurationError):
            NebulaConfig(epsilon=-1.0)

    def test_workload_error(self):
        annotation = WorkloadAnnotation(
            label="L100.1-2.0",
            size_limit=100,
            band=(1, 2),
            text="gene JW0013",
            references=(),
            ideal_refs=(TupleRef("Gene", 1), TupleRef("Gene", 2)),
            ideal_keywords=frozenset(),
        )
        with pytest.raises(errors.WorkloadError):
            annotation.focal(delta=0)
