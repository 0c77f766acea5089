"""Failure-injection and degenerate-input tests.

The engine must degrade gracefully — not crash — when fed broken state:
dangling attachments after raw deletes, empty metadata, empty databases,
and malformed stored rows.
"""

import re
import sqlite3

import pytest

from repro import Nebula, NebulaConfig, NebulaMeta, ValuePattern
from repro.annotations.engine import AnnotationManager
from repro.core.explain import _tuple_values
from repro.datagen.stats import collect_stats
from repro.search.engine import KeywordQuery, KeywordSearchEngine
from repro.types import CellRef, TupleRef

from conftest import build_figure1_backend, build_figure1_connection, build_figure1_meta


class TestDanglingState:
    def test_stats_survive_raw_row_delete(self):
        connection = build_figure1_connection()
        manager = AnnotationManager(connection)
        manager.add_annotation("x", attach_to=[CellRef("Gene", 1)])
        # Bypass the editor: the data row vanishes, the attachment dangles.
        connection.execute("DELETE FROM Gene WHERE rowid = 1")
        stats = collect_stats(connection)
        assert stats.true_attachments == 1
        assert stats.table_rows["Gene"] == 6

    def test_explain_tuple_values_for_missing_row(self):
        connection = build_figure1_connection()
        connection.execute("DELETE FROM Gene WHERE rowid = 1")
        assert _tuple_values(connection, "Gene", 1) == {}

    def test_acg_build_with_dangling_attachment(self):
        connection = build_figure1_connection()
        manager = AnnotationManager(connection)
        manager.add_annotation(
            "x", attach_to=[CellRef("Gene", 1), CellRef("Gene", 2)]
        )
        connection.execute("DELETE FROM Gene WHERE rowid = 1")
        from repro.core.acg import AnnotationsConnectivityGraph

        acg = AnnotationsConnectivityGraph.build_from_manager(manager)
        # The graph models attachments, not live rows: it still builds.
        assert acg.edge_count == 1


class TestEmptyWorlds:
    def test_nebula_with_conceptless_meta(self):
        nebula = Nebula(build_figure1_backend(), NebulaMeta(), NebulaConfig())
        report = nebula.analyze("gene JW0014 appears here")
        # No concepts -> no maps -> no queries -> no candidates. No crash.
        assert report.generation.queries == []
        assert report.candidates == []

    def test_engine_with_no_searchable_columns(self):
        connection = build_figure1_connection()
        engine = KeywordSearchEngine(connection, searchable_columns=[])
        result = engine.search(KeywordQuery(("gene", "JW0013")))
        assert result.tuples == []

    def test_stats_on_fresh_database(self, tmp_path):
        connection = sqlite3.connect(str(tmp_path / "fresh.db"))
        stats = collect_stats(connection)
        assert stats.annotations == 0
        assert stats.acg_nodes == 0
        # The stats pass created the side tables; they stay hidden.
        assert all(not t.startswith("_nebula") for t in stats.table_rows)

    def test_empty_annotation_workload_subsets(self, bio_db):
        from repro.datagen.workload import AnnotationWorkload, WorkloadSpec

        empty = AnnotationWorkload(spec=WorkloadSpec())
        assert empty.group(100) == []
        assert empty.subset(100, (1, 3)) == []
        assert len(empty) == 0


class TestMalformedInputs:
    def test_invalid_regex_pattern_raises(self):
        with pytest.raises(re.error):
            ValuePattern(r"[unclosed")

    def test_corrupt_attachment_kind_rejected_by_schema(self):
        connection = build_figure1_connection()
        manager = AnnotationManager(connection)
        annotation = manager.add_annotation("x")
        # The CHECK constraint guards the kind column at the SQL level.
        with pytest.raises(sqlite3.IntegrityError):
            connection.execute(
                "INSERT INTO _nebula_attachments "
                "(annotation_id, target_table, target_rowid, confidence, kind) "
                "VALUES (?, 'Gene', 1, 0.5, 'bogus')",
                (annotation.annotation_id,),
            )

    def test_verification_status_check_constraint(self):
        nebula = Nebula(build_figure1_backend(), build_figure1_meta(), NebulaConfig())
        with pytest.raises(sqlite3.IntegrityError):
            nebula.connection.execute(
                "INSERT INTO _nebula_verification_tasks "
                "(annotation_id, target_table, target_rowid, confidence, "
                "evidence, status) VALUES (1, 'Gene', 1, 0.5, '', 'weird')"
            )

    def test_annotation_with_only_punctuation(self):
        nebula = Nebula(build_figure1_backend(), build_figure1_meta(), NebulaConfig())
        report = nebula.analyze("... !!! ???")
        assert report.candidates == []

    def test_annotation_with_unicode(self):
        nebula = Nebula(build_figure1_backend(), build_figure1_meta(), NebulaConfig())
        report = nebula.analyze("gene JW0014 étudié 研究 🚀")
        # The reference still resolves despite surrounding non-ASCII
        # (accented/CJK words tokenize into fragments that map to nothing).
        assert TupleRef("Gene", 2) in [t.ref for t in report.candidates]


class TestConcurrentEngines:
    def test_two_engines_one_connection(self):
        """Two Nebula instances over the same backend share state via
        SQLite; the second sees the first's insertions."""
        backend = build_figure1_backend()
        meta = build_figure1_meta()
        first = Nebula(backend, meta, NebulaConfig())
        second = Nebula(backend, meta, NebulaConfig())
        report = first.insert_annotation(
            "gene JW0014 here", attach_to=[TupleRef("Gene", 1)]
        )
        assert second.manager.annotation(report.annotation_id).content
        # The second engine's ACG was built before the insert: stale by
        # design (the paper rebuilds "at once"); a fresh engine catches up.
        third = Nebula(backend, meta, NebulaConfig())
        assert third.acg.node_count >= second.acg.node_count
