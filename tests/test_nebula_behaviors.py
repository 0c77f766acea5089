"""Behavioral tests for facade details not covered elsewhere."""

import pytest

from repro import Nebula, NebulaConfig
from repro.core.acg import HopProfile
from repro.core.shared_execution import SharedExecutionStats
from repro.datagen.workload import WorkloadSpec, generate_workload

from conftest import build_figure1_backend, build_figure1_meta


@pytest.fixture
def nebula():
    return Nebula(build_figure1_backend(), build_figure1_meta(), NebulaConfig())


class TestRadiusSelection:
    def test_profile_guided_radius(self, nebula):
        # Seed the profile: 95% of history within 2 hops.
        for hops in [1] * 80 + [2] * 15 + [3] * 5:
            nebula.profile.record(hops)
        # Seed a tiny ACG so spreading has something to hop over.
        from repro.types import TupleRef

        nebula.acg.add_attachment(900, TupleRef("Gene", 1))
        nebula.acg.add_attachment(900, TupleRef("Gene", 2))
        report = nebula.analyze(
            "gene JW0014 here", focal=[TupleRef("Gene", 1)], use_spreading=True
        )
        assert report.radius == nebula.profile.select_k(
            nebula.config.target_recall
        )

    def test_explicit_radius_wins(self, nebula):
        from repro.types import TupleRef

        nebula.acg.add_attachment(900, TupleRef("Gene", 1))
        nebula.acg.add_attachment(900, TupleRef("Gene", 2))
        report = nebula.analyze(
            "gene JW0014 here", focal=[TupleRef("Gene", 1)],
            use_spreading=True, radius=5,
        )
        assert report.radius == 5

    def test_fallback_radius_without_profile(self, nebula):
        from repro.types import TupleRef

        nebula.acg.add_attachment(900, TupleRef("Gene", 1))
        nebula.acg.add_attachment(900, TupleRef("Gene", 2))
        report = nebula.analyze(
            "gene JW0014 here", focal=[TupleRef("Gene", 1)], use_spreading=True
        )
        assert report.radius == nebula.config.spreading_hops


class TestCommandIntegration:
    def test_list_pending_via_command(self, nebula):
        tight = Nebula(
            nebula.backend,
            nebula.meta,
            NebulaConfig(beta_lower=0.01, beta_upper=0.999),
        )
        tight.insert_annotation(
            "We examined genes JW0014, and later saw yaaB too.", attach_to=[]
        )
        result = tight.execute_command("LIST PENDING")
        assert result.command == "LIST PENDING"
        assert len(result.rows) == len(tight.pending_tasks())

    def test_reject_via_command(self, nebula):
        tight = Nebula(
            nebula.backend,
            nebula.meta,
            NebulaConfig(beta_lower=0.01, beta_upper=0.999),
        )
        report = tight.insert_annotation(
            "We examined genes JW0014, and later saw yaaB too.", attach_to=[]
        )
        pending = tight.pending_tasks(report.annotation_id)
        if pending:
            result = tight.execute_command(f"REJECT ATTACHMENT {pending[0].task_id}")
            assert "rejected" in result.message
            assert tight.pending_tasks(report.annotation_id) == pending[1:]


class TestSearchableColumnDedup:
    def test_columns_unique_even_with_overlapping_concepts(self, nebula):
        # Gene and Gene Family both live on the Gene table; GID appears in
        # multiple equivalents — the engine must index each column once.
        columns = nebula._searchable_columns()
        assert len(columns) == len(set(columns))


class TestSharedExecutionStats:
    def test_saved_statements_accounting(self):
        stats = SharedExecutionStats(total_sql=10, executed_statements=4)
        assert stats.saved_statements == 6


class TestHopProfileEdges:
    def test_as_rows_with_large_k_max(self):
        profile = HopProfile()
        profile.record(1)
        rows = profile.as_rows(k_max=4)
        assert [r[0] for r in rows] == [0, 1, 2, 3, 4]
        assert rows[1][2] == 1.0

    def test_as_rows_empty(self):
        assert HopProfile().as_rows() == []


class TestWorkloadDoesNotTouchDatabase:
    def test_publication_table_unchanged(self, bio_db):
        before = bio_db.connection.execute(
            "SELECT COUNT(*) FROM Publication"
        ).fetchone()[0]
        annotations_before = bio_db.manager.store.count_annotations()
        generate_workload(bio_db, WorkloadSpec(seed=71))
        after = bio_db.connection.execute(
            "SELECT COUNT(*) FROM Publication"
        ).fetchone()[0]
        assert after == before
        assert bio_db.manager.store.count_annotations() == annotations_before


class TestTextStyleDiversity:
    def test_all_head_styles_occur(self, bio_db):
        from repro.datagen.text import ReferenceStyle

        workload = generate_workload(bio_db, WorkloadSpec(seed=73))
        styles = {
            r.style
            for a in workload.annotations
            for r in a.references
        }
        assert ReferenceStyle.TYPE2 in styles
        assert ReferenceStyle.BARE in styles
        # TYPE1/TYPE3 appear with 15% probability each over 60+ sentences.
        assert ReferenceStyle.TYPE1 in styles or ReferenceStyle.TYPE3 in styles
