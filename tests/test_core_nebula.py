"""Tests for the Nebula engine facade (Stages 0-3 wired together)."""

import pytest

from repro import Nebula, NebulaConfig, generate_bio_database
from repro.core.verification import Decision
from repro.datagen.biodb import BioDatabaseSpec


@pytest.fixture(scope="module")
def db():
    return generate_bio_database(
        BioDatabaseSpec(genes=60, proteins=35, publications=250, seed=13)
    )


@pytest.fixture()
def nebula(db):
    return Nebula(db.backend, db.meta, NebulaConfig(epsilon=0.6), aliases=db.aliases)


class TestAnalyze:
    def test_discovers_referenced_gene(self, db, nebula):
        target = db.genes[5]
        focal = [db.resolve("gene", db.genes[4].gid)]
        report = nebula.analyze(
            f"We looked into gene {target.gid} during the assay.", focal=focal
        )
        assert db.resolve("gene", target.gid) in report.identified.refs
        assert report.mode == "full"

    def test_spreading_mode_restricts_scope(self, db, nebula):
        # Focal in community 0; reference in the same community.
        genes, _ = db.community_members(0)
        focal = [db.resolve("gene", genes[0].gid)]
        report = nebula.analyze(
            f"Results involve gene {genes[1].gid} here.",
            focal=focal,
            use_spreading=True,
            radius=2,
        )
        assert report.mode == "spreading"
        assert report.scope_size is not None
        assert db.resolve("gene", genes[1].gid) in report.identified.refs

    def test_spreading_requires_focal(self, db, nebula):
        report = nebula.analyze("gene JW0001 mentioned.", focal=[], use_spreading=True)
        assert report.mode == "full"

    def test_spreading_cleans_up_minidb(self, db, nebula):
        genes, _ = db.community_members(0)
        nebula.analyze(
            f"gene {genes[1].gid}.",
            focal=[db.resolve("gene", genes[0].gid)],
            use_spreading=True,
        )
        leftovers = db.connection.execute(
            "SELECT name FROM sqlite_temp_master WHERE name LIKE '_minidb_%'"
        ).fetchall()
        assert leftovers == []

    def test_analyze_persists_nothing(self, db, nebula):
        before = db.manager.store.count_attachments()
        annotations_before = db.manager.store.count_annotations()
        nebula.analyze(f"gene {db.genes[0].gid}.", focal=[])
        assert db.manager.store.count_attachments() == before
        assert db.manager.store.count_annotations() == annotations_before

    def test_shared_execution_equivalent(self, db, nebula):
        genes, _ = db.community_members(1)
        text = f"We examined genes {genes[0].gid}, then {genes[1].gid} and {genes[2].name}."
        isolated = nebula.analyze(text, shared=False)
        shared = nebula.analyze(text, shared=True)
        assert isolated.identified.refs == shared.identified.refs


class TestInsertAnnotation:
    def test_full_pipeline(self, db, nebula):
        genes, _ = db.community_members(2)
        focal_ref = db.resolve("gene", genes[0].gid)
        target_ref = db.resolve("gene", genes[1].gid)
        report = nebula.insert_annotation(
            f"This concerns gene {genes[1].gid} in depth.",
            attach_to=[focal_ref],
            author="alice",
        )
        assert report.annotation_id is not None
        assert nebula.manager.focal_of(report.annotation_id)[0] == focal_ref
        accepted = [t.ref for t in report.tasks if t.decision.is_accepted]
        assert target_ref in accepted
        # The accepted attachment is now a true edge.
        assert target_ref in nebula.manager.focal_of(report.annotation_id)

    def test_pending_task_lifecycle_via_command(self, db, nebula):
        genes, _ = db.community_members(3)
        # A weaker reference (by name, through a filler-heavy text) may
        # land in the pending band; force one by inserting with tight
        # bounds via config.
        tight = Nebula(
            db.backend,
            db.meta,
            NebulaConfig(epsilon=0.6, beta_lower=0.01, beta_upper=0.999),
            aliases=db.aliases,
        )
        # Two references: the first forms a direct Type-2 pair (normalizes
        # to 1.0 -> auto-accept), the second is a backward-paired bare value
        # whose weight normalizes below beta_upper -> pending.
        report = tight.insert_annotation(
            f"We examined genes {genes[2].gid}, and later saw {genes[3].gid} too.",
            attach_to=[db.resolve("gene", genes[0].gid)],
        )
        pending = [t for t in report.tasks if t.decision is Decision.PENDING]
        assert pending
        result = tight.execute_command(f"VERIFY ATTACHMENT {pending[0].task_id}")
        assert "verified" in result.message
        assert pending[0].ref in tight.manager.focal_of(report.annotation_id)

    def test_stability_tracker_advances(self, db):
        nebula = Nebula(
            db.backend,
            db.meta,
            NebulaConfig(epsilon=0.6, batch_size=2),
            aliases=db.aliases,
        )
        genes, _ = db.community_members(4)
        for i in range(2):
            nebula.insert_annotation(
                f"gene {genes[i].gid} study.",
                attach_to=[db.resolve("gene", genes[i].gid)],
            )
        assert len(nebula.stability.history) == 1

    def test_report_carries_generation_and_timing(self, db, nebula):
        genes, _ = db.community_members(5)
        report = nebula.insert_annotation(
            f"gene {genes[0].gid} noted.", attach_to=[]
        )
        assert report.query_count >= 1
        assert report.elapsed > 0.0
        assert set(report.generation.phase_times) == {
            "map_generation", "context_adjustment", "query_formation",
        }


class TestEngineSetup:
    def test_searchable_columns_from_concepts(self, db, nebula):
        indexed = nebula.engine.index.indexed_columns
        assert ("gene", "gid") in indexed
        assert ("protein", "ptype") in indexed

    def test_acg_built_from_existing_annotations(self, db, nebula):
        assert nebula.acg.node_count > 0
        assert nebula.acg.edge_count > 0

    def test_acg_skippable(self, db):
        bare = Nebula(db.backend, db.meta, build_acg=False)
        assert bare.acg.node_count == 0
