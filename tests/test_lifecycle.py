"""Lifecycle integration tests: persistence and stability-driven modes.

These cover the operational story the paper tells:

* the annotated database lives in SQLite, so annotations, attachments,
  verification tasks, and rules all survive a close/reopen cycle, and a
  fresh Nebula engine rebuilds the ACG from the store;
* as annotations stream in, the stability tracker matures and
  ``insert_annotation`` switches from full-database search to the
  focal-based spreading search on its own.
"""

import sqlite3

from repro import (
    BioDatabaseSpec,
    Nebula,
    NebulaConfig,
    generate_bio_database,
    generate_workload,
    get_backend,
)
from repro.core.verification import Decision
from repro.datagen.workload import WorkloadSpec


class TestPersistence:
    def test_reopen_preserves_everything(self, tmp_path):
        path = str(tmp_path / "world.db")
        backend = get_backend("sqlite-file", path=path)
        db = generate_bio_database(
            BioDatabaseSpec(genes=60, proteins=36, publications=200, seed=23),
            backend=backend,
        )
        nebula = Nebula(
            db.backend, db.meta,
            NebulaConfig(epsilon=0.6, beta_lower=0.01, beta_upper=0.999),
            aliases=db.aliases,
        )
        genes, _ = db.community_members(1)
        report = nebula.insert_annotation(
            f"We examined genes {genes[1].gid}, and later saw {genes[2].gid} too.",
            attach_to=[db.resolve("gene", genes[0].gid)],
        )
        pending_before = [t for t in report.tasks if t.decision is Decision.PENDING]
        accepted_before = [t for t in report.tasks if t.decision.is_accepted]
        annotation_count = nebula.manager.store.count_annotations()
        acg_edges = nebula.acg.edge_count
        backend.primary.commit()
        backend.close()

        # Reopen with a completely fresh engine.
        reopened = get_backend("sqlite-file", path=path)
        from repro.datagen.biodb import _build_meta

        meta = _build_meta(reopened.primary)
        fresh = Nebula(reopened, meta, NebulaConfig(epsilon=0.6))
        assert fresh.manager.store.count_annotations() == annotation_count
        # The ACG rebuilds from the persisted true attachments.
        assert fresh.acg.edge_count == acg_edges
        # Pending tasks survive and can still be resolved.
        pending_after = fresh.pending_tasks()
        assert {t.task_id for t in pending_after} == {
            t.task_id for t in pending_before
        }
        if pending_after:
            resolved = fresh.verify_attachment(pending_after[0].task_id)
            assert resolved.decision is Decision.VERIFIED
        # Previously accepted attachments are still true edges.
        if accepted_before:
            focal = fresh.manager.focal_of(report.annotation_id)
            assert accepted_before[0].ref in focal

    def test_rules_survive_reopen(self, tmp_path):
        from repro.annotations.engine import AnnotationManager
        from repro.annotations.rules import RuleEngine

        path = str(tmp_path / "rules.db")
        connection = sqlite3.connect(path)
        connection.executescript(
            "CREATE TABLE Gene (GID TEXT PRIMARY KEY, Family TEXT NOT NULL);"
        )
        connection.execute("INSERT INTO Gene VALUES ('JW0001', 'F1')")
        manager = AnnotationManager(connection)
        engine = RuleEngine(manager)
        note = manager.add_annotation("F1 watch")
        engine.create_rule(note.annotation_id, "Gene", "Family = 'F1'")
        connection.commit()
        connection.close()

        reopened = sqlite3.connect(path)
        fresh_engine = RuleEngine(AnnotationManager(reopened))
        rules = fresh_engine.rules()
        assert len(rules) == 1
        assert rules[0].predicate == "Family = 'F1'"


class TestStabilityDrivenModeSwitch:
    def test_stream_flips_to_spreading(self):
        db = generate_bio_database(
            BioDatabaseSpec(genes=64, proteins=40, publications=600,
                            community_size=8, seed=41)
        )
        workload = generate_workload(db, WorkloadSpec(seed=43))
        # A small batch size and a permissive mu: the mature ACG (built
        # from 600 publications) should register as stable quickly.
        nebula = Nebula(
            db.backend, db.meta,
            NebulaConfig(epsilon=0.6, batch_size=10, stability_mu=0.6),
            aliases=db.aliases,
        )
        modes = []
        for annotation in workload.annotations[:30]:
            focal = annotation.focal(1)
            report = nebula.insert_annotation(annotation.text, attach_to=focal)
            modes.append(report.mode)
        # The stream starts in full mode (tracker has no history)...
        assert modes[0] == "full"
        # ...and flips to spreading once a batch confirms stability.
        assert "spreading" in modes
        flip = modes.index("spreading")
        assert all(m == "full" for m in modes[:flip])

    def test_explicit_override_beats_stability(self):
        db = generate_bio_database(
            BioDatabaseSpec(genes=48, proteins=30, publications=200, seed=47)
        )
        nebula = Nebula(db.backend, db.meta, NebulaConfig(epsilon=0.6),
                        aliases=db.aliases)
        genes, _ = db.community_members(0)
        focal = [db.resolve("gene", genes[0].gid)]
        forced = nebula.analyze(
            f"gene {genes[1].gid} noted.", focal=focal, use_spreading=True
        )
        assert forced.mode == "spreading"
        suppressed = nebula.analyze(
            f"gene {genes[1].gid} noted.", focal=focal, use_spreading=False
        )
        assert suppressed.mode == "full"
