"""Tests for the paper's extension features: the ConceptRefs learner
(footnote 2), the direct-edge focal reward (§6.2), and the
spam-annotation guard (footnote 1)."""

import pytest

from repro.annotations.engine import AnnotationManager
from repro.core.acg import AnnotationsConnectivityGraph
from repro.core.focal import apply_focal_adjustment, focal_reward_factor
from repro.core.spam import SpamGuard, count_searchable_tuples
from repro.meta.learning import ConceptLearner, apply_proposals
from repro.meta.repository import NebulaMeta
from repro.types import CellRef, ScoredTuple, TupleRef

from conftest import build_figure1_connection


class TestConceptLearner:
    @pytest.fixture
    def world(self):
        connection = build_figure1_connection()
        manager = AnnotationManager(connection)
        # Annotations referencing genes by GID and by Name.
        manager.add_annotation(
            "about gene JW0013 in depth", attach_to=[CellRef("Gene", 1)]
        )
        manager.add_annotation(
            "the grpC locus matters", attach_to=[CellRef("Gene", 1)]
        )
        manager.add_annotation(
            "results on JW0019 and yaaB", attach_to=[CellRef("Gene", 5)]
        )
        manager.add_annotation(
            "we also touch JW0014", attach_to=[CellRef("Gene", 2)]
        )
        # One protein annotation referencing by PName.
        manager.add_annotation(
            "the G-Actin story", attach_to=[CellRef("Protein", 1)]
        )
        return connection, manager

    def test_learns_gene_referencing_columns(self, world):
        connection, manager = world
        learner = ConceptLearner(manager, min_support=0.4, min_attachments=3)
        proposals = learner.learn()
        gene = next(p for p in proposals if p.table == "Gene")
        columns = {e.column for e in gene.columns}
        assert "GID" in columns
        assert "Name" in columns
        # Unreferenced columns stay out.
        assert "Seq" not in columns
        assert "Length" not in columns

    def test_support_threshold_filters(self, world):
        connection, manager = world
        strict = ConceptLearner(manager, min_support=0.9, min_attachments=3)
        proposals = strict.learn()
        # GID appears in 3/4 gene attachments (0.75 < 0.9): filtered out.
        assert all(p.table != "Gene" for p in proposals)

    def test_min_attachments_gate(self, world):
        connection, manager = world
        learner = ConceptLearner(manager, min_support=0.1, min_attachments=3)
        proposals = learner.learn()
        # Protein has only one attachment: below the gate.
        assert all(p.table != "Protein" for p in proposals)

    def test_apply_proposals_respects_existing_concepts(self, world):
        connection, manager = world
        learner = ConceptLearner(manager, min_support=0.4, min_attachments=3)
        proposals = learner.learn()
        meta = NebulaMeta()
        added = apply_proposals(meta, proposals, connection=connection)
        assert added == 1
        assert meta.get_concept("Gene").table == "Gene"
        # Second application is a no-op.
        assert apply_proposals(meta, proposals) == 0

    def test_bootstrap_after_apply(self, world):
        connection, manager = world
        learner = ConceptLearner(manager, min_support=0.4, min_attachments=3)
        meta = NebulaMeta()
        apply_proposals(meta, learner.learn(), connection=connection)
        assert meta.sample_for("Gene", "GID") is not None


class TestFocalReward:
    def test_only_direct_neighbours_are_rewarded(self):
        # 1 - 2 - 3 chain: Gene 2 is the focal's neighbour, Gene 3 is two
        # hops away and gets nothing (§6.2 rejects the multi-hop reward).
        chain = AnnotationsConnectivityGraph()
        for ann, (a, b) in enumerate([(1, 2), (2, 3)], start=1):
            chain.add_attachment(ann, TupleRef("Gene", a))
            chain.add_attachment(ann, TupleRef("Gene", b))
        focal = [TupleRef("Gene", 1)]
        assert focal_reward_factor(TupleRef("Gene", 3), chain, focal) == 1.0
        assert focal_reward_factor(TupleRef("Gene", 2), chain, focal) > 1.0
        confidences = {TupleRef("Gene", 3): 0.5}
        assert apply_focal_adjustment(confidences, chain, focal) == confidences


class TestSpamGuard:
    def _flat(self, count, confidence=0.5):
        return [
            ScoredTuple(TupleRef("Gene", i), confidence, ()) for i in range(count)
        ]

    def test_normal_prediction_passes(self):
        guard = SpamGuard()
        candidates = [
            ScoredTuple(TupleRef("Gene", 1), 1.0, ()),
            ScoredTuple(TupleRef("Gene", 2), 0.4, ()),
        ]
        verdict = guard.screen(candidates, searchable_tuples=1000)
        assert not verdict.is_spam

    def test_fan_out_detected(self):
        guard = SpamGuard(max_candidates=100)
        verdict = guard.screen(self._flat(150), searchable_tuples=100000)
        assert verdict.is_spam
        assert verdict.reason == "fan-out"

    def test_coverage_detected(self):
        guard = SpamGuard(max_coverage=0.3)
        candidates = [
            ScoredTuple(TupleRef("Gene", i), 1.0 - i * 0.02, ()) for i in range(40)
        ]
        verdict = guard.screen(candidates, searchable_tuples=100)
        assert verdict.is_spam
        assert verdict.reason == "coverage"

    def test_flatness_detected(self):
        guard = SpamGuard(flatness_minimum=50, flatness_spread=0.15)
        verdict = guard.screen(self._flat(60, 0.8), searchable_tuples=100000)
        assert verdict.is_spam
        assert verdict.reason == "flatness"

    def test_peaked_distribution_not_flat(self):
        guard = SpamGuard(flatness_minimum=10, flatness_spread=0.15)
        candidates = [ScoredTuple(TupleRef("Gene", 0), 1.0, ())] + self._flat(20, 0.3)
        verdict = guard.screen(candidates, searchable_tuples=100000)
        assert not verdict.is_spam

    def test_empty_candidates(self):
        verdict = SpamGuard().screen([], searchable_tuples=100)
        assert not verdict.is_spam

    def test_count_searchable_tuples(self):
        connection = build_figure1_connection()
        total = count_searchable_tuples(connection, ["Gene", "Protein", "Gene"])
        assert total == 10  # 7 genes + 3 proteins; duplicate table ignored


class TestSpamGuardIntegration:
    def test_spammy_annotation_quarantined(self, bio_db):
        from repro import Nebula, NebulaConfig

        nebula = Nebula(
            bio_db.backend, bio_db.meta, NebulaConfig(epsilon=0.6),
            aliases=bio_db.aliases,
        )
        # Tighten the guard so a moderately broad annotation trips it.
        nebula.spam_guard = SpamGuard(max_candidates=2)
        genes = bio_db.genes
        text = (
            f"We examined genes {genes[0].gid}, and later {genes[1].gid} "
            f"and later {genes[2].gid} and later {genes[3].gid}."
        )
        report = nebula.insert_annotation(text, attach_to=[])
        assert report.spam_verdict is not None
        assert report.spam_verdict.is_spam
        assert report.tasks == []
        # No predicted attachments were created.
        assert nebula.manager.pending_predicted(report.annotation_id) == []
