"""Unit tests for IdentifyRelatedTuples, focal adjustment, and sharing."""

import pytest

from repro.config import NebulaConfig
from repro.core import shared_execution
from repro.core.acg import AnnotationsConnectivityGraph
from repro.core.execution import identify_related_tuples
from repro.core.focal import apply_focal_adjustment, focal_reward_factor
from repro.core.query_generation import generate_queries
from repro.core.shared_execution import SharedExecutor
from repro.meta.lexicon import DEFAULT_LEXICON
from repro.search.engine import KeywordQuery, KeywordSearchEngine, SearchScope
from repro.types import TupleRef

from conftest import build_figure1_connection, build_figure1_meta

SEARCHABLE = [("Gene", "GID"), ("Gene", "Name"), ("Protein", "PID"),
              ("Protein", "PName"), ("Protein", "PType")]


@pytest.fixture
def engine():
    return KeywordSearchEngine(
        build_figure1_connection(),
        searchable_columns=SEARCHABLE,
        aliases={"genes": ("Gene", None)},
        lexicon=DEFAULT_LEXICON,
    )


def _queries():
    return [
        KeywordQuery(("gene", "JW0014"), weight=1.0, label="q1"),
        KeywordQuery(("gene", "groP"), weight=0.8, label="q2"),
        KeywordQuery(("gene", "yaaB"), weight=0.6, label="q3"),
    ]


class TestIdentifyRelatedTuples:
    def test_grouping_rewards_multi_query_tuples(self, engine):
        # Gene#2 is JW0014 *and* groP: it satisfies q1 and q2 and must
        # outrank Gene#5 (yaaB) which satisfies only q3.
        result = identify_related_tuples(_queries(), engine)
        assert result.tuples[0].ref == TupleRef("Gene", 2)
        assert result.confidence_of(TupleRef("Gene", 2)) == 1.0
        assert result.confidence_of(TupleRef("Gene", 5)) < 1.0

    def test_provenance_collects_query_labels(self, engine):
        result = identify_related_tuples(_queries(), engine)
        top = result.tuples[0]
        assert set(top.provenance) == {"q1", "q2"}

    def test_query_weight_scales_confidence(self, engine):
        heavy = identify_related_tuples(
            [KeywordQuery(("gene", "yaaB"), weight=1.0, label="q")], engine
        )
        light = identify_related_tuples(
            [KeywordQuery(("gene", "yaaB"), weight=0.1, label="q")], engine
        )
        # Normalization hides absolute scale with one query; check raw count
        # equality and that both found the tuple.
        assert heavy.refs == light.refs

    def test_normalized_to_unit_max(self, engine):
        result = identify_related_tuples(_queries(), engine)
        assert max(t.confidence for t in result.tuples) == 1.0

    def test_empty_queries(self, engine):
        result = identify_related_tuples([], engine)
        assert result.tuples == []
        assert result.raw_tuple_count == 0

    def test_raw_count_sums_per_query_answers(self, engine):
        result = identify_related_tuples(_queries(), engine)
        assert result.raw_tuple_count == sum(
            len(r.tuples) for r in result.per_query.values()
        )

    def test_scope_propagates(self, engine):
        scope = SearchScope.from_refs([TupleRef("Gene", 5)])
        result = identify_related_tuples(_queries(), engine, scope=scope)
        assert result.refs == [TupleRef("Gene", 5)]


class TestFocalAdjustment:
    @pytest.fixture
    def acg(self):
        acg = AnnotationsConnectivityGraph()
        # focal f=Gene#1 shares annotations with Gene#2 (strongly) and
        # Gene#3 (weakly); Gene#4 is unconnected.
        acg.add_attachment(1, TupleRef("Gene", 1))
        acg.add_attachment(1, TupleRef("Gene", 2))
        acg.add_attachment(2, TupleRef("Gene", 1))
        acg.add_attachment(2, TupleRef("Gene", 2))
        acg.add_attachment(3, TupleRef("Gene", 1))
        acg.add_attachment(3, TupleRef("Gene", 3))
        acg.add_attachment(4, TupleRef("Gene", 3))
        acg.add_attachment(5, TupleRef("Gene", 4))
        return acg

    def test_connected_candidate_boosted(self, acg):
        focal = [TupleRef("Gene", 1)]
        confidences = {TupleRef("Gene", 2): 0.5, TupleRef("Gene", 4): 0.5}
        adjusted = apply_focal_adjustment(confidences, acg, focal)
        assert adjusted[TupleRef("Gene", 2)] > adjusted[TupleRef("Gene", 4)]
        assert adjusted[TupleRef("Gene", 4)] == 0.5

    def test_stronger_edge_bigger_boost(self, acg):
        focal = [TupleRef("Gene", 1)]
        factor2 = focal_reward_factor(TupleRef("Gene", 2), acg, focal)
        factor3 = focal_reward_factor(TupleRef("Gene", 3), acg, focal)
        assert factor2 > factor3 > 1.0

    def test_multiple_focals_compound(self, acg):
        focal = [TupleRef("Gene", 1), TupleRef("Gene", 3)]
        # Gene#2 connects to f1 only; factor with two focals where one is
        # not adjacent must equal the single-focal factor.
        single = focal_reward_factor(TupleRef("Gene", 2), acg, [TupleRef("Gene", 1)])
        both = focal_reward_factor(TupleRef("Gene", 2), acg, focal)
        assert both == pytest.approx(single)

    def test_tuple_outside_acg_unchanged(self, acg):
        confidences = {TupleRef("Gene", 99): 0.7}
        adjusted = apply_focal_adjustment(confidences, acg, [TupleRef("Gene", 1)])
        assert adjusted[TupleRef("Gene", 99)] == 0.7

    def test_no_focal_identity(self, acg):
        confidences = {TupleRef("Gene", 2): 0.4}
        assert apply_focal_adjustment(confidences, acg, []) == confidences

    def test_input_not_mutated(self, acg):
        confidences = {TupleRef("Gene", 2): 0.4}
        apply_focal_adjustment(confidences, acg, [TupleRef("Gene", 1)])
        assert confidences[TupleRef("Gene", 2)] == 0.4

    def test_integrated_into_identify(self, engine, acg):
        plain = identify_related_tuples(_queries(), engine)
        adjusted = identify_related_tuples(
            _queries(), engine, acg=acg, focal=[TupleRef("Gene", 1)]
        )
        # Gene#5 (yaaB) has no focal edge; Gene#2 has a strong one — the
        # relative gap must widen under adjustment.
        gap_plain = plain.confidence_of(TupleRef("Gene", 2)) - plain.confidence_of(
            TupleRef("Gene", 5)
        )
        gap_adjusted = adjusted.confidence_of(
            TupleRef("Gene", 2)
        ) - adjusted.confidence_of(TupleRef("Gene", 5))
        assert gap_adjusted >= gap_plain


class TestSharedExecutor:
    def test_results_identical_to_isolated(self, engine):
        meta = build_figure1_meta()
        text = "We examined genes JW0014 and also grpC with the family F1 set"
        generation = generate_queries(text, meta, NebulaConfig())
        isolated = {
            q.describe(): engine.search(q) for q in generation.queries
        }
        shared = SharedExecutor(engine).search_all(generation.queries)
        assert set(isolated) == set(shared)
        for label in isolated:
            iso = {(t.ref, round(t.confidence, 9)) for t in isolated[label].tuples}
            shr = {(t.ref, round(t.confidence, 9)) for t in shared[label].tuples}
            assert iso == shr

    def test_sharing_reduces_statements(self, engine):
        queries = [
            KeywordQuery(("gene", "JW0013"), label="a"),
            KeywordQuery(("gene", "JW0014"), label="b"),
            KeywordQuery(("gene", "JW0015"), label="c"),
        ]
        executor = SharedExecutor(engine)
        executor.search_all(queries)
        stats = executor.last_stats
        assert stats.total_sql > stats.executed_statements
        assert stats.batched_statements >= 1

    def test_duplicate_queries_share(self, engine):
        queries = [
            KeywordQuery(("gene", "JW0013"), label="a"),
            KeywordQuery(("gene", "JW0013"), label="b"),
        ]
        executor = SharedExecutor(engine)
        results = executor.search_all(queries)
        assert results["a"].refs == results["b"].refs

    def test_scope_respected(self, engine):
        queries = [
            KeywordQuery(("gene", "JW0013"), label="a"),
            KeywordQuery(("gene", "JW0014"), label="b"),
        ]
        scope = SearchScope.from_refs([TupleRef("Gene", 2)])
        results = SharedExecutor(engine).search_all(queries, scope=scope)
        assert results["a"].refs == []
        assert results["b"].refs == [TupleRef("Gene", 2)]

    def test_in_list_split_at_variable_limit_keeps_results(self, engine, monkeypatch):
        gids = ("JW0013", "JW0014", "JW0015", "JW0018",
                "JW0019", "JW0012", "JW0027", "JW0099")
        groups = [
            [KeywordQuery(("gene", gid), label=gid) for gid in gids[:4]],
            [KeywordQuery(("gene", gid), label=gid) for gid in gids[4:]]
            + [KeywordQuery(("gene", "grpC"), label="name")],
        ]

        def run():
            executor = SharedExecutor(engine)
            results = executor.execute_groups(groups)
            rows = [
                {label: [(t.ref, t.confidence) for t in result.tuples]
                 for label, result in group.items()}
                for group in results
            ]
            return rows, executor.last_stats.executed_statements

        whole, whole_statements = run()
        monkeypatch.setattr(shared_execution, "MAX_VARIABLES", 3)
        split, split_statements = run()
        assert split == whole
        assert sum(len(rows) for group in whole for rows in group.values()) == 8
        # The eight-value GID probe ran as three IN statements, not one.
        assert split_statements == whole_statements + 2

    def test_executor_plugs_into_identify(self, engine):
        executor = SharedExecutor(engine)
        plain = identify_related_tuples(_queries(), engine)
        shared = identify_related_tuples(_queries(), engine, executor=executor)
        assert plain.refs == shared.refs
