"""Unit tests for keyword-query generation (Stage 1, Step 4)."""

from types import SimpleNamespace

import pytest

from repro.config import NebulaConfig
from repro.core import query_generation
from repro.core.query_generation import generate_queries
from repro.utils.tokenize import normalize_word

from conftest import build_figure1_meta


@pytest.fixture
def meta():
    return build_figure1_meta()


def _keyword_sets(result):
    return [frozenset(normalize_word(k) for k in q.keywords) for q in result.queries]


class TestBasicGeneration:
    def test_type2_query_from_concept_value_pair(self, meta):
        result = generate_queries("the gene JW0014 was active", meta, NebulaConfig())
        assert frozenset({"gene", "jw0014"}) in _keyword_sets(result)

    def test_type1_query_has_three_keywords(self, meta):
        result = generate_queries("gene id JW0018", meta, NebulaConfig())
        assert frozenset({"gene", "id", "jw0018"}) in _keyword_sets(result)

    def test_value_without_concept_ignored(self, meta):
        # A lone identifier with no concept anywhere: no query at all.
        result = generate_queries("JW0014 observed strongly", meta, NebulaConfig())
        assert result.queries == []

    def test_concept_without_value_ignored(self, meta):
        result = generate_queries("the gene was active", meta, NebulaConfig())
        assert result.queries == []

    def test_alice_comment_end_to_end(self, meta):
        text = (
            "From the exp, it seems this gene is correlated to JW0014 of grpC"
        )
        result = generate_queries(text, meta, NebulaConfig())
        sets = _keyword_sets(result)
        assert frozenset({"gene", "jw0014"}) in sets
        # grpC pairs with the same backward "gene" concept.
        assert frozenset({"gene", "grpc"}) in sets

    def test_weights_normalized(self, meta):
        result = generate_queries("gene JW0014 and gene id JW0018", meta, NebulaConfig())
        weights = [q.weight for q in result.queries]
        assert max(weights) == pytest.approx(1.0)
        assert all(0.0 < w <= 1.0 for w in weights)

    def test_duplicate_queries_merged(self, meta):
        # The pair is reachable from both the concept and the value word;
        # only one query must survive.
        result = generate_queries("gene JW0014", meta, NebulaConfig())
        sets = _keyword_sets(result)
        assert len(sets) == len(set(sets))


class TestBackwardSearch:
    def test_list_tail_values_paired_backward(self, meta):
        text = "We examined genes JW0014, then also later on insL and nhaA"
        result = generate_queries(text, meta, NebulaConfig())
        sets = _keyword_sets(result)
        assert frozenset({"genes", "insl"}) in sets or frozenset({"genes", "nhaa"}) in sets

    def test_backward_disabled_by_config(self, meta):
        text = "We examined genes JW0014, filler filler filler filler nhaA"
        with_backward = generate_queries(text, meta, NebulaConfig())
        without = generate_queries(
            text, meta, NebulaConfig(backward_concept_search=False)
        )
        assert len(with_backward.queries) > len(without.queries)

    def test_backward_requires_compatible_concept(self, meta):
        # The closest backward concept is "protein": incompatible with a
        # Gene.GID value, so the value is ignored (no cross-table query).
        text = "protein story filler filler filler filler JW0014"
        result = generate_queries(text, meta, NebulaConfig())
        assert frozenset({"protein", "jw0014"}) not in _keyword_sets(result)


class TestCutoffBehavior:
    def test_tighter_cutoff_fewer_queries(self, meta):
        text = (
            "gene JW0014 and the family F1 group with protein enzyme data "
            "line GRPC observed"
        )
        loose = generate_queries(text, meta, NebulaConfig(epsilon=0.4))
        mid = generate_queries(text, meta, NebulaConfig(epsilon=0.6))
        tight = generate_queries(text, meta, NebulaConfig(epsilon=0.8))
        assert len(loose.queries) >= len(mid.queries) >= len(tight.queries)

    def test_phase_times_recorded(self, meta, monkeypatch):
        result = generate_queries("gene JW0014", meta, NebulaConfig())
        assert set(result.phase_times) == {
            "map_generation", "context_adjustment", "query_formation",
        }
        assert result.total_time > 0.0
        # One clock read per phase boundary: each phase is the delta of
        # its two boundary reads, and the phases sum to the whole span.
        reads = iter([10.0, 10.5, 11.25, 13.0])
        monkeypatch.setattr(
            query_generation,
            "time",
            SimpleNamespace(perf_counter=lambda: next(reads)),
        )
        pinned = generate_queries("gene JW0014", meta, NebulaConfig())
        assert next(reads, None) is None
        assert pinned.phase_times == {
            "map_generation": 0.5,
            "context_adjustment": 0.75,
            "query_formation": 1.75,
        }
        assert pinned.total_time == 3.0

    def test_max_keywords_respected(self, meta):
        result = generate_queries("gene id JW0018", meta, NebulaConfig())
        assert all(len(q.keywords) <= 3 for q in result.queries)

    def test_empty_annotation(self, meta):
        result = generate_queries("", meta, NebulaConfig())
        assert result.queries == []

    def test_labels_are_informative(self, meta):
        result = generate_queries("gene JW0014", meta, NebulaConfig())
        assert any("type2" in q.label for q in result.queries)
