"""Unit tests for ontologies and column samples."""

import random

from hypothesis import given, strategies as st

from repro.meta.ontology import Ontology
from repro.meta.sampling import ColumnSample, _shape_similarity
from repro.utils.tokenize import normalize_word


class TestOntology:
    def test_direct_membership(self):
        onto = Ontology("t", ["enzyme", "kinase"])
        assert onto.contains("enzyme")
        assert onto.contains("ENZYME")
        assert not onto.contains("swimming")

    def test_transitive_membership(self):
        onto = Ontology(
            "t",
            ["transport"],
            parents={"ion transport": "transport", "proton transport": "ion transport"},
        )
        assert onto.contains("proton transport")
        assert not onto.contains("proton transport", transitive=False)

    def test_cycle_in_parents_terminates(self):
        onto = Ontology("t", ["x"], parents={"a": "b", "b": "a"})
        assert not onto.contains("a")

    def test_ancestors(self):
        onto = Ontology("t", ["top"], parents={"mid": "top", "leaf": "mid"})
        assert onto.ancestors("leaf") == frozenset({"mid", "top"})

    def test_dunder_contains_and_len(self):
        onto = Ontology("t", ["a", "b"])
        assert "a" in onto
        assert len(onto) == 2


class TestColumnSample:
    def test_exact_membership(self):
        sample = ColumnSample("Gene", "Name", ("grpC", "yaaB"))
        assert sample.contains("GRPC")
        assert sample.match_score("grpC") == 1.0

    def test_shape_match_is_damped(self):
        sample = ColumnSample("Gene", "Name", ("grpC", "yaaB", "insL"))
        score = sample.match_score("nhaA")  # same shape, not in sample
        assert 0.0 < score <= 0.7

    def test_dissimilar_word_scores_low(self):
        sample = ColumnSample("Gene", "GID", ("JW0013", "JW0014"))
        long_word = sample.match_score("supercalifragilistic")
        similar = sample.match_score("JW9999")
        assert long_word < similar

    def test_empty_sample(self):
        assert ColumnSample("t", "c", ()).match_score("x") == 0.0

    def test_draw_is_deterministic(self):
        population = [f"v{i}" for i in range(200)]
        a = ColumnSample.draw("t", "c", population, size=10, rng=random.Random(1))
        b = ColumnSample.draw("t", "c", population, size=10, rng=random.Random(1))
        assert a.values == b.values
        assert len(a) == 10

    def test_draw_small_population_keeps_all(self):
        sample = ColumnSample.draw("t", "c", ["a", "b"], size=10)
        assert len(sample) == 2


@given(st.text(min_size=1, max_size=15), st.text(min_size=1, max_size=15))
def test_shape_similarity_bounded_and_symmetric(a, b):
    score = _shape_similarity(a, b)
    assert 0.0 <= score <= 1.0
    assert score == _shape_similarity(b, a)


@given(st.text(min_size=1, max_size=15))
def test_shape_similarity_self_is_one(value):
    assert _shape_similarity(value, value) == 1.0


_SHAPED_TEXT = st.text(alphabet="aZ09-. ", max_size=8) | st.text(max_size=8)


@given(st.lists(_SHAPED_TEXT, max_size=12), st.data())
def test_match_score_equals_brute_force(values, data):
    word = data.draw(_SHAPED_TEXT | st.sampled_from(values) if values else _SHAPED_TEXT)
    sample = ColumnSample("t", "c", tuple(values))
    if not values:
        expected = 0.0
    elif normalize_word(word) in {normalize_word(v) for v in values}:
        expected = 1.0
    else:
        expected = 0.7 * max(_shape_similarity(word, v) for v in values)
    assert sample.match_score(word) == expected
