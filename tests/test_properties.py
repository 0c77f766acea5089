"""Cross-cutting property-based tests (hypothesis).

These pin down the invariants the paper's algorithms rely on:

* shared execution is *observationally identical* to isolated execution
  for arbitrary keyword-query groups;
* IdentifyRelatedTuples always emits max-normalized, sorted confidences;
* query generation is deterministic and always yields weights in (0, 1]
  with no duplicate keyword sets;
* the focal adjustment never decreases a confidence and is monotone in
  the edge weight.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import NebulaConfig
from repro.core.execution import identify_related_tuples
from repro.core.focal import apply_focal_adjustment
from repro.core.acg import AnnotationsConnectivityGraph
from repro.core.query_generation import MAX_QUERY_KEYWORDS, generate_queries
from repro.core.shared_execution import SharedExecutor
from repro.meta.lexicon import DEFAULT_LEXICON
from repro.search.engine import KeywordQuery, KeywordSearchEngine
from repro.types import TupleRef
from repro.utils.tokenize import normalize_word

from conftest import build_figure1_connection, build_figure1_meta

SEARCHABLE = [("Gene", "GID"), ("Gene", "Name"), ("Protein", "PID"),
              ("Protein", "PName"), ("Protein", "PType")]

#: Keyword pool mixing concepts, true values, and junk.
_KEYWORD_POOL = (
    "gene", "protein", "family", "id", "name",
    "JW0013", "JW0014", "JW0019", "grpC", "yaaB", "nhaA", "G-Actin",
    "enzyme", "F1", "zzz", "spectacular", "data",
)

_ENGINE = KeywordSearchEngine(
    build_figure1_connection(),
    searchable_columns=SEARCHABLE,
    aliases={"genes": ("Gene", None)},
    lexicon=DEFAULT_LEXICON,
)
_META = build_figure1_meta()


def _queries_from(seed_lists):
    queries = []
    for i, keywords in enumerate(seed_lists):
        if keywords:
            queries.append(
                KeywordQuery(tuple(keywords), weight=1.0 - 0.01 * i, label=f"q{i}")
            )
    return queries


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    st.lists(
        st.lists(st.sampled_from(_KEYWORD_POOL), min_size=1, max_size=3),
        min_size=1,
        max_size=5,
    )
)
def test_shared_execution_equals_isolated(keyword_lists):
    queries = _queries_from(keyword_lists)
    isolated = {q.describe(): _ENGINE.search(q) for q in queries}
    shared = SharedExecutor(_ENGINE).search_all(queries)
    assert set(isolated) == set(shared)
    for label in isolated:
        iso = {(t.ref, round(t.confidence, 9)) for t in isolated[label].tuples}
        shr = {(t.ref, round(t.confidence, 9)) for t in shared[label].tuples}
        assert iso == shr


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    st.lists(
        st.lists(st.sampled_from(_KEYWORD_POOL), min_size=1, max_size=3),
        min_size=1,
        max_size=4,
    )
)
def test_identify_related_tuples_normalization(keyword_lists):
    queries = _queries_from(keyword_lists)
    result = identify_related_tuples(queries, _ENGINE)
    confidences = [t.confidence for t in result.tuples]
    if confidences:
        assert max(confidences) == pytest.approx(1.0)
        assert all(0.0 < c <= 1.0 + 1e-12 for c in confidences)
        assert confidences == sorted(confidences, reverse=True)
    # No duplicate tuples after grouping.
    refs = [t.ref for t in result.tuples]
    assert len(refs) == len(set(refs))


_TEXT_FRAGMENTS = (
    "the gene JW0014 was studied",
    "we saw grpC and yaaB",
    "protein G-Actin binds",
    "family F1 members",
    "results were inconclusive overall",
    "id JW0013 follows",
    "an enzyme assay ran",
)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    st.lists(st.sampled_from(_TEXT_FRAGMENTS), min_size=1, max_size=6),
    st.sampled_from([0.4, 0.6, 0.8]),
)
def test_query_generation_invariants(fragments, epsilon):
    text = ". ".join(fragments) + "."
    config = NebulaConfig(epsilon=epsilon)
    first = generate_queries(text, _META, config)
    second = generate_queries(text, _META, config)
    # Deterministic.
    assert [q.keywords for q in first.queries] == [q.keywords for q in second.queries]
    # Weights normalized into (0, 1], max exactly 1 when non-empty.
    weights = [q.weight for q in first.queries]
    if weights:
        assert max(weights) == pytest.approx(1.0)
        assert all(0.0 < w <= 1.0 + 1e-12 for w in weights)
    # No duplicate keyword sets.
    seen = [frozenset(normalize_word(k) for k in q.keywords) for q in first.queries]
    assert len(seen) == len(set(seen))
    # Keyword count bounded, already before deduplication.
    assert all(len(c.keywords) <= MAX_QUERY_KEYWORDS for c in first.candidates)
    assert all(len(q.keywords) <= MAX_QUERY_KEYWORDS for q in first.queries)


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(
        st.integers(1, 10).map(lambda i: TupleRef("Gene", i)),
        st.floats(0.01, 1.0, allow_nan=False),
        max_size=10,
    ),
    st.lists(st.integers(1, 10).map(lambda i: TupleRef("Gene", i)), max_size=3),
)
def test_focal_adjustment_never_decreases(confidences, focal):
    acg = AnnotationsConnectivityGraph()
    # A small fixed co-annotation structure.
    for ann, (a, b) in enumerate([(1, 2), (2, 3), (3, 4), (1, 5)], start=1):
        acg.add_attachment(ann, TupleRef("Gene", a))
        acg.add_attachment(ann, TupleRef("Gene", b))
    adjusted = apply_focal_adjustment(confidences, acg, focal)
    assert set(adjusted) == set(confidences)
    for ref, conf in confidences.items():
        assert adjusted[ref] >= conf - 1e-12
