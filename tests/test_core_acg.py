"""Unit + property tests for the ACG, stability tracking, and hop profile."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.annotations.engine import AnnotationManager
from repro.core.acg import (
    UNREACHABLE,
    AnnotationsConnectivityGraph,
    HopProfile,
    StabilityTracker,
)
from repro.storage.backends import SqliteFileBackend
from repro.types import CellRef, TupleRef

from conftest import build_figure1_connection


def _ref(i: int) -> TupleRef:
    return TupleRef("Gene", i)


class TestGraphConstruction:
    def test_shared_annotation_creates_edge(self):
        acg = AnnotationsConnectivityGraph()
        acg.add_attachment(1, _ref(1))
        new_edges = acg.add_attachment(1, _ref(2))
        assert new_edges == 1
        assert _ref(2) in acg.neighbors(_ref(1))

    def test_duplicate_attachment_ignored(self):
        acg = AnnotationsConnectivityGraph()
        acg.add_attachment(1, _ref(1))
        acg.add_attachment(1, _ref(2))
        assert acg.add_attachment(1, _ref(2)) == 0
        assert acg.edge_count == 1

    def test_existing_edge_not_recounted(self):
        acg = AnnotationsConnectivityGraph()
        acg.add_attachment(1, _ref(1))
        acg.add_attachment(1, _ref(2))
        acg.add_attachment(2, _ref(1))
        assert acg.add_attachment(2, _ref(2)) == 0  # edge already exists
        assert acg.edge_count == 1

    def test_clique_per_annotation(self):
        acg = AnnotationsConnectivityGraph()
        for i in range(1, 5):
            acg.add_attachment(7, _ref(i))
        assert acg.edge_count == 6  # C(4, 2)

    def test_build_from_manager(self):
        manager = AnnotationManager(build_figure1_connection())
        manager.add_annotation("a", attach_to=[CellRef("Gene", 1), CellRef("Gene", 2)])
        manager.add_annotation("b", attach_to=[CellRef("Gene", 2), CellRef("Gene", 3)])
        acg = AnnotationsConnectivityGraph.build_from_manager(manager)
        assert acg.node_count == 3
        assert acg.edge_count == 2


class TestWeights:
    def test_jaccard_weight(self):
        acg = AnnotationsConnectivityGraph()
        # t1: {1, 2}; t2: {1, 3} -> common 1, union 3.
        for ann, refs in [(1, [1, 2]), (2, [1]), (3, [2])]:
            for r in refs:
                acg.add_attachment(ann, _ref(r))
        assert acg.weight(_ref(1), _ref(2)) == pytest.approx(1 / 3)

    def test_weight_symmetric(self):
        acg = AnnotationsConnectivityGraph()
        acg.add_attachment(1, _ref(1))
        acg.add_attachment(1, _ref(2))
        assert acg.weight(_ref(1), _ref(2)) == acg.weight(_ref(2), _ref(1))

    def test_no_common_annotation_zero(self):
        acg = AnnotationsConnectivityGraph()
        acg.add_attachment(1, _ref(1))
        acg.add_attachment(2, _ref(2))
        assert acg.weight(_ref(1), _ref(2)) == 0.0

    def test_identical_sets_weight_one(self):
        acg = AnnotationsConnectivityGraph()
        for ann in (1, 2):
            acg.add_attachment(ann, _ref(1))
            acg.add_attachment(ann, _ref(2))
        assert acg.weight(_ref(1), _ref(2)) == 1.0


class TestTraversals:
    @pytest.fixture
    def chain(self):
        # 1 - 2 - 3 - 4 via chained annotations.
        acg = AnnotationsConnectivityGraph()
        for ann, (a, b) in enumerate([(1, 2), (2, 3), (3, 4)], start=1):
            acg.add_attachment(ann, _ref(a))
            acg.add_attachment(ann, _ref(b))
        return acg

    def test_k_hop_expansion(self, chain):
        assert chain.k_hop_neighbors([_ref(1)], 1) == frozenset({_ref(1), _ref(2)})
        assert chain.k_hop_neighbors([_ref(1)], 2) == frozenset(
            {_ref(1), _ref(2), _ref(3)}
        )

    def test_k_hop_excluding_seeds(self, chain):
        assert chain.k_hop_neighbors([_ref(1)], 1, include_seeds=False) == frozenset(
            {_ref(2)}
        )

    def test_k_hop_multiple_seeds(self, chain):
        reached = chain.k_hop_neighbors([_ref(1), _ref(4)], 1)
        assert reached == frozenset({_ref(1), _ref(2), _ref(3), _ref(4)})

    def test_k_hop_unknown_seed(self, chain):
        assert chain.k_hop_neighbors([_ref(99)], 2) == frozenset()

    def test_shortest_hops(self, chain):
        assert chain.shortest_hops(_ref(4), [_ref(1)]) == 3
        assert chain.shortest_hops(_ref(1), [_ref(1)]) == 0
        assert chain.shortest_hops(_ref(2), [_ref(1), _ref(3)]) == 1

    def test_shortest_hops_unreachable(self, chain):
        chain.add_attachment(99, _ref(50))  # isolated node
        assert chain.shortest_hops(_ref(50), [_ref(1)]) == UNREACHABLE
        assert chain.shortest_hops(_ref(99), [_ref(1)]) == UNREACHABLE


@given(st.lists(st.tuples(st.integers(1, 6), st.integers(1, 8)), max_size=40))
def test_acg_invariants(attachments):
    """Property: edge symmetry, no self loops, edge count consistency."""
    acg = AnnotationsConnectivityGraph()
    for annotation_id, tuple_index in attachments:
        acg.add_attachment(annotation_id, _ref(tuple_index))
    seen_edges = set()
    for node in [_ref(i) for i in range(1, 9)]:
        for neighbor in acg.neighbors(node):
            assert neighbor != node
            assert node in acg.neighbors(neighbor)
            assert acg.weight(node, neighbor) > 0.0
            seen_edges.add(frozenset((node, neighbor)))
    assert len(seen_edges) == acg.edge_count


@given(st.lists(st.integers(0, 6), max_size=60))
def test_k_hop_monotone_in_k(hops_points):
    """Property: the K-hop neighborhood grows monotonically with K."""
    acg = AnnotationsConnectivityGraph()
    for ann, (a, b) in enumerate([(1, 2), (2, 3), (2, 4), (4, 5)], start=1):
        acg.add_attachment(ann, _ref(a))
        acg.add_attachment(ann, _ref(b))
    previous = frozenset()
    for k in range(0, 5):
        current = acg.k_hop_neighbors([_ref(1)], k)
        assert previous <= current
        previous = current


def _reference_hops(acg, ref, seeds):
    """Distance to the nearest seed by a plain breadth-first search."""
    targets = {s for s in seeds if acg.contains(s)}
    if not targets or not acg.contains(ref):
        return UNREACHABLE
    depth = {ref: 0}
    queue = [ref]
    for node in queue:
        if node in targets:
            return depth[node]
        for neighbor in acg.neighbors(node):
            if neighbor not in depth:
                depth[neighbor] = depth[node] + 1
                queue.append(neighbor)
    return UNREACHABLE


@given(
    st.lists(st.tuples(st.integers(1, 12), st.integers(1, 14)), max_size=50),
    st.integers(1, 15),
    st.lists(st.integers(1, 15), max_size=4),
    st.lists(st.integers(1, 12), max_size=3),
)
def test_shortest_hops_matches_breadth_first_search(attachments, start, seeds, removed):
    """Property: the hop count is the BFS distance to the nearest seed,
    also after annotations are removed."""
    acg = AnnotationsConnectivityGraph()
    for annotation_id, tuple_index in attachments:
        acg.add_attachment(annotation_id, _ref(tuple_index))
    for annotation_id in removed:
        acg.remove_annotation(annotation_id)
    seed_refs = [_ref(i) for i in seeds]
    assert acg.shortest_hops(_ref(start), seed_refs) == _reference_hops(
        acg, _ref(start), seed_refs
    )


# The Figure-1 rows: Gene rowids 1-7, Protein rowids 1-3.
_TARGETS = [("Gene", i) for i in range(1, 8)] + [("Protein", i) for i in range(1, 4)]
_COLUMN = {"Gene": "Name", "Protein": "PName"}

#: One annotation's attachments: a row, a cell of a row (the same tuple
#: as that row's attachment), or a Gene rowid range of up to four rows.
_attachment = st.one_of(
    st.tuples(st.sampled_from(["row", "cell"]), st.sampled_from(_TARGETS)),
    st.tuples(st.just("range"), st.tuples(st.integers(1, 7), st.integers(1, 3))),
)


def _fold(manager, as_of=None):
    """The reference graph: add_attachment over every true pair."""
    graph = AnnotationsConnectivityGraph()
    for annotation_id, ref in manager.store.true_attachment_pairs(as_of=as_of):
        graph.add_attachment(annotation_id, ref)
    return graph


def _assert_same_graph(graph, reference):
    assert graph._annotations_of == reference._annotations_of
    assert graph._tuples_of == reference._tuples_of
    assert graph._adjacency == reference._adjacency
    assert graph.edge_count == reference.edge_count
    assert graph.edge_count * 2 == sum(map(len, graph._adjacency.values()))


def _assert_one_object_per_tuple(graph):
    nodes = graph._nodes
    assert nodes.keys() == graph._annotations_of.keys()
    held = list(graph._annotations_of) + list(graph._adjacency)
    for refs in list(graph._tuples_of.values()) + list(graph._adjacency.values()):
        held.extend(refs)
    assert all(nodes[ref] is ref for ref in held)


def _reference_k_hop(graph, seeds, k):
    """Tuples within ``k`` hops of a seed by a plain breadth-first search."""
    depth = {s: 0 for s in seeds if graph.contains(s)}
    queue = list(depth)
    for node in queue:
        if depth[node] == k:
            continue
        for neighbor in graph.neighbors(node):
            if neighbor not in depth:
                depth[neighbor] = depth[node] + 1
                queue.append(neighbor)
    return depth


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.lists(_attachment, max_size=5), min_size=1, max_size=8),
    st.data(),
)
def test_one_pass_build_matches_the_attachment_fold(annotations, data):
    """Property: the one-pass build equals the add_attachment fold, holds
    one object per tuple, and keeps both through removals and re-adds;
    its hop searches equal a plain BFS over the fold."""
    backend = SqliteFileBackend.temporary()
    try:
        manager = AnnotationManager(build_figure1_connection(backend.primary))
        for attachments in annotations:
            note = manager.add_annotation("note")
            for kind, target in attachments:
                if kind == "range":
                    low, width = target
                    manager.attach_range(
                        note.annotation_id, "Gene", low, min(low + width, 7)
                    )
                else:
                    table, rowid = target
                    column = _COLUMN[table] if kind == "cell" else None
                    manager.attach_true(
                        note.annotation_id, CellRef(table, rowid, column)
                    )
        built = AnnotationsConnectivityGraph.build_from_manager(manager)
        reference = _fold(manager)
        _assert_same_graph(built, reference)
        _assert_one_object_per_tuple(built)
        head = manager.store.versioning.head()
        _assert_same_graph(
            AnnotationsConnectivityGraph.build_from_manager(manager, as_of=head),
            built,
        )

        removed = data.draw(st.integers(1, len(annotations)), label="removed")
        re_adds = data.draw(
            st.lists(
                st.tuples(st.integers(1, len(annotations)), st.sampled_from(_TARGETS)),
                max_size=4,
            ),
            label="re_adds",
        )
        for graph in (built, reference):
            graph.remove_annotation(removed)
            for annotation_id, (table, rowid) in re_adds:
                graph.add_attachment(annotation_id, TupleRef(table, rowid))
        _assert_same_graph(built, reference)
        _assert_one_object_per_tuple(built)

        refs = st.sampled_from([TupleRef(table, rowid) for table, rowid in _TARGETS])
        start = data.draw(refs, label="start")
        seeds = data.draw(st.lists(refs, max_size=3), label="seeds")
        k = data.draw(st.integers(0, 4), label="k")
        assert built.shortest_hops(start, seeds) == _reference_hops(
            reference, start, seeds
        )
        within = _reference_k_hop(reference, seeds, k)
        assert built.k_hop_neighbors(seeds, k) == frozenset(within)
        assert built.k_hop_neighbors(seeds, k, include_seeds=False) == frozenset(
            ref for ref, depth in within.items() if depth > 0
        )
    finally:
        backend.close()


class TestStabilityTracker:
    def test_stable_when_few_new_edges(self):
        tracker = StabilityTracker(batch_size=2, mu=0.5)
        assert tracker.record_annotation(attachments=4, new_edges=0) is None
        result = tracker.record_annotation(attachments=4, new_edges=1)
        assert result is True  # 1/8 < 0.5
        assert tracker.stable

    def test_unstable_when_many_new_edges(self):
        tracker = StabilityTracker(batch_size=1, mu=0.1)
        assert tracker.record_annotation(attachments=2, new_edges=2) is False
        assert not tracker.stable

    def test_counters_reset_between_batches(self):
        tracker = StabilityTracker(batch_size=1, mu=0.5)
        tracker.record_annotation(attachments=10, new_edges=9)  # unstable
        tracker.record_annotation(attachments=10, new_edges=0)  # stable again
        assert tracker.stable
        assert len(tracker.history) == 2

    def test_flag_can_flip_back(self):
        tracker = StabilityTracker(batch_size=1, mu=0.5)
        tracker.record_annotation(attachments=2, new_edges=0)
        assert tracker.stable
        tracker.record_annotation(attachments=2, new_edges=2)
        assert not tracker.stable

    def test_zero_attachment_batch(self):
        tracker = StabilityTracker(batch_size=1, mu=0.5)
        assert tracker.record_annotation(attachments=0, new_edges=0) is True


class TestHopProfile:
    def test_record_and_coverage(self):
        profile = HopProfile()
        for hops in [1, 1, 2, 2, 2, 3]:
            profile.record(hops)
        assert profile.total == 6
        assert profile.coverage(1) == pytest.approx(2 / 6)
        assert profile.coverage(2) == pytest.approx(5 / 6)
        assert profile.coverage(3) == 1.0

    def test_unreachable_counts_against_coverage(self):
        profile = HopProfile()
        profile.record(1)
        profile.record(UNREACHABLE)
        assert profile.coverage(5) == pytest.approx(0.5)

    def test_select_k(self):
        profile = HopProfile()
        for hops in [1] * 71 + [2] * 22 + [3] * 7:
            profile.record(hops)
        assert profile.select_k(0.90) == 2
        assert profile.select_k(0.95) == 3

    def test_select_k_no_history(self):
        assert HopProfile().select_k(0.9, k_max=5) == 5

    def test_as_rows(self):
        profile = HopProfile()
        profile.record(0)
        profile.record(2)
        rows = profile.as_rows()
        assert rows[0] == (0, 1, 0.5)
        assert rows[2] == (2, 1, 1.0)
        assert rows[1][1] == 0
