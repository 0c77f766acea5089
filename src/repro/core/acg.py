"""The Annotations Connectivity Graph (paper §6.2-6.3, Figures 6 & 7).

Nodes are annotated tuples; an edge connects two tuples iff they share at
least one annotation.  An edge's weight is "the ratio between the common
annotations to the total number of annotations attached to both tuples" —
the Jaccard ratio of the two annotation sets — so weights live in (0, 1]
and are recomputed from the live sets (never stale).

The module also hosts the two bookkeeping structures built on the ACG:

* :class:`StabilityTracker` — Definition 6.1: over non-overlapping batches
  of B annotations with M total attachments adding N new edges, the ACG is
  *stable* iff ``N / M < mu``;
* :class:`HopProfile` — the histogram of Figure 7: for every discovered
  attachment, the shortest unweighted hop distance from the tuple to the
  annotation's focal, used to auto-select the spreading radius K.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..annotations.engine import AnnotationManager
from ..storage.compat import Connection
from ..types import TupleRef

#: Hop distance reported when a tuple cannot be reached from the focal.
UNREACHABLE = -1


class AnnotationsConnectivityGraph:
    """Incremental co-annotation graph over tuples."""

    def __init__(self) -> None:
        self._annotations_of: Dict[TupleRef, Set[int]] = {}
        self._tuples_of: Dict[int, Set[TupleRef]] = {}
        self._adjacency: Dict[TupleRef, Set[TupleRef]] = {}
        self._edge_count = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build_from_manager(
        cls,
        manager: AnnotationManager,
        as_of: Optional[int] = None,
    ) -> "AnnotationsConnectivityGraph":
        """Build at once from all true attachments in the store (§8.1:
        "The ACG is built at once and not in an incremental fashion").

        With ``as_of`` the graph is reconstructed from the commit log —
        the exact co-annotation topology that existed at that commit,
        which lets candidate scoring replay a historical graph.
        """
        graph = cls()
        for annotation_id, ref in manager.store.true_attachment_pairs(as_of=as_of):
            graph.add_attachment(annotation_id, ref)
        return graph

    def add_attachment(self, annotation_id: int, ref: TupleRef) -> int:
        """Record one attachment; returns the number of *new* ACG edges."""
        siblings = self._tuples_of.setdefault(annotation_id, set())
        if ref in siblings:
            return 0
        self._annotations_of.setdefault(ref, set()).add(annotation_id)
        new_edges = 0
        for sibling in siblings:
            if self._add_edge(ref, sibling):
                new_edges += 1
        siblings.add(ref)
        return new_edges

    def remove_annotation(self, annotation_id: int) -> int:
        """Remove every attachment of one annotation; returns edges dropped.

        The inverse of the ``add_attachment`` calls made for the
        annotation — used by the pipeline's fault boundary to restore the
        in-memory graph after the persistent Stage 0 writes roll back.
        An edge survives only while the two tuples still share at least
        one *other* annotation (the live-set semantics of :meth:`weight`).
        """
        refs = self._tuples_of.pop(annotation_id, set())
        for ref in refs:
            annotations = self._annotations_of.get(ref)
            if annotations is not None:
                annotations.discard(annotation_id)
        removed = 0
        for ref in refs:
            for neighbor in list(self._adjacency.get(ref, ())):
                if self.weight(ref, neighbor) == 0.0:
                    self._adjacency[ref].discard(neighbor)
                    self._adjacency.get(neighbor, set()).discard(ref)
                    if not self._adjacency.get(neighbor):
                        self._adjacency.pop(neighbor, None)
                    self._edge_count -= 1
                    removed += 1
        for ref in refs:
            if not self._annotations_of.get(ref):
                self._annotations_of.pop(ref, None)
            if not self._adjacency.get(ref):
                self._adjacency.pop(ref, None)
        return removed

    def _add_edge(self, a: TupleRef, b: TupleRef) -> bool:
        if a == b:
            return False
        neighbors = self._adjacency.setdefault(a, set())
        if b in neighbors:
            return False
        neighbors.add(b)
        self._adjacency.setdefault(b, set()).add(a)
        self._edge_count += 1
        return True

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self._annotations_of)

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def contains(self, ref: TupleRef) -> bool:
        return ref in self._annotations_of

    def neighbors(self, ref: TupleRef) -> FrozenSet[TupleRef]:
        return frozenset(self._adjacency.get(ref, frozenset()))

    def annotations_of(self, ref: TupleRef) -> FrozenSet[int]:
        return frozenset(self._annotations_of.get(ref, frozenset()))

    def weight(self, a: TupleRef, b: TupleRef) -> float:
        """Edge weight: |common annotations| / |total annotations on both|.

        0.0 when the tuples share no annotation (no edge).
        """
        first = self._annotations_of.get(a)
        second = self._annotations_of.get(b)
        if not first or not second:
            return 0.0
        common = len(first & second)
        if common == 0:
            return 0.0
        return common / len(first | second)

    # ------------------------------------------------------------------
    # Traversals
    # ------------------------------------------------------------------

    def k_hop_neighbors(
        self, seeds: Iterable[TupleRef], k: int, include_seeds: bool = True
    ) -> FrozenSet[TupleRef]:
        """All tuples within ``k`` hops of any seed (BFS, unweighted)."""
        seeds = [s for s in seeds if s in self._annotations_of]
        visited: Dict[TupleRef, int] = {s: 0 for s in seeds}
        queue = deque(seeds)
        while queue:
            current = queue.popleft()
            depth = visited[current]
            if depth >= k:
                continue
            for neighbor in self._adjacency.get(current, ()):
                if neighbor not in visited:
                    visited[neighbor] = depth + 1
                    queue.append(neighbor)
        if include_seeds:
            return frozenset(visited)
        return frozenset(v for v, d in visited.items() if d > 0)

    def shortest_hops(self, ref: TupleRef, seeds: Iterable[TupleRef]) -> int:
        """Shortest unweighted hop count from ``ref`` to any seed.

        Returns 0 when ``ref`` is itself a seed, :data:`UNREACHABLE` when
        no path exists (or ``ref`` is not in the graph).
        """
        seed_set = {s for s in seeds if s in self._annotations_of}
        if not seed_set:
            return UNREACHABLE
        if ref in seed_set:
            return 0
        if ref not in self._annotations_of:
            return UNREACHABLE
        # Level by level with set operations: they reuse the hashes the
        # adjacency sets store instead of rehashing every visited tuple.
        visited = {ref}
        frontier = {ref}
        depth = 0
        while frontier:
            depth += 1
            reached: Set[TupleRef] = set()
            for node in frontier:
                reached.update(self._adjacency.get(node, ()))
            if not reached.isdisjoint(seed_set):
                return depth
            reached -= visited
            visited |= reached
            frontier = reached
        return UNREACHABLE


# ----------------------------------------------------------------------
# Stability (Definition 6.1)
# ----------------------------------------------------------------------


@dataclass
class StabilityTracker:
    """Non-overlapping-batch stability detection over the ACG.

    For each batch of ``batch_size`` annotations with ``M`` total
    attachments and ``N`` newly added ACG edges, the graph is stable iff
    ``N / M < mu``.  The flag is re-evaluated per completed batch; counters
    reset between batches.
    """

    batch_size: int
    mu: float
    stable: bool = False
    _batch_annotations: int = 0
    _batch_attachments: int = 0
    _batch_new_edges: int = 0
    #: (batch M, batch N, resulting stability) per completed batch.
    history: List[Tuple[int, int, bool]] = field(default_factory=list)

    def record_annotation(self, attachments: int, new_edges: int) -> Optional[bool]:
        """Record one processed annotation; returns the new stability flag
        when this annotation completed a batch, else None."""
        self._batch_annotations += 1
        self._batch_attachments += attachments
        self._batch_new_edges += new_edges
        if self._batch_annotations < self.batch_size:
            return None
        m = max(1, self._batch_attachments)
        self.stable = (self._batch_new_edges / m) < self.mu
        self.history.append((self._batch_attachments, self._batch_new_edges, self.stable))
        self._batch_annotations = 0
        self._batch_attachments = 0
        self._batch_new_edges = 0
        return self.stable


# ----------------------------------------------------------------------
# Hop-distance profile (Figure 7)
# ----------------------------------------------------------------------


@dataclass
class HopProfile:
    """Histogram of shortest hop distances of discovered attachments."""

    buckets: Dict[int, int] = field(default_factory=dict)
    unreachable: int = 0

    def record(self, hops: int) -> None:
        if hops == UNREACHABLE:
            self.unreachable += 1
            return
        self.buckets[hops] = self.buckets.get(hops, 0) + 1

    @property
    def total(self) -> int:
        return sum(self.buckets.values()) + self.unreachable

    def coverage(self, k: int) -> float:
        """Expected fraction of candidates within ``k`` hops of the focal."""
        if self.total == 0:
            return 0.0
        covered = sum(count for hops, count in self.buckets.items() if hops <= k)
        return covered / self.total

    def select_k(self, target_recall: float, k_max: int = 16) -> int:
        """Smallest K whose historical coverage meets ``target_recall``.

        With no history, falls back to ``k_max`` (search wide until the
        profile has data).
        """
        if self.total == 0:
            return k_max
        for k in range(0, k_max + 1):
            if self.coverage(k) >= target_recall:
                return max(1, k)
        return k_max

    def as_rows(self, k_max: Optional[int] = None) -> List[Tuple[int, int, float]]:
        """(k, count, cumulative coverage) rows for reporting."""
        if not self.buckets:
            return []
        top = k_max if k_max is not None else max(self.buckets)
        return [(k, self.buckets.get(k, 0), self.coverage(k)) for k in range(top + 1)]


class PersistentHopProfile(HopProfile):
    """A hop profile mirrored into the ``_nebula_hop_profile`` table.

    The histogram loads from the table at construction and every
    :meth:`record` upserts its bucket, so the radius-selection history
    survives process restarts — a freshly opened service selects K from
    everything the database has seen, not from an empty profile.

    The table is the profile's one source of truth: ``record`` runs
    inside the pipeline's ingestion SAVEPOINT, and ``Nebula._abort``
    calls :meth:`reload` after rolling it back.  Unreachable discoveries
    persist under ``hops = -1`` (:data:`UNREACHABLE`).
    """

    def __init__(self, connection: "Connection") -> None:
        super().__init__()
        self.connection = connection
        self.reload()

    def reload(self) -> None:
        """Make the histogram equal the table's rows."""
        self.buckets = {}
        self.unreachable = 0
        for hops, count in self.connection.execute(
            "SELECT hops, count FROM _nebula_hop_profile"
        ):
            if int(hops) == UNREACHABLE:
                self.unreachable = int(count)
            else:
                self.buckets[int(hops)] = int(count)

    def record(self, hops: int) -> None:
        super().record(hops)
        self.connection.execute(
            "INSERT INTO _nebula_hop_profile (hops, count) VALUES (?, 1) "
            "ON CONFLICT (hops) DO UPDATE SET count = count + 1",
            (int(hops),),
        )
