"""The annotated-database model (paper §3, Stage 0).

An annotated database is a weighted bipartite graph ``D = {A, T, E}``:
annotation nodes, tuple nodes, and attachment edges.  *True* edges carry
weight 1.0; *predicted* edges carry the engine's confidence < 1.0.

The module also implements the paper's divergence metrics against an ideal
edge set (Equations 1 & 2):

.. math::

    D.F_N = |E_{ideal} - E| / |E_{ideal}|
    D.F_P = |E - E_{ideal}| / |E|

Both are pure set computations over ``(annotation_id, TupleRef)`` pairs, so
they are reused verbatim by the Stage-3 assessment and by tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Dict, FrozenSet, List, Tuple

from ..annotations.engine import AnnotationManager
from ..annotations.store import AttachmentKind
from ..types import TupleRef

#: An edge identity: (annotation id, tuple).
EdgeKey = Tuple[int, TupleRef]


@dataclass(frozen=True)
class Edge:
    """One attachment edge with its weight and kind."""

    annotation_id: int
    ref: TupleRef
    weight: float
    kind: AttachmentKind

    @property
    def key(self) -> EdgeKey:
        return (self.annotation_id, self.ref)


def false_negative_ratio(
    ideal: AbstractSet[EdgeKey], actual: AbstractSet[EdgeKey]
) -> float:
    """Equation 1: the ratio of ideal edges missing from ``actual``.

    Returns 0.0 for an empty ideal set (nothing can be missing).
    """
    if not ideal:
        return 0.0
    return len(set(ideal) - set(actual)) / len(ideal)


def false_positive_ratio(
    ideal: AbstractSet[EdgeKey], actual: AbstractSet[EdgeKey]
) -> float:
    """Equation 2: the ratio of actual edges absent from ``ideal``.

    Returns 0.0 for an empty actual set.
    """
    if not actual:
        return 0.0
    return len(set(actual) - set(ideal)) / len(actual)


class AnnotatedDatabaseModel:
    """Graph view over the annotation store.

    The model materializes the row-level attachment edges of the store and
    offers the paper's quality metrics against a supplied ideal edge set.
    """

    def __init__(self, manager: AnnotationManager) -> None:
        self.manager = manager

    def edges(self, include_predicted: bool = True) -> List[Edge]:
        """All row-level attachment edges currently stored."""
        rows = self.manager.connection.execute(
            "SELECT annotation_id, target_table, target_rowid, confidence, kind "
            "FROM _nebula_attachments WHERE target_rowid IS NOT NULL "
            "ORDER BY attachment_id"
        ).fetchall()
        collected: List[Edge] = []
        for annotation_id, table, rowid, confidence, kind in rows:
            edge_kind = AttachmentKind(kind)
            if edge_kind is AttachmentKind.PREDICTED and not include_predicted:
                continue
            collected.append(
                Edge(
                    annotation_id=int(annotation_id),
                    ref=TupleRef(str(table), int(rowid)),
                    weight=float(confidence),
                    kind=edge_kind,
                )
            )
        return collected

    def edge_keys(self, include_predicted: bool = True) -> FrozenSet[EdgeKey]:
        return frozenset(e.key for e in self.edges(include_predicted))

    def true_edge_keys(self) -> FrozenSet[EdgeKey]:
        return frozenset(
            e.key for e in self.edges() if e.kind is AttachmentKind.TRUE
        )

    # ------------------------------------------------------------------

    def quality(
        self, ideal: AbstractSet[EdgeKey], include_predicted: bool = True
    ) -> Tuple[float, float]:
        """(D.F_N, D.F_P) of the current edge set against ``ideal``."""
        actual = self.edge_keys(include_predicted)
        return false_negative_ratio(ideal, actual), false_positive_ratio(ideal, actual)

    def annotation_degree(self) -> Dict[int, int]:
        """Number of row-level edges per annotation."""
        degrees: Dict[int, int] = {}
        for edge in self.edges():
            degrees[edge.annotation_id] = degrees.get(edge.annotation_id, 0) + 1
        return degrees

    def tuple_degree(self) -> Dict[TupleRef, int]:
        """Number of row-level edges per tuple."""
        degrees: Dict[TupleRef, int] = {}
        for edge in self.edges():
            degrees[edge.ref] = degrees.get(edge.ref, 0) + 1
        return degrees
