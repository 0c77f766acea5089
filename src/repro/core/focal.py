"""Focal-based confidence adjustment (paper §6.2).

The extension to Step 2 of IdentifyRelatedTuples(): after grouping, each
candidate tuple ``t`` is rewarded for every direct ACG edge it has to one
of the annotation's focal tuples:

.. code-block:: none

    For (each t in T) Loop
        For (each e(t, f) in ACG, forall f in Foc(a)) Loop
            t.conf += e.weight x t.conf

The per-edge increments compound (the paper's loop applies each reward to
the already-rewarded confidence), i.e. the final confidence is the product
``conf * prod(1 + w(t, f))`` over the focal tuples adjacent to ``t``.
Tuples with no edge to any focal — or absent from the ACG entirely — keep
their confidence unchanged.  Only *direct* edges count: the paper rejects
the multi-hop variant as "semantically weaker and may cause model
overfitting".
"""

from __future__ import annotations

from typing import Dict, Sequence

from ..types import TupleRef
from .acg import AnnotationsConnectivityGraph


def focal_reward_factor(
    ref: TupleRef,
    acg: AnnotationsConnectivityGraph,
    focal: Sequence[TupleRef],
) -> float:
    """Multiplicative reward ``prod(1 + w(ref, f))`` over adjacent focals."""
    factor = 1.0
    neighbors = acg.neighbors(ref)
    for focal_tuple in focal:
        if focal_tuple in neighbors:
            factor *= 1.0 + acg.weight(ref, focal_tuple)
    return factor


def apply_focal_adjustment(
    confidences: Dict[TupleRef, float],
    acg: AnnotationsConnectivityGraph,
    focal: Sequence[TupleRef],
) -> Dict[TupleRef, float]:
    """Return adjusted confidences (input mapping is not mutated)."""
    if not focal:
        return dict(confidences)
    return {
        ref: conf * focal_reward_factor(ref, acg, focal)
        for ref, conf in confidences.items()
    }
