"""IdentifyRelatedTuples() — the Stage-2 execution algorithm (Figure 5).

Given the keyword queries generated from an annotation:

* **Step 1** — execute every query through the (black-box) search engine;
  each answered tuple's confidence is multiplied by the query's weight;
* **Step 2** — group identical tuples across queries and *sum* their
  confidences (tuples satisfying several queries of the same annotation
  are more likely related to it); when an ACG and the annotation's focal
  are supplied, the focal-based confidence adjustment (§6.2) runs here;
* **Step 3** — normalize all confidences by the maximum.

The optional ``executor`` argument plugs in the shared multi-query
execution optimization; the optional ``scope`` confines the search to the
K-hop mini database of the focal-based spreading technique.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .shared_execution import SharedExecutor

from ..observability.metrics import COUNT_BUCKETS, get_metrics
from ..search.engine import KeywordQuery, KeywordSearchEngine, SearchResult, SearchScope
from ..types import ScoredTuple, TupleRef
from .acg import AnnotationsConnectivityGraph
from .focal import apply_focal_adjustment


@dataclass
class IdentifiedTuples:
    """The candidate set ``T`` produced for one annotation."""

    #: Final candidates, confidence-normalized to (0, 1], best first.
    tuples: List[ScoredTuple]
    #: Per-query raw results (keyed by the query's describe() label).
    per_query: Dict[str, SearchResult] = field(default_factory=dict)
    #: Sum of the raw per-query answer sizes (before grouping).
    raw_tuple_count: int = 0
    elapsed: float = 0.0

    @property
    def refs(self) -> List[TupleRef]:
        return [t.ref for t in self.tuples]

    def confidence_of(self, ref: TupleRef) -> float:
        for scored in self.tuples:
            if scored.ref == ref:
                return scored.confidence
        return 0.0


def identify_related_tuples(
    queries: Sequence[KeywordQuery],
    engine: KeywordSearchEngine,
    scope: Optional[SearchScope] = None,
    acg: Optional[AnnotationsConnectivityGraph] = None,
    focal: Sequence[TupleRef] = (),
    executor: Optional["SharedExecutor"] = None,
    precomputed: Optional[Dict[str, SearchResult]] = None,
) -> IdentifiedTuples:
    """Run the full IdentifyRelatedTuples() algorithm.

    ``precomputed`` supplies per-query results executed elsewhere (the
    batched cross-annotation shared execution of
    :meth:`repro.core.nebula.Nebula.insert_annotations`); Steps 2-3 —
    grouping, focal adjustment, normalization — still run here, so the
    ACG-dependent parts see the caller's current graph state.
    """
    started = time.perf_counter()

    # Step 1: execute the queries and weight their answers.
    if precomputed is not None:
        per_query = precomputed
    elif executor is not None:
        per_query = executor.search_all(queries, scope=scope)
    else:
        per_query = {q.describe(): engine.search(q, scope=scope) for q in queries}

    grouped: Dict[TupleRef, float] = {}
    provenance: Dict[TupleRef, List[str]] = {}
    raw_count = 0
    for query in queries:
        result = per_query[query.describe()]
        raw_count += len(result.tuples)
        for scored in result.tuples:
            weighted = scored.confidence * query.weight
            # Step 2: group and reward tuples produced by several queries.
            grouped[scored.ref] = grouped.get(scored.ref, 0.0) + weighted
            provenance.setdefault(scored.ref, []).append(query.describe())

    # Focal-based adjustment (the §6.2 extension, after grouping).
    if acg is not None and focal:
        grouped = apply_focal_adjustment(grouped, acg, focal)

    # Step 3: normalize relative to the largest confidence.
    tuples = _normalize(grouped, provenance)
    metrics = get_metrics()
    metrics.counter("nebula_tuples_scored_total").inc(len(tuples))
    metrics.counter("nebula_raw_tuples_total").inc(raw_count)
    metrics.histogram("nebula_candidate_tuples", COUNT_BUCKETS).observe(len(tuples))
    return IdentifiedTuples(
        tuples=tuples,
        per_query=per_query,
        raw_tuple_count=raw_count,
        elapsed=time.perf_counter() - started,
    )


def _normalize(
    grouped: Dict[TupleRef, float], provenance: Dict[TupleRef, List[str]]
) -> List[ScoredTuple]:
    if not grouped:
        return []
    max_confidence = max(grouped.values())
    if max_confidence <= 0.0:
        return []
    tuples = [
        ScoredTuple(
            ref=ref,
            confidence=conf / max_confidence,
            provenance=tuple(provenance.get(ref, ())),
        )
        for ref, conf in grouped.items()
    ]
    tuples.sort(key=lambda t: (-t.confidence, t.ref))
    return tuples
