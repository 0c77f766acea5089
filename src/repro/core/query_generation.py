"""Keyword-query generation (paper §5.2, Figure 4, Step 4).

``generate_queries`` is the paper's QueryGeneration() algorithm end to end:

1. build the Concept-Map and Value-Map (cutoff ε);
2. overlay into the Context-Map and run the context-based adjustment;
3. ConceptMap-To-Queries(): for every emphasized word take its best
   mapping, form the strongest match within the influence range, and emit
   a keyword query ({k1, k2, k3} for Type-1; {k1, k2} for Type-2/3);
4. the *backward concept search* special case: a value word with no
   concept partner in range (common in lists — "genes JW0014 ... grpC")
   searches backward for the closest concept word and pairs with it when
   their mappings are compatible;
5. de-duplicate (keep the heaviest query per keyword set) and normalize
   the weights to [0, 1].

Each of the three phases is timed separately; Figure 11(a) reports the
per-phase split.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..config import NebulaConfig
from ..meta.repository import NebulaMeta
from ..observability.metrics import TIME_BUCKETS, get_metrics
from ..observability.tracing import NOOP_TRACER, TracerLike
from ..resilience.degradation import (
    CONTEXT_FALLBACK,
    count_degradation,
    logger as _resilience_logger,
)
from ..search.engine import KeywordQuery
from ..utils.tokenize import normalize_word, tokenize
from .context_adjust import MatchReport, adjust_context_weights
from .signature_maps import (
    SHAPE_COLUMN,
    SHAPE_TABLE,
    SHAPE_VALUE,
    ContextMap,
    MapEntry,
    WeightedMapping,
    build_concept_map,
    build_value_map,
    overlay_maps,
)

PHASE_MAPS = "map_generation"
PHASE_CONTEXT = "context_adjustment"
PHASE_QUERIES = "query_formation"

#: Most keywords one query forwards to the search engine: a Type-1
#: match's {k1, k2, k3}.
MAX_QUERY_KEYWORDS = 3


@dataclass(frozen=True)
class CandidateQuery:
    """A keyword query before deduplication/normalization."""

    keywords: Tuple[str, ...]
    weight: float
    origin_position: int
    match_kind: str


@dataclass
class QueryGenerationResult:
    """Everything Stage 1 produced for one annotation."""

    queries: List[KeywordQuery]
    context_map: ContextMap
    phase_times: Dict[str, float] = field(default_factory=dict)
    adjustment_reports: List[MatchReport] = field(default_factory=list)
    candidates: List[CandidateQuery] = field(default_factory=list)
    #: Degradation labels for optimizations that failed and fell back
    #: (currently only the context-based adjustment).
    degradations: List[str] = field(default_factory=list)

    @property
    def total_time(self) -> float:
        return sum(self.phase_times.values())


def generate_queries(
    text: str,
    meta: NebulaMeta,
    config: NebulaConfig,
    tracer: TracerLike = NOOP_TRACER,
) -> QueryGenerationResult:
    """Run QueryGeneration() on one annotation's text.

    The three Figure 11a phases run as the ``stage1.maps`` /
    ``stage1.context`` / ``stage1.queries`` spans of ``tracer``; one
    clock read at each of the four phase boundaries fills
    ``phase_times``.
    """
    started = time.perf_counter()
    with tracer.span("stage1.maps"):
        tokens = tokenize(text)
        concept_entries = build_concept_map(tokens, meta, config.epsilon)
        value_entries = build_value_map(tokens, meta, config.epsilon)
    maps_done = time.perf_counter()
    degradations: List[str] = []
    with tracer.span("stage1.context"):
        context_map = overlay_maps(tokens, concept_entries, value_entries)
        reports: List[MatchReport] = []
        if config.context_adjustment:
            try:
                reports = adjust_context_weights(context_map, config)
            except Exception as error:
                # Degradation ladder: a broken adjustment must not sink the
                # annotation — rebuild the overlay (the adjuster mutates
                # weights in place) and search with unadjusted weights.
                _resilience_logger.warning(
                    "context adjustment failed, using unadjusted weights: %s", error
                )
                context_map = overlay_maps(tokens, concept_entries, value_entries)
                degradations.append(CONTEXT_FALLBACK)
                count_degradation(CONTEXT_FALLBACK)
    context_done = time.perf_counter()
    with tracer.span("stage1.queries"):
        candidates = _form_candidates(context_map, config)
        queries = _finalize(candidates)
    finished = time.perf_counter()
    phase_times = {
        PHASE_MAPS: maps_done - started,
        PHASE_CONTEXT: context_done - maps_done,
        PHASE_QUERIES: finished - context_done,
    }
    _count_generation(queries, phase_times)
    return QueryGenerationResult(
        queries=queries,
        context_map=context_map,
        phase_times=phase_times,
        adjustment_reports=reports,
        candidates=candidates,
        degradations=degradations,
    )


def _count_generation(
    queries: Sequence[KeywordQuery], phase_times: Dict[str, float]
) -> None:
    """Fold one generation pass into the metrics registry."""
    metrics = get_metrics()
    metrics.counter("nebula_queries_generated_total").inc(len(queries))
    for query in queries:
        # Labels are "q@<position>:<match kind>:<keywords>" by construction.
        parts = query.label.split(":")
        kind = parts[1] if len(parts) >= 3 else "unknown"
        metrics.counter(
            "nebula_queries_generated_total", {"type": kind}
        ).inc()
    for phase, elapsed in phase_times.items():
        metrics.histogram(
            "nebula_phase_seconds", TIME_BUCKETS, {"phase": phase}
        ).observe(elapsed)


# ----------------------------------------------------------------------
# ConceptMap-To-Queries()
# ----------------------------------------------------------------------


def _form_candidates(
    context_map: ContextMap, config: NebulaConfig
) -> List[CandidateQuery]:
    candidates: List[CandidateQuery] = []
    for position in context_map.emphasized_positions():
        entry = context_map.entries[position]
        best = entry.best()
        if best is None:
            continue
        neighbors = context_map.neighbors(position, config.alpha)
        candidate = _best_match_query(entry, best, neighbors)
        if candidate is None and best.shape == SHAPE_VALUE and config.backward_concept_search:
            candidate = _backward_query(context_map, entry, best)
        if candidate is not None:
            candidates.append(candidate)
    return candidates


def _best_match_query(
    entry: MapEntry, best: WeightedMapping, neighbors: Sequence[MapEntry]
) -> Optional[CandidateQuery]:
    """Form the strongest-type match for ``best`` within the range."""
    if best.shape == SHAPE_VALUE:
        table_partner = _find_partner(neighbors, SHAPE_TABLE, best.table, None)
        column_partner = _find_partner(neighbors, SHAPE_COLUMN, best.table, best.column)
        if table_partner and column_partner:
            return _candidate(
                entry, "type1", (table_partner, column_partner), best
            )
        if table_partner:
            return _candidate(entry, "type2", (table_partner,), best)
        if column_partner:
            return _candidate(entry, "type3", (column_partner,), best)
        return None
    if best.shape == SHAPE_TABLE:
        value_partner = _find_value_partner(neighbors, best.table, None)
        if value_partner is None:
            return None
        value_entry, value_mapping = value_partner
        column_partner = _find_partner(
            neighbors, SHAPE_COLUMN, value_mapping.table, value_mapping.column
        )
        if column_partner:
            return _candidate(
                entry, "type1", (column_partner, (value_entry, value_mapping)), best
            )
        return _candidate(entry, "type2", ((value_entry, value_mapping),), best)
    # SHAPE_COLUMN
    value_partner = _find_value_partner(neighbors, best.table, best.column)
    if value_partner is None:
        return None
    value_entry, value_mapping = value_partner
    table_partner = _find_partner(neighbors, SHAPE_TABLE, best.table, None)
    if table_partner:
        return _candidate(
            entry, "type1", (table_partner, (value_entry, value_mapping)), best
        )
    return _candidate(entry, "type3", ((value_entry, value_mapping),), best)


def _find_partner(
    neighbors: Sequence[MapEntry],
    shape: str,
    table: str,
    column: Optional[str],
) -> Optional[Tuple[MapEntry, WeightedMapping]]:
    """Best (entry, mapping) of the given shape consistent with the target."""
    best_pair: Optional[Tuple[MapEntry, WeightedMapping]] = None
    for neighbor in neighbors:
        for mapping in neighbor.mappings:
            if mapping.shape != shape:
                continue
            if mapping.table.casefold() != table.casefold():
                continue
            if column is not None and (mapping.column or "").casefold() != column.casefold():
                continue
            if best_pair is None or mapping.weight > best_pair[1].weight:
                best_pair = (neighbor, mapping)
    return best_pair


def _find_value_partner(
    neighbors: Sequence[MapEntry], table: str, column: Optional[str]
) -> Optional[Tuple[MapEntry, WeightedMapping]]:
    best_pair: Optional[Tuple[MapEntry, WeightedMapping]] = None
    for neighbor in neighbors:
        for mapping in neighbor.mappings:
            if mapping.shape != SHAPE_VALUE:
                continue
            if mapping.table.casefold() != table.casefold():
                continue
            if column is not None and (mapping.column or "").casefold() != column.casefold():
                continue
            if best_pair is None or mapping.weight > best_pair[1].weight:
                best_pair = (neighbor, mapping)
    return best_pair


def _candidate(
    entry: MapEntry,
    match_kind: str,
    partners: Sequence[Tuple[MapEntry, WeightedMapping]],
    best: WeightedMapping,
) -> CandidateQuery:
    """Assemble the query in text order, weight = sum of mapping weights."""
    pieces = [(entry.position, entry.token.cleaned, best.weight)]
    for partner_entry, partner_mapping in partners:
        pieces.append(
            (partner_entry.position, partner_entry.token.cleaned, partner_mapping.weight)
        )
    pieces.sort(key=lambda p: p[0])
    return CandidateQuery(
        keywords=tuple(p[1] for p in pieces),
        weight=sum(p[2] for p in pieces),
        origin_position=entry.position,
        match_kind=match_kind,
    )


def _backward_query(
    context_map: ContextMap, entry: MapEntry, best: WeightedMapping
) -> Optional[CandidateQuery]:
    """Lines 8-12 of ConceptMap-To-Queries(): backward concept search.

    The paper triggers this for a hexagon word with an "empty" influence
    range; we read "empty" as *holding no usable concept partner* — the
    list case ("genes JW0014 ... grpC ... yaaB") leaves later values with
    hexagon-only neighborhoods, which is precisely the case the special
    case exists for.  Searching backward from the word's position, the
    closest concept word whose mapping is *compatible* with the value's
    (same table for Type-2, same column for Type-3) becomes the partner;
    incompatible concepts on the way are skipped (a "PName" column word
    must not block the "proteins" table word right behind it).  A value
    with no compatible concept anywhere before it is ignored.
    """
    for position in range(entry.position - 1, -1, -1):
        candidate_entry = context_map.entries.get(position)
        if candidate_entry is None:
            continue
        concept_mappings = [m for m in candidate_entry.mappings if m.is_concept]
        if not concept_mappings:
            continue
        compatible = [
            m
            for m in concept_mappings
            if m.table.casefold() == best.table.casefold()
            and (
                m.shape == SHAPE_TABLE
                or (m.column or "").casefold() == (best.column or "").casefold()
            )
        ]
        if not compatible:
            continue  # skip incompatible concepts, keep scanning backward
        partner = max(compatible, key=lambda m: m.weight)
        kind = "type2" if partner.shape == SHAPE_TABLE else "type3"
        return CandidateQuery(
            keywords=(candidate_entry.token.cleaned, entry.token.cleaned),
            weight=partner.weight + best.weight,
            origin_position=entry.position,
            match_kind=f"backward-{kind}",
        )
    return None


# ----------------------------------------------------------------------
# Dedup + normalization (Lines 15-16)
# ----------------------------------------------------------------------


def _finalize(candidates: Sequence[CandidateQuery]) -> List[KeywordQuery]:
    best_by_keywords: Dict[frozenset, CandidateQuery] = {}
    for candidate in candidates:
        if len(candidate.keywords) > MAX_QUERY_KEYWORDS:
            continue
        key = frozenset(normalize_word(k) for k in candidate.keywords)
        current = best_by_keywords.get(key)
        if current is None or candidate.weight > current.weight:
            best_by_keywords[key] = candidate
    if not best_by_keywords:
        return []
    max_weight = max(c.weight for c in best_by_keywords.values())
    queries = [
        KeywordQuery(
            keywords=c.keywords,
            weight=c.weight / max_weight if max_weight > 0 else 0.0,
            label=f"q@{c.origin_position}:{c.match_kind}:{'+'.join(c.keywords)}",
        )
        for c in best_by_keywords.values()
    ]
    queries.sort(key=lambda q: (-q.weight, q.keywords))
    return queries
