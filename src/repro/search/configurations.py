"""Configuration enumeration (step 2 of the search technique).

"From these mappings, the algorithm constructs what are called
*configurations*, where each configuration captures one possible semantics
of the keyword query" (paper §4).

A :class:`Configuration` assigns to each keyword at most one of its
candidate mappings.  Configurations must contain at least one VALUE mapping
(otherwise no tuples can be retrieved) and are scored by:

* the mean weight of the assigned mappings,
* coverage (unassigned keywords dilute the score),
* coherence bonuses when schema mappings corroborate value mappings — a
  TABLE mapping naming the table a value belongs to, or a COLUMN mapping
  naming the value's column (the semantics the paper's Type-1/2/3 context
  matches reward at the annotation level).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .mapper import Mapping, MappingKind
from .metadata import SchemaGraph

TABLE_COHERENCE_BONUS = 0.10
COLUMN_COHERENCE_BONUS = 0.15
CONNECTED_COHERENCE_BONUS = 0.05


@dataclass(frozen=True)
class Configuration:
    """One possible semantics of a keyword query."""

    #: (keyword, mapping-or-None) in query order.
    assignments: Tuple[Tuple[str, Optional[Mapping]], ...]
    score: float

    @property
    def value_mappings(self) -> Tuple[Mapping, ...]:
        return tuple(
            m for _, m in self.assignments if m is not None and m.kind is MappingKind.VALUE
        )

    @property
    def schema_mappings(self) -> Tuple[Mapping, ...]:
        return tuple(
            m for _, m in self.assignments if m is not None and m.kind is not MappingKind.VALUE
        )

    def describe(self) -> str:
        """Compact human-readable form, used in evidence strings."""
        parts = []
        for keyword, mapping in self.assignments:
            if mapping is None:
                parts.append(f"{keyword}:-")
            elif mapping.kind is MappingKind.VALUE:
                parts.append(f"{keyword}={mapping.table}.{mapping.column}")
            elif mapping.kind is MappingKind.TABLE:
                parts.append(f"{keyword}~table:{mapping.table}")
            else:
                parts.append(f"{keyword}~column:{mapping.table}.{mapping.column}")
        return " ".join(parts)


def enumerate_configurations(
    keyword_mappings: Dict[str, List[Mapping]],
    schema: SchemaGraph,
    max_configurations: int = 24,
) -> List[Configuration]:
    """Enumerate and score configurations, best first.

    ``keyword_mappings`` preserves query order (Python dicts do).  The
    cartesian product over per-keyword options is bounded by the mapper's
    per-keyword cap; the output is truncated to ``max_configurations``.
    """
    keywords = list(keyword_mappings)
    option_lists: List[List[Optional[Mapping]]] = [
        [None, *keyword_mappings[kw]] for kw in keywords
    ]
    configurations: List[Configuration] = []
    for combo in itertools.product(*option_lists):
        assignments = tuple(zip(keywords, combo))
        config = _score(assignments, schema)
        if config is not None:
            configurations.append(config)
    configurations.sort(key=lambda c: -c.score)
    return _dedupe(configurations)[:max_configurations]


def _score(
    assignments: Tuple[Tuple[str, Optional[Mapping]], ...],
    schema: SchemaGraph,
) -> Optional[Configuration]:
    mappings = [m for _, m in assignments if m is not None]
    values = [m for m in mappings if m.kind is MappingKind.VALUE]
    if not values:
        return None
    total = len(assignments)
    base = sum(m.weight for m in mappings) / total
    bonus = _coherence_bonus(mappings, values, schema)
    return Configuration(assignments=assignments, score=min(1.0, base + bonus))


def _coherence_bonus(
    mappings: Sequence[Mapping],
    values: Sequence[Mapping],
    schema: SchemaGraph,
) -> float:
    bonus = 0.0
    value_tables = {v.table.casefold() for v in values}
    value_columns = {(v.table.casefold(), (v.column or "").casefold()) for v in values}
    for mapping in mappings:
        if mapping.kind is MappingKind.TABLE:
            if mapping.table.casefold() in value_tables:
                bonus += TABLE_COHERENCE_BONUS
            elif any(
                schema.are_connected(mapping.table, v.table) for v in values
            ):
                bonus += CONNECTED_COHERENCE_BONUS
        elif mapping.kind is MappingKind.COLUMN:
            key = (mapping.table.casefold(), (mapping.column or "").casefold())
            if key in value_columns:
                bonus += COLUMN_COHERENCE_BONUS
            elif mapping.table.casefold() in value_tables:
                bonus += TABLE_COHERENCE_BONUS / 2
    return bonus


def _dedupe(configurations: List[Configuration]) -> List[Configuration]:
    """Drop configurations whose retrieval semantics duplicate a better one.

    Two configurations retrieve the same tuples when their value-condition
    sets coincide; schema mappings only modulate the score.
    """
    seen = set()
    kept: List[Configuration] = []
    for config in configurations:
        signature = frozenset(
            (m.keyword, m.table.casefold(), (m.column or "").casefold())
            for m in config.value_mappings
        )
        if signature in seen:
            continue
        seen.add(signature)
        kept.append(config)
    return kept
