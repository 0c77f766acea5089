"""Configuration -> SQL translation (step 3 of the search technique).

"Each configuration maps to one or more SQL queries over the database"
(paper §4).  A configuration's VALUE mappings are equality conditions; for
every table owning at least one condition we emit one SQL query that:

* selects the DISTINCT rowids of that *target table*;
* applies the target table's own conditions directly;
* reaches conditions on other tables through JOIN chains along the
  shortest FK-PK path (paper §6.1: the search "internally leverages the
  FK-PK relationships among the database tables");
* drops to a weaker variant when some other table is unreachable (the
  condition is ignored and the query confidence is scaled down).

Equality is case-insensitive (``COLLATE NOCASE``), matching the normalized
inverted index that produced the value mappings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..observability.metrics import get_metrics
from .configurations import Configuration
from .mapper import Mapping
from .metadata import JoinStep, SchemaGraph

#: Bucket bounds for the per-statement condition-count histogram.
_CONDITION_BUCKETS = (1, 2, 3, 4, 6, 8, 12)


@dataclass(frozen=True)
class Condition:
    """One equality condition contributed by a VALUE mapping."""

    table: str
    column: str
    value: str


@dataclass(frozen=True)
class GeneratedSQL:
    """One executable SQL query derived from a configuration."""

    sql: str
    params: Tuple[str, ...]
    target_table: str
    confidence: float
    conditions: Tuple[Condition, ...]
    #: Configuration description, carried into evidence strings.
    provenance: str = ""

    @property
    def signature(self) -> Tuple[str, frozenset]:
        """Identity for shared-execution deduplication."""
        return (self.target_table.casefold(), frozenset(self.conditions))

    @property
    def is_single_local_condition(self) -> bool:
        """True for ``SELECT .. WHERE one local column = value`` queries —
        the shape the shared executor can batch into IN-lists."""
        return (
            len(self.conditions) == 1
            and self.conditions[0].table.casefold() == self.target_table.casefold()
        )


def generate_sql(
    configuration: Configuration,
    schema: SchemaGraph,
    scope_filter: Optional[Dict[str, str]] = None,
    table_map: Optional[Dict[str, str]] = None,
) -> List[GeneratedSQL]:
    """Translate one configuration into SQL queries, one per target table.

    ``table_map`` maps a casefolded table name to a *physical* substitute
    table (the materialized K-hop mini tables of the spreading search):
    the SQL then runs against the mini database directly, which is where
    its order-of-magnitude win comes from.  ``scope_filter`` maps a
    casefolded table name to a WHERE fragment (``"rowid IN (1, 2, 3)"``)
    for scoped tables that have no physical substitute.
    """
    by_table: Dict[str, List[Mapping]] = {}
    for mapping in configuration.value_mappings:
        by_table.setdefault(schema.canonical_table(mapping.table), []).append(mapping)

    queries: List[GeneratedSQL] = []
    metrics = get_metrics()
    for target_table in sorted(by_table):
        query = _build_query(
            configuration,
            schema,
            target_table,
            by_table,
            scope_filter or {},
            table_map or {},
        )
        if query is not None:
            queries.append(query)
            metrics.histogram(
                "nebula_sqlgen_conditions", _CONDITION_BUCKETS
            ).observe(len(query.conditions))
            if query.confidence < configuration.score:
                # Unreachable-table conditions were dropped (§6.1): the
                # statement answers weaker semantics than intended.
                metrics.counter("nebula_sqlgen_weakened_total").inc()
    return queries


def _build_query(
    configuration: Configuration,
    schema: SchemaGraph,
    target_table: str,
    by_table: Dict[str, List[Mapping]],
    scope_filter: Dict[str, str],
    table_map: Dict[str, str],
) -> Optional[GeneratedSQL]:
    def physical(table: str) -> str:
        return table_map.get(table.casefold(), table)

    alias_counter = 0
    target_alias = "t0"
    joins: List[str] = []
    where: List[str] = []
    params: List[str] = []
    conditions: List[Condition] = []
    dropped = 0

    for mapping in by_table[target_table]:
        where.append(f"{target_alias}.{mapping.column} = ? COLLATE NOCASE")
        params.append(mapping.keyword)
        conditions.append(Condition(target_table, str(mapping.column), mapping.keyword))

    for other_table in sorted(by_table):
        if other_table == target_table:
            continue
        path = schema.join_path(target_table, other_table)
        if path is None:
            dropped += len(by_table[other_table])
            continue
        previous_alias = target_alias
        last_alias = target_alias
        for step in path:
            alias_counter += 1
            alias = f"t{alias_counter}"
            condition = _oriented_join(step, previous_alias, alias)
            joins.append(f"JOIN {physical(step.target)} {alias} ON {condition}")
            previous_alias = alias
            last_alias = alias
        for mapping in by_table[other_table]:
            where.append(f"{last_alias}.{mapping.column} = ? COLLATE NOCASE")
            params.append(mapping.keyword)
            conditions.append(Condition(other_table, str(mapping.column), mapping.keyword))

    if not where:
        return None

    if target_table.casefold() not in table_map:
        scope_sql = scope_filter.get(target_table.casefold())
        if scope_sql:
            where.append(f"{target_alias}.{scope_sql}")

    sql = (
        f"SELECT DISTINCT {target_alias}.rowid "
        f"FROM {physical(target_table)} {target_alias} "
        + " ".join(joins)
        + " WHERE "
        + " AND ".join(where)
    )
    confidence = configuration.score
    if dropped:
        # Unreachable conditions were ignored: the query answers a weaker
        # semantics than the configuration intended.
        confidence *= 0.5**dropped
    return GeneratedSQL(
        sql=sql,
        params=tuple(params),
        target_table=target_table,
        confidence=confidence,
        conditions=tuple(conditions),
        provenance=configuration.describe(),
    )


def _oriented_join(step: JoinStep, previous_alias: str, alias: str) -> str:
    """Render the FK join condition with aliases oriented along the path."""
    fk = step.fk
    if step.source == fk.child_table and step.target == fk.parent_table:
        return f"{previous_alias}.{fk.child_column} = {alias}.{fk.parent_column}"
    return f"{previous_alias}.{fk.parent_column} = {alias}.{fk.child_column}"
