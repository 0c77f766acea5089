"""The keyword-search engine facade.

This is the component Nebula uses as a black box (paper §4 & §6.1, the
``KeywordSearch(q, D)`` call of Figure 5): given a short keyword query it
returns scored tuples.  Internally it chains the mapper, configuration
enumeration, and SQL generation, executes the SQL, and merges the per-
configuration answers (a tuple reached by several configurations keeps the
best confidence — Nebula's own cross-query grouping happens later).

A :class:`SearchScope` restricts execution to a subset of rowids per table;
the focal-based spreading search materializes its K-hop mini database and
passes the corresponding scope here, so the very same code path runs over
the reduced data.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping as TMapping,
    Optional,
    Sequence,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..meta.lexicon import Lexicon

from ..errors import EmptyQueryError
from ..observability.metrics import MetricsRegistry, TIME_BUCKETS, get_metrics
from ..perf.cache import AnalysisCache
from ..resilience.retry import RetryPolicy
from ..storage.compat import Connection
from ..types import ScoredTuple, TupleRef
from ..utils.sql import quote_identifier
from .configurations import enumerate_configurations
from .index import InvertedValueIndex
from .mapper import KeywordMapper, Mapping
from .metadata import SchemaGraph
from .sqlgen import GeneratedSQL, generate_sql


@dataclass(frozen=True)
class KeywordQuery:
    """A short keyword query with the weight Nebula assigned to it."""

    keywords: Tuple[str, ...]
    weight: float = 1.0
    label: str = ""

    @property
    def text(self) -> str:
        return " ".join(self.keywords)

    def describe(self) -> str:
        return self.label or self.text


@dataclass(frozen=True)
class SearchScope:
    """Per-table rowid restriction (the K-hop mini database).

    When ``physical`` maps a table to a materialized mini-table name, the
    SQL filter references that table (``rowid IN (SELECT rowid FROM
    _minidb_Gene)``) — the paper's "materialized view of the K-hop
    neighbors"; otherwise a literal rowid list is inlined.
    """

    rowids: TMapping[str, FrozenSet[int]]
    physical: TMapping[str, str] = field(default_factory=dict)

    @classmethod
    def from_refs(
        cls,
        refs: Iterable[TupleRef],
        physical: Optional[TMapping[str, str]] = None,
    ) -> "SearchScope":
        buckets: Dict[str, set] = {}
        for ref in refs:
            buckets.setdefault(ref.table.casefold(), set()).add(ref.rowid)
        return cls(
            rowids={t: frozenset(r) for t, r in buckets.items()},
            physical=dict(physical or {}),
        )

    def allows(self, table: str, rowid: int) -> bool:
        allowed = self.rowids.get(table.casefold())
        return allowed is not None and rowid in allowed

    def tables(self) -> Tuple[str, ...]:
        return tuple(sorted(self.rowids))

    def sql_filters(self) -> Dict[str, str]:
        """Per-table ``rowid IN (...)`` fragments for SQL generation."""
        fragments: Dict[str, str] = {}
        for table, rowids in self.rowids.items():
            mini = self.physical.get(table)
            if mini:
                fragments[table] = (
                    f"rowid IN (SELECT rowid FROM {quote_identifier(mini)})"
                )
            elif rowids:
                body = ", ".join(str(r) for r in sorted(rowids))
                fragments[table] = f"rowid IN ({body})"
            else:
                fragments[table] = "rowid IN (NULL)"
        return fragments

    def size(self) -> int:
        return sum(len(r) for r in self.rowids.values())


@dataclass
class SearchResult:
    """Scored answer of one keyword query."""

    query: KeywordQuery
    tuples: List[ScoredTuple]
    sql_queries: List[GeneratedSQL] = field(default_factory=list)

    @property
    def refs(self) -> List[TupleRef]:
        return [t.ref for t in self.tuples]


class KeywordSearchEngine:
    """Metadata-driven keyword search over a SQLite database."""

    def __init__(
        self,
        connection: Connection,
        searchable_columns: Sequence[Tuple[str, str]],
        schema: Optional[SchemaGraph] = None,
        aliases: Optional[TMapping[str, Tuple[str, Optional[str]]]] = None,
        lexicon: Optional["Lexicon"] = None,
        max_configurations: int = 24,
        retry: Optional[RetryPolicy] = None,
        metrics: Optional[MetricsRegistry] = None,
        analysis_cache: Optional[AnalysisCache] = None,
        index: Optional[InvertedValueIndex] = None,
    ) -> None:
        self.connection = connection
        #: Retry policy for transient lock errors during SQL execution.
        self.retry = retry
        self.schema = schema or SchemaGraph.from_connection(connection)
        #: The inverted value index.  ``Nebula`` injects the persisted
        #: index (``repro.search.persist``); absent one, an in-memory
        #: build — the reference the persisted image is checked against.
        self.index = (
            index
            if index is not None
            else InvertedValueIndex.build(connection, searchable_columns)
        )
        #: Generation-versioned keyword-analysis memo table (optional).
        self.analysis_cache = analysis_cache
        self.mapper = KeywordMapper(
            self.schema, self.index, aliases=aliases, lexicon=lexicon,
            cache=analysis_cache,
        )
        self.max_configurations = max_configurations
        metrics = metrics if metrics is not None else get_metrics()
        # Instrument handles are resolved once: the execute path must not
        # pay a registry lookup per statement.
        self._m_statements = metrics.counter("nebula_sql_statements_total")
        self._m_rows = metrics.counter("nebula_sql_rows_total")
        self._m_seconds = metrics.histogram(
            "nebula_sql_statement_seconds", TIME_BUCKETS
        )
        self._m_generated = metrics.counter("nebula_sql_generated_total")

    # ------------------------------------------------------------------

    def generate(
        self, query: KeywordQuery, scope: Optional[SearchScope] = None
    ) -> List[GeneratedSQL]:
        """Produce the candidate SQL queries for ``query`` without running them."""
        if not query.keywords:
            raise EmptyQueryError("keyword query has no keywords")
        keyword_mappings = self.mapper.map_query(list(query.keywords))
        if scope is not None:
            keyword_mappings = self._prune_to_scope(keyword_mappings, scope)
        configurations = enumerate_configurations(
            keyword_mappings, self.schema, max_configurations=self.max_configurations
        )
        scope_filter = None
        table_map = None
        if scope is not None:
            table_map = dict(scope.physical)
            scope_filter = {
                table: fragment
                for table, fragment in scope.sql_filters().items()
                if table not in table_map
            }
        generated: List[GeneratedSQL] = []
        for configuration in configurations:
            generated.extend(
                generate_sql(configuration, self.schema, scope_filter, table_map)
            )
        self._m_generated.inc(len(generated))
        return generated

    def _prune_to_scope(
        self, keyword_mappings: Dict[str, List[Mapping]], scope: SearchScope
    ) -> Dict[str, List[Mapping]]:
        """Drop VALUE mappings whose postings all fall outside the scope."""
        pruned: Dict[str, List[Mapping]] = {}
        for keyword, mappings in keyword_mappings.items():
            kept = []
            for mapping in mappings:
                if mapping.kind.value != "value":
                    kept.append(mapping)
                    continue
                postings = self.index.lookup_in(keyword, mapping.table, mapping.column)
                if any(scope.allows(p.table, p.rowid) for p in postings):
                    kept.append(mapping)
            pruned[keyword] = kept
        return pruned

    def execute_sql(self, generated: GeneratedSQL) -> List[int]:
        """Run one generated query, returning target-table rowids.

        Transient lock/busy errors are retried when a policy is set.
        """
        rows = self.execute_rows(generated.sql, generated.params)
        return [int(r[0]) for r in rows]

    def execute_rows(self, sql: str, params: Sequence = ()) -> List:
        """Run one SQL statement with retry, returning rows.

        One clock pair per statement feeds ``nebula_sql_statement_seconds``
        beside the statement and row counters.
        """
        def run() -> List:
            return self.connection.execute(sql, params).fetchall()

        started = time.perf_counter()
        rows = self.retry.run(run, sql) if self.retry is not None else run()
        self._m_seconds.observe(time.perf_counter() - started)
        self._m_statements.inc()
        self._m_rows.inc(len(rows))
        return rows

    def search(
        self, query: KeywordQuery, scope: Optional[SearchScope] = None
    ) -> SearchResult:
        """Full pipeline: map -> configure -> SQL -> execute -> merge.

        Each answered tuple's confidence is the best confidence among the
        configurations that produced it.
        """
        generated = self.generate(query, scope)
        best: Dict[TupleRef, float] = {}
        for sql_query in generated:
            for rowid in self.execute_sql(sql_query):
                ref = TupleRef(sql_query.target_table, rowid)
                if sql_query.confidence > best.get(ref, 0.0):
                    best[ref] = sql_query.confidence
        tuples = [
            ScoredTuple(ref=ref, confidence=conf, provenance=(query.describe(),))
            for ref, conf in sorted(best.items(), key=lambda kv: (-kv[1], kv[0]))
        ]
        return SearchResult(query=query, tuples=tuples, sql_queries=generated)
