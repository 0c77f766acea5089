"""Shared execution of the SQL queries of multiple keyword queries (§6).

The queries generated from one annotation are executed as a *group*
instead of in isolation, exploiting two kinds of sharing:

* **deduplication** — different keyword queries frequently compile to the
  same SQL (e.g. two Type-2/Type-3 variants probing the same column for
  the same value); identical statements run once;
* **batching** — single-condition probes of the same column (the dominant
  query shape: ``WHERE Gene.GID = 'JW0014'``) merge into one ``IN``-list
  statement whose answer is distributed back to the member queries.

Both preserve exactly the per-query answer sets of isolated execution —
the paper reports "around 40% to 50% speedup ... while producing the same
number of output tuples" (Figure 13).

:meth:`SharedExecutor.execute_groups` extends the same sharing **across
annotations**: a batch of annotations contributes one query group each,
every group's SQL is pooled into a single dedup/batch pass, and each
group's results are assembled from the pooled answers — so ten
annotations mentioning the same gene probe the database once, not ten
times (the sustained-ingestion regime behind the paper's scaling
claims, where Figure 13's per-annotation savings compound).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..observability.metrics import get_metrics
from ..search.engine import KeywordQuery, KeywordSearchEngine, SearchResult, SearchScope
from ..search.sqlgen import GeneratedSQL
from ..types import ScoredTuple, TupleRef
from ..utils.sql import quote_identifier

#: Bind variables one statement may carry: SQLite's historical
#: SQLITE_MAX_VARIABLE_NUMBER default, where IN lists are split.
MAX_VARIABLES = 999


@dataclass
class SharedExecutionStats:
    """Execution accounting (how much sharing happened)."""

    total_sql: int = 0
    executed_statements: int = 0
    batched_statements: int = 0

    @property
    def saved_statements(self) -> int:
        return self.total_sql - self.executed_statements

    @property
    def hit_ratio(self) -> float:
        """Fraction of the generated statements sharing saved (Fig. 13)."""
        return self.saved_statements / self.total_sql if self.total_sql else 0.0


class SharedExecutor:
    """Executes groups of keyword queries with cross-query sharing."""

    def __init__(self, engine: KeywordSearchEngine) -> None:
        self.engine = engine
        self.last_stats = SharedExecutionStats()

    # ------------------------------------------------------------------

    def search_all(
        self,
        queries: Sequence[KeywordQuery],
        scope: Optional[SearchScope] = None,
    ) -> Dict[str, SearchResult]:
        """Per-query results identical to isolated ``engine.search`` calls."""
        return self.execute_groups([queries], scope)[0]

    def execute_groups(
        self,
        groups: Sequence[Sequence[KeywordQuery]],
        scope: Optional[SearchScope] = None,
    ) -> List[Dict[str, SearchResult]]:
        """One result dict per group, with sharing across ALL groups.

        Each group is one annotation's generated queries.  Generation runs
        per group exactly as in isolation; the flattened SQL of every
        group then goes through a single dedup + batch + execute pass, and
        each group's answers are assembled from the shared answer cache —
        per-group results are byte-identical to running the groups one at
        a time.
        """
        prepared: List[Dict[str, Tuple[KeywordQuery, List[GeneratedSQL]]]] = []
        for queries in groups:
            generated: Dict[str, Tuple[KeywordQuery, List[GeneratedSQL]]] = {}
            for query in queries:
                generated[query.describe()] = (query, self.engine.generate(query, scope))
            prepared.append(generated)

        cache = self._execute_shared(
            [
                sql
                for generated in prepared
                for _, sqls in generated.values()
                for sql in sqls
            ],
            scope,
        )

        return [self._assemble(generated, cache) for generated in prepared]

    def _assemble(
        self,
        generated: Dict[str, Tuple[KeywordQuery, List[GeneratedSQL]]],
        cache: Dict[Tuple, List[int]],
    ) -> Dict[str, SearchResult]:
        results: Dict[str, SearchResult] = {}
        for label, (query, sqls) in generated.items():
            best: Dict[TupleRef, float] = {}
            for sql_query in sqls:
                for rowid in cache[sql_query.signature]:
                    ref = TupleRef(sql_query.target_table, rowid)
                    if sql_query.confidence > best.get(ref, 0.0):
                        best[ref] = sql_query.confidence
            tuples = [
                ScoredTuple(ref=ref, confidence=conf, provenance=(label,))
                for ref, conf in sorted(best.items(), key=lambda kv: (-kv[1], kv[0]))
            ]
            results[label] = SearchResult(query=query, tuples=tuples, sql_queries=sqls)
        return results

    # ------------------------------------------------------------------

    def _execute_shared(
        self, sqls: Sequence[GeneratedSQL], scope: Optional[SearchScope]
    ) -> Dict[Tuple, List[int]]:
        stats = SharedExecutionStats(total_sql=len(sqls))
        unique: Dict[Tuple, GeneratedSQL] = {}
        for sql_query in sqls:
            unique.setdefault(sql_query.signature, sql_query)

        # Plan: partition into direct statements and IN-list batches.
        direct: List[GeneratedSQL] = []
        batches: Dict[Tuple[str, str], List[GeneratedSQL]] = {}
        for sql_query in unique.values():
            if sql_query.is_single_local_condition:
                condition = sql_query.conditions[0]
                key = (condition.table.casefold(), condition.column.casefold())
                batches.setdefault(key, []).append(sql_query)
            else:
                direct.append(sql_query)
        merged: List[List[GeneratedSQL]] = []
        for members in batches.values():
            if len(members) == 1:
                direct.append(members[0])
            else:
                merged.append(members)

        statements: List[Tuple[str, Sequence[str]]] = [
            (sql_query.sql, tuple(sql_query.params)) for sql_query in direct
        ]
        #: Per merged group: how many chunked statements it contributed
        #: (one unless the IN list exceeds MAX_VARIABLES).
        batch_plan: List[Tuple[Sequence[GeneratedSQL], int]] = []
        for members in merged:
            chunked = self._batch_statements(members, scope)
            batch_plan.append((members, len(chunked)))
            statements.extend(chunked)

        # Execute the fixed plan, then distribute.
        rows_per_statement = [
            self.engine.execute_rows(sql, params) for sql, params in statements
        ]

        cache: Dict[Tuple, List[int]] = {}
        for position, sql_query in enumerate(direct):
            cache[sql_query.signature] = [
                int(row[0]) for row in rows_per_statement[position]
            ]
        index = len(direct)
        for members, chunk_count in batch_plan:
            rows = [
                row
                for statement_rows in rows_per_statement[index : index + chunk_count]
                for row in statement_rows
            ]
            index += chunk_count
            by_value: Dict[str, List[int]] = {}
            for rowid, value in rows:
                by_value.setdefault(str(value).casefold(), []).append(int(rowid))
            for member in members:
                wanted = member.conditions[0].value.casefold()
                cache[member.signature] = list(by_value.get(wanted, ()))

        stats.executed_statements = len(statements)
        stats.batched_statements = len(merged)
        self.last_stats = stats
        metrics = get_metrics()
        metrics.counter("nebula_shared_sql_total").inc(stats.total_sql)
        metrics.counter("nebula_shared_sql_executed_total").inc(
            stats.executed_statements
        )
        metrics.counter("nebula_shared_sql_batched_total").inc(
            stats.batched_statements
        )
        metrics.counter("nebula_shared_sql_saved_total").inc(stats.saved_statements)
        metrics.gauge("nebula_shared_hit_ratio").set(stats.hit_ratio)
        return cache

    def _batch_statements(
        self,
        members: Sequence[GeneratedSQL],
        scope: Optional[SearchScope],
    ) -> List[Tuple[str, Sequence[str]]]:
        """IN-list statements answering every member probe.

        Normally one statement; :data:`MAX_VARIABLES` splits an oversized
        value set into several chunks whose rows are concatenated by the
        caller.
        """
        condition = members[0].conditions[0]
        table, column = condition.table, condition.column
        values = sorted({m.conditions[0].value for m in members}, key=str.casefold)
        physical = table
        if scope is not None:
            physical = scope.physical.get(table.casefold(), table)
        suffix = ""
        if scope is not None and physical == table:
            fragment = scope.sql_filters().get(table.casefold())
            if fragment:
                suffix = f" AND {fragment}"
        statements: List[Tuple[str, Sequence[str]]] = []
        for start in range(0, len(values), MAX_VARIABLES):
            chunk = values[start : start + MAX_VARIABLES]
            sql = (
                f"SELECT rowid, {quote_identifier(column)} "
                f"FROM {quote_identifier(physical)} "
                f"WHERE {quote_identifier(column)} COLLATE NOCASE "
                f"IN ({', '.join('?' * len(chunk))})"
            ) + suffix
            statements.append((sql, tuple(chunk)))
        return statements
