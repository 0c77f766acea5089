"""Approximate searching with focal-based spreading (paper §6.3).

Once the ACG is stable (Def. 6.1), the embedded references of a new
annotation most likely point at tuples *near* the annotation's focal.  The
Fixed-Scope variant therefore replaces the whole-database search with a
search over a **mini database**: a materialized view holding only the
K-hop ACG neighbors of the focal tuples, each mini table following the
schema of its original table (rowids preserved).

``spreading_scope`` computes the neighbor set, materializes the mini
tables, and returns the :class:`~repro.search.engine.SearchScope` that
makes the regular execution pipeline run against them.

K is either fixed (``NebulaConfig.spreading_hops``) or auto-selected from
the :class:`~repro.core.acg.HopProfile` for a target coverage (Figure 7:
"by setting K = 2, or K = 3, we expect to discover 71%, or 93% of the
candidates").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..resilience.retry import RetryPolicy
from ..search.engine import SearchScope
from ..storage.compat import Connection, Cursor
from ..types import TupleRef
from ..utils.sql import quote_identifier
from .acg import AnnotationsConnectivityGraph, HopProfile

_MINI_PREFIX = "_minidb_"


@dataclass
class MiniDatabase:
    """Materialized K-hop neighborhood, one mini table per source table."""

    connection: Connection
    #: original table -> mini table name.
    tables: Dict[str, str] = field(default_factory=dict)
    #: rows copied per original table.
    row_counts: Dict[str, int] = field(default_factory=dict)

    @classmethod
    def materialize(
        cls,
        connection: Connection,
        refs: Iterable[TupleRef],
        retry: Optional[RetryPolicy] = None,
    ) -> "MiniDatabase":
        """Copy the referenced rows into ``_minidb_*`` tables.

        Rowids are preserved (``INSERT`` with explicit rowid), so the
        answers coming out of the mini database are directly the original
        tuple references.  Transient lock errors during materialization
        are retried under ``retry``; each statement is idempotent (DROP
        IF EXISTS + CREATE + INSERT), so a retried statement cannot
        duplicate rows.
        """
        def execute(sql: str, params: Sequence = ()) -> Cursor:
            if retry is None:
                return connection.execute(sql, params)
            return retry.run(lambda: connection.execute(sql, params), sql)

        mini = cls(connection=connection)
        buckets: Dict[str, List[int]] = {}
        for ref in refs:
            buckets.setdefault(ref.table, []).append(ref.rowid)
        for table, rowids in sorted(buckets.items()):
            name = f"{_MINI_PREFIX}{table}"
            execute(f"DROP TABLE IF EXISTS {quote_identifier(name)}")
            columns = [
                row[1]
                for row in connection.execute(
                    f"PRAGMA table_info({quote_identifier(table)})"
                )
            ]
            column_list = ", ".join(quote_identifier(c) for c in columns)
            execute(
                f"CREATE TEMP TABLE {quote_identifier(name)} AS "
                f"SELECT rowid AS rowid_copy, {column_list} "
                f"FROM {quote_identifier(table)} WHERE 0"
            )
            placeholders = ", ".join("?" for _ in rowids)
            execute(
                f"INSERT INTO {quote_identifier(name)} (rowid, rowid_copy, {column_list}) "
                f"SELECT rowid, rowid, {column_list} FROM {quote_identifier(table)} "
                f"WHERE rowid IN ({placeholders})",
                rowids,
            )
            mini.tables[table] = name
            mini.row_counts[table] = len(rowids)
        return mini

    @property
    def total_rows(self) -> int:
        return sum(self.row_counts.values())

    def drop(self) -> None:
        """Drop the materialized mini tables."""
        for name in self.tables.values():
            self.connection.execute(f"DROP TABLE IF EXISTS {quote_identifier(name)}")
        self.tables.clear()
        self.row_counts.clear()

    def __enter__(self) -> "MiniDatabase":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.drop()


def select_radius(
    profile: Optional[HopProfile],
    target_recall: float,
    fallback: int,
) -> int:
    """Pick K from the profile; fall back to the configured radius."""
    if profile is None or profile.total == 0:
        return fallback
    return profile.select_k(target_recall)


def spreading_scope(
    connection: Connection,
    acg: AnnotationsConnectivityGraph,
    focal: Sequence[TupleRef],
    k: int,
    materialize: bool = True,
    retry: Optional[RetryPolicy] = None,
) -> Tuple[SearchScope, Optional[MiniDatabase]]:
    """Build the K-hop search scope around ``focal``.

    Returns the scope and, when ``materialize``, the mini database backing
    it (caller is responsible for dropping it — it supports ``with``).
    The scope always includes the focal tuples themselves, even when they
    are not yet in the ACG (a brand-new annotation's focal may be a
    previously unannotated tuple).
    """
    neighbors = set(acg.k_hop_neighbors(focal, k, include_seeds=True))
    neighbors.update(focal)
    mini: Optional[MiniDatabase] = None
    physical: Dict[str, str] = {}
    if materialize:
        mini = MiniDatabase.materialize(connection, neighbors, retry=retry)
        physical = {table.casefold(): name for table, name in mini.tables.items()}
    scope = SearchScope.from_refs(neighbors, physical=physical)
    return scope, mini
