"""Schema metadata graph: tables, columns, and FK-PK join paths.

The keyword-search technique "internally leverages the FK-PK relationships
among the database tables to produce meaningful related tuples" (paper
§6.1).  :class:`SchemaGraph` models the schema as an undirected graph whose
nodes are tables and whose edges are foreign keys; shortest join paths are
found by BFS and rendered into SQL joins by :mod:`repro.search.sqlgen`.

The graph can be introspected directly from a live SQLite connection
(``SchemaGraph.from_connection``) using ``PRAGMA`` metadata, so the search
engine needs no manual schema description.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..errors import UnknownTableError
from ..storage.compat import Connection
from ..utils.sql import quote_identifier


@dataclass(frozen=True)
class ColumnInfo:
    """One column of one table."""

    table: str
    name: str
    declared_type: str
    is_primary_key: bool

    @property
    def qualified(self) -> str:
        return f"{self.table}.{self.name}"

    @property
    def is_text(self) -> bool:
        kind = (self.declared_type or "TEXT").upper()
        return not any(token in kind for token in ("INT", "REAL", "FLOA", "DOUB", "NUM", "BLOB"))


@dataclass(frozen=True)
class ForeignKey:
    """A foreign-key edge: ``child.child_column -> parent.parent_column``."""

    child_table: str
    child_column: str
    parent_table: str
    parent_column: str

    def join_condition(self, child_alias: str, parent_alias: str) -> str:
        return (
            f"{child_alias}.{self.child_column} = {parent_alias}.{self.parent_column}"
        )


@dataclass(frozen=True)
class JoinStep:
    """One hop of a join path, oriented from ``source`` to ``target``."""

    source: str
    target: str
    fk: ForeignKey


class SchemaGraph:
    """Tables, columns, and FK edges, with join-path search."""

    def __init__(
        self,
        columns: Iterable[ColumnInfo],
        foreign_keys: Iterable[ForeignKey] = (),
    ) -> None:
        self._columns: Dict[str, List[ColumnInfo]] = {}
        for column in columns:
            self._columns.setdefault(column.table, []).append(column)
        self._foreign_keys: List[ForeignKey] = list(foreign_keys)
        self._adjacency: Dict[str, List[Tuple[str, ForeignKey]]] = {}
        for fk in self._foreign_keys:
            self._adjacency.setdefault(fk.child_table, []).append((fk.parent_table, fk))
            self._adjacency.setdefault(fk.parent_table, []).append((fk.child_table, fk))
        # Lazily built by normalized_names(); safe to cache because the
        # graph is immutable after construction.
        self._normalized: Optional[
            Tuple[Tuple[str, str, Tuple[Tuple[str, str], ...]], ...]
        ] = None

    # ------------------------------------------------------------------

    @classmethod
    def from_connection(cls, connection: Connection) -> "SchemaGraph":
        """Introspect every user table of a SQLite database."""
        names = [
            row[0]
            for row in connection.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table' "
                "AND name NOT LIKE '_nebula_%' AND name NOT LIKE '_minidb_%' "
                "AND name NOT LIKE 'sqlite_%' ORDER BY name"
            )
        ]
        columns: List[ColumnInfo] = []
        foreign_keys: List[ForeignKey] = []
        for table in names:
            for row in connection.execute(f"PRAGMA table_info({quote_identifier(table)})"):
                columns.append(
                    ColumnInfo(
                        table=table,
                        name=row[1],
                        declared_type=row[2] or "TEXT",
                        is_primary_key=bool(row[5]),
                    )
                )
            for row in connection.execute(
                f"PRAGMA foreign_key_list({quote_identifier(table)})"
            ):
                # PRAGMA columns: id, seq, table, from, to, ...
                foreign_keys.append(
                    ForeignKey(
                        child_table=table,
                        child_column=row[3],
                        parent_table=row[2],
                        parent_column=row[4] or "rowid",
                    )
                )
        return cls(columns, foreign_keys)

    # ------------------------------------------------------------------

    @property
    def tables(self) -> Tuple[str, ...]:
        return tuple(sorted(self._columns))

    @property
    def foreign_keys(self) -> Tuple[ForeignKey, ...]:
        return tuple(self._foreign_keys)

    def has_table(self, table: str) -> bool:
        return self._resolve(table) is not None

    def _resolve(self, table: str) -> Optional[str]:
        for name in self._columns:
            if name.casefold() == table.casefold():
                return name
        return None

    def canonical_table(self, table: str) -> str:
        resolved = self._resolve(table)
        if resolved is None:
            raise UnknownTableError(table)
        return resolved

    def columns_of(self, table: str) -> Tuple[ColumnInfo, ...]:
        return tuple(self._columns[self.canonical_table(table)])

    def column(self, table: str, name: str) -> Optional[ColumnInfo]:
        for info in self.columns_of(table):
            if info.name.casefold() == name.casefold():
                return info
        return None

    def normalized_names(
        self,
    ) -> Tuple[Tuple[str, str, Tuple[Tuple[str, str], ...]], ...]:
        """``(table, normalized_table, ((column, normalized_column), ...))``
        per table, in :attr:`tables` order.

        Schema-name matching normalizes every table and column name once
        per *keyword* otherwise; this precomputes the normalized forms
        once per graph so the mapper's schema pass is pure dict work.
        """
        if self._normalized is None:
            from ..utils.tokenize import normalize_word

            self._normalized = tuple(
                (
                    table,
                    normalize_word(table),
                    tuple(
                        (info.name, normalize_word(info.name))
                        for info in self._columns[table]
                    ),
                )
                for table in self.tables
            )
        return self._normalized

    def text_columns(self) -> Tuple[ColumnInfo, ...]:
        """Every TEXT-typed column in the schema (naive baseline scans these)."""
        return tuple(
            info
            for table in self.tables
            for info in self._columns[table]
            if info.is_text
        )

    # ------------------------------------------------------------------
    # Join paths
    # ------------------------------------------------------------------

    def join_path(self, source: str, target: str) -> Optional[List[JoinStep]]:
        """Shortest FK path between two tables (BFS), or None if unconnected.

        Returns an empty list when ``source == target``.
        """
        src = self.canonical_table(source)
        dst = self.canonical_table(target)
        if src == dst:
            return []
        queue = deque([src])
        parents: Dict[str, Tuple[str, ForeignKey]] = {}
        visited = {src}
        while queue:
            current = queue.popleft()
            for neighbor, fk in self._adjacency.get(current, ()):
                if neighbor in visited:
                    continue
                visited.add(neighbor)
                parents[neighbor] = (current, fk)
                if neighbor == dst:
                    return self._unwind(src, dst, parents)
                queue.append(neighbor)
        return None

    def _unwind(
        self, src: str, dst: str, parents: Dict[str, Tuple[str, ForeignKey]]
    ) -> List[JoinStep]:
        steps: List[JoinStep] = []
        node = dst
        while node != src:
            previous, fk = parents[node]
            steps.append(JoinStep(source=previous, target=node, fk=fk))
            node = previous
        steps.reverse()
        return steps

    def are_connected(self, source: str, target: str) -> bool:
        return self.join_path(source, target) is not None
