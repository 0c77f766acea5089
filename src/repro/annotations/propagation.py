"""Annotation propagation onto query answers.

The passive engine's signature feature (paper §1, §2): when a user runs a
``SELECT``, each answer row arrives with the annotations that apply to it —
row-level and cell-level annotations of that row, plus column-level and
table-level annotations of the projected columns.

:func:`propagate` implements that operator over an arbitrary single-table
selection: it executes the query, then reads the edges that apply to each
distinct answer row through :meth:`AnnotationStore.attachments_on` (one
keyed statement per row) and the annotations' content in one statement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..storage.compat import Connection
from ..types import TupleRef
from ..utils.sql import quote_identifier
from .store import AnnotationStore, Attachment, AttachmentKind


@dataclass(frozen=True)
class AnnotatedRow:
    """One answer row together with its propagated annotations."""

    ref: TupleRef
    values: Tuple
    #: (annotation content, attachment) pairs that apply to this row.
    annotations: Tuple[Tuple[str, Attachment], ...]


def propagate(
    connection: Connection,
    table: str,
    columns: Sequence[str] = ("*",),
    where: Optional[str] = None,
    parameters: Sequence = (),
    include_predicted: bool = False,
) -> List[AnnotatedRow]:
    """Run a selection and propagate applicable annotations to each row.

    Parameters mirror a simple single-table ``SELECT``: projected
    ``columns`` (default all), an optional ``where`` clause with bound
    ``parameters``.  Predicted (dotted) attachments are excluded unless
    ``include_predicted`` — the passive engine only ever shows true edges,
    while Nebula's UI also surfaces pending predictions.

    Column-level edges apply only when their column is projected.
    """
    store = AnnotationStore(connection)
    canonical = store.validate_table(table)
    projected = list(columns)
    # A quoted "*" would name no column, and SQLite reads an unknown
    # double-quoted identifier as a string literal.
    select_list = ", ".join(
        "*" if c.strip() == "*" else quote_identifier(c) for c in projected
    )
    sql = f"SELECT rowid, {select_list} FROM {quote_identifier(canonical)}"
    if where:
        # The propagate() API accepts a raw WHERE clause with bound
        # parameters, mirroring a plain SELECT.
        sql += f" WHERE {where}"
    answer = connection.execute(  # nebula-lint: ignore[NBL001]
        sql, parameters
    ).fetchall()
    if not answer:
        return []

    edges = _edges_of_rows(
        store, canonical, [int(r[0]) for r in answer], include_predicted
    )
    contents = _annotation_contents(connection, edges)

    projected_columns = _resolve_projection(connection, canonical, projected)
    rows: List[AnnotatedRow] = []
    for raw in answer:
        rowid = int(raw[0])
        applicable = [
            (contents[a.annotation_id], a)
            for a in edges[rowid]
            if _applies(a, projected_columns)
        ]
        rows.append(
            AnnotatedRow(
                ref=TupleRef(canonical, rowid),
                values=tuple(raw[1:]),
                annotations=tuple(applicable),
            )
        )
    return rows


def _edges_of_rows(
    store: AnnotationStore,
    table: str,
    rowids: Sequence[int],
    include_predicted: bool,
) -> Dict[int, List[Attachment]]:
    """The edges that apply to each distinct row, true ones only unless
    ``include_predicted``."""
    return {
        rowid: [
            a
            for a in store.attachments_on(table, rowid)
            if include_predicted or a.kind is AttachmentKind.TRUE
        ]
        for rowid in set(rowids)
    }


def _annotation_contents(
    connection: Connection, *edges: Dict[int, List[Attachment]]
) -> Dict[int, str]:
    """Content of every annotation with an edge in ``edges``."""
    ids = sorted(
        {
            a.annotation_id
            for of_rows in edges
            for applying in of_rows.values()
            for a in applying
        }
    )
    if not ids:
        return {}
    placeholders = ", ".join("?" for _ in ids)
    rows = connection.execute(
        f"SELECT annotation_id, content FROM _nebula_annotations "
        f"WHERE annotation_id IN ({placeholders})",
        ids,
    ).fetchall()
    return {int(r[0]): str(r[1]) for r in rows}


@dataclass(frozen=True)
class AnnotatedJoinRow:
    """One joined answer row with per-side propagated annotations."""

    refs: Tuple[TupleRef, ...]
    values: Tuple
    #: (annotation content, attachment) pairs from every joined base row.
    annotations: Tuple[Tuple[str, Attachment], ...]


def propagate_join(
    connection: Connection,
    left_table: str,
    right_table: str,
    on: str,
    where: Optional[str] = None,
    parameters: Sequence = (),
    include_predicted: bool = False,
) -> List[AnnotatedJoinRow]:
    """Propagate annotations through a two-table FK join.

    The passive engine's algebra carries annotations *through* operators:
    a joined answer row inherits the annotations of both base rows it was
    produced from (plus their column/table-level annotations).  ``on`` is
    the join condition with the aliases ``l`` and ``r`` (e.g.
    ``"l.GID = r.GID"``).
    """
    store = AnnotationStore(connection)
    left = store.validate_table(left_table)
    right = store.validate_table(right_table)
    sql = (
        f"SELECT l.rowid, r.rowid, l.*, r.* "
        f"FROM {quote_identifier(left)} l "
        f"JOIN {quote_identifier(right)} r ON {on}"
    )
    if where:
        # ``on`` and ``where`` are raw join/filter clauses by design.
        sql += f" WHERE {where}"
    answer = connection.execute(  # nebula-lint: ignore[NBL001]
        sql, parameters
    ).fetchall()
    if not answer:
        return []

    left_edges = _edges_of_rows(
        store, left, [int(r[0]) for r in answer], include_predicted
    )
    right_edges = _edges_of_rows(
        store, right, [int(r[1]) for r in answer], include_predicted
    )
    contents = _annotation_contents(connection, left_edges, right_edges)

    rows: List[AnnotatedJoinRow] = []
    for raw in answer:
        left_rowid, right_rowid = int(raw[0]), int(raw[1])
        applicable = [
            (contents[a.annotation_id], a)
            for a in left_edges[left_rowid] + right_edges[right_rowid]
        ]
        rows.append(
            AnnotatedJoinRow(
                refs=(TupleRef(left, left_rowid), TupleRef(right, right_rowid)),
                values=tuple(raw[2:]),
                annotations=tuple(applicable),
            )
        )
    return rows


def _resolve_projection(
    connection: Connection, table: str, projected: Sequence[str]
) -> Optional[frozenset]:
    """Casefolded projected column names, or None when projecting ``*``."""
    if any(c.strip() == "*" for c in projected):
        return None
    return frozenset(c.strip().casefold() for c in projected)


def _applies(attachment: Attachment, projected: Optional[frozenset]) -> bool:
    """A column-level or cell edge applies when its column is projected."""
    if attachment.column is not None and projected is not None:
        return attachment.column.casefold() in projected
    return True
