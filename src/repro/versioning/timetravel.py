"""Time-travel reads over the commit log.

Every function takes ``as_of`` — a commit id — and reconstructs the
annotation / attachment state that existed *after* that commit was
applied, purely from the history tables.  An entity's *visible* version
at the pin is its latest ``history_id`` among versions with
``commit_id <= as_of``, unless that version is a ``delete`` tombstone.
Because history rows are append-only, the result of any pinned read is
immutable no matter how many commits a concurrent writer adds — which
is exactly the snapshot-consistency guarantee the service readers rely
on.

The statements come in two forms:

* **Entity-addressed reads** — one annotation, one annotation's edges,
  the edges that apply to one row, a tuple's annotations, and the
  pending tasks — work from the requested entity.  Every history row
  matching the key is a candidate, and a candidate is kept when it is
  its entity's visible version: ``history_id = (SELECT MAX(history_id)
  ... WHERE <id> = h.<id> AND commit_id <= :pin)``, found through the
  ``…_by_entity`` index.  The key itself comes through an index on the
  target or the entity id, so the read costs the entity's history, not
  the log's.  One key has no index — an annotation's edges (no index
  leads with ``annotation_id``) — and takes one pass over the
  attachment history.  These statements bind their parameters by name
  (``:pin``, ``:table``, ``:rowid``, …), so one value fills every slot.
* **Whole-state reads** — the counts, the full annotation listing, a
  whole-table attachment listing, the true pairs of the historical ACG,
  :func:`state_fingerprint` and the content search — read most of the
  log anyway.  They use the view form, :data:`ANNOTATIONS_AS_OF` and
  :data:`ATTACHMENTS_AS_OF`: the ``*_current`` views with a
  ``commit_id <= ?`` pin, one ``GROUP BY`` over the history.  The view
  form is also the reference the entity-addressed statements are
  tested against.

The edges that apply to a row — its exact edges, the table's rowless
edges and the range edges covering it — are written once, here, in a
head and a pinned form: :func:`attachments_on_row` (the store's row
read) and :func:`annotations_on_row` (the service's tuple read).

The other head-state queries live in :mod:`repro.annotations.store`;
:class:`~repro.annotations.store.AnnotationStore` delegates to this
module for a row's or a table's edges and whenever a read carries
``as_of``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..storage.compat import Connection

_ANNOTATION_COLUMNS = "annotation_id, content, author, created_seq"

_ATTACHMENT_COLUMNS = (
    "attachment_id, annotation_id, target_table, target_rowid, "
    "target_rowid_hi, target_column, confidence, kind"
)

# ----------------------------------------------------------------------
# The view form: whole-state reads, and the reference for the rest
# ----------------------------------------------------------------------

#: Table expression of the annotations visible at commit ``?``.
ANNOTATIONS_AS_OF = (
    "(SELECT h.annotation_id AS annotation_id, h.content AS content, "
    "h.author AS author, h.created_seq AS created_seq "
    "FROM _nebula_annotation_history AS h "
    "JOIN (SELECT annotation_id, MAX(history_id) AS history_id "
    "FROM _nebula_annotation_history WHERE commit_id <= ? "
    "GROUP BY annotation_id) AS latest "
    "ON h.history_id = latest.history_id "
    "WHERE h.op <> 'delete')"
)

#: Table expression of the attachments visible at commit ``?``.
ATTACHMENTS_AS_OF = (
    "(SELECT h.attachment_id AS attachment_id, h.annotation_id AS annotation_id, "
    "h.target_table AS target_table, h.target_rowid AS target_rowid, "
    "h.target_rowid_hi AS target_rowid_hi, h.target_column AS target_column, "
    "h.confidence AS confidence, h.kind AS kind "
    "FROM _nebula_attachment_history AS h "
    "JOIN (SELECT attachment_id, MAX(history_id) AS history_id "
    "FROM _nebula_attachment_history WHERE commit_id <= ? "
    "GROUP BY attachment_id) AS latest "
    "ON h.history_id = latest.history_id "
    "WHERE h.op <> 'delete')"
)

# Full statements (literal constants: NBL001-safe by construction).

_ITER_ANNOTATIONS = (
    "SELECT " + _ANNOTATION_COLUMNS + " FROM " + ANNOTATIONS_AS_OF + " "
    "ORDER BY created_seq"
)

_COUNT_ANNOTATIONS = "SELECT COUNT(*) FROM " + ANNOTATIONS_AS_OF

_ATTACHMENTS_ON_TABLE = (
    "SELECT " + _ATTACHMENT_COLUMNS + " FROM _nebula_attachments WHERE target_table = ?"
)

_ATTACHMENTS_ON_TABLE_AS_OF = (
    "SELECT " + _ATTACHMENT_COLUMNS + " FROM " + ATTACHMENTS_AS_OF + " "
    "WHERE target_table = ?"
)

_COLUMN_FILTER = " AND (target_column = ? OR target_column IS NULL)"

_ORDER_BY_ATTACHMENT = " ORDER BY attachment_id"

_TRUE_PAIRS = (
    "SELECT annotation_id, target_table, target_rowid, target_rowid_hi "
    "FROM " + ATTACHMENTS_AS_OF + " "
    "WHERE kind = 'true' AND target_rowid IS NOT NULL ORDER BY attachment_id"
)

_COUNT_ATTACHMENTS = "SELECT COUNT(*) FROM " + ATTACHMENTS_AS_OF

_COUNT_ATTACHMENTS_BY_KIND = (
    "SELECT COUNT(*) FROM " + ATTACHMENTS_AS_OF + " WHERE kind = ?"
)

#: ``find_annotations(needle, limit, as_of)`` (service): params
#: (as_of, needle, limit).  A ``LIKE`` over every visible annotation.
FIND_ANNOTATIONS_AS_OF = (
    "SELECT annotation_id, content, author "
    "FROM " + ANNOTATIONS_AS_OF + " "
    "WHERE content LIKE '%' || ? || '%' "
    "ORDER BY annotation_id DESC LIMIT ?"
)

# ----------------------------------------------------------------------
# Entity-addressed statements (named parameters)
# ----------------------------------------------------------------------

#: ``history_id`` of an annotation's latest version at or before
#: ``:pin``, through ``_nebula_annotation_history_by_entity``; the
#: caller closes it with the id to look up and ``)``.
_ANNOTATION_VERSION = (
    "(SELECT MAX(history_id) FROM _nebula_annotation_history "
    "WHERE commit_id <= :pin AND annotation_id = "
)

#: Keeps the candidate attachment version ``h`` that is its entity's
#: visible version at ``:pin`` (the subquery searches
#: ``_nebula_attachment_history_by_entity``).  ``h.commit_id <= :pin``
#: drops later versions before the subquery runs.
_VISIBLE_ATTACHMENT = (
    " AND h.commit_id <= :pin AND h.op <> 'delete' AND h.history_id = "
    "(SELECT MAX(history_id) FROM _nebula_attachment_history "
    "WHERE attachment_id = h.attachment_id AND commit_id <= :pin)"
)

_H_ATTACHMENT_COLUMNS = (
    "h.attachment_id, h.annotation_id, h.target_table, h.target_rowid, "
    "h.target_rowid_hi, h.target_column, h.confidence, h.kind"
)

_GET_ANNOTATION = (
    "SELECT " + _ANNOTATION_COLUMNS + " FROM _nebula_annotation_history "
    "WHERE history_id = " + _ANNOTATION_VERSION + ":annotation_id) "
    "AND op <> 'delete'"
)

#: No index leads with ``annotation_id``: one pass over the attachment
#: history (left to itself the planner walks ``…_by_entity`` for the
#: order and reads every row through it, about twice as slow).
_ATTACHMENTS_OF = (
    "SELECT " + _H_ATTACHMENT_COLUMNS + " "
    "FROM _nebula_attachment_history AS h NOT INDEXED "
    "WHERE h.annotation_id = :annotation_id" + _VISIBLE_ATTACHMENT + " "
    "ORDER BY h.attachment_id"
)

# ----------------------------------------------------------------------
# The edges that apply to a row (head and pinned forms)
# ----------------------------------------------------------------------

#: The three disjoint arms of "the edges that apply to row ``:rowid`` of
#: ``:table``": the row's exact edges and the table's rowless edges
#: (column- and table-level, which apply to every row), both through
#: ``…_by_target``, and the range edges covering the row, through the
#: partial ``…_by_range`` index (revision 0005).  SQLite flattens the
#: arms into each reader below: one ``SEARCH`` per arm.
_EXACT_ARM = (
    "h.target_table = :table AND h.target_rowid = :rowid "
    "AND h.target_rowid_hi IS NULL"
)
_ROWLESS_ARM = "h.target_table = :table AND h.target_rowid IS NULL"
_COVERING_ARM = (
    "h.target_table = :table AND h.target_rowid_hi IS NOT NULL "
    "AND h.target_rowid <= :rowid AND :rowid <= h.target_rowid_hi"
)

_HEAD_ARM = "SELECT " + _H_ATTACHMENT_COLUMNS + " FROM _nebula_attachments AS h WHERE "
_PINNED_ARM = (
    "SELECT " + _H_ATTACHMENT_COLUMNS + " FROM _nebula_attachment_history AS h WHERE "
)

#: The head form: the row's edges in ``_nebula_attachments``.
_ROW_EDGES = (
    "(" + _HEAD_ARM + _EXACT_ARM
    + " UNION ALL " + _HEAD_ARM + _ROWLESS_ARM
    + " UNION ALL " + _HEAD_ARM + _COVERING_ARM + ")"
)

#: The pinned form: each arm's edges visible at ``:pin``.
_ROW_EDGES_AS_OF = (
    "(" + _PINNED_ARM + _EXACT_ARM + _VISIBLE_ATTACHMENT
    + " UNION ALL " + _PINNED_ARM + _ROWLESS_ARM + _VISIBLE_ATTACHMENT
    + " UNION ALL " + _PINNED_ARM + _COVERING_ARM + _VISIBLE_ATTACHMENT + ")"
)

#: The store's row read after its ``FROM`` form: the edges on column
#: ``:column`` and the column-less ones (a NULL ``:column`` keeps all).
_ROW_READ = (
    " AS f WHERE :column IS NULL OR f.target_column = :column "
    "OR f.target_column IS NULL ORDER BY f.attachment_id"
)
_ROW_ATTACHMENTS = "SELECT " + _ATTACHMENT_COLUMNS + " FROM " + _ROW_EDGES + _ROW_READ
_ROW_ATTACHMENTS_AS_OF = (
    "SELECT " + _ATTACHMENT_COLUMNS + " FROM " + _ROW_EDGES_AS_OF + _ROW_READ
)

#: The service's tuple read: each edge with its annotation, strongest
#: first; ``attachment_id`` orders the ties.  Every ``ORDER BY`` key is
#: a result column, which lets SQLite flatten the arms into the join.
_TUPLE_READ = (
    "SELECT a.annotation_id, a.content, f.confidence, f.kind, f.attachment_id FROM "
)
_TUPLE_ORDER = " ORDER BY f.confidence DESC, a.annotation_id, f.attachment_id"
_TUPLE_ANNOTATIONS = (
    _TUPLE_READ + _ROW_EDGES + " AS f JOIN _nebula_annotations AS a "
    "ON a.annotation_id = f.annotation_id" + _TUPLE_ORDER
)
_TUPLE_ANNOTATIONS_AS_OF = (
    _TUPLE_READ + _ROW_EDGES_AS_OF + " AS f JOIN _nebula_annotation_history AS a "
    "ON a.history_id = " + _ANNOTATION_VERSION + "f.annotation_id) "
    "AND a.op <> 'delete'" + _TUPLE_ORDER
)

#: ``pending_verifications(limit, as_of)`` (service): params ``pin``,
#: ``limit``.  The one statement here touching operational state: the
#: task table is not versioned, so the honest ``as_of`` approximation
#: restricts pending tasks to annotations *visible* at the pin, checked
#: per task.
PENDING_TASKS_AS_OF = (
    "SELECT task_id, annotation_id, target_table, target_rowid, confidence "
    "FROM _nebula_verification_tasks AS v WHERE status = 'pending' "
    "AND EXISTS (SELECT 1 FROM _nebula_annotation_history AS a "
    "WHERE a.history_id = " + _ANNOTATION_VERSION + "v.annotation_id) "
    "AND a.op <> 'delete') "
    "ORDER BY confidence DESC, task_id LIMIT :limit"
)

_ANNOTATION_HISTORY = (
    "SELECT h.history_id, h.commit_id, h.op, h.content, h.author, h.created_seq, "
    "c.kind, c.author, c.request_id, c.note, c.created_at "
    "FROM _nebula_annotation_history AS h "
    "JOIN _nebula_commits AS c ON c.commit_id = h.commit_id "
    "WHERE h.annotation_id = ? ORDER BY h.history_id"
)

_ATTACHMENT_HISTORY_OF_ANNOTATION = (
    "SELECT h.history_id, h.commit_id, h.op, h.attachment_id, h.target_table, "
    "h.target_rowid, h.target_rowid_hi, h.target_column, h.confidence, h.kind, "
    "c.kind, c.author, c.request_id, c.created_at "
    "FROM _nebula_attachment_history AS h "
    "JOIN _nebula_commits AS c ON c.commit_id = h.commit_id "
    "WHERE h.annotation_id = ? ORDER BY h.history_id"
)


def get_annotation_row(
    connection: Connection, annotation_id: int, as_of: int
) -> Optional[Sequence]:
    """The annotation row visible at ``as_of``, or None."""
    return connection.execute(
        _GET_ANNOTATION, {"pin": as_of, "annotation_id": annotation_id}
    ).fetchone()


def iter_annotation_rows(connection: Connection, as_of: int) -> List[Sequence]:
    """All annotation rows visible at ``as_of``, in insertion order."""
    return connection.execute(_ITER_ANNOTATIONS, (as_of,)).fetchall()


def count_annotations(connection: Connection, as_of: int) -> int:
    return int(connection.execute(_COUNT_ANNOTATIONS, (as_of,)).fetchone()[0])


def attachments_of_rows(
    connection: Connection, annotation_id: int, as_of: int
) -> List[Sequence]:
    """Attachment rows of one annotation visible at ``as_of``."""
    return connection.execute(
        _ATTACHMENTS_OF, {"pin": as_of, "annotation_id": annotation_id}
    ).fetchall()


def attachments_on_table(
    connection: Connection,
    table: str,
    column: Optional[str] = None,
    as_of: Optional[int] = None,
) -> List[Sequence]:
    """Attachment rows on a whole table, in ``attachment_id`` order, at
    the head or visible at ``as_of`` (the view form); ``column`` keeps
    the edges on that column and the column-less ones."""
    sql = _ATTACHMENTS_ON_TABLE if as_of is None else _ATTACHMENTS_ON_TABLE_AS_OF
    params: List[object] = [table] if as_of is None else [as_of, table]
    if column is not None:
        sql += _COLUMN_FILTER
        params.append(column)
    return connection.execute(sql + _ORDER_BY_ATTACHMENT, params).fetchall()


def attachments_on_row(
    connection: Connection,
    table: str,
    rowid: int,
    column: Optional[str] = None,
    as_of: Optional[int] = None,
) -> List[Sequence]:
    """Attachment rows of the edges that apply to one row, in
    ``attachment_id`` order, at the head or visible at ``as_of``.

    ``column`` keeps the edges on that column and the column-less ones.
    """
    return connection.execute(
        _ROW_ATTACHMENTS if as_of is None else _ROW_ATTACHMENTS_AS_OF,
        {"pin": as_of, "table": table, "rowid": rowid, "column": column},
    ).fetchall()


def annotations_on_row(
    connection: Connection, table: str, rowid: int, as_of: Optional[int] = None
) -> List[Tuple[int, str, float, str]]:
    """``(annotation_id, content, confidence, kind)`` of each edge that
    applies to one row, strongest first, at the head or at ``as_of``."""
    return [
        (int(row[0]), str(row[1]), float(row[2]), str(row[3]))
        for row in connection.execute(
            _TUPLE_ANNOTATIONS if as_of is None else _TUPLE_ANNOTATIONS_AS_OF,
            {"pin": as_of, "table": table, "rowid": rowid},
        )
    ]


def true_pair_rows(connection: Connection, as_of: int) -> List[Sequence]:
    """``(annotation_id, table, rowid, rowid_hi)`` of true row edges."""
    return connection.execute(_TRUE_PAIRS, (as_of,)).fetchall()


def count_attachments(
    connection: Connection, as_of: int, kind: Optional[str] = None
) -> int:
    if kind is None:
        row = connection.execute(_COUNT_ATTACHMENTS, (as_of,)).fetchone()
    else:
        row = connection.execute(_COUNT_ATTACHMENTS_BY_KIND, (as_of, kind)).fetchone()
    return int(row[0])


def annotation_history_rows(
    connection: Connection, annotation_id: int
) -> List[Sequence]:
    """Every logged version of one annotation, with commit provenance."""
    return connection.execute(_ANNOTATION_HISTORY, (annotation_id,)).fetchall()


def attachment_history_rows(
    connection: Connection, annotation_id: int
) -> List[Sequence]:
    """Every logged attachment version of one annotation's edges."""
    return connection.execute(
        _ATTACHMENT_HISTORY_OF_ANNOTATION, (annotation_id,)
    ).fetchall()


def state_fingerprint(
    connection: Connection, as_of: Optional[int] = None
) -> Tuple[Tuple[Sequence, ...], Tuple[Sequence, ...]]:
    """Canonical (annotations, attachments) content at ``as_of``.

    With ``as_of=None`` the fingerprint is computed from the
    current-version *views* (pure history reconstruction); comparing
    it against :func:`head_fingerprint` is the content-keyed reference
    of :meth:`~repro.versioning.log.CommitLog.verify_head` in the tests.
    Rows are keyed by content, not surrogate ids, so a legacy database
    rebuilt through a migration fingerprints identically to a fresh
    versioned init.
    """
    if as_of is None:
        annotations = connection.execute(
            "SELECT " + _ANNOTATION_COLUMNS + " FROM _nebula_annotations_current "
            "ORDER BY created_seq"
        ).fetchall()
        attachments = connection.execute(
            "SELECT annotation_id, target_table, target_rowid, target_rowid_hi, "
            "target_column, confidence, kind FROM _nebula_attachments_current "
            "ORDER BY annotation_id, target_table, target_rowid, "
            "target_rowid_hi, target_column, kind"
        ).fetchall()
    else:
        annotations = connection.execute(_ITER_ANNOTATIONS, (as_of,)).fetchall()
        attachments = connection.execute(
            "SELECT annotation_id, target_table, target_rowid, target_rowid_hi, "
            "target_column, confidence, kind FROM " + ATTACHMENTS_AS_OF + " "
            "ORDER BY annotation_id, target_table, target_rowid, "
            "target_rowid_hi, target_column, kind",
            (as_of,),
        ).fetchall()
    return (
        tuple(tuple(row) for row in annotations),
        tuple(tuple(row) for row in attachments),
    )


def head_fingerprint(
    connection: Connection,
) -> Tuple[Tuple[Sequence, ...], Tuple[Sequence, ...]]:
    """The materialized head's canonical content (same key as above)."""
    annotations = connection.execute(
        "SELECT " + _ANNOTATION_COLUMNS + " FROM _nebula_annotations "
        "ORDER BY created_seq"
    ).fetchall()
    attachments = connection.execute(
        "SELECT annotation_id, target_table, target_rowid, target_rowid_hi, "
        "target_column, confidence, kind FROM _nebula_attachments "
        "ORDER BY annotation_id, target_table, target_rowid, "
        "target_rowid_hi, target_column, kind"
    ).fetchall()
    return (
        tuple(tuple(row) for row in annotations),
        tuple(tuple(row) for row in attachments),
    )
