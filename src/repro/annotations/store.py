"""SQLite-backed annotation storage.

The store keeps two side tables alongside the user's data tables:

``_nebula_annotations``
    one row per annotation (free text, author, insertion order);

``_nebula_attachments``
    one row per (annotation, target) edge.  A target is a table plus an
    optional rowid plus an optional column, which encodes the granularities
    the passive engine supports:

    ========================  =========================================
    rowid set, column NULL     row annotation
    rowid set, column set      cell annotation
    rowid NULL, column set     column annotation (applies to all rows)
    rowid NULL, column NULL    table annotation
    ========================  =========================================

    ``kind`` distinguishes the paper's edge types: ``true`` attachments
    (weight 1.0, manually established or verified) and ``predicted``
    attachments (weight < 1.0, proposed by Nebula and pending resolution).

Arbitrary *sets* of targets are expressed as multiple attachment rows of
the same annotation, matching the paper's many-to-many edge model.

Both tables are *versioned* (PR 10): they hold the materialized head of
the append-only commit log in :mod:`repro.versioning`.  Every mutation
appends the matching history row through :class:`~repro.versioning.CommitLog`
inside the same transaction, the only UPDATE/DELETE statements against
them live in that package (lint rule NBL013), and every read method
accepts ``as_of=<commit_id>`` to reconstruct a historical state from
the log instead of the head.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, List, Optional, Sequence, Tuple

from ..errors import (
    StorageError,
    UnknownAnnotationError,
    UnknownColumnError,
    UnknownTableError,
)
from ..resilience.retry import RetryPolicy
from ..storage.compat import Connection, Cursor
from ..utils.sql import quote_identifier
from ..types import CellRef, TupleRef
from ..versioning import CommitLog, ensure_schema
from ..versioning import timetravel


#: Column list of every attachment SELECT (keep in sync with the DDL).
_ATTACHMENT_COLUMNS = (
    "attachment_id, annotation_id, target_table, target_rowid, "
    "target_rowid_hi, target_column, confidence, kind"
)


class AttachmentKind(str, Enum):
    """Edge types of the annotated-database model (paper Figure 2)."""

    TRUE = "true"
    PREDICTED = "predicted"


@dataclass(frozen=True)
class Annotation:
    """One stored annotation."""

    annotation_id: int
    content: str
    author: Optional[str]
    created_seq: int


@dataclass(frozen=True)
class Attachment:
    """One stored attachment edge.

    A *range* attachment (the compact representation of the substrate
    engine) covers every rowid in ``[rowid, rowid_hi]`` with one stored
    edge; plain attachments have ``rowid_hi is None``.
    """

    attachment_id: int
    annotation_id: int
    table: str
    rowid: Optional[int]
    column: Optional[str]
    confidence: float
    kind: AttachmentKind
    rowid_hi: Optional[int] = None

    @property
    def is_range(self) -> bool:
        return self.rowid_hi is not None

    @property
    def tuple_ref(self) -> Optional[TupleRef]:
        """TupleRef of a single-row attachment; None for column/table
        level and for multi-row ranges."""
        if self.rowid is None or self.is_range:
            return None
        return TupleRef(self.table, self.rowid)

    def covers(self, rowid: int) -> bool:
        """Whether this attachment applies to ``rowid`` (row-level only)."""
        if self.rowid is None:
            return True  # column/table level applies to every row
        if self.rowid_hi is None:
            return self.rowid == rowid
        return self.rowid <= rowid <= self.rowid_hi


class AnnotationStore:
    """Low-level persistence for annotations and attachments."""

    def __init__(
        self,
        connection: Connection,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.connection = connection
        #: Retry policy for transient lock/busy errors on writes; None
        #: keeps the historical fail-fast behavior.
        self.retry = retry
        # Schema ownership lives in the migration chain: a fresh database
        # gets the full versioned layout, a seed-era one is baseline-
        # stamped and upgraded in place.
        ensure_schema(connection)
        #: The append-only commit log every mutation below reports to.
        self.versioning = CommitLog(connection, retry=retry)
        # Schema lookups are on the hot path of bulk attachment; results are
        # cached and invalidated via ``invalidate_schema_cache`` on DDL.
        self._table_cache: dict = {}
        self._column_cache: dict = {}
        # Monotone insertion counter, seeded from the persisted maximum so
        # bulk inserts avoid a per-insert MAX() scan.
        row = self.connection.execute(
            "SELECT COALESCE(MAX(created_seq), 0) FROM _nebula_annotations"
        ).fetchone()
        self._next_seq = int(row[0]) + 1

    def _write(self, sql: str, params: Sequence = ()) -> Cursor:
        """Execute a mutating statement, retrying transient lock errors."""
        if self.retry is None:
            return self.connection.execute(sql, params)
        return self.retry.run(lambda: self.connection.execute(sql, params), sql)

    def _write_many(self, sql: str, rows: Sequence[Sequence]) -> Cursor:
        """``executemany`` with the same retry policy as :meth:`_write`."""
        if self.retry is None:
            return self.connection.executemany(sql, rows)
        return self.retry.run(lambda: self.connection.executemany(sql, rows), sql)

    # ------------------------------------------------------------------
    # Schema validation helpers
    # ------------------------------------------------------------------

    def invalidate_schema_cache(self) -> None:
        """Drop cached schema lookups after DDL changes."""
        self._table_cache.clear()
        self._column_cache.clear()

    def _user_tables(self) -> List[str]:
        rows = self.connection.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table' "
            "AND name NOT LIKE '_nebula_%' AND name NOT LIKE 'sqlite_%'"
        ).fetchall()
        return [r[0] for r in rows]

    def validate_table(self, table: str) -> str:
        """Return the canonical table name, raising on unknown tables."""
        key = table.casefold()
        cached = self._table_cache.get(key)
        if cached is not None:
            return cached
        for name in self._user_tables():
            if name.casefold() == key:
                self._table_cache[key] = name
                return name
        raise UnknownTableError(table)

    def validate_column(self, table: str, column: str) -> str:
        """Return the canonical column name, raising on unknown columns."""
        canonical_table = self.validate_table(table)
        key = (canonical_table, column.casefold())
        cached = self._column_cache.get(key)
        if cached is not None:
            return cached
        for row in self.connection.execute(
            f"PRAGMA table_info({quote_identifier(canonical_table)})"
        ):
            if row[1].casefold() == column.casefold():
                self._column_cache[key] = row[1]
                return row[1]
        raise UnknownColumnError(table, column)

    # ------------------------------------------------------------------
    # Annotations
    # ------------------------------------------------------------------

    def insert_annotation(self, content: str, author: Optional[str] = None) -> Annotation:
        """Persist a new annotation and return it."""
        if not content or not content.strip():
            raise StorageError("annotation content must be non-empty")
        created_seq = self._next_seq
        self._next_seq += 1
        cursor = self._write(
            "INSERT INTO _nebula_annotations (content, author, created_seq) VALUES (?, ?, ?)",
            (content, author, created_seq),
        )
        annotation_id = int(cursor.lastrowid)
        self.versioning.record_annotation_insert(annotation_id)
        return Annotation(
            annotation_id=annotation_id,
            content=content,
            author=author,
            created_seq=created_seq,
        )

    def bulk_insert_annotations(
        self, items: Sequence[Tuple[str, Optional[str]]]
    ) -> List[Annotation]:
        """Persist many ``(content, author)`` pairs with one statement.

        Validation (non-empty content) runs over the whole batch before
        the first write, so a bad item fails the call without touching the
        database.  Sequence numbers are assigned contiguously in item
        order — iteration order is indistinguishable from the equivalent
        sequence of :meth:`insert_annotation` calls.
        """
        for content, _author in items:
            if not content or not content.strip():
                raise StorageError("annotation content must be non-empty")
        if not items:
            return []
        first_seq = self._next_seq
        self._next_seq += len(items)
        # The new rows are the ids above the current maximum; reading
        # them back by primary key keeps both follow-up statements off a
        # table scan.
        watermark = self.connection.execute(
            "SELECT COALESCE(MAX(annotation_id), 0) FROM _nebula_annotations"
        ).fetchone()[0]
        self._write_many(
            "INSERT INTO _nebula_annotations (content, author, created_seq) VALUES (?, ?, ?)",
            [
                (content, author, first_seq + position)
                for position, (content, author) in enumerate(items)
            ],
        )
        rows = self.connection.execute(
            "SELECT annotation_id, content, author, created_seq "
            "FROM _nebula_annotations WHERE annotation_id > ? "
            "ORDER BY annotation_id",
            (watermark,),
        ).fetchall()
        annotations = [Annotation(*row) for row in rows]
        self.versioning.record_annotation_range(
            annotations[0].annotation_id, annotations[-1].annotation_id
        )
        return annotations

    def bulk_attach_true(self, edges: Sequence[Tuple[int, CellRef]]) -> int:
        """Insert many *true* attachment edges with one statement.

        Intended for the focal edges of freshly inserted annotations (no
        pre-existing edges to collide with); duplicates *within* the batch
        are dropped in Python because the UNIQUE constraint treats NULL
        target columns as distinct.  Returns the number of edges written.
        """
        seen: set = set()
        rows: List[Tuple[int, str, Optional[int], Optional[str]]] = []
        for annotation_id, target in edges:
            table = self.validate_table(target.table)
            column = self.validate_column(table, target.column) if target.column else None
            dedupe_key = (annotation_id, table, target.rowid, column)
            if dedupe_key in seen:
                continue
            seen.add(dedupe_key)
            rows.append((annotation_id, table, target.rowid, column))
        if not rows:
            return 0
        watermark = self.versioning.attachment_watermark()
        self._write_many(
            "INSERT INTO _nebula_attachments "
            "(annotation_id, target_table, target_rowid, target_column, confidence, kind) "
            "VALUES (?, ?, ?, ?, 1.0, 'true')",
            rows,
        )
        self.versioning.record_attachments_above(watermark)
        return len(rows)

    def get_annotation(
        self, annotation_id: int, as_of: Optional[int] = None
    ) -> Annotation:
        if as_of is not None:
            pinned = timetravel.get_annotation_row(self.connection, annotation_id, as_of)
            if pinned is None:
                raise UnknownAnnotationError(annotation_id)
            return Annotation(*pinned)
        row = self.connection.execute(
            "SELECT annotation_id, content, author, created_seq "
            "FROM _nebula_annotations WHERE annotation_id = ?",
            (annotation_id,),
        ).fetchone()
        if row is None:
            raise UnknownAnnotationError(annotation_id)
        return Annotation(*row)

    def iter_annotations(self, as_of: Optional[int] = None) -> Iterable[Annotation]:
        if as_of is not None:
            for pinned in timetravel.iter_annotation_rows(self.connection, as_of):
                yield Annotation(*pinned)
            return
        cursor = self.connection.execute(
            "SELECT annotation_id, content, author, created_seq "
            "FROM _nebula_annotations ORDER BY created_seq"
        )
        for row in cursor:
            yield Annotation(*row)

    def count_annotations(self, as_of: Optional[int] = None) -> int:
        if as_of is not None:
            return timetravel.count_annotations(self.connection, as_of)
        return int(
            self.connection.execute("SELECT COUNT(*) FROM _nebula_annotations").fetchone()[0]
        )

    # ------------------------------------------------------------------
    # Attachments
    # ------------------------------------------------------------------

    def attach(
        self,
        annotation_id: int,
        target: CellRef,
        confidence: float = 1.0,
        kind: AttachmentKind = AttachmentKind.TRUE,
    ) -> Attachment:
        """Create an attachment edge; idempotent on duplicate targets.

        True attachments always carry confidence 1.0 (the paper's solid
        edges); predicted attachments must carry confidence < 1.0.
        """
        self.get_annotation(annotation_id)
        table = self.validate_table(target.table)
        column = self.validate_column(table, target.column) if target.column else None
        if kind is AttachmentKind.TRUE:
            confidence = 1.0
        elif not 0.0 <= confidence < 1.0:
            raise StorageError("predicted attachments require confidence in [0, 1)")
        existing = self._find(annotation_id, table, target.rowid, column)
        if existing is not None:
            return self._upgrade_if_needed(existing, confidence, kind)
        cursor = self._write(
            "INSERT INTO _nebula_attachments "
            "(annotation_id, target_table, target_rowid, target_column, confidence, kind) "
            "VALUES (?, ?, ?, ?, ?, ?)",
            (annotation_id, table, target.rowid, column, confidence, kind.value),
        )
        self.versioning.record_attachment_insert(int(cursor.lastrowid))
        return Attachment(
            attachment_id=int(cursor.lastrowid),
            annotation_id=annotation_id,
            table=table,
            rowid=target.rowid,
            column=column,
            confidence=confidence,
            kind=kind,
        )

    def attach_range(
        self,
        annotation_id: int,
        table: str,
        rowid_low: int,
        rowid_high: int,
        column: Optional[str] = None,
    ) -> Attachment:
        """Attach one annotation to every row in ``[rowid_low, rowid_high]``
        with a single stored edge — the substrate engine's compact
        representation for contiguous row sets.  Range edges are always
        *true* attachments (curator-established).
        """
        if rowid_low > rowid_high:
            raise StorageError("range attachment requires rowid_low <= rowid_high")
        if rowid_low == rowid_high:
            return self.attach(annotation_id, CellRef(table, rowid_low, column))
        self.get_annotation(annotation_id)
        canonical = self.validate_table(table)
        validated = self.validate_column(canonical, column) if column else None
        existing = self.connection.execute(
            "SELECT " + _ATTACHMENT_COLUMNS + " FROM _nebula_attachments "
            "WHERE annotation_id = ? AND target_table = ? AND target_rowid IS ? "
            "AND target_rowid_hi IS ? AND target_column IS ?",
            (annotation_id, canonical, rowid_low, rowid_high, validated),
        ).fetchone()
        if existing is not None:
            return _row_to_attachment(existing)
        cursor = self._write(
            "INSERT INTO _nebula_attachments "
            "(annotation_id, target_table, target_rowid, target_rowid_hi, "
            "target_column, confidence, kind) VALUES (?, ?, ?, ?, ?, 1.0, 'true')",
            (annotation_id, canonical, rowid_low, rowid_high, validated),
        )
        self.versioning.record_attachment_insert(int(cursor.lastrowid))
        return Attachment(
            attachment_id=int(cursor.lastrowid),
            annotation_id=annotation_id,
            table=canonical,
            rowid=rowid_low,
            rowid_hi=rowid_high,
            column=validated,
            confidence=1.0,
            kind=AttachmentKind.TRUE,
        )

    def _upgrade_if_needed(
        self, existing: Attachment, confidence: float, kind: AttachmentKind
    ) -> Attachment:
        """A re-attachment can only upgrade predicted -> true."""
        if existing.kind is AttachmentKind.TRUE or kind is AttachmentKind.PREDICTED:
            return existing
        self.versioning.promote_attachment(existing.attachment_id)
        return Attachment(
            attachment_id=existing.attachment_id,
            annotation_id=existing.annotation_id,
            table=existing.table,
            rowid=existing.rowid,
            column=existing.column,
            confidence=1.0,
            kind=AttachmentKind.TRUE,
        )

    def _find(
        self,
        annotation_id: int,
        table: str,
        rowid: Optional[int],
        column: Optional[str],
    ) -> Optional[Attachment]:
        row = self.connection.execute(
            "SELECT " + _ATTACHMENT_COLUMNS + " FROM _nebula_attachments "
            "WHERE annotation_id = ? AND target_table = ? "
            "AND target_rowid IS ? AND target_rowid_hi IS NULL "
            "AND target_column IS ?",
            (annotation_id, table, rowid, column),
        ).fetchone()
        return _row_to_attachment(row) if row is not None else None

    def detach(self, attachment_id: int) -> bool:
        """Remove one attachment edge; returns whether anything was removed.

        The commit log keeps a ``delete`` tombstone, so the edge stays
        visible to ``as_of`` reads at commits where it existed.
        """
        return self.versioning.delete_attachment(attachment_id)

    def promote(self, attachment_id: int) -> None:
        """Turn a predicted attachment into a true one (verified edge)."""
        if not self.versioning.promote_attachment(attachment_id):
            raise StorageError(f"unknown attachment id: {attachment_id}")

    def attachments_of(
        self, annotation_id: int, as_of: Optional[int] = None
    ) -> List[Attachment]:
        """All attachment edges of one annotation."""
        if as_of is not None:
            return [
                _row_to_attachment(r)
                for r in timetravel.attachments_of_rows(
                    self.connection, annotation_id, as_of
                )
            ]
        rows = self.connection.execute(
            "SELECT " + _ATTACHMENT_COLUMNS + " FROM _nebula_attachments "
            "WHERE annotation_id = ? ORDER BY attachment_id",
            (annotation_id,),
        ).fetchall()
        return [_row_to_attachment(r) for r in rows]

    def attachments_on(
        self,
        table: str,
        rowid: Optional[int] = None,
        column: Optional[str] = None,
        as_of: Optional[int] = None,
    ) -> List[Attachment]:
        """Attachment edges touching a table / row / cell target.

        Row queries also return column-level and table-level attachments,
        because those apply to every row (passive-engine semantics).
        """
        canonical = self.validate_table(table)
        canonical_column = (
            self.validate_column(canonical, column) if column is not None else None
        )
        if as_of is not None:
            return [
                _row_to_attachment(r)
                for r in timetravel.attachments_on_rows(
                    self.connection,
                    canonical,
                    as_of,
                    rowid=rowid,
                    column=canonical_column,
                )
            ]
        clauses = ["target_table = ?"]
        params: List[object] = [canonical]
        if rowid is not None:
            clauses.append(
                "(target_rowid IS NULL OR (target_rowid <= ? "
                "AND ? <= COALESCE(target_rowid_hi, target_rowid)))"
            )
            params.extend([rowid, rowid])
        if canonical_column is not None:
            clauses.append("(target_column = ? OR target_column IS NULL)")
            params.append(canonical_column)
        rows = self.connection.execute(
            "SELECT " + _ATTACHMENT_COLUMNS + " FROM _nebula_attachments "
            f"WHERE {' AND '.join(clauses)} ORDER BY attachment_id",
            params,
        ).fetchall()
        return [_row_to_attachment(r) for r in rows]

    def true_attachment_pairs(
        self, as_of: Optional[int] = None
    ) -> List[Tuple[int, TupleRef]]:
        """All (annotation_id, TupleRef) pairs of true row/cell attachments.

        Range attachments (the compact representation) are expanded
        against the rows currently present in the target table (user
        data tables are not versioned — only the annotation layer is).
        """
        if as_of is not None:
            rows = timetravel.true_pair_rows(self.connection, as_of)
        else:
            rows = self.connection.execute(
                "SELECT annotation_id, target_table, target_rowid, target_rowid_hi "
                "FROM _nebula_attachments "
                "WHERE kind = 'true' AND target_rowid IS NOT NULL ORDER BY attachment_id"
            ).fetchall()
        pairs: List[Tuple[int, TupleRef]] = []
        for annotation_id, table, rowid, rowid_hi in rows:
            if rowid_hi is None:
                pairs.append((int(annotation_id), TupleRef(str(table), int(rowid))))
                continue
            expanded = self.connection.execute(
                f"SELECT rowid FROM {quote_identifier(str(table))} "
                "WHERE rowid BETWEEN ? AND ? ORDER BY rowid",
                (int(rowid), int(rowid_hi)),
            ).fetchall()
            pairs.extend(
                (int(annotation_id), TupleRef(str(table), int(r[0])))
                for r in expanded
            )
        return pairs

    def count_attachments(
        self,
        kind: Optional[AttachmentKind] = None,
        as_of: Optional[int] = None,
    ) -> int:
        if as_of is not None:
            return timetravel.count_attachments(
                self.connection, as_of, kind=None if kind is None else kind.value
            )
        if kind is None:
            query, params = "SELECT COUNT(*) FROM _nebula_attachments", ()
        else:
            query, params = (
                "SELECT COUNT(*) FROM _nebula_attachments WHERE kind = ?",
                (kind.value,),
            )
        return int(self.connection.execute(query, params).fetchone()[0])


def _row_to_attachment(row: Sequence) -> Attachment:
    return Attachment(
        attachment_id=int(row[0]),
        annotation_id=int(row[1]),
        table=str(row[2]),
        rowid=None if row[3] is None else int(row[3]),
        rowid_hi=None if row[4] is None else int(row[4]),
        column=None if row[5] is None else str(row[5]),
        confidence=float(row[6]),
        kind=AttachmentKind(row[7]),
    )
