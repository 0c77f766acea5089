"""The append-only commit log over the annotation store.

:class:`CommitLog` owns two things:

1. **Commit lifecycle** — opening one ``_nebula_commits`` row per
   logical write (ingest / batch / verify / reject / replay / migrate)
   with author + ``request_id`` + timestamp provenance.  Commits open
   *inside* the pipeline's SAVEPOINT boundaries: a rolled-back stage
   removes the commit row and its history rows together, and
   :meth:`abandon` clears the in-memory pointer on the abort path.
   Mutations arriving outside any explicit scope (direct
   ``AnnotationStore`` use) get an implicit single-operation ``auto``
   commit so nothing ever bypasses the log.

2. **The only UPDATE/DELETE on versioned tables in the tree** —
   :meth:`promote_attachment` and :meth:`delete_attachment` mutate the
   materialized head and append the matching history row in the same
   statement batch.  Everywhere else (lint rule NBL013) the versioned
   tables are INSERT-only; the store records those inserts here via the
   ``record_*`` appenders.

Every history append is an ``INSERT ... SELECT`` from the materialized
row itself, so the logged version is byte-identical to the head at the
moment of the write — there is no parameter list to drift out of sync
with the DDL.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Iterator, List, Optional, Sequence

from ..errors import UnknownCommitError, VersioningError
from ..observability.metrics import get_metrics
from ..resilience.retry import RetryPolicy
from ..storage.compat import Connection, Cursor
from .schema import COMMIT_KINDS

_COMMIT_COLUMNS = "commit_id, kind, author, request_id, note, created_at"

_INSERT_COMMIT = (
    "INSERT INTO _nebula_commits (kind, author, request_id, note, created_at) "
    "VALUES (?, ?, ?, ?, ?)"
)

#: History append for annotation rows, copying straight from the head.
_APPEND_ANNOTATION = (
    "INSERT INTO _nebula_annotation_history "
    "(commit_id, annotation_id, op, content, author, created_seq) "
    "SELECT ?, annotation_id, ?, content, author, created_seq "
    "FROM _nebula_annotations WHERE annotation_id = ?"
)

_APPEND_ANNOTATION_RANGE = (
    "INSERT INTO _nebula_annotation_history "
    "(commit_id, annotation_id, op, content, author, created_seq) "
    "SELECT ?, annotation_id, 'insert', content, author, created_seq "
    "FROM _nebula_annotations WHERE annotation_id BETWEEN ? AND ? "
    "ORDER BY annotation_id"
)

_APPEND_ATTACHMENT = (
    "INSERT INTO _nebula_attachment_history "
    "(commit_id, attachment_id, op, annotation_id, target_table, target_rowid, "
    "target_rowid_hi, target_column, confidence, kind) "
    "SELECT ?, attachment_id, ?, annotation_id, target_table, target_rowid, "
    "target_rowid_hi, target_column, confidence, kind "
    "FROM _nebula_attachments WHERE attachment_id = ?"
)

_APPEND_ATTACHMENTS_ABOVE = (
    "INSERT INTO _nebula_attachment_history "
    "(commit_id, attachment_id, op, annotation_id, target_table, target_rowid, "
    "target_rowid_hi, target_column, confidence, kind) "
    "SELECT ?, attachment_id, 'insert', annotation_id, target_table, target_rowid, "
    "target_rowid_hi, target_column, confidence, kind "
    "FROM _nebula_attachments WHERE attachment_id > ? "
    "ORDER BY attachment_id"
)

_PROMOTE_ATTACHMENT = (
    "UPDATE _nebula_attachments SET confidence = 1.0, kind = 'true' "
    "WHERE attachment_id = ?"
)

_DELETE_ATTACHMENT = "DELETE FROM _nebula_attachments WHERE attachment_id = ?"

# Head/log parity: four keyed counts, each one pass over its driving
# table that searches for everything else.  An entity's latest version
# is its ``MAX(history_id)`` through the ``…_by_entity`` index, fetched
# by primary key; ``IS`` compares NULL columns as values.  No
# ``*_current`` view, no sort, no rows fetched: the check's cost
# follows the number of stored entities, and it holds no copy of them.

#: Head annotations unequal to their latest version, whose latest
#: version is a tombstone, or that have no history at all.
_TORN_HEAD_ANNOTATIONS = (
    "SELECT COUNT(*) FROM _nebula_annotations AS a "
    "WHERE NOT EXISTS (SELECT 1 FROM _nebula_annotation_history AS h "
    "WHERE h.history_id = (SELECT MAX(history_id) "
    "FROM _nebula_annotation_history WHERE annotation_id = a.annotation_id) "
    "AND h.op <> 'delete' AND h.content IS a.content "
    "AND h.author IS a.author AND h.created_seq IS a.created_seq)"
)

#: Annotations whose latest version is live but that have no head row.
_MISSING_HEAD_ANNOTATIONS = (
    "SELECT COUNT(*) FROM _nebula_annotation_history AS h "
    "WHERE NOT EXISTS (SELECT 1 FROM _nebula_annotations AS a "
    "WHERE a.annotation_id = h.annotation_id) "
    "AND h.op <> 'delete' AND h.history_id = (SELECT MAX(history_id) "
    "FROM _nebula_annotation_history WHERE annotation_id = h.annotation_id)"
)

#: Head attachments unequal to their latest version (same rules).
_TORN_HEAD_ATTACHMENTS = (
    "SELECT COUNT(*) FROM _nebula_attachments AS a "
    "WHERE NOT EXISTS (SELECT 1 FROM _nebula_attachment_history AS h "
    "WHERE h.history_id = (SELECT MAX(history_id) "
    "FROM _nebula_attachment_history WHERE attachment_id = a.attachment_id) "
    "AND h.op <> 'delete' AND h.annotation_id IS a.annotation_id "
    "AND h.target_table IS a.target_table AND h.target_rowid IS a.target_rowid "
    "AND h.target_rowid_hi IS a.target_rowid_hi "
    "AND h.target_column IS a.target_column "
    "AND h.confidence IS a.confidence AND h.kind IS a.kind)"
)

#: Attachments whose latest version is live but that have no head row.
_MISSING_HEAD_ATTACHMENTS = (
    "SELECT COUNT(*) FROM _nebula_attachment_history AS h "
    "WHERE NOT EXISTS (SELECT 1 FROM _nebula_attachments AS a "
    "WHERE a.attachment_id = h.attachment_id) "
    "AND h.op <> 'delete' AND h.history_id = (SELECT MAX(history_id) "
    "FROM _nebula_attachment_history WHERE attachment_id = h.attachment_id)"
)

_HEAD_PARITY_COUNTS = (
    _TORN_HEAD_ANNOTATIONS,
    _MISSING_HEAD_ANNOTATIONS,
    _TORN_HEAD_ATTACHMENTS,
    _MISSING_HEAD_ATTACHMENTS,
)

# Head restoration: rebuild the materialized tables from pure history
# (the current-version views).  Recovery's last resort when the head
# and the log disagree.
_RESTORE_HEAD = """
DELETE FROM _nebula_attachments;
DELETE FROM _nebula_annotations;
INSERT INTO _nebula_annotations (annotation_id, content, author, created_seq)
    SELECT annotation_id, content, author, created_seq
    FROM _nebula_annotations_current;
INSERT INTO _nebula_attachments (attachment_id, annotation_id, target_table,
    target_rowid, target_rowid_hi, target_column, confidence, kind)
    SELECT attachment_id, annotation_id, target_table, target_rowid,
        target_rowid_hi, target_column, confidence, kind
    FROM _nebula_attachments_current;
"""


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


@dataclass(frozen=True)
class Commit:
    """One recorded commit with its provenance."""

    commit_id: int
    kind: str
    author: Optional[str]
    request_id: Optional[str]
    note: Optional[str]
    created_at: str


def _row_to_commit(row: Sequence) -> Commit:
    return Commit(
        commit_id=int(row[0]),
        kind=str(row[1]),
        author=None if row[2] is None else str(row[2]),
        request_id=None if row[3] is None else str(row[3]),
        note=None if row[4] is None else str(row[4]),
        created_at=str(row[5]),
    )


class CommitLog:
    """Monotonic commit ids + history appends for one connection."""

    def __init__(
        self,
        connection: Connection,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        # Schema creation is owned by the migration chain
        # (:mod:`repro.versioning.migrations`); the log assumes the
        # versioning revision is applied.
        self.connection = connection
        self.retry = retry
        self._active: Optional[int] = None

    def _write(self, sql: str, params: Sequence = ()) -> Cursor:
        if self.retry is None:
            return self.connection.execute(sql, params)
        return self.retry.run(lambda: self.connection.execute(sql, params), sql)

    # ------------------------------------------------------------------
    # Commit lifecycle
    # ------------------------------------------------------------------

    @property
    def active_commit(self) -> Optional[int]:
        """The commit id of the open scope, if any."""
        return self._active

    def head(self) -> Optional[int]:
        """The newest committed id — the pin for snapshot readers."""
        row = self.connection.execute(
            "SELECT MAX(commit_id) FROM _nebula_commits"
        ).fetchone()
        return None if row is None or row[0] is None else int(row[0])

    def begin(
        self,
        kind: str,
        author: Optional[str] = None,
        request_id: Optional[str] = None,
        note: Optional[str] = None,
    ) -> int:
        """Open a commit; every history append until :meth:`finish` joins it."""
        if self._active is not None:
            raise VersioningError(
                f"commit {self._active} is already open on this log"
            )
        self._active = self._insert_commit(kind, author, request_id, note)
        return self._active

    def finish(self) -> Optional[int]:
        """Close the open commit scope; returns its id."""
        commit_id, self._active = self._active, None
        return commit_id

    def abandon(self) -> None:
        """Forget the open commit after its SAVEPOINT rolled back.

        The commit row itself vanished with the rollback; this only
        clears the in-memory pointer so the next write does not append
        history onto a commit id that no longer exists.
        """
        self._active = None

    @contextmanager
    def commit_scope(
        self,
        kind: str,
        author: Optional[str] = None,
        request_id: Optional[str] = None,
        note: Optional[str] = None,
    ) -> Iterator[int]:
        """One commit around a block; abandoned if the block raises."""
        commit_id = self.begin(kind, author=author, request_id=request_id, note=note)
        try:
            yield commit_id
        except BaseException:
            self.abandon()
            raise
        else:
            self.finish()

    @contextmanager
    def scope(
        self,
        kind: str,
        author: Optional[str] = None,
        request_id: Optional[str] = None,
        note: Optional[str] = None,
    ) -> Iterator[int]:
        """Like :meth:`commit_scope`, but *joins* an already-open commit.

        Mutation entry points (``add_annotation``, ``verify``, ...) wrap
        themselves in this so direct calls get one commit per logical
        operation, while calls arriving inside the pipeline's broader
        ``ingest``/``batch``/``replay`` scope simply contribute to it.
        """
        if self._active is not None:
            yield self._active
            return
        with self.commit_scope(
            kind, author=author, request_id=request_id, note=note
        ) as commit_id:
            yield commit_id

    def _insert_commit(
        self,
        kind: str,
        author: Optional[str],
        request_id: Optional[str],
        note: Optional[str],
    ) -> int:
        if kind not in COMMIT_KINDS:
            raise VersioningError(
                f"unknown commit kind {kind!r} (expected one of {COMMIT_KINDS})"
            )
        cursor = self._write(
            _INSERT_COMMIT, (kind, author, request_id, note, _utc_now())
        )
        get_metrics().counter("nebula_commits_total", {"kind": kind}).inc()
        return int(cursor.lastrowid)

    def _current(self) -> int:
        """Active commit id, or an implicit ``auto`` commit when none open."""
        if self._active is not None:
            return self._active
        return self._insert_commit("auto", None, None, None)

    # ------------------------------------------------------------------
    # Commit reads
    # ------------------------------------------------------------------

    def get_commit(self, commit_id: int) -> Commit:
        row = self.connection.execute(
            "SELECT " + _COMMIT_COLUMNS + " FROM _nebula_commits "
            "WHERE commit_id = ?",
            (commit_id,),
        ).fetchone()
        if row is None:
            raise UnknownCommitError(commit_id)
        return _row_to_commit(row)

    def commits(self, limit: Optional[int] = None) -> List[Commit]:
        """Newest-first commit rows (the audit trail)."""
        sql = "SELECT " + _COMMIT_COLUMNS + " FROM _nebula_commits ORDER BY commit_id DESC"
        if limit is None:
            rows = self.connection.execute(sql).fetchall()
        else:
            rows = self.connection.execute(sql + " LIMIT ?", (limit,)).fetchall()
        return [_row_to_commit(r) for r in rows]

    def count_commits(self) -> int:
        return int(
            self.connection.execute("SELECT COUNT(*) FROM _nebula_commits").fetchone()[0]
        )

    # ------------------------------------------------------------------
    # History appends for INSERTs performed by the store
    # ------------------------------------------------------------------

    def record_annotation_insert(self, annotation_id: int) -> None:
        """Log the freshly inserted annotation row as a new version."""
        self._write(_APPEND_ANNOTATION, (self._current(), "insert", annotation_id))

    def record_annotation_range(self, first_id: int, last_id: int) -> None:
        """Log the bulk-inserted rows ``first_id..last_id`` (annotation ids)."""
        self._write(_APPEND_ANNOTATION_RANGE, (self._current(), first_id, last_id))

    def record_attachment_insert(self, attachment_id: int) -> None:
        """Log one freshly inserted attachment edge."""
        self._write(_APPEND_ATTACHMENT, (self._current(), "insert", attachment_id))

    def attachment_watermark(self) -> int:
        """``MAX(attachment_id)`` before a bulk insert (0 when empty)."""
        row = self.connection.execute(
            "SELECT COALESCE(MAX(attachment_id), 0) FROM _nebula_attachments"
        ).fetchone()
        return int(row[0])

    def record_attachments_above(self, watermark: int) -> int:
        """Log every attachment inserted past ``watermark``; returns count."""
        cursor = self._write(_APPEND_ATTACHMENTS_ABOVE, (self._current(), watermark))
        return int(cursor.rowcount)

    # ------------------------------------------------------------------
    # The versioned mutations (sole UPDATE/DELETE sites — NBL013)
    # ------------------------------------------------------------------

    def promote_attachment(self, attachment_id: int) -> bool:
        """predicted -> true on the head, logged as an ``update`` version."""
        cursor = self._write(_PROMOTE_ATTACHMENT, (attachment_id,))
        if cursor.rowcount == 0:
            return False
        self._write(_APPEND_ATTACHMENT, (self._current(), "update", attachment_id))
        return True

    def verify_head(self) -> bool:
        """Parity oracle: does the materialized head equal the log's view?

        Keyed, in both directions: every head row must equal the latest
        live version of its id, column by column, and every id whose
        latest version is live must have a head row.  True on every
        healthy database — head writes and history appends share a
        transaction, and every append copies the head row's id — so
        False means torn state worth healing.
        """
        return not any(
            self.connection.execute(sql).fetchone()[0]
            for sql in _HEAD_PARITY_COUNTS
        )

    def restore_head(self) -> None:
        """Rebuild the materialized head from the append-only history.

        The log is the source of truth; this replays its current view
        back into ``_nebula_annotations`` / ``_nebula_attachments``.
        Used by service recovery when :meth:`verify_head` fails.  Note
        ``executescript`` commits any pending transaction first — callers
        run this at recovery time, outside any open write.
        """
        self.connection.executescript(_RESTORE_HEAD)

    def delete_attachment(self, attachment_id: int) -> bool:
        """Remove an edge from the head, logged as a ``delete`` tombstone.

        The tombstone carries the edge's last known column values so the
        audit trail shows *what* was discarded, not just that something
        was.
        """
        appended = self._write(
            _APPEND_ATTACHMENT, (self._current(), "delete", attachment_id)
        )
        if appended.rowcount == 0:
            return False
        self._write(_DELETE_ATTACHMENT, (attachment_id,))
        return True
