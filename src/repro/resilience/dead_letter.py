"""Persistent dead-letter queue for failed annotation ingestions.

An annotation whose pipeline failed *after* retries and rollback is not
lost: its inputs (text, focal, author) plus the failing stage and error
are captured in the ``_nebula_dead_letters`` system table.  The queue
survives restarts (it lives next to the annotation store) and is drained
by :meth:`repro.core.nebula.Nebula.reprocess_dead_letters`, which re-runs
the full pipeline for each pending letter once the underlying fault has
cleared.

The capture itself runs *outside* the pipeline's savepoint — a rollback
of the failed ingestion must not also roll back the evidence of it.  For
the same reason every queue write commits immediately: the process that
just failed may be about to exit, and an uncommitted letter would vanish
with its implicit transaction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..errors import DeadLetterError
from ..observability.metrics import get_metrics
from ..storage.compat import Connection, Cursor
from ..types import TupleRef
from .retry import RetryPolicy

_COLUMNS = (
    "letter_id, content, author, focal_json, stage, error, attempts, status, "
    "request_id, commit_id"
)


@dataclass(frozen=True)
class DeadLetter:
    """One captured ingestion failure, replayable as-is."""

    letter_id: int
    content: str
    author: Optional[str]
    focal: Tuple[TupleRef, ...]
    stage: str
    error: str
    attempts: int
    status: str
    #: Correlation id of the service submission that failed into this
    #: letter (None for failures outside the service layer).
    request_id: Optional[str] = None
    #: The ``replay`` commit a successful reprocess landed under (None
    #: while pending).  Together with the commit's ``dead-letter:<id>``
    #: note this makes replays auditable in both directions — and
    #: idempotent against the log: a letter carrying a commit id has
    #: verifiably been ingested exactly once.
    commit_id: Optional[int] = None

    @property
    def is_pending(self) -> bool:
        return self.status == "pending"


class DeadLetterQueue:
    """SQLite-backed queue of annotations whose pipeline failed.

    The table comes from migration 0004 (:mod:`repro.versioning.migrations`).
    """

    def __init__(
        self, connection: Connection, retry: Optional[RetryPolicy] = None
    ) -> None:
        self.connection = connection
        self._retry = retry

    # ------------------------------------------------------------------

    def _execute(self, sql: str, params: Tuple = ()) -> Cursor:
        if self._retry is not None:
            return self._retry.run(lambda: self.connection.execute(sql, params), sql)
        return self.connection.execute(sql, params)

    def _commit(self) -> None:
        """Make a queue write durable right away (see module docstring)."""
        if self._retry is not None:
            self._retry.run(self.connection.commit, "commit")
        else:
            self.connection.commit()

    # ------------------------------------------------------------------

    def capture(
        self,
        content: str,
        focal: Tuple[TupleRef, ...],
        author: Optional[str],
        stage: str,
        error: str,
    ) -> DeadLetter:
        """Persist one failed ingestion for later reprocessing."""
        focal_json = json.dumps([[ref.table, ref.rowid] for ref in focal])
        cursor = self._execute(
            "INSERT INTO _nebula_dead_letters "
            "(content, author, focal_json, stage, error) VALUES (?, ?, ?, ?, ?)",
            (content, author, focal_json, stage, error),
        )
        self._commit()
        get_metrics().counter("nebula_dead_letters_total", {"stage": stage}).inc()
        self._update_pending_gauge()
        return DeadLetter(
            letter_id=int(cursor.lastrowid),
            content=content,
            author=author,
            focal=focal,
            stage=stage,
            error=error,
            attempts=1,
            status="pending",
        )

    def get(self, letter_id: int) -> DeadLetter:
        row = self._execute(
            f"SELECT {_COLUMNS} FROM _nebula_dead_letters WHERE letter_id = ?",
            (letter_id,),
        ).fetchone()
        if row is None:
            raise DeadLetterError(letter_id)
        return _row_to_letter(row)

    def pending(self, include_claimed: bool = True) -> List[DeadLetter]:
        """Pending letters, oldest first.

        ``include_claimed=False`` hides letters another replayer has
        already claimed (see :meth:`claim`) — the view a concurrent
        ``reprocess_dead_letters`` invocation should drain from.
        """
        sql = (
            f"SELECT {_COLUMNS} FROM _nebula_dead_letters "
            "WHERE status = 'pending'"
        )
        if not include_claimed:
            sql += " AND claimed = 0"
        rows = self._execute(sql + " ORDER BY letter_id").fetchall()
        return [_row_to_letter(r) for r in rows]

    def count(self, status: Optional[str] = None) -> int:
        if status is None:
            row = self._execute("SELECT COUNT(*) FROM _nebula_dead_letters").fetchone()
        else:
            row = self._execute(
                "SELECT COUNT(*) FROM _nebula_dead_letters WHERE status = ?", (status,)
            ).fetchone()
        return int(row[0])

    def claim(self, letter_id: int) -> bool:
        """Atomically mark a pending letter as being replayed.

        Returns True when this caller won the claim; False when the
        letter is already claimed, resolved, or unknown.  The compare-
        and-set UPDATE is what makes concurrent or repeated
        ``reprocess_dead_letters`` invocations idempotent: exactly one
        replayer can hold a letter at a time, so a row can never be
        replayed twice.  A failed replay releases the claim
        (:meth:`record_attempt`); a crashed replayer's stale claims are
        released by :meth:`release_claims` at recovery.
        """
        cursor = self._execute(
            "UPDATE _nebula_dead_letters SET claimed = 1 "
            "WHERE letter_id = ? AND status = 'pending' AND claimed = 0",
            (letter_id,),
        )
        self._commit()
        return cursor.rowcount == 1

    def release_claims(self) -> int:
        """Release every stale claim (crash recovery).

        A replayer that died mid-replay leaves its letters claimed but
        unresolved; startup recovery calls this so they become
        drainable again.  Returns the number of claims released.
        """
        cursor = self._execute(
            "UPDATE _nebula_dead_letters SET claimed = 0 "
            "WHERE status = 'pending' AND claimed = 1"
        )
        self._commit()
        return int(cursor.rowcount)

    def assign_request(self, letter_id: int, request_id: str) -> None:
        """Stamp the submission's correlation id onto a captured letter.

        The pipeline captures letters without service context (it does
        not know about submissions); the service stamps the id right
        after catching the :class:`~repro.errors.PipelineStageError`
        that carries ``dead_letter_id`` — which is what lets an operator
        join a failed request's events and spans to its replayable row.
        """
        cursor = self._execute(
            "UPDATE _nebula_dead_letters SET request_id = ? WHERE letter_id = ?",
            (request_id, letter_id),
        )
        if cursor.rowcount == 0:
            raise DeadLetterError(letter_id)
        self._commit()

    def for_request(self, request_id: str) -> List[DeadLetter]:
        """Every letter captured for one submission (usually 0 or 1)."""
        rows = self._execute(
            f"SELECT {_COLUMNS} FROM _nebula_dead_letters "
            "WHERE request_id = ? ORDER BY letter_id",
            (request_id,),
        ).fetchall()
        return [_row_to_letter(r) for r in rows]

    def mark_resolved(
        self, letter_id: int, commit_id: Optional[int] = None
    ) -> None:
        """A successful replay: the letter leaves the pending set.

        ``commit_id`` records which ``replay`` commit the re-ingestion
        landed under, tying the resolved letter to its log entry.
        """
        cursor = self._execute(
            "UPDATE _nebula_dead_letters SET status = 'resolved', commit_id = ? "
            "WHERE letter_id = ? AND status = 'pending'",
            (commit_id, letter_id),
        )
        if cursor.rowcount == 0:
            raise DeadLetterError(letter_id, "unknown or already resolved dead letter")
        self._commit()
        self._update_pending_gauge()

    def _update_pending_gauge(self) -> None:
        """Keep ``nebula_dead_letters_pending`` equal to the queue depth."""
        get_metrics().gauge("nebula_dead_letters_pending").set(
            self.count("pending")
        )

    def record_attempt(self, letter_id: int, error: str) -> None:
        """A failed replay: bump the attempt counter, keep it pending.

        The claim is released so a later (or concurrent) replayer can
        retry the letter once the underlying fault has cleared.
        """
        cursor = self._execute(
            "UPDATE _nebula_dead_letters SET attempts = attempts + 1, "
            "error = ?, claimed = 0 "
            "WHERE letter_id = ? AND status = 'pending'",
            (error, letter_id),
        )
        if cursor.rowcount == 0:
            raise DeadLetterError(letter_id, "unknown or already resolved dead letter")
        self._commit()


def _row_to_letter(row: Sequence[object]) -> DeadLetter:
    focal = tuple(
        TupleRef(str(table), int(rowid)) for table, rowid in json.loads(row[3])
    )
    return DeadLetter(
        letter_id=int(row[0]),
        content=str(row[1]),
        author=None if row[2] is None else str(row[2]),
        focal=focal,
        stage=str(row[4]),
        error=str(row[5]),
        attempts=int(row[6]),
        status=str(row[7]),
        request_id=None if row[8] is None else str(row[8]),
        commit_id=None if row[9] is None else int(row[9]),
    )
