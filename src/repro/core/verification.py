"""Verification of predicted attachments (paper §7, Figure 8).

Every candidate attachment becomes a :class:`VerificationTask`
``v = (vid, a, t, confidence, evidence)``.  Tasks are triaged against the
two bounds:

* ``confidence < beta_lower``  -> automatically rejected (discarded);
* ``confidence > beta_upper``  -> automatically accepted (True Attachment);
* otherwise                    -> *pending*, stored in a system table for
  experts to resolve via ``VERIFY|REJECT ATTACHMENT <vid>``.

Acceptance (automatic or manual) triggers the paper's transparent action
sequence: (1) the annotation is attached to the tuple as a true edge,
(2) the ACG is updated, and (3) the hop-distance profile that guides the
focal-based spreading is updated (hops measured *before* the new edges are
added).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Sequence, Tuple

from ..annotations.engine import AnnotationManager
from ..errors import UnknownVerificationTaskError, VerificationError
from ..storage.compat import Connection
from ..types import CellRef, ScoredTuple, TupleRef
from .acg import AnnotationsConnectivityGraph, HopProfile

class Decision(str, Enum):
    """Lifecycle states of a verification task."""

    PENDING = "pending"
    AUTO_ACCEPTED = "auto_accepted"
    AUTO_REJECTED = "auto_rejected"
    VERIFIED = "verified"  # expert accepted
    REJECTED = "rejected"  # expert rejected

    @property
    def is_accepted(self) -> bool:
        return self in (Decision.AUTO_ACCEPTED, Decision.VERIFIED)

    @property
    def is_resolved(self) -> bool:
        return self is not Decision.PENDING


@dataclass(frozen=True)
class VerificationTask:
    """One predicted attachment awaiting (or past) its decision."""

    task_id: int
    annotation_id: int
    ref: TupleRef
    confidence: float
    evidence: Tuple[str, ...]
    decision: Decision


class VerificationQueue:
    """Triages candidate tuples and manages the pending-task table."""

    def __init__(
        self,
        manager: AnnotationManager,
        acg: Optional[AnnotationsConnectivityGraph] = None,
        profile: Optional[HopProfile] = None,
    ) -> None:
        self.manager = manager
        self.acg = acg
        self.profile = profile
        self.connection: Connection = manager.connection

    # ------------------------------------------------------------------
    # Triage
    # ------------------------------------------------------------------

    def triage(
        self,
        annotation_id: int,
        candidates: Sequence[ScoredTuple],
        beta_lower: float,
        beta_upper: float,
        focal: Sequence[TupleRef] = (),
    ) -> List[VerificationTask]:
        """Create and band the verification tasks of one annotation.

        Candidates that are already attached (focal tuples rediscovered by
        the search) are skipped — they are not *missing* attachments.
        """
        if not 0.0 <= beta_lower <= beta_upper <= 1.0:
            raise VerificationError("bounds must satisfy 0 <= lower <= upper <= 1")
        focal = tuple(focal) or self.manager.focal_of(annotation_id)
        focal_set = set(focal)
        tasks: List[VerificationTask] = []
        for candidate in candidates:
            if candidate.ref in focal_set:
                continue
            if candidate.confidence < beta_lower:
                decision = Decision.AUTO_REJECTED
            elif candidate.confidence > beta_upper:
                decision = Decision.AUTO_ACCEPTED
            else:
                decision = Decision.PENDING
            task = self._insert_task(annotation_id, candidate, decision)
            if decision is Decision.AUTO_ACCEPTED:
                self._accept(task, focal)
            elif decision is Decision.PENDING:
                self.manager.attach_predicted(
                    annotation_id,
                    CellRef(candidate.ref.table, candidate.ref.rowid),
                    confidence=min(candidate.confidence, 0.999),
                )
            tasks.append(task)
        return tasks

    def _insert_task(
        self, annotation_id: int, candidate: ScoredTuple, decision: Decision
    ) -> VerificationTask:
        cursor = self.connection.execute(
            "INSERT INTO _nebula_verification_tasks "
            "(annotation_id, target_table, target_rowid, confidence, evidence, status) "
            "VALUES (?, ?, ?, ?, ?, ?)",
            (
                annotation_id,
                candidate.ref.table,
                candidate.ref.rowid,
                candidate.confidence,
                "\n".join(candidate.provenance),
                decision.value,
            ),
        )
        return VerificationTask(
            task_id=int(cursor.lastrowid),
            annotation_id=annotation_id,
            ref=candidate.ref,
            confidence=candidate.confidence,
            evidence=tuple(candidate.provenance),
            decision=decision,
        )

    # ------------------------------------------------------------------
    # Expert resolution (the VERIFY | REJECT ATTACHMENT command)
    # ------------------------------------------------------------------

    def verify(self, task_id: int) -> VerificationTask:
        """Expert accepts a pending task: it becomes a True Attachment.

        The resolution lands as one ``verify`` commit in the append-only
        log (after the task is known to exist, so a bad id leaves no
        empty commit behind).
        """
        task = self._load_pending(task_id)
        with self.manager.store.versioning.scope("verify", note=f"task:{task_id}"):
            resolved = self._set_status(task, Decision.VERIFIED)
            self._accept(resolved, self._triage_focal(task.annotation_id))
        return resolved

    def reject(self, task_id: int) -> VerificationTask:
        """Expert rejects a pending task: the prediction is discarded.

        Recorded as one ``reject`` commit; the dropped edge's tombstone
        in the attachment history shows *what* was discarded.
        """
        task = self._load_pending(task_id)
        with self.manager.store.versioning.scope("reject", note=f"task:{task_id}"):
            resolved = self._set_status(task, Decision.REJECTED)
            for attachment in self.manager.pending_predicted(task.annotation_id):
                if attachment.tuple_ref == task.ref:
                    self.manager.discard_attachment(attachment.attachment_id)
        return resolved

    def pending(self, annotation_id: Optional[int] = None) -> List[VerificationTask]:
        """Pending tasks, optionally for one annotation."""
        sql = (
            "SELECT task_id, annotation_id, target_table, target_rowid, "
            "confidence, evidence, status FROM _nebula_verification_tasks "
            "WHERE status = 'pending'"
        )
        params: Tuple = ()
        if annotation_id is not None:
            sql += " AND annotation_id = ?"
            params = (annotation_id,)
        return [_row_to_task(r) for r in self.connection.execute(sql, params)]

    def tasks_of(self, annotation_id: int) -> List[VerificationTask]:
        """Every task of one annotation, oldest first, searched through
        ``_nebula_verification_tasks_by_annotation``."""
        rows = self.connection.execute(
            "SELECT task_id, annotation_id, target_table, target_rowid, "
            "confidence, evidence, status FROM _nebula_verification_tasks "
            "WHERE annotation_id = ? ORDER BY task_id",
            (annotation_id,),
        )
        return [_row_to_task(r) for r in rows]

    # ------------------------------------------------------------------
    # Acceptance side effects (paper §7: the transparent action sequence)
    # ------------------------------------------------------------------

    def _triage_focal(self, annotation_id: int) -> Tuple[TupleRef, ...]:
        """The focal triage measured from, derived from the store.

        Triage skips focal candidates and every accepted task became a
        true edge, so the focal is the annotation's true row edges less
        the targets of its accepted tasks.  A true edge attached by hand
        after ingestion counts (Definition 3.5: the manually attached
        tuples).
        """
        accepted = {t.ref for t in self.tasks_of(annotation_id) if t.decision.is_accepted}
        return tuple(
            ref for ref in self.manager.focal_of(annotation_id) if ref not in accepted
        )

    def _accept(self, task: VerificationTask, focal: Sequence[TupleRef]) -> None:
        # (3) profile update first: hops measured before the new edges.
        if self.profile is not None and self.acg is not None and focal:
            self.profile.record(self.acg.shortest_hops(task.ref, focal))
        # (1) attach as a true edge.
        self.manager.attach_true(
            task.annotation_id, CellRef(task.ref.table, task.ref.rowid)
        )
        # (2) ACG update.
        if self.acg is not None:
            self.acg.add_attachment(task.annotation_id, task.ref)

    # ------------------------------------------------------------------

    def _load_pending(self, task_id: int) -> VerificationTask:
        row = self.connection.execute(
            "SELECT task_id, annotation_id, target_table, target_rowid, "
            "confidence, evidence, status FROM _nebula_verification_tasks "
            "WHERE task_id = ?",
            (task_id,),
        ).fetchone()
        if row is None or Decision(row[6]) is not Decision.PENDING:
            raise UnknownVerificationTaskError(task_id)
        return _row_to_task(row)

    def _set_status(self, task: VerificationTask, decision: Decision) -> VerificationTask:
        self.connection.execute(
            "UPDATE _nebula_verification_tasks SET status = ? WHERE task_id = ?",
            (decision.value, task.task_id),
        )
        return VerificationTask(
            task_id=task.task_id,
            annotation_id=task.annotation_id,
            ref=task.ref,
            confidence=task.confidence,
            evidence=task.evidence,
            decision=decision,
        )


def _row_to_task(row: Sequence) -> VerificationTask:
    evidence = tuple(part for part in str(row[5]).split("\n") if part)
    return VerificationTask(
        task_id=int(row[0]),
        annotation_id=int(row[1]),
        ref=TupleRef(str(row[2]), int(row[3])),
        confidence=float(row[4]),
        evidence=evidence,
        decision=Decision(row[6]),
    )
