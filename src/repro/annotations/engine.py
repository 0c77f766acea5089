"""The passive annotation-manager facade.

``AnnotationManager`` is the public face of the substrate engine: adding an
annotation with its manual attachments (the annotation's *focal*), querying
the annotations of a tuple, and maintaining predicted attachments.  The
ACG is built from the store's true attachment rows
(:meth:`AnnotationStore.true_attachment_rows`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

from ..errors import UnknownTupleError
from ..resilience.retry import RetryPolicy
from ..storage.compat import Connection
from ..types import CellRef, TupleRef
from ..utils.sql import quote_identifier
from .store import Annotation, AnnotationStore, Attachment, AttachmentKind


class AnnotationManager:
    """High-level API of the passive annotation engine."""

    def __init__(
        self,
        connection: Connection,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.connection = connection
        self.store = AnnotationStore(connection, retry=retry)

    # ------------------------------------------------------------------
    # Adding and attaching
    # ------------------------------------------------------------------

    def add_annotation(
        self,
        content: str,
        attach_to: Sequence[CellRef] = (),
        author: Optional[str] = None,
        verify_targets: bool = True,
    ) -> Annotation:
        """Insert an annotation and manually attach it to ``attach_to``.

        Manual attachments are *true* edges with confidence 1.0.  With
        ``verify_targets`` each row-level target is checked to exist.

        The row and its focal edges land under one ``ingest`` commit in
        the append-only log (joining the pipeline's commit when one is
        already open).
        """
        with self.store.versioning.scope("ingest", author=author):
            annotation = self.store.insert_annotation(content, author=author)
            for target in attach_to:
                if verify_targets and target.rowid is not None:
                    self._require_tuple(target.tuple_ref)
                self.store.attach(
                    annotation.annotation_id, target, kind=AttachmentKind.TRUE
                )
        return annotation

    def bulk_add_annotations(
        self,
        items: Sequence[Tuple[str, Sequence[CellRef], Optional[str]]],
        verify_targets: bool = True,
    ) -> List[Annotation]:
        """Insert many ``(content, attach_to, author)`` annotations at once.

        Stage-0 bulk path of the batched ingestion API: one ``executemany``
        for the annotation rows and one for all the true attachment edges,
        instead of 1 + sum(len(attach_to)) round trips.  Target validation
        (and existence checks, with ``verify_targets``) runs for the whole
        batch before anything is written.
        """
        for _content, attach_to, _author in items:
            for target in attach_to:
                self.store.validate_table(target.table)
                if verify_targets and target.rowid is not None:
                    self._require_tuple(target.tuple_ref)
        with self.store.versioning.scope("batch"):
            annotations = self.store.bulk_insert_annotations(
                [(content, author) for content, _attach_to, author in items]
            )
            edges: List[Tuple[int, CellRef]] = []
            for annotation, (_content, attach_to, _author) in zip(annotations, items):
                edges.extend(
                    (annotation.annotation_id, target) for target in attach_to
                )
            self.store.bulk_attach_true(edges)
        return annotations

    def attach_true(self, annotation_id: int, target: CellRef) -> Attachment:
        """Manually attach an existing annotation (true edge)."""
        return self.store.attach(annotation_id, target, kind=AttachmentKind.TRUE)

    def attach_predicted(
        self, annotation_id: int, target: CellRef, confidence: float
    ) -> Attachment:
        """Record a Nebula-predicted attachment (dotted edge, conf < 1)."""
        return self.store.attach(
            annotation_id, target, confidence=confidence, kind=AttachmentKind.PREDICTED
        )

    def attach_range(
        self,
        annotation_id: int,
        table: str,
        rowid_low: int,
        rowid_high: int,
        column: Optional[str] = None,
    ) -> Attachment:
        """Attach to a contiguous rowid range with one compact edge."""
        return self.store.attach_range(
            annotation_id, table, rowid_low, rowid_high, column=column
        )

    def _require_tuple(self, ref: TupleRef) -> None:
        table = self.store.validate_table(ref.table)
        row = self.connection.execute(
            f"SELECT 1 FROM {quote_identifier(table)} WHERE rowid = ?",
            (ref.rowid,),
        ).fetchone()
        if row is None:
            raise UnknownTupleError(ref.table, ref.rowid)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def annotation(
        self, annotation_id: int, as_of: Optional[int] = None
    ) -> Annotation:
        return self.store.get_annotation(annotation_id, as_of=as_of)

    def annotations_of_tuple(
        self,
        ref: TupleRef,
        include_predicted: bool = False,
        as_of: Optional[int] = None,
    ) -> List[Annotation]:
        """All annotations attached to a tuple (row, cell, column, table).

        ``as_of`` pins the read to a commit id: the answer is computed
        from the append-only history instead of the materialized head.
        """
        attachments = self.store.attachments_on(
            ref.table, rowid=ref.rowid, as_of=as_of
        )
        wanted = []
        seen: Set[int] = set()
        for attachment in attachments:
            if attachment.kind is AttachmentKind.PREDICTED and not include_predicted:
                continue
            if attachment.annotation_id in seen:
                continue
            seen.add(attachment.annotation_id)
            wanted.append(self.store.get_annotation(attachment.annotation_id, as_of=as_of))
        return wanted

    def focal_of(
        self, annotation_id: int, as_of: Optional[int] = None
    ) -> Tuple[TupleRef, ...]:
        """The annotation's focal: tuples it is *manually* attached to.

        Paper Definition 3.5 — only true row/cell attachments count.
        """
        refs: List[TupleRef] = []
        seen: Set[TupleRef] = set()
        for attachment in self.store.attachments_of(annotation_id, as_of=as_of):
            if attachment.kind is not AttachmentKind.TRUE:
                continue
            ref = attachment.tuple_ref
            if ref is not None and ref not in seen:
                seen.add(ref)
                refs.append(ref)
        return tuple(refs)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def promote_attachment(self, attachment_id: int) -> None:
        """Verified prediction -> true attachment (confidence 1.0)."""
        self.store.promote(attachment_id)

    def discard_attachment(self, attachment_id: int) -> bool:
        """Drop a rejected predicted attachment."""
        return self.store.detach(attachment_id)

    def pending_predicted(self, annotation_id: int) -> List[Attachment]:
        """The predicted attachments of one annotation."""
        return [
            a
            for a in self.store.attachments_of(annotation_id)
            if a.kind is AttachmentKind.PREDICTED
        ]
