"""Learning ConceptRefs from the available annotations (paper footnote 2).

The paper assumes domain experts populate the ``ConceptRefs`` table, and
notes: "In extreme cases, a module can be developed for learning from the
available annotations the key concepts in the database that they
frequently reference, and by which column(s)."  This module is that
extension.

The learner scans the existing *true* attachments: for every annotation it
tokenizes the text, and for every attached tuple it checks which of the
tuple's column values literally appear among the tokens.  Columns whose
values are frequently used to reference their tuples become the learned
*referencing columns*; tables with at least one such column become learned
*concepts*.  The output is a ranked proposal the expert can accept into
NebulaMeta — or accept automatically via :func:`apply_proposals`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..annotations.engine import AnnotationManager
from ..storage.compat import Connection
from ..utils.sql import quote_identifier
from ..utils.tokenize import is_stopword, normalize_word, tokenize
from .concepts import ConceptRef
from .repository import NebulaMeta


@dataclass(frozen=True)
class ColumnEvidence:
    """How often one column's values appeared inside attached annotations."""

    table: str
    column: str
    #: Attachments whose annotation text contains this column's value.
    hits: int
    #: Attachments examined for this table.
    total: int

    @property
    def support(self) -> float:
        return self.hits / self.total if self.total else 0.0


@dataclass(frozen=True)
class ConceptProposal:
    """A learned concept: a table plus its ranked referencing columns."""

    table: str
    columns: Tuple[ColumnEvidence, ...]

    def to_concept_ref(self) -> ConceptRef:
        return ConceptRef.build(
            self.table,
            self.table,
            [[evidence.column] for evidence in self.columns],
        )


class ConceptLearner:
    """Mine referencing-column statistics from existing attachments."""

    def __init__(
        self,
        manager: AnnotationManager,
        min_support: float = 0.2,
        min_attachments: int = 10,
        max_annotations: Optional[int] = None,
    ) -> None:
        self.manager = manager
        self.connection: Connection = manager.connection
        self.min_support = min_support
        self.min_attachments = min_attachments
        self.max_annotations = max_annotations

    # ------------------------------------------------------------------

    def learn(self) -> List[ConceptProposal]:
        """Scan the attachments and propose concepts, best-supported first."""
        hits: Dict[Tuple[str, str], int] = {}
        totals: Dict[str, int] = {}
        token_cache: Dict[int, Set[str]] = {}

        pairs = self.manager.store.true_attachment_pairs()
        if self.max_annotations is not None:
            allowed = set(
                sorted({aid for aid, _ in pairs})[: self.max_annotations]
            )
            pairs = [(aid, ref) for aid, ref in pairs if aid in allowed]

        for annotation_id, ref in pairs:
            tokens = token_cache.get(annotation_id)
            if tokens is None:
                content = self.manager.annotation(annotation_id).content
                tokens = {
                    t.word for t in tokenize(content) if not is_stopword(t.word)
                }
                token_cache[annotation_id] = tokens
            totals[ref.table] = totals.get(ref.table, 0) + 1
            for column, value in self._row_values(ref.table, ref.rowid):
                if normalize_word(str(value)) in tokens:
                    key = (ref.table, column)
                    hits[key] = hits.get(key, 0) + 1

        proposals: List[ConceptProposal] = []
        for table, total in sorted(totals.items()):
            if total < self.min_attachments:
                continue
            evidences = [
                ColumnEvidence(table=table, column=column, hits=count, total=total)
                for (t, column), count in hits.items()
                if t == table and count / total >= self.min_support
            ]
            if not evidences:
                continue
            evidences.sort(key=lambda e: (-e.support, e.column))
            proposals.append(ConceptProposal(table=table, columns=tuple(evidences)))
        proposals.sort(key=lambda p: -max(e.support for e in p.columns))
        return proposals

    def _row_values(self, table: str, rowid: int) -> List[Tuple[str, object]]:
        columns = [
            row[1]
            for row in self.connection.execute(
                f"PRAGMA table_info({quote_identifier(table)})"
            )
        ]
        select_list = ", ".join(quote_identifier(c) for c in columns)
        row = self.connection.execute(
            f"SELECT {select_list} FROM {quote_identifier(table)} WHERE rowid = ?",
            (rowid,),
        ).fetchone()
        if row is None:
            return []
        return [
            (column, value)
            for column, value in zip(columns, row)
            if value is not None and str(value).strip()
        ]


def apply_proposals(
    meta: NebulaMeta,
    proposals: Sequence[ConceptProposal],
    connection: Optional[Connection] = None,
) -> int:
    """Register learned proposals as concepts; returns how many were added.

    Tables already covered by an expert-defined concept are skipped — the
    learner supplements the experts, it does not override them.  With a
    ``connection``, the new referencing columns are bootstrapped (samples
    drawn, patterns inferred) immediately.
    """
    existing = {normalize_word(c.table) for c in meta.concepts}
    added = 0
    for proposal in proposals:
        if normalize_word(proposal.table) in existing:
            continue
        meta.add_concept(proposal.to_concept_ref())
        existing.add(normalize_word(proposal.table))
        added += 1
    if added and connection is not None:
        meta.bootstrap_from_connection(connection)
    return added
