"""Live data updates with annotation-aware side effects.

The passive engine's promise is that curation machinery keeps working as
the data changes.  :class:`DataEditor` is the write path that upholds it:
inserting a tuple through the editor

1. writes the row,
2. incrementally maintains the keyword-search engine's inverted value
   index (so the new tuple is immediately discoverable by Nebula), and
3. fires the predicate-based annotation rules on the new tuple.

Deleting a tuple detaches its row-level annotations (the edges would
otherwise dangle) and is refused while predicted attachments are pending
on it (the expert should resolve them first).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import StorageError
from ..search.index import InvertedValueIndex
from ..storage.compat import Connection
from ..utils.sql import quote_identifier
from ..types import TupleRef
from .engine import AnnotationManager
from .rules import AnnotationRule, RuleEngine
from .store import AttachmentKind


@dataclass
class InsertResult:
    """Outcome of one editor insert."""

    ref: TupleRef
    fired_rules: List[AnnotationRule] = field(default_factory=list)
    indexed_columns: List[str] = field(default_factory=list)


class DataEditor:
    """Annotation-aware insert/delete over the user tables."""

    def __init__(
        self,
        manager: AnnotationManager,
        index: Optional[InvertedValueIndex] = None,
        rules: Optional[RuleEngine] = None,
    ) -> None:
        self.manager = manager
        self.connection: Connection = manager.connection
        self.index = index
        self.rules = rules if rules is not None else RuleEngine(manager)

    # ------------------------------------------------------------------

    def insert(self, table: str, values: Dict[str, object]) -> InsertResult:
        """Insert one row, maintain the index, and fire rules."""
        canonical = self.manager.store.validate_table(table)
        columns = [
            self.manager.store.validate_column(canonical, name) for name in values
        ]
        placeholders = ", ".join("?" for _ in columns)
        column_list = ", ".join(quote_identifier(c) for c in columns)
        cursor = self.connection.execute(
            f"INSERT INTO {quote_identifier(canonical)} ({column_list}) "
            f"VALUES ({placeholders})",
            list(values.values()),
        )
        ref = TupleRef(canonical, int(cursor.lastrowid))
        result = InsertResult(ref=ref)

        if self.index is not None:
            indexed = {
                (t, c) for t, c in self.index.indexed_columns
            }
            for column, value in zip(columns, values.values()):
                if (canonical.casefold(), column.casefold()) in indexed and value is not None:
                    self.index.add_row(canonical, column, ref.rowid, str(value))
                    result.indexed_columns.append(column)

        result.fired_rules = self.rules.process_new_tuple(ref)
        return result

    def delete(self, ref: TupleRef, force: bool = False) -> int:
        """Delete one row and detach its row-level annotations.

        Refuses (``StorageError``) when predicted attachments are pending
        on the tuple, unless ``force`` — an expert decision should not be
        silently destroyed by a data edit.  Returns the number of
        attachments detached.
        """
        canonical = self.manager.store.validate_table(ref.table)
        attachments = [
            a
            for a in self.manager.store.attachments_on(canonical, rowid=ref.rowid)
            if a.rowid == ref.rowid
        ]
        pending = [a for a in attachments if a.kind is AttachmentKind.PREDICTED]
        if pending and not force:
            raise StorageError(
                f"{ref} has {len(pending)} pending predicted attachment(s); "
                "resolve them or pass force=True"
            )
        detached = 0
        for attachment in attachments:
            if self.manager.store.detach(attachment.attachment_id):
                detached += 1
        self.connection.execute(
            f"DELETE FROM {quote_identifier(canonical)} WHERE rowid = ?",
            (ref.rowid,),
        )
        return detached
