"""Predicate-based annotation rules (the mechanism of [18, 25]).

The paper's Related Work describes the complementary *structured*
automation the substrate engine offers: a curator defines an annotation
together with a SQL predicate over a table, and "newly added data tuples
satisfying these predicates will have the corresponding annotation
automatically attached to them".  (Nebula exists because this mechanism
cannot look *inside* annotation text — but the mechanism itself is part
of the substrate and is implemented here.)

A :class:`AnnotationRule` stores the annotation, target table, optional
column, and predicate.  :class:`RuleEngine` persists rules in a system
table, applies them retroactively on creation, and re-applies them to
newly inserted tuples via :meth:`RuleEngine.process_new_tuple` (or in
bulk via :meth:`RuleEngine.sweep`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..errors import CommandError, StorageError
from ..storage.compat import Connection, Error
from ..types import CellRef, TupleRef
from ..utils.sql import quote_identifier
from .engine import AnnotationManager
from .store import AttachmentKind

_UNSAFE_RE = re.compile(
    r";|--|\b(?:drop|delete|insert|update|attach|pragma)\b", re.IGNORECASE
)


@dataclass(frozen=True)
class AnnotationRule:
    """One persisted predicate rule."""

    rule_id: int
    annotation_id: int
    table: str
    column: Optional[str]
    predicate: str
    active: bool = True


class RuleEngine:
    """Creates, lists, and applies predicate-based annotation rules."""

    def __init__(self, manager: AnnotationManager) -> None:
        self.manager = manager
        self.connection: Connection = manager.connection

    # ------------------------------------------------------------------
    # Rule management
    # ------------------------------------------------------------------

    def create_rule(
        self,
        annotation_id: int,
        table: str,
        predicate: str,
        column: Optional[str] = None,
        apply_retroactively: bool = True,
    ) -> Tuple[AnnotationRule, int]:
        """Persist a rule; returns (rule, retroactive attachment count).

        The predicate is validated by running it; statement-smuggling
        shapes are rejected up front.
        """
        self.manager.annotation(annotation_id)  # must exist
        canonical = self.manager.store.validate_table(table)
        if column is not None:
            column = self.manager.store.validate_column(canonical, column)
        if _UNSAFE_RE.search(predicate):
            raise CommandError("rule predicate contains a disallowed token")
        try:
            matching = self._matching_rowids(canonical, predicate)
        except Error as exc:
            raise CommandError(f"invalid rule predicate: {exc}") from exc
        cursor = self.connection.execute(
            "INSERT INTO _nebula_annotation_rules "
            "(annotation_id, target_table, target_column, predicate) "
            "VALUES (?, ?, ?, ?)",
            (annotation_id, canonical, column, predicate),
        )
        rule = AnnotationRule(
            rule_id=int(cursor.lastrowid),
            annotation_id=annotation_id,
            table=canonical,
            column=column,
            predicate=predicate,
        )
        attached = 0
        if apply_retroactively:
            attached = self._attach_all(rule, matching)
        return rule, attached

    def deactivate(self, rule_id: int) -> None:
        """Stop a rule from firing on future tuples (past edges remain)."""
        cursor = self.connection.execute(
            "UPDATE _nebula_annotation_rules SET active = 0 WHERE rule_id = ?",
            (rule_id,),
        )
        if cursor.rowcount == 0:
            raise StorageError(f"unknown rule id: {rule_id}")

    def rules(self, table: Optional[str] = None, active_only: bool = True) -> List[AnnotationRule]:
        sql = (
            "SELECT rule_id, annotation_id, target_table, target_column, "
            "predicate, active FROM _nebula_annotation_rules WHERE 1=1"
        )
        params: List[object] = []
        if table is not None:
            sql += " AND target_table = ?"
            params.append(self.manager.store.validate_table(table))
        if active_only:
            sql += " AND active = 1"
        rows = self.connection.execute(sql + " ORDER BY rule_id", params)
        return [
            AnnotationRule(
                rule_id=int(r[0]),
                annotation_id=int(r[1]),
                table=str(r[2]),
                column=None if r[3] is None else str(r[3]),
                predicate=str(r[4]),
                active=bool(r[5]),
            )
            for r in rows
        ]

    # ------------------------------------------------------------------
    # Application
    # ------------------------------------------------------------------

    def process_new_tuple(self, ref: TupleRef) -> List[AnnotationRule]:
        """Apply every active rule of the tuple's table to one new tuple.

        Returns the rules that fired (matched and attached).
        """
        fired: List[AnnotationRule] = []
        for rule in self.rules(table=ref.table):
            if self._matches(rule, ref.rowid):
                self.manager.store.attach(
                    rule.annotation_id,
                    CellRef(rule.table, ref.rowid, rule.column),
                    kind=AttachmentKind.TRUE,
                )
                fired.append(rule)
        return fired

    def sweep(self, table: Optional[str] = None) -> int:
        """Re-apply all active rules to the current data; returns the
        number of attachments created (idempotent on repeats)."""
        created = 0
        for rule in self.rules(table=table):
            before = self.manager.store.count_attachments()
            self._attach_all(rule, self._matching_rowids(rule.table, rule.predicate))
            created += self.manager.store.count_attachments() - before
        return created

    # ------------------------------------------------------------------

    def _matching_rowids(self, table: str, predicate: str) -> List[int]:
        # Rule predicates are raw SQL by design (the ADD RULE command
        # language); they are screened at registration time.
        rows = self.connection.execute(
            f"SELECT rowid FROM {quote_identifier(table)} "
            f"WHERE {predicate}"  # nebula-lint: ignore[NBL001]
        ).fetchall()
        return [int(r[0]) for r in rows]

    def _matches(self, rule: AnnotationRule, rowid: int) -> bool:
        row = self.connection.execute(
            f"SELECT 1 FROM {quote_identifier(rule.table)} "
            f"WHERE rowid = ? AND ({rule.predicate})",  # nebula-lint: ignore[NBL001]
            (rowid,),
        ).fetchone()
        return row is not None

    def _attach_all(self, rule: AnnotationRule, rowids: Sequence[int]) -> int:
        attached = 0
        for rowid in rowids:
            self.manager.store.attach(
                rule.annotation_id,
                CellRef(rule.table, rowid, rule.column),
                kind=AttachmentKind.TRUE,
            )
            attached += 1
        return attached
