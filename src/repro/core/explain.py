"""Human-readable explanations of verification tasks.

Definition 7.1 attaches *evidence* to every verification task — "the set
of evidences supporting Nebula's prediction ... to help the DB admins in
the verification process".  The stored evidence strings are the labels of
the keyword queries that produced the candidate tuple
(``q@<position>:<match kind>:<kw>+<kw>``); this module turns them back
into something an expert can act on:

* the query's keywords and the match type that formed it;
* the *context window* of the annotation text around the originating
  word — the sentence fragment the expert actually needs to read;
* the candidate tuple's row values, for side-by-side comparison.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..annotations.engine import AnnotationManager
from ..storage.compat import Connection
from ..utils.sql import quote_identifier
from ..utils.tokenize import tokenize
from .verification import VerificationTask

_LABEL_RE = re.compile(
    r"q@(?P<position>\d+):(?P<kind>[a-z0-9-]+):(?P<keywords>.+)", re.IGNORECASE
)

_KIND_DESCRIPTIONS = {
    "type1": "table + column + value match",
    "type2": "table + value match",
    "type3": "column + value match",
    "backward-type2": "value paired with an earlier table mention",
    "backward-type3": "value paired with an earlier column mention",
}


@dataclass(frozen=True)
class EvidenceLine:
    """One decoded piece of evidence."""

    keywords: Tuple[str, ...]
    match_kind: str
    description: str
    #: Fragment of the annotation text around the originating word.
    context: str


@dataclass(frozen=True)
class TaskExplanation:
    """The full expert-facing view of one verification task."""

    task: VerificationTask
    annotation_excerpt: str
    tuple_values: Dict[str, object]
    evidence: Tuple[EvidenceLine, ...]

    def lines(self) -> List[str]:
        out = [
            f"task {self.task.task_id}: attach annotation "
            f"{self.task.annotation_id} to {self.task.ref} "
            f"(confidence {self.task.confidence:.2f})",
            f"annotation: {self.annotation_excerpt}",
            "tuple: "
            + ", ".join(f"{k}={v!r}" for k, v in self.tuple_values.items()),
        ]
        for line in self.evidence:
            out.append(
                f"  - {' + '.join(line.keywords)} ({line.description})"
            )
            if line.context:
                out.append(f"      ...{line.context}...")
        return out


def _context_window(text: str, position: int, radius: int = 6) -> str:
    """The words around token ``position`` in the annotation text."""
    tokens = tokenize(text)
    if not tokens:
        return ""
    lo = max(0, position - radius)
    hi = min(len(tokens), position + radius + 1)
    window = tokens[lo:hi]
    if not window:
        return ""
    start = window[0].offset
    last = window[-1]
    end = last.offset + len(last.surface)
    return text[start:end]


def decode_evidence(label: str, annotation_text: str) -> Optional[EvidenceLine]:
    """Decode one stored evidence label; None for foreign formats."""
    match = _LABEL_RE.match(label)
    if match is None:
        return None
    position = int(match.group("position"))
    kind = match.group("kind").lower()
    keywords = tuple(match.group("keywords").split("+"))
    return EvidenceLine(
        keywords=keywords,
        match_kind=kind,
        description=_KIND_DESCRIPTIONS.get(kind, kind),
        context=_context_window(annotation_text, position),
    )


def explain_task(
    manager: AnnotationManager,
    task: VerificationTask,
    excerpt_length: int = 160,
) -> TaskExplanation:
    """Build the expert-facing explanation of one verification task."""
    annotation = manager.annotation(task.annotation_id)
    excerpt = annotation.content
    if len(excerpt) > excerpt_length:
        excerpt = excerpt[: excerpt_length - 3] + "..."

    values = _tuple_values(manager.connection, task.ref.table, task.ref.rowid)

    evidence: List[EvidenceLine] = []
    for label in task.evidence:
        decoded = decode_evidence(label, annotation.content)
        if decoded is not None:
            evidence.append(decoded)
        else:
            evidence.append(
                EvidenceLine(
                    keywords=(label,), match_kind="raw",
                    description="raw evidence", context="",
                )
            )
    return TaskExplanation(
        task=task,
        annotation_excerpt=excerpt,
        tuple_values=values,
        evidence=tuple(evidence),
    )


def _tuple_values(
    connection: Connection, table: str, rowid: int
) -> Dict[str, object]:
    columns = [
        row[1]
        for row in connection.execute(f"PRAGMA table_info({quote_identifier(table)})")
    ]
    select_list = ", ".join(quote_identifier(c) for c in columns)
    row = connection.execute(
        f"SELECT {select_list} FROM {quote_identifier(table)} WHERE rowid = ?",
        (rowid,),
    ).fetchone()
    if row is None:
        return {}
    return dict(zip(columns, row))
