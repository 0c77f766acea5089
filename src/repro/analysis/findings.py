"""Structured findings emitted by the nebula-lint rules.

A :class:`Finding` pinpoints one violation: rule id, file, line, a
human message, and a machine-checkable fix hint.  Findings serialize to
JSON (``--format json``), SARIF (``--format sarif``), and a one-line
human format, and carry a stable *fingerprint* used by the baseline
workflow.

The fingerprint hashes the rule id, the file path, the enclosing
function's display name, and the *whitespace-normalized* offending
snippet — not its line number.  It survives two classes of benign
churn:

* re-indenting or re-wrapping the offending line (normalization
  collapses all runs of whitespace), and
* the same snippet text appearing in two different functions (the
  enclosing-def component keeps their fingerprints distinct, so fixing
  one occurrence does not silently absorb the other).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict


def _normalize_snippet(snippet: str) -> str:
    """Collapse whitespace runs so reformatting keeps the fingerprint."""
    return " ".join(snippet.split())


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule_id: str
    path: str
    line: int
    message: str
    fix_hint: str = ""
    #: The offending source line, stripped (fingerprint input + context).
    snippet: str = ""
    #: Display name of the enclosing function/method (``Class.method``),
    #: attached by the engine; "" at module level.  Not serialized —
    #: the JSON shape predates it and stays byte-stable.
    function: str = field(default="", compare=False)
    #: Extra rule-specific details (offending name, resolved text, ...).
    details: Dict[str, Any] = field(default_factory=dict, compare=False)

    @property
    def fingerprint(self) -> str:
        """Line-number-insensitive identity for baseline suppression."""
        digest = hashlib.sha256(
            f"{self.rule_id}\x00{self.path}\x00{self.function}"
            f"\x00{_normalize_snippet(self.snippet)}".encode()
        )
        return digest.hexdigest()[:16]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule_id": self.rule_id,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "fix_hint": self.fix_hint,
            "snippet": self.snippet,
            "fingerprint": self.fingerprint,
            "details": dict(self.details),
        }

    def format(self) -> str:
        """``path:line: RULE message (hint: ...)``."""
        text = f"{self.path}:{self.line}: {self.rule_id} {self.message}"
        if self.fix_hint:
            text += f"  [fix: {self.fix_hint}]"
        return text
