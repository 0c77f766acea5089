"""Syntactic value patterns over database columns.

NebulaMeta stores regular-expression descriptions of column values — e.g.
the paper's ``Gene.ID`` values conform to ``JW[0-9]{4}`` and ``Gene.Name``
values to ``[a-z]{3}[A-Z]``.  A word matching a column's pattern is strong
evidence that the word is a value from that column's domain.

The paper notes patterns "can be even extracted using automated techniques";
:func:`infer_pattern` provides that automation: it generalizes a sample of
values into a character-class template when the sample is syntactically
homogeneous.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Pattern, Sequence


@dataclass(frozen=True)
class ValuePattern:
    """A compiled, anchored regular expression describing column values."""

    #: Human-readable pattern source (unanchored).
    source: str
    #: Case sensitivity matters for identifier schemes like ``grpC``.
    case_sensitive: bool = True
    _compiled: Pattern[str] = field(init=False, repr=False, compare=False, hash=False, default=None)  # type: ignore[assignment]
    _casefolded: Pattern[str] = field(init=False, repr=False, compare=False, hash=False, default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        anchored = rf"\A(?:{self.source})\Z"
        flags = 0 if self.case_sensitive else re.IGNORECASE
        object.__setattr__(self, "_compiled", re.compile(anchored, flags))
        object.__setattr__(self, "_casefolded", re.compile(anchored, re.IGNORECASE))

    def matches(self, value: str) -> bool:
        """Full-string match of ``value`` against the pattern.

        >>> ValuePattern(r"JW[0-9]{4}").matches("JW0014")
        True
        >>> ValuePattern(r"JW[0-9]{4}").matches("JW14")
        False
        """
        return self._compiled.match(value) is not None

    def matches_casefold(self, value: str) -> bool:
        """Full-string match of ``value`` ignoring case.

        >>> ValuePattern(r"JW[0-9]{4}").matches_casefold("jw0014")
        True
        """
        return self._casefolded.match(value) is not None


# Character classes used for pattern inference, most specific first.
_CLASSES: Sequence[tuple] = (
    ("0-9", str.isdigit),
    ("a-z", lambda ch: ch.isalpha() and ch.islower()),
    ("A-Z", lambda ch: ch.isalpha() and ch.isupper()),
)


def _classify(ch: str) -> str:
    for label, predicate in _CLASSES:
        if predicate(ch):
            return label
    return re.escape(ch)


def _template_of(value: str) -> Optional[List[str]]:
    """Per-character class template of ``value``, or None when empty."""
    if not value:
        return None
    return [_classify(ch) for ch in value]


def infer_pattern(values: Iterable[str], min_support: int = 3) -> Optional[ValuePattern]:
    """Generalize sample ``values`` into a :class:`ValuePattern`.

    The inference succeeds only when all sampled values share one
    per-position character-class template (equal lengths, equal classes) —
    mirroring rigid identifier schemes like ``JW0013``/``JW0014``.  Runs of
    the same class are collapsed into ``{n}`` counted classes.

    Returns None when the sample is too small or heterogeneous.

    >>> infer_pattern(["JW0013", "JW0014", "JW0027"]).source
    'JW[0-9]{4}'
    >>> infer_pattern(["abc", "a1c", "xyz"]) is None
    True
    """
    distinct = sorted({v for v in values if v})
    if len(distinct) < min_support:
        return None
    templates = [_template_of(v) for v in distinct]
    first = templates[0]
    if first is None or any(t != first for t in templates[1:]):
        return None
    # Collapse runs of identical classes into counted groups.
    parts: List[str] = []
    run_label, run_length = first[0], 1
    for label in first[1:]:
        if label == run_label:
            run_length += 1
            continue
        parts.append(_render_run(run_label, run_length))
        run_label, run_length = label, 1
    parts.append(_render_run(run_label, run_length))
    return ValuePattern("".join(parts))


def _render_run(label: str, length: int) -> str:
    if label in {"0-9", "a-z", "A-Z"}:
        return f"[{label}]" + (f"{{{length}}}" if length > 1 else "")
    # Literal characters repeat verbatim (they are already escaped).
    return label * length
