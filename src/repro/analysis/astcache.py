"""Parsed source files shared by every analysis layer.

:func:`load_module` reads and parses one file into an immutable
:class:`ParsedModule`.  The engine parses each file once; the module
graph, the call graph, the concurrency summaries, and every per-file
rule pass then read the same records.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Set

_IGNORE_RE = re.compile(
    r"#\s*nebula-lint:\s*ignore(?:\[(?P<rules>[A-Z0-9,\s]+)\])?"
)


class AnalysisError(Exception):
    """A file could not be read or parsed."""


def parse_inline_ignores(source: str) -> Dict[int, Optional[Set[str]]]:
    """line -> suppressed rule ids (``None`` means all rules)."""
    ignores: Dict[int, Optional[Set[str]]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _IGNORE_RE.search(line)
        if not match:
            continue
        rules = match.group("rules")
        if rules is None:
            ignores[lineno] = None
        else:
            ignores[lineno] = {r.strip() for r in rules.split(",") if r.strip()}
    return ignores


@dataclass(frozen=True)
class ParsedModule:
    """One parsed source file, shared read-only by every analysis layer."""

    path: str
    source: str
    tree: ast.Module
    lines: Sequence[str] = field(default_factory=tuple)
    #: Inline ``# nebula-lint: ignore`` map (line -> rule ids or None).
    ignores: Dict[int, Optional[Set[str]]] = field(default_factory=dict)

    def snippet(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""


def load_module(path: str) -> ParsedModule:
    """Read and parse one file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
    except OSError as exc:
        raise AnalysisError(f"{path}: cannot read: {exc}") from exc
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        raise AnalysisError(f"{path}: syntax error: {exc}") from exc
    return ParsedModule(
        path=path,
        source=source,
        tree=tree,
        lines=tuple(source.splitlines()),
        ignores=parse_inline_ignores(source),
    )
