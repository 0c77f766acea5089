"""The nebula-lint analysis engine.

Walks a source tree (or explicit file list) and runs the full pipeline:

1. **parse** — every file is read and parsed once into an immutable
   :class:`~repro.analysis.astcache.ParsedModule`;
2. **project pass** — cross-module facts are computed over every
   parsed module: the module/class/call graph, per-function concurrency
   summaries with the blocking and escape fixpoints (NBL009–NBL012),
   and the SQL taint fixpoints that upgrade NBL001 to interprocedural;
3. **rule pass** — per-file rule checks run module by module on the
   calling thread, reading the project indexes (the passes are pure
   Python, so a thread pool only adds GIL contention);
4. **filter** — raw findings flow through inline ignores and get their
   enclosing function attached (for the fingerprint).

Inline suppression::

    cur.execute(sql + tail)  # nebula-lint: ignore[NBL001]
    risky_line()             # nebula-lint: ignore

The bare form suppresses every rule on that line; the bracketed form
suppresses only the listed rule ids (comma-separated).
"""

from __future__ import annotations

import dataclasses
import os
import time
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set

from .astcache import AnalysisError, ParsedModule, load_module
from .concurrency import (
    ConcurrencyIndex,
    check_blocking_under_lock,
    check_condition_hygiene,
    check_lock_discipline,
    check_thread_affinity,
)
from .findings import Finding
from .graphs import ProjectGraph, build_project_graph
from .interproc import SqlFlowIndex
from .rules import (
    ALL_RULE_IDS,
    ModuleContext,
    check_driver_imports,
    check_edge_weights,
    check_metric_naming,
    check_resource_hygiene,
    check_savepoint_pairing,
    check_span_registry,
    check_sql_safety,
    check_versioned_writes,
)

__all__ = [
    "AnalysisError",
    "AnalysisResult",
    "ProjectState",
    "analyze_paths",
    "iter_python_files",
    "run_analysis",
]

#: Directory names never descended into.
_SKIP_DIRS = frozenset(
    {".git", "__pycache__", ".mypy_cache", ".ruff_cache", "build", "dist"}
)


def iter_python_files(paths: Sequence[str]) -> Iterator[str]:
    """Yield .py files under each path (files are yielded as-is)."""
    for path in paths:
        if os.path.isfile(path):
            if path.endswith(".py"):
                yield path
            continue
        for root, dirs, files in os.walk(path):
            dirs[:] = sorted(d for d in dirs if d not in _SKIP_DIRS)
            for name in sorted(files):
                if name.endswith(".py"):
                    yield os.path.join(root, name)


def _is_suppressed(
    finding: Finding, ignores: Dict[int, Optional[Set[str]]]
) -> bool:
    """True when an inline ignore covers the finding.

    A finding anchored on a multi-line statement (``end_line`` in its
    details) is suppressed by an ignore comment on *any* line of the
    statement — the comment naturally lives next to the offending
    interpolation, which may not be the statement's first line.
    """
    end = int(finding.details.get("end_line", finding.line))
    for lineno in range(finding.line, max(finding.line, end) + 1):
        if lineno not in ignores:
            continue
        suppressed = ignores[lineno]
        if suppressed is None or finding.rule_id in suppressed:
            return True
    return False


class ProjectState:
    """Every immutable cross-module index the per-file passes read."""

    def __init__(self, modules: Sequence[ParsedModule]) -> None:
        self.contexts: Dict[str, ModuleContext] = {
            parsed.path: ModuleContext(parsed.path, parsed.tree, parsed.source)
            for parsed in modules
        }
        self.graph: ProjectGraph = build_project_graph(modules)
        self.sql_flow: SqlFlowIndex = SqlFlowIndex.build(self.graph)
        self.concurrency: ConcurrencyIndex = ConcurrencyIndex.build(self.graph)

    def enclosing_function(self, path: str, lineno: int) -> str:
        """Display name of the innermost function containing ``lineno``."""
        modinfo = self.graph.by_path.get(path)
        if modinfo is None:
            return ""
        best = None
        for func in modinfo.functions.values():
            node = func.node
            end = getattr(node, "end_lineno", None) or node.lineno
            if node.lineno <= lineno <= end:
                if best is None or node.lineno >= best.node.lineno:
                    best = func
        return best.display if best is not None else ""


def _file_findings(
    state: ProjectState, parsed: ParsedModule, enabled: Set[str]
) -> List[Finding]:
    """Every enabled rule over one module."""
    ctx = state.contexts[parsed.path]
    raw: List[Finding] = []
    if "NBL001" in enabled:
        raw.extend(
            check_sql_safety(ctx, call_resolver=state.sql_flow.call_resolver())
        )
        raw.extend(state.sql_flow.call_site_findings(ctx.path, ctx.snippet))
    if "NBL002" in enabled:
        raw.extend(check_savepoint_pairing(ctx))
    if "NBL004" in enabled:
        raw.extend(check_edge_weights(ctx))
    if "NBL005" in enabled:
        raw.extend(check_span_registry(ctx))
    if "NBL006" in enabled:
        raw.extend(check_resource_hygiene(ctx))
    if "NBL007" in enabled:
        raw.extend(check_driver_imports(ctx))
    if "NBL008" in enabled:
        raw.extend(check_metric_naming(ctx))
    if "NBL009" in enabled:
        raw.extend(check_lock_discipline(ctx, state.concurrency))
    if "NBL010" in enabled:
        raw.extend(check_thread_affinity(ctx, state.concurrency))
    if "NBL011" in enabled:
        raw.extend(check_blocking_under_lock(ctx, state.concurrency))
    if "NBL012" in enabled:
        raw.extend(check_condition_hygiene(ctx, state.concurrency))
    if "NBL013" in enabled:
        raw.extend(check_versioned_writes(ctx))

    out: List[Finding] = []
    for finding in raw:
        if _is_suppressed(finding, parsed.ignores):
            continue
        out.append(
            dataclasses.replace(
                finding,
                function=state.enclosing_function(finding.path, finding.line),
            )
        )
    return out


@dataclasses.dataclass
class AnalysisResult:
    """Findings plus wall-clock phase timings (seconds)."""

    findings: List[Finding]
    timings: Dict[str, float]
    file_count: int


def run_analysis(
    paths: Sequence[str], rules: Optional[Iterable[str]] = None
) -> AnalysisResult:
    """The full pipeline with timings; see module docstring for phases."""
    enabled = set(rules) if rules is not None else set(ALL_RULE_IDS)
    unknown = enabled.difference(ALL_RULE_IDS)
    if unknown:
        raise ValueError(f"unknown rule ids: {', '.join(sorted(unknown))}")

    for path in paths:
        if not os.path.exists(path):
            raise AnalysisError(f"{path}: no such file or directory")

    timings: Dict[str, float] = {}
    started = time.perf_counter()

    modules = [load_module(path) for path in iter_python_files(paths)]
    timings["parse"] = time.perf_counter() - started

    mark = time.perf_counter()
    state = ProjectState(modules)
    timings["project"] = time.perf_counter() - mark

    mark = time.perf_counter()
    findings: List[Finding] = []
    for parsed in modules:
        findings.extend(_file_findings(state, parsed, enabled))
    timings["rules"] = time.perf_counter() - mark

    findings.sort(key=lambda f: (f.path, f.line, f.rule_id))
    timings["total"] = time.perf_counter() - started
    return AnalysisResult(
        findings=findings, timings=timings, file_count=len(modules)
    )


def analyze_paths(
    paths: Sequence[str], rules: Optional[Iterable[str]] = None
) -> List[Finding]:
    """Run the enabled rules over every Python file under ``paths``.

    Returns findings sorted by (path, line, rule id), already filtered
    through inline ``# nebula-lint: ignore`` comments.  Unparseable
    files raise :class:`AnalysisError` — a lint run over a broken tree
    should fail loudly, not skip silently.
    """
    return run_analysis(paths, rules=rules).findings
