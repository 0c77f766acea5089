"""nebula-lint: project-specific static analysis for the reproduction.

The analyzer enforces invariants the test suite cannot see — SQL
injection shape at execute sites (now interprocedural: taint follows
helper returns and sink parameters across call boundaries), SAVEPOINT
pairing, the paper's edge-weight semantics, the
canonical span taxonomy, sqlite resource hygiene, and the concurrency
rules over the service plane: lock discipline (NBL009), connection
thread-affinity (NBL010), blocking-under-lock (NBL011),
condition-variable hygiene (NBL012), and versioned-table write
discipline (NBL013).  See ``docs/static_analysis.md``
for the rule catalog, the interprocedural core, and the baseline
workflow.

Run it as ``python -m repro.analysis [paths]`` or ``repro lint``.
"""

from .astcache import ParsedModule
from .baseline import apply_baseline, load_baseline, write_baseline
from .engine import (
    AnalysisError,
    AnalysisResult,
    ProjectState,
    analyze_paths,
    iter_python_files,
    run_analysis,
)
from .findings import Finding
from .graphs import ProjectGraph, build_project_graph
from .rules import ALL_RULE_IDS, RULE_DOCS
from .sarif import to_sarif

__all__ = [
    "ALL_RULE_IDS",
    "AnalysisError",
    "AnalysisResult",
    "Finding",
    "ParsedModule",
    "ProjectGraph",
    "ProjectState",
    "RULE_DOCS",
    "analyze_paths",
    "apply_baseline",
    "build_project_graph",
    "iter_python_files",
    "load_baseline",
    "run_analysis",
    "to_sarif",
    "write_baseline",
]
