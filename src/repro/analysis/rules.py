"""The nebula-lint rule set.

Twelve AST-based rules over the repo's own source, each encoding an
invariant the runtime layers depend on.  NBL001, NBL002, NBL004–NBL008
and NBL013 are intra-module and live here; NBL009–NBL012 reason over
the interprocedural core
(:mod:`repro.analysis.graphs` / :mod:`repro.analysis.summaries`) and
live in :mod:`repro.analysis.concurrency` — they are registered in
:data:`RULE_DOCS` below so the engine and CLI see one catalog.

=========  ==========================================================
NBL001     SQL safety: no string-built SQL at ``execute`` sites —
           ``?`` placeholders for values, ``quote_identifier`` for
           identifiers.  ``repro/search/sqlgen.py`` is the registered
           SQL-construction layer and is exempt.
NBL002     Transaction discipline: every executed ``SAVEPOINT`` must
           have a matching ``RELEASE`` / ``ROLLBACK TO`` in the same
           function, unless the module is the registered boundary
           helper (``repro/resilience/boundaries.py``).
NBL003     Retired: ``NebulaConfig.__post_init__`` rejects the paper
           parameter violations it checked.
NBL004     Paper invariants (edges): ``TRUE_EDGE_WEIGHT`` must be
           exactly 1.0; literal confidences attached with
           ``kind=PREDICTED`` (or via ``attach_predicted``) must lie
           strictly inside (0, 1); True-edge literals must be 1.0.
NBL005     Trace taxonomy: every literal ``tracer.span("...")`` name
           must appear in :data:`repro.observability.stages.CANONICAL_STAGES`.
NBL006     Resource hygiene: driver ``connect()`` (``sqlite3`` or the
           ``repro.storage.compat`` adapter), ``.cursor()``,
           pool/backend ``.acquire()`` / ``.open_reader()``, and the
           service layer's ``acquire_reader``/``_acquire_reader``
           results bound in non-test code must be closed/released,
           managed by ``with``/``closing``, or escape (returned,
           yielded, stored on ``self``, or handed to another
           component).
NBL007     Driver isolation: ``repro/storage/`` is the only package
           allowed to import :mod:`sqlite3`; every other module goes
           through ``repro.storage.compat`` (or a backend handle), so
           swapping the engine stays a one-package change.
NBL008     Metric naming: literal instrument names at registry call
           sites (``metrics.counter/gauge/histogram``) must be
           ``nebula_``-prefixed snake_case; counters end ``_total``,
           time histograms (``TIME_BUCKETS``) end ``_seconds``, and
           the exposition-reserved suffixes ``_bucket``/``_sum``/
           ``_count`` are forbidden — so ``/metrics`` renders without
           series collisions.
NBL009     Lock discipline (interprocedural): a field the class ever
           mutates under a lock must be guarded at every mutation
           site outside ``__init__``; fields never guarded anywhere
           are a documented lock-free fast path and exempt.  Classes
           holding two locks must acquire them in one global order.
NBL010     Connection thread-affinity (interprocedural): a sqlite
           handle must not flow into closures or arguments shipped to
           another thread (``executor.submit``, ``threading.Thread``,
           executor ``.map``), directly or through a function whose
           parameter provably reaches such a sink.
NBL011     Blocking under lock (interprocedural): no ``execute``/
           ``commit``, untimed ``wait``, ``.result()``,
           ``time.sleep`` or blocking socket call while holding a
           ``threading`` lock — including transitively through
           helpers.  Designed single-writer flush sites are
           allowlisted in ``repro.analysis.concurrency``.
NBL012     Condition hygiene: ``Condition.wait`` only inside a
           while-predicate loop and only while holding the
           condition; ``notify``/``notify_all`` only with the owning
           lock held (lexically or at every call site).
NBL013     Versioned-table write discipline: no raw ``UPDATE`` /
           ``DELETE`` (or ``REPLACE``) against the versioned head
           tables (``_nebula_annotations`` / ``_nebula_attachments``)
           outside ``repro/versioning/`` — the commit log is the only
           writer that appends the paired history row.
=========  ==========================================================

Findings can be suppressed inline with ``# nebula-lint: ignore`` or
``# nebula-lint: ignore[NBL001,NBL004]`` on the flagged line, or via the
baseline file (see :mod:`repro.analysis.baseline`).
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..observability.stages import CANONICAL_STAGES
from ..versioning.schema import VERSIONED_TABLES
from .findings import Finding
from .resolve import (
    SAFE_MARK,
    CallResolver,
    Env,
    Safety,
    build_env,
    resolve_str,
)

#: Methods treated as SQL execution entry points.
EXECUTE_METHODS = frozenset({"execute", "executemany", "executescript"})

#: Modules allowed to assemble SQL text dynamically (the sqlgen layer).
SQL_BUILDER_WHITELIST = ("search/sqlgen.py",)

#: Registered transaction-boundary helper modules (NBL002 exemption).
BOUNDARY_HELPER_MODULES = ("resilience/boundaries.py",)

_SAVEPOINT_RE = re.compile(r"^\s*SAVEPOINT\s+(?P<name>\S+)", re.IGNORECASE)
_RELEASE_RE = re.compile(
    r"^\s*RELEASE\s+(?:SAVEPOINT\s+)?(?P<name>\S+)", re.IGNORECASE
)
_ROLLBACK_TO_RE = re.compile(
    r"^\s*ROLLBACK\s+TO\s+(?:SAVEPOINT\s+)?(?P<name>\S+)", re.IGNORECASE
)

def _is_test_path(path: str) -> bool:
    parts = path.replace("\\", "/").split("/")
    name = parts[-1]
    # Fixture modules under tests/fixtures/ are *linted as production
    # code*: they exist to exercise the rules, so the test-file
    # exemptions (NBL006 hygiene, etc.) must not apply to them.
    if "fixtures" in parts:
        return False
    return (
        "tests" in parts
        or name.startswith("test_")
        or name == "conftest.py"
    )


def _matches_any(path: str, suffixes: Sequence[str]) -> bool:
    normalized = path.replace("\\", "/")
    return any(normalized.endswith(suffix) for suffix in suffixes)


class ModuleContext:
    """Everything the rules need about one parsed module."""

    def __init__(self, path: str, tree: ast.Module, source: str) -> None:
        self.path = path
        self.tree = tree
        self.lines = source.splitlines()
        self.module_env: Env = build_env(tree.body)

    def snippet(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""


# ----------------------------------------------------------------------
# Function-scope walking helpers
# ----------------------------------------------------------------------


def _functions(tree: ast.Module) -> Iterator[ast.FunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _execute_calls(
    scope_body: Sequence[ast.stmt],
) -> Iterator[Tuple[ast.Call, str]]:
    """Yield (call, method_name) for execute-shaped calls in a scope.

    Covers attribute calls (``conn.execute(...)``), bare-name calls
    (local wrappers named ``execute``), and locally aliased methods
    (``run = cur.execute; run(...)``) — the alias set is resolved by the
    caller via :func:`_execute_aliases`.
    """
    aliases = _execute_aliases(scope_body)
    for node in ast.walk(_wrap(scope_body)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in EXECUTE_METHODS:
            yield node, func.attr
        elif isinstance(func, ast.Name) and (
            func.id in EXECUTE_METHODS or func.id in aliases
        ):
            yield node, aliases.get(func.id, func.id)


def _execute_aliases(scope_body: Sequence[ast.stmt]) -> Dict[str, str]:
    """Local names bound to an execute method: ``run = cursor.execute``."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(_wrap(scope_body)):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr in EXECUTE_METHODS
        ):
            aliases[node.targets[0].id] = node.value.attr
    return aliases


def _wrap(body: Sequence[ast.stmt]) -> ast.Module:
    module = ast.Module(body=list(body), type_ignores=[])
    return module


def _sql_argument(call: ast.Call) -> Optional[ast.expr]:
    if call.args:
        return call.args[0]
    for keyword in call.keywords:
        if keyword.arg == "sql":
            return keyword.value
    return None


def _own_statements(func: ast.FunctionDef) -> List[ast.stmt]:
    """The function's statements excluding nested function/class bodies."""
    collected: List[ast.stmt] = []

    def visit(stmts: Sequence[ast.stmt]) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            collected.append(stmt)
            for attr in ("body", "orelse", "finalbody"):
                block = getattr(stmt, attr, None)
                if isinstance(block, list) and block and isinstance(block[0], ast.stmt):
                    visit(block)
            for handler in getattr(stmt, "handlers", None) or []:
                visit(handler.body)

    visit(func.body)
    return collected


# ----------------------------------------------------------------------
# NBL001 — SQL safety
# ----------------------------------------------------------------------


def check_sql_safety(
    ctx: ModuleContext, call_resolver: Optional[CallResolver] = None
) -> Iterator[Finding]:
    """NBL001 at execute sites.

    With the default ``call_resolver=None`` this is the PR-3
    per-statement check, bit for bit: an opaque call at the execute
    site resolves UNKNOWN and is trusted.  The engine passes the
    :class:`~repro.analysis.interproc.SqlFlowIndex` resolver, which
    makes calls into unsafe-returning project helpers resolve UNSAFE —
    the interprocedural upgrade rides on the same check.
    """
    if _matches_any(ctx.path, SQL_BUILDER_WHITELIST):
        return
    funcs = list(_functions(ctx.tree))
    env_cache: Dict[int, Env] = {}

    def env_for(lineno: int) -> Env:
        # Innermost enclosing function scope (largest start line wins).
        best: Optional[ast.FunctionDef] = None
        for func in funcs:
            end = getattr(func, "end_lineno", None) or func.lineno
            if func.lineno <= lineno <= end:
                if best is None or func.lineno >= best.lineno:
                    best = func
        if best is None:
            return ctx.module_env
        if id(best) not in env_cache:
            env_cache[id(best)] = build_env(
                best.body, ctx.module_env, call_resolver=call_resolver
            )
        return env_cache[id(best)]

    for call, method in _execute_calls(ctx.tree.body):
        argument = _sql_argument(call)
        if argument is None:
            continue
        resolved = resolve_str(argument, env_for(call.lineno), call_resolver)
        if resolved.safety is not Safety.UNSAFE:
            continue
        yield Finding(
            rule_id="NBL001",
            path=ctx.path,
            line=call.lineno,
            message=(
                f"string-built SQL reaches {method}(): "
                f"unsafe piece {resolved.cause!r}"
            ),
            fix_hint=(
                "bind values with '?' placeholders; interpolate "
                "identifiers only through quote_identifier()"
            ),
            snippet=ctx.snippet(call.lineno),
            details={
                "method": method,
                "cause": resolved.cause,
                "end_line": getattr(call, "end_lineno", None) or call.lineno,
            },
        )


# ----------------------------------------------------------------------
# NBL002 — SAVEPOINT pairing
# ----------------------------------------------------------------------


def _savepoint_name(text: str) -> str:
    """Normalize an extracted savepoint name; safe markers are wildcards."""
    name = text.strip().strip(';"')
    if SAFE_MARK in name or not name:
        return "*"
    return name.casefold()


def check_savepoint_pairing(ctx: ModuleContext) -> Iterator[Finding]:
    if _matches_any(ctx.path, BOUNDARY_HELPER_MODULES):
        return
    for func in _functions(ctx.tree):
        env = build_env(func.body, ctx.module_env)
        opened: List[Tuple[str, int]] = []
        closed: Set[str] = set()
        for call, _method in _execute_calls(func.body):
            argument = _sql_argument(call)
            if argument is None:
                continue
            resolved = resolve_str(argument, env)
            if resolved.text is None:
                continue
            match = _SAVEPOINT_RE.match(resolved.text)
            if match and not _RELEASE_RE.match(resolved.text):
                opened.append((_savepoint_name(match.group("name")), call.lineno))
            for pattern in (_RELEASE_RE, _ROLLBACK_TO_RE):
                ended = pattern.match(resolved.text)
                if ended:
                    closed.add(_savepoint_name(ended.group("name")))
        for name, lineno in opened:
            if name in closed or "*" in closed or name == "*" and closed:
                continue
            yield Finding(
                rule_id="NBL002",
                path=ctx.path,
                line=lineno,
                message=(
                    f"SAVEPOINT {name!r} has no matching RELEASE/ROLLBACK TO "
                    f"in function {_enclosing_name(ctx, lineno)!r}"
                ),
                fix_hint=(
                    "pair the SAVEPOINT in the same function or use the "
                    "repro.resilience.boundaries.Savepoint helper"
                ),
                snippet=ctx.snippet(lineno),
                details={"savepoint": name},
            )


def _enclosing_name(ctx: ModuleContext, lineno: int) -> str:
    best = "<module>"
    for func in _functions(ctx.tree):
        end = getattr(func, "end_lineno", None) or func.lineno
        if func.lineno <= lineno <= end:
            best = func.name
    return best


# ----------------------------------------------------------------------
# NBL004 — edge-weight invariants
# ----------------------------------------------------------------------


def check_edge_weights(ctx: ModuleContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        # TRUE_EDGE_WEIGHT must be exactly 1.0 wherever it is (re)defined.
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if (
                isinstance(target, ast.Name)
                and target.id == "TRUE_EDGE_WEIGHT"
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, (int, float))
                and float(node.value.value) != 1.0
            ):
                yield Finding(
                    rule_id="NBL004",
                    path=ctx.path,
                    line=node.lineno,
                    message=(
                        f"TRUE_EDGE_WEIGHT is {node.value.value!r}; true edges "
                        "carry weight exactly 1.0 (paper Figure 2)"
                    ),
                    fix_hint="set TRUE_EDGE_WEIGHT = 1.0",
                    snippet=ctx.snippet(node.lineno),
                )
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        method = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None
        )
        if method not in ("attach_predicted", "attach_true", "attach"):
            continue
        confidence: Optional[float] = None
        line = node.lineno
        for keyword in node.keywords:
            if (
                keyword.arg == "confidence"
                and isinstance(keyword.value, ast.Constant)
                and isinstance(keyword.value.value, (int, float))
            ):
                confidence = float(keyword.value.value)
        if confidence is None:
            continue
        kind = method
        if method == "attach":
            kind_text = ""
            for keyword in node.keywords:
                if keyword.arg == "kind":
                    kind_text = ast.unparse(keyword.value)
            if "PREDICTED" in kind_text:
                kind = "attach_predicted"
            elif "TRUE" in kind_text:
                kind = "attach_true"
            else:
                continue
        if kind == "attach_predicted" and not 0.0 < confidence < 1.0:
            yield Finding(
                rule_id="NBL004",
                path=ctx.path,
                line=line,
                message=(
                    f"predicted attachment carries confidence {confidence}; "
                    "predicted-edge weights must lie strictly in (0, 1)"
                ),
                fix_hint="use a confidence in (0, 1), or attach a true edge",
                snippet=ctx.snippet(line),
            )
        elif kind == "attach_true" and confidence != 1.0:
            yield Finding(
                rule_id="NBL004",
                path=ctx.path,
                line=line,
                message=(
                    f"true attachment carries confidence {confidence}; "
                    "true edges carry weight exactly 1.0"
                ),
                fix_hint="drop the confidence argument (true edges are weight 1.0)",
                snippet=ctx.snippet(line),
            )


# ----------------------------------------------------------------------
# NBL005 — span-name registry
# ----------------------------------------------------------------------

_TRACER_RECEIVER_RE = re.compile(r"(^|\.)_?tracer$", re.IGNORECASE)


def check_span_registry(ctx: ModuleContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "span"
                and _TRACER_RECEIVER_RE.search(ast.unparse(func.value))
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                name = node.args[0].value
                if name not in CANONICAL_STAGES:
                    yield Finding(
                        rule_id="NBL005",
                        path=ctx.path,
                        line=node.lineno,
                        message=(
                            f"span name {name!r} is not in the canonical stage "
                            "registry (repro.observability.stages)"
                        ),
                        fix_hint=(
                            "register the stage in CANONICAL_STAGES or reuse "
                            "an existing stage name"
                        ),
                        snippet=ctx.snippet(node.lineno),
                        details={"span": name},
                    )


# ----------------------------------------------------------------------
# NBL006 — resource hygiene
# ----------------------------------------------------------------------


#: Receivers whose ``.acquire()`` / ``.open_reader()`` results are leased
#: storage handles (as opposed to, say, a threading lock's acquire).
_POOLISH_RECEIVER_RE = re.compile(r"(pool|backend|storage)", re.IGNORECASE)


def _is_resource_call(node: ast.expr) -> Optional[str]:
    """The resource kind when ``node`` opens a storage handle.

    Recognized shapes: driver connects (``sqlite3.connect(...)`` and the
    compatibility adapter's ``compat.connect(...)``), ``.cursor()``, and
    the backend layer's leases — ``<pool-ish>.acquire(...)`` /
    ``<pool-ish>.open_reader()``.
    The service layer's reader-ladder helpers (``acquire_reader`` /
    ``_acquire_reader``) count on *any* receiver: the name alone marks
    the result as a held read handle that must be released.
    """
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Attribute):
        if func.attr == "connect" and isinstance(func.value, ast.Name) and (
            func.value.id in ("sqlite3", "compat")
        ):
            return "connect"
        if func.attr == "cursor":
            return "cursor"
        if func.attr in ("acquire_reader", "_acquire_reader"):
            return "reader"
        if func.attr in ("acquire", "open_reader") and _POOLISH_RECEIVER_RE.search(
            ast.unparse(func.value)
        ):
            return "lease" if func.attr == "acquire" else "reader"
    return None


def check_resource_hygiene(ctx: ModuleContext) -> Iterator[Finding]:
    if _is_test_path(ctx.path):
        return
    for func in _functions(ctx.tree):
        statements = _own_statements(func)
        module = _wrap(statements)
        opened: Dict[str, Tuple[int, str]] = {}
        for stmt in statements:
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
            ):
                kind = _is_resource_call(stmt.value)
                if kind is not None:
                    opened[stmt.targets[0].id] = (stmt.lineno, kind)
        if not opened:
            continue
        escaped: Set[str] = set()
        for node in ast.walk(module):
            if isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
                value = node.value
                if isinstance(value, ast.Name):
                    escaped.add(value.id)
            elif isinstance(node, ast.Assign):
                if isinstance(node.targets[0], ast.Attribute) and isinstance(
                    node.value, ast.Name
                ):
                    escaped.add(node.value.id)
            elif isinstance(node, ast.Call):
                func_node = node.func
                # x.close() / x.release() — explicit cleanup (release is
                # how a pool lease returns its connection).
                if (
                    isinstance(func_node, ast.Attribute)
                    and func_node.attr in ("close", "release")
                    and isinstance(func_node.value, ast.Name)
                ):
                    escaped.add(func_node.value.id)
                    continue
                # Handed to another component (incl. contextlib.closing).
                # An attribute hand-off (``handle.connection``, a bound
                # ``handle.release``) escapes the handle too: whoever
                # received it owns the cleanup now.
                for arg in list(node.args) + [k.value for k in node.keywords]:
                    if isinstance(arg, ast.Name):
                        escaped.add(arg.id)
                    elif isinstance(arg, ast.Attribute) and isinstance(
                        arg.value, ast.Name
                    ):
                        escaped.add(arg.value.id)
            elif isinstance(node, ast.With):
                for item in node.items:
                    expr = item.context_expr
                    if isinstance(expr, ast.Name):
                        escaped.add(expr.id)
        for name, (lineno, kind) in opened.items():
            if name in escaped:
                continue
            yield Finding(
                rule_id="NBL006",
                path=ctx.path,
                line=lineno,
                message=(
                    f"storage {kind} result {name!r} in {func.name!r} is "
                    "neither closed/released, context-managed, nor handed off"
                ),
                fix_hint=(
                    "wrap in `with contextlib.closing(...)` (or use the "
                    f"lease as a context manager) or call `{name}.close()` "
                    "on every path"
                ),
                snippet=ctx.snippet(lineno),
                details={"variable": name, "kind": kind},
            )


# ----------------------------------------------------------------------
# NBL007 — driver-import isolation
# ----------------------------------------------------------------------

#: The only package allowed to import the sqlite3 driver directly.
STORAGE_PACKAGE_MARKER = "repro/storage/"


def check_driver_imports(ctx: ModuleContext) -> Iterator[Finding]:
    """Flag direct ``sqlite3`` imports (plain or ``from``-style) outside
    the storage package (tests are exempt)."""
    if _is_test_path(ctx.path):
        return
    normalized = ctx.path.replace("\\", "/")
    if STORAGE_PACKAGE_MARKER in normalized:
        return
    for node in ast.walk(ctx.tree):
        imported: Optional[str] = None
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "sqlite3" or alias.name.startswith("sqlite3."):
                    imported = alias.name
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and (
                module == "sqlite3" or module.startswith("sqlite3.")
            ):
                imported = module
        if imported is None:
            continue
        yield Finding(
            rule_id="NBL007",
            path=ctx.path,
            line=node.lineno,
            message=(
                f"direct {imported!r} import outside repro/storage/ — the "
                "driver is reachable only through the storage backend layer"
            ),
            fix_hint=(
                "import Connection/Cursor/connect from repro.storage.compat "
                "(or take a SqliteFileBackend handle) instead of sqlite3"
            ),
            snippet=ctx.snippet(node.lineno),
            details={"module": imported},
        )


# ----------------------------------------------------------------------
# NBL008 — metric naming
# ----------------------------------------------------------------------

#: Receivers whose counter/gauge/histogram calls mint registry metrics.
_METRIC_RECEIVER_RE = re.compile(
    r"(^|\.)(_?(metrics|registry)|get_metrics\(\))$", re.IGNORECASE
)

#: The exposition naming grammar: nebula_-prefixed snake_case.
_METRIC_NAME_RE = re.compile(r"^nebula_[a-z0-9]+(_[a-z0-9]+)*$")

#: Series suffixes the Prometheus exposition reserves for histogram
#: output (``render_metrics`` appends them to every histogram family).
_RESERVED_METRIC_SUFFIXES = ("_bucket", "_sum", "_count")

#: The registry's instrument factory methods.
_METRIC_FACTORIES = frozenset({"counter", "gauge", "histogram"})


def _metric_name_argument(call: ast.Call) -> Optional[str]:
    """The literal instrument name at a factory call site, if any."""
    candidates = list(call.args[:1]) + [
        keyword.value for keyword in call.keywords if keyword.arg == "name"
    ]
    for argument in candidates:
        if isinstance(argument, ast.Constant) and isinstance(argument.value, str):
            return argument.value
    return None


def _histogram_observes_time(call: ast.Call) -> bool:
    """Whether a ``histogram(...)`` call uses the time buckets.

    True when the buckets argument is (or dotted-ends with) the
    ``TIME_BUCKETS`` constant — or is omitted, since ``TIME_BUCKETS``
    is the registry's default.
    """
    candidates = list(call.args[1:2]) + [
        keyword.value for keyword in call.keywords if keyword.arg == "buckets"
    ]
    if not candidates:
        return True
    return any(
        ast.unparse(argument).endswith("TIME_BUCKETS") for argument in candidates
    )


def _metric_name_problem(name: str, factory: str, call: ast.Call) -> Optional[str]:
    """The NBL008 violation message for one (name, factory) pair, if any."""
    if not _METRIC_NAME_RE.match(name):
        return (
            f"metric name {name!r} is not nebula_-prefixed snake_case "
            "(^nebula_[a-z0-9]+(_[a-z0-9]+)*$)"
        )
    for suffix in _RESERVED_METRIC_SUFFIXES:
        if name.endswith(suffix):
            return (
                f"metric name {name!r} ends with {suffix!r}, which the "
                "exposition format reserves for histogram series"
            )
    if factory == "counter" and not name.endswith("_total"):
        return f"counter {name!r} must carry the '_total' unit suffix"
    if factory != "counter" and name.endswith("_total"):
        return f"{factory} {name!r} may not end '_total' (counters only)"
    if (
        factory == "histogram"
        and _histogram_observes_time(call)
        and not name.endswith("_seconds")
    ):
        return (
            f"time histogram {name!r} (TIME_BUCKETS) must carry the "
            "'_seconds' unit suffix"
        )
    return None


def check_metric_naming(ctx: ModuleContext) -> Iterator[Finding]:
    """Flag literal metric names that break the exposition grammar."""
    if _is_test_path(ctx.path):
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (
            isinstance(func, ast.Attribute) and func.attr in _METRIC_FACTORIES
        ):
            continue
        if not _METRIC_RECEIVER_RE.search(ast.unparse(func.value)):
            continue
        name = _metric_name_argument(node)
        if name is None:
            continue
        problem = _metric_name_problem(name, func.attr, node)
        if problem is None:
            continue
        yield Finding(
            rule_id="NBL008",
            path=ctx.path,
            line=node.lineno,
            message=problem,
            fix_hint=(
                "use nebula_<layer>_<what>[_total|_seconds|_bytes]: "
                "snake_case, '_total' on counters, '_seconds' on time "
                "histograms, and never '_bucket'/'_sum'/'_count'"
            ),
            snippet=ctx.snippet(node.lineno),
            details={"metric": name, "factory": func.attr},
        )


# ----------------------------------------------------------------------
# NBL013 — versioned-table write discipline
# ----------------------------------------------------------------------

#: The one package allowed to mutate the versioned head tables in
#: place: its :class:`~repro.versioning.log.CommitLog` appends the
#: matching history row inside the same transaction, which is exactly
#: the invariant a raw UPDATE/DELETE elsewhere would silently break.
VERSIONING_WRITER_PACKAGE = "repro/versioning/"

#: In-place writes against a versioned table.  ``REPLACE INTO`` /
#: ``INSERT OR REPLACE`` are implicit DELETEs and count; plain INSERT
#: does not (the store inserts head rows and logs them separately).
#: The table names are anchored with ``\b`` so the singular
#: ``_nebula_annotation_history`` append tables never match.
_VERSIONED_WRITE_RE = re.compile(
    r"\b(?:UPDATE|DELETE\s+FROM|REPLACE\s+INTO|INSERT\s+OR\s+REPLACE\s+INTO)\s+"
    r'["\'`]?(?P<table>' + "|".join(VERSIONED_TABLES) + r")\b",
    re.IGNORECASE,
)


def _in_versioning_package(path: str) -> bool:
    return VERSIONING_WRITER_PACKAGE in path.replace("\\", "/")


def check_versioned_writes(ctx: ModuleContext) -> Iterator[Finding]:
    """NBL013: raw UPDATE/DELETE against a versioned table.

    ``_nebula_annotations`` / ``_nebula_attachments`` are the
    materialized head of the commit log; every in-place mutation must go
    through :mod:`repro.versioning` so the history append lands in the
    same transaction.  SQL that only *reads* those tables, and plain
    INSERTs (which the store pairs with a history append), stay legal
    everywhere.  Test modules are exempt — corrupting the head on
    purpose is how the recovery paths get exercised — but fixture
    modules under ``tests/fixtures/`` are linted as production code.
    """
    if _in_versioning_package(ctx.path) or _is_test_path(ctx.path):
        return
    funcs = list(_functions(ctx.tree))
    env_cache: Dict[int, Env] = {}

    def env_for(lineno: int) -> Env:
        best: Optional[ast.FunctionDef] = None
        for func in funcs:
            end = getattr(func, "end_lineno", None) or func.lineno
            if func.lineno <= lineno <= end:
                if best is None or func.lineno >= best.lineno:
                    best = func
        if best is None:
            return ctx.module_env
        if id(best) not in env_cache:
            env_cache[id(best)] = build_env(best.body, ctx.module_env)
        return env_cache[id(best)]

    for call, method in _execute_calls(ctx.tree.body):
        argument = _sql_argument(call)
        if argument is None:
            continue
        resolved = resolve_str(argument, env_for(call.lineno))
        if resolved.text is None:
            continue
        match = _VERSIONED_WRITE_RE.search(resolved.text)
        if match is None:
            continue
        yield Finding(
            rule_id="NBL013",
            path=ctx.path,
            line=call.lineno,
            message=(
                f"raw in-place write against versioned table "
                f"{match.group('table')!r} reaches {method}() outside "
                f"repro.versioning"
            ),
            fix_hint=(
                "route the mutation through repro.versioning.CommitLog "
                "(promote_attachment / delete_attachment / record_* ) so "
                "the history row is appended in the same transaction"
            ),
            snippet=ctx.snippet(call.lineno),
            details={
                "method": method,
                "table": match.group("table"),
                "end_line": getattr(call, "end_lineno", None) or call.lineno,
            },
        )


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

RULE_DOCS: Dict[str, str] = {
    "NBL001": "string-built SQL at an execute site",
    "NBL002": "SAVEPOINT without matching RELEASE/ROLLBACK TO",
    "NBL004": "edge-weight constants/literals violate Figure 2 semantics",
    "NBL005": "tracer span name missing from the canonical stage registry",
    "NBL006": "storage connection/cursor/lease opened without cleanup",
    "NBL007": "direct sqlite3 import outside the storage backend package",
    "NBL008": "metric name violates the exposition naming grammar",
    "NBL009": "lock-guarded field mutated without its lock / inconsistent lock order",
    "NBL010": "sqlite handle escapes into another thread (submit/Thread/map)",
    "NBL011": "blocking call (execute/commit/wait/result/sleep) while holding a lock",
    "NBL012": "Condition.wait outside a while-predicate loop, or wait/notify without the lock",
    "NBL013": "raw UPDATE/DELETE against a versioned table outside repro.versioning",
}

ALL_RULE_IDS: Tuple[str, ...] = tuple(sorted(RULE_DOCS))
