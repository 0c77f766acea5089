"""NBL009–NBL012: the interprocedural concurrency rules.

All four rules consume the same substrate — the project call graph
(:mod:`repro.analysis.graphs`) joined with per-function lock/field/wait
summaries (:mod:`repro.analysis.summaries`) — assembled once per run
into a :class:`ConcurrencyIndex`:

NBL009 — lock discipline
    A field the class ever mutates under a lock must be guarded at
    *every* mutation site outside ``__init__``.  Fields that are never
    lock-guarded anywhere are deliberately exempt: a single-writer
    design (the service's writer-thread counters) is a documented
    lock-free fast path, not a race.  A private ``*_locked``-style
    helper inherits its callers' guards when every intraclass call site
    holds a lock.  Classes with two or more locks must acquire them in
    one global order.

NBL010 — connection thread-affinity
    A sqlite handle opened through ``compat``/pool/``open_reader`` must
    not flow into work shipped to another thread: closures (or the
    handle itself) passed to ``executor.submit``/``executor.map``/
    ``threading.Thread``, directly or through a project function whose
    parameter provably reaches such a sink (the escape fixpoint).

NBL011 — blocking call under lock
    No ``execute``/``commit``, untimed ``Condition``/``Event`` wait,
    ``Submission.result``, ``time.sleep``, or blocking socket call
    while holding a ``threading`` lock — directly or transitively: a
    helper that blocks, called under a lock, is the same bug two frames
    deeper.  The single-writer flush sites listed in
    :data:`DESIGNED_BLOCKING_SITES` are the *designed* exception (the
    write lock exists precisely to serialize those flushes) and carry
    the justification here instead of inline noise.

NBL012 — condition-variable hygiene
    ``Condition.wait`` only inside a ``while``-predicate loop (wakeups
    are advisory), and only while holding the condition; ``notify``/
    ``notify_all`` only while holding the owning lock — lexically, or
    interprocedurally when every call site of the notifying helper
    holds it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from .findings import Finding
from .graphs import FunctionInfo, ProjectGraph
from .rules import ModuleContext, _is_resource_call, _matches_any
from .summaries import FieldWrite, MethodSummary, summarize_project

#: (path suffix, Class.method) pairs whose blocking-under-lock is the
#: design: the annotation service's single-writer flush paths hold the
#: write lock *in order to* serialize ``BEGIN``/insert/``COMMIT``
#: against last-resort reads on the primary connection.  Readers only
#: take that lock when every reader fallback is exhausted, and the lock
#: scope is exactly one coalesced batch — see docs/service.md.
DESIGNED_BLOCKING_SITES: Tuple[Tuple[str, str], ...] = (
    ("service/service.py", "AnnotationService._flush"),
    ("service/service.py", "AnnotationService._flush_individually"),
)

#: Executor-ish receivers whose ``.map`` ships work to worker threads.
_EXECUTORISH = ("executor", "pool", "thread", "workers")


@dataclass
class ConcurrencyIndex:
    """Summaries + blocking/escape fixpoints over the call graph."""

    graph: ProjectGraph
    summaries: Dict[str, MethodSummary] = field(default_factory=dict)
    #: qualname -> (kind, human chain) for functions that may block.
    may_block: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    #: qualname -> param names that reach a thread sink inside.
    thread_escapes: Dict[str, Tuple[str, ...]] = field(default_factory=dict)

    @classmethod
    def build(cls, graph: ProjectGraph) -> "ConcurrencyIndex":
        index = cls(graph=graph, summaries=summarize_project(graph))
        index._compute_may_block()
        index._compute_thread_escapes()
        return index

    # -- NBL011 substrate ----------------------------------------------

    def _compute_may_block(self) -> None:
        for qualname, summary in self.summaries.items():
            if summary.blocking_ops:
                op = summary.blocking_ops[0]
                self.may_block[qualname] = (
                    op.kind,
                    f"{summary.func.display}() {op.kind}s at "
                    f"{_tail(summary.func.module.path)}:{op.lineno}",
                )
        changed = True
        while changed:
            changed = False
            for qualname, func in self.graph.functions.items():
                if qualname in self.may_block:
                    continue
                for site in func.call_sites:
                    blocked = next(
                        (
                            c
                            for c in site.candidates
                            if c in self.may_block
                        ),
                        None,
                    )
                    if blocked is None:
                        continue
                    kind, chain = self.may_block[blocked]
                    self.may_block[qualname] = (
                        kind,
                        f"{func.display}() -> {chain}",
                    )
                    changed = True
                    break

    # -- NBL010 substrate ----------------------------------------------

    def _function_conn_vars(self, func: FunctionInfo) -> Dict[str, int]:
        """Local name -> line for handles opened from resource calls."""
        out: Dict[str, int] = {}
        for node in _own_walk(func.node):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and _is_resource_call(node.value) is not None
            ):
                out[node.targets[0].id] = node.lineno
        return out

    def _local_closures(
        self, func: FunctionInfo
    ) -> Dict[str, Set[str]]:
        """Nested def name -> free variable names it captures."""
        out: Dict[str, Set[str]] = {}
        for node in ast.walk(func.node):
            if node is func.node or not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            out[node.name] = _free_names(node)
        return out

    def _sink_hits(
        self, func: FunctionInfo, conn_vars: Set[str]
    ) -> Iterator[Tuple[ast.Call, str, str]]:
        """(call, conn name, how) for conn values reaching thread sinks."""
        closures = self._local_closures(func)

        def carried(expr: ast.expr) -> Optional[Tuple[str, str]]:
            if isinstance(expr, ast.Name):
                if expr.id in conn_vars:
                    return expr.id, "handle"
                captured = closures.get(expr.id, set()) & conn_vars
                if captured:
                    return sorted(captured)[0], f"closure {expr.id!r}"
            if isinstance(expr, ast.Lambda):
                captured = _free_names(expr) & conn_vars
                if captured:
                    return sorted(captured)[0], "lambda"
            if isinstance(expr, (ast.Tuple, ast.List)):
                for elt in expr.elts:
                    hit = carried(elt)
                    if hit is not None:
                        return hit
            return None

        for node in _own_walk(func.node):
            if not isinstance(node, ast.Call):
                continue
            kind = _sink_kind(node, func)
            if kind is None:
                continue
            for argument in list(node.args) + [
                kw.value for kw in node.keywords
            ]:
                hit = carried(argument)
                if hit is not None:
                    name, how = hit
                    yield node, name, f"{how} -> {kind}"

    def _escape_call_hits(
        self, func: FunctionInfo, conn_vars: Set[str]
    ) -> Iterator[Tuple[ast.Call, str, str]]:
        """conn values handed into another function's escaping param."""
        for site in func.call_sites:
            for candidate in site.candidates:
                escaping = set(self.thread_escapes.get(candidate, ()))
                if not escaping:
                    continue
                callee = self.graph.functions[candidate]
                names = _callee_params(callee)
                for position, argument in enumerate(site.call.args):
                    if (
                        position < len(names)
                        and names[position] in escaping
                        and isinstance(argument, ast.Name)
                        and argument.id in conn_vars
                    ):
                        yield (
                            site.call,
                            argument.id,
                            f"{callee.display}({names[position]}=...) "
                            "hands it to a worker thread",
                        )
                for keyword in site.call.keywords:
                    if (
                        keyword.arg in escaping
                        and isinstance(keyword.value, ast.Name)
                        and keyword.value.id in conn_vars
                    ):
                        yield (
                            site.call,
                            keyword.value.id,
                            f"{callee.display}({keyword.arg}=...) "
                            "hands it to a worker thread",
                        )

    def _compute_thread_escapes(self) -> None:
        changed = True
        rounds = 0
        while changed and rounds < 10:
            changed = False
            rounds += 1
            for qualname, func in self.graph.functions.items():
                known = set(self.thread_escapes.get(qualname, ()))
                for param in _callee_params(func):
                    if param in known:
                        continue
                    hits = list(self._sink_hits(func, {param})) + list(
                        self._escape_call_hits(func, {param})
                    )
                    if hits:
                        known.add(param)
                        changed = True
                if known:
                    self.thread_escapes[qualname] = tuple(sorted(known))


# ----------------------------------------------------------------------
# NBL009 — lock discipline
# ----------------------------------------------------------------------


def check_lock_discipline(
    ctx: ModuleContext, index: ConcurrencyIndex
) -> Iterator[Finding]:
    modinfo = index.graph.by_path.get(ctx.path)
    if modinfo is None:
        return
    for cls in modinfo.classes.values():
        writes: Dict[str, List[Tuple[FieldWrite, MethodSummary]]] = {}
        pairs: List[Tuple[str, str, int, str]] = []
        for method in cls.methods.values():
            summary = index.summaries.get(method.qualname)
            if summary is None:
                continue
            inherited = _inherited_guards(index, cls.name, method)
            for write in summary.field_writes:
                effective = write.guards | inherited
                writes.setdefault(write.field, []).append(
                    (
                        FieldWrite(
                            field=write.field,
                            lineno=write.lineno,
                            end_line=write.end_line,
                            guards=effective,
                            in_init=write.in_init,
                            via=write.via,
                        ),
                        summary,
                    )
                )
            for held, acquired, lineno in summary.lock_pairs:
                pairs.append((held, acquired, lineno, method.display))

        for field_name, sites in sorted(writes.items()):
            locked = [
                (w, s) for w, s in sites if w.guards and not w.in_init
            ]
            unlocked = [
                (w, s) for w, s in sites if not w.guards and not w.in_init
            ]
            if not locked or not unlocked:
                continue
            guard = sorted(locked[0][0].guards)[0]
            guarded_in = locked[0][1].func.display
            for write, summary in unlocked:
                yield Finding(
                    rule_id="NBL009",
                    path=ctx.path,
                    line=write.lineno,
                    message=(
                        f"{cls.name}.{field_name} is mutated under {guard} "
                        f"in {guarded_in}() but written without a lock in "
                        f"{summary.func.display}() — every mutation site "
                        "must hold the same guard"
                    ),
                    fix_hint=(
                        f"wrap the write in `with {guard}:` (or document "
                        "the field as single-writer and drop the lock at "
                        "the other sites)"
                    ),
                    snippet=ctx.snippet(write.lineno),
                    details={
                        "class": cls.name,
                        "field": field_name,
                        "guard": guard,
                        "end_line": write.end_line,
                    },
                )

        yield from _lock_order_findings(ctx, cls.name, pairs)


def _lock_order_findings(
    ctx: ModuleContext,
    class_name: str,
    pairs: List[Tuple[str, str, int, str]],
) -> Iterator[Finding]:
    first_seen: Dict[Tuple[str, str], Tuple[int, str]] = {}
    for held, acquired, lineno, method in pairs:
        if held == acquired:
            continue
        key = (held, acquired)
        if key not in first_seen:
            first_seen[key] = (lineno, method)
    reported: Set[FrozenSet[str]] = set()
    for (held, acquired), (lineno, method) in sorted(
        first_seen.items(), key=lambda item: item[1][0]
    ):
        inverse = first_seen.get((acquired, held))
        unordered = frozenset((held, acquired))
        if inverse is None or unordered in reported:
            continue
        reported.add(unordered)
        other_line, other_method = inverse
        line = max(lineno, other_line)
        yield Finding(
            rule_id="NBL009",
            path=ctx.path,
            line=line,
            message=(
                f"{class_name} acquires {held} then {acquired} in "
                f"{method}() (line {lineno}) but {acquired} then {held} "
                f"in {other_method}() (line {other_line}) — inconsistent "
                "lock order can deadlock"
            ),
            fix_hint="pick one global acquisition order for the class's locks",
            snippet=ctx.snippet(line),
            details={
                "class": class_name,
                "locks": sorted(unordered),
            },
        )


def _inherited_guards(
    index: ConcurrencyIndex, class_name: str, method: FunctionInfo
) -> FrozenSet[str]:
    """Guards a private helper inherits from its intraclass callers.

    When every call site of ``_helper`` inside the class holds a lock,
    writes inside ``_helper`` are effectively guarded by the
    intersection of those call-site guard sets (the ``*_locked`` helper
    idiom).  Public methods inherit nothing: they are callable from
    anywhere.
    """
    if not method.name.startswith("_") or method.name.startswith("__"):
        return frozenset()
    guard_sets: List[FrozenSet[str]] = []
    for sibling in method.module.classes[class_name].methods.values():
        if sibling.qualname == method.qualname:
            continue
        summary = index.summaries.get(sibling.qualname)
        if summary is None:
            continue
        for site in sibling.call_sites:
            if method.qualname in site.candidates:
                guard_sets.append(
                    summary.guards_at.get(id(site.call), frozenset())
                )
    if not guard_sets or any(not guards for guards in guard_sets):
        return frozenset()
    inherited = set(guard_sets[0])
    for guards in guard_sets[1:]:
        inherited &= guards
    return frozenset(inherited)


# ----------------------------------------------------------------------
# NBL010 — connection thread-affinity
# ----------------------------------------------------------------------


def check_thread_affinity(
    ctx: ModuleContext, index: ConcurrencyIndex
) -> Iterator[Finding]:
    modinfo = index.graph.by_path.get(ctx.path)
    if modinfo is None:
        return
    for func in modinfo.functions.values():
        conn_vars = index._function_conn_vars(func)
        if not conn_vars:
            continue
        names = set(conn_vars)
        seen: Set[Tuple[int, str]] = set()
        hits = list(index._sink_hits(func, names)) + list(
            index._escape_call_hits(func, names)
        )
        for call, conn_name, how in hits:
            key = (call.lineno, conn_name)
            if key in seen:
                continue
            seen.add(key)
            yield Finding(
                rule_id="NBL010",
                path=ctx.path,
                line=call.lineno,
                message=(
                    f"sqlite handle {conn_name!r} (opened at line "
                    f"{conn_vars[conn_name]}) crosses a thread boundary: "
                    f"{how} — sqlite handles are thread-affine"
                ),
                fix_hint=(
                    "open the connection inside the worker (one handle "
                    "per thread) instead of capturing the caller's handle"
                ),
                snippet=ctx.snippet(call.lineno),
                details={
                    "variable": conn_name,
                    "opened_line": conn_vars[conn_name],
                    "end_line": getattr(call, "end_lineno", None)
                    or call.lineno,
                },
            )


# ----------------------------------------------------------------------
# NBL011 — blocking call under lock
# ----------------------------------------------------------------------


def _is_designed_blocking(func: FunctionInfo) -> bool:
    for suffix, qualified in DESIGNED_BLOCKING_SITES:
        if (
            _matches_any(func.module.path, (suffix,))
            and func.display == qualified
        ):
            return True
    return False


def check_blocking_under_lock(
    ctx: ModuleContext, index: ConcurrencyIndex
) -> Iterator[Finding]:
    modinfo = index.graph.by_path.get(ctx.path)
    if modinfo is None:
        return
    for func in modinfo.functions.values():
        if func.name == "__init__":
            # Construction happens before the object is shared; a lock
            # taken there cannot contend with another thread yet.
            continue
        if _is_designed_blocking(func):
            continue
        summary = index.summaries.get(func.qualname)
        if summary is None:
            continue
        flagged_lines: Set[int] = set()
        for op in summary.blocking_ops:
            if not op.guards:
                continue
            flagged_lines.add(op.lineno)
            held = ", ".join(sorted(op.guards))
            yield Finding(
                rule_id="NBL011",
                path=ctx.path,
                line=op.lineno,
                message=(
                    f"blocking {op.kind} ({op.detail}) while holding "
                    f"{held} in {func.display}() — lock hold times must "
                    "stay bounded"
                ),
                fix_hint=(
                    "move the blocking call outside the lock, or bound "
                    "it with a timeout"
                ),
                snippet=ctx.snippet(op.lineno),
                details={
                    "kind": op.kind,
                    "guards": sorted(op.guards),
                    "end_line": op.end_line,
                },
            )
        for site in func.call_sites:
            guards = summary.guards_at.get(id(site.call), frozenset())
            if not guards or site.lineno in flagged_lines:
                continue
            blocked = next(
                (c for c in site.candidates if c in index.may_block), None
            )
            if blocked is None:
                continue
            kind, chain = index.may_block[blocked]
            held = ", ".join(sorted(guards))
            flagged_lines.add(site.lineno)
            yield Finding(
                rule_id="NBL011",
                path=ctx.path,
                line=site.lineno,
                message=(
                    f"call to {site.callee_text}() while holding {held} "
                    f"in {func.display}() blocks transitively: {chain}"
                ),
                fix_hint=(
                    "hoist the blocking work out of the locked region "
                    "(probe/create connections outside the lock, mutate "
                    "state inside it)"
                ),
                snippet=ctx.snippet(site.lineno),
                details={
                    "kind": kind,
                    "guards": sorted(guards),
                    "chain": chain,
                    "end_line": getattr(site.call, "end_lineno", None)
                    or site.lineno,
                },
            )


# ----------------------------------------------------------------------
# NBL012 — condition-variable hygiene
# ----------------------------------------------------------------------


def check_condition_hygiene(
    ctx: ModuleContext, index: ConcurrencyIndex
) -> Iterator[Finding]:
    modinfo = index.graph.by_path.get(ctx.path)
    if modinfo is None:
        return
    for func in modinfo.functions.values():
        summary = index.summaries.get(func.qualname)
        if summary is None:
            continue
        for wait in summary.cond_waits:
            if wait.key not in wait.guards:
                yield Finding(
                    rule_id="NBL012",
                    path=ctx.path,
                    line=wait.lineno,
                    message=(
                        f"{wait.key}.wait() in {func.display}() without "
                        f"holding {wait.key} — wait() requires its own "
                        "lock (RuntimeError at runtime, lost wakeups in "
                        "tests)"
                    ),
                    fix_hint=f"wrap the wait in `with {wait.key}:`",
                    snippet=ctx.snippet(wait.lineno),
                    details={"condition": wait.key, "end_line": wait.end_line},
                )
            elif not wait.in_while:
                yield Finding(
                    rule_id="NBL012",
                    path=ctx.path,
                    line=wait.lineno,
                    message=(
                        f"{wait.key}.wait() in {func.display}() is not "
                        "inside a while-predicate loop — wakeups are "
                        "advisory (spurious wakeups, stolen items), so "
                        "the predicate must be re-checked after every "
                        "wait"
                    ),
                    fix_hint=(
                        "loop `while not <predicate>:` around the wait "
                        "and re-check after waking"
                    ),
                    snippet=ctx.snippet(wait.lineno),
                    details={"condition": wait.key, "end_line": wait.end_line},
                )
        for notify in summary.cond_notifies:
            if notify.key in notify.guards:
                continue
            if _all_callers_hold(index, func, notify.key):
                continue
            yield Finding(
                rule_id="NBL012",
                path=ctx.path,
                line=notify.lineno,
                message=(
                    f"{notify.key}.{notify.method}() in {func.display}() "
                    f"without holding {notify.key} — notify requires the "
                    "owning lock"
                ),
                fix_hint=(
                    f"take `with {notify.key}:` around the state change "
                    "and the notify"
                ),
                snippet=ctx.snippet(notify.lineno),
                details={"condition": notify.key, "end_line": notify.end_line},
            )


def _all_callers_hold(
    index: ConcurrencyIndex, func: FunctionInfo, key: str
) -> bool:
    """Whether every project call site of ``func`` holds ``key``."""
    sites = 0
    for caller in index.graph.functions.values():
        summary = index.summaries.get(caller.qualname)
        if summary is None:
            continue
        for site in caller.call_sites:
            if func.qualname not in site.candidates:
                continue
            sites += 1
            if key not in summary.guards_at.get(id(site.call), frozenset()):
                return False
    return sites > 0


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------


def _tail(path: str, parts: int = 2) -> str:
    pieces = path.replace("\\", "/").split("/")
    return "/".join(pieces[-parts:])


def _own_walk(func_node: ast.AST) -> Iterator[ast.AST]:
    stack: List[ast.AST] = list(getattr(func_node, "body", []))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _callee_params(func: FunctionInfo) -> List[str]:
    args = func.node.args  # type: ignore[attr-defined]
    names = [a.arg for a in list(args.posonlyargs) + list(args.args)]
    if func.is_method and names and names[0] in ("self", "cls"):
        names = names[1:]
    return names


def _free_names(node: ast.AST) -> Set[str]:
    """Names a nested def/lambda reads but does not bind itself."""
    bound: Set[str] = set()
    args = getattr(node, "args", None)
    if args is not None:
        for arg in (
            list(args.posonlyargs)
            + list(args.args)
            + list(args.kwonlyargs)
            + ([args.vararg] if args.vararg else [])
            + ([args.kwarg] if args.kwarg else [])
        ):
            bound.add(arg.arg)
    loaded: Set[str] = set()
    body = getattr(node, "body", [])
    nodes = body if isinstance(body, list) else [body]
    for child in nodes:
        for sub in ast.walk(child):
            if isinstance(sub, ast.Name):
                if isinstance(sub.ctx, ast.Load):
                    loaded.add(sub.id)
                else:
                    bound.add(sub.id)
    return loaded - bound


def _sink_kind(call: ast.Call, func: FunctionInfo) -> Optional[str]:
    """The thread-boundary kind of a call, if it ships work to threads."""
    callee = call.func
    if isinstance(callee, ast.Attribute):
        if callee.attr == "submit":
            return "submit"
        if callee.attr == "map":
            receiver = ast.unparse(callee.value).lower()
            if any(marker in receiver for marker in _EXECUTORISH):
                return "map"
        if callee.attr == "Thread" and isinstance(callee.value, ast.Name):
            target = func.module.imports.get(callee.value.id, callee.value.id)
            if target == "threading":
                return "Thread"
        return None
    if isinstance(callee, ast.Name):
        target = func.module.imports.get(callee.id, "")
        if target == "threading.Thread":
            return "Thread"
    return None
