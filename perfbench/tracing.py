"""Outside-in tracing: wrap public functions of the program from here.

A :class:`Tracer` replaces a function or method with a wrapper that
times each call and keeps a span stack per thread, so a span's *self
time* is its duration minus the durations of the spans nested in it on
the same thread.  Nothing under ``src/`` knows about it: the wrappers are
installed by :func:`install_layers` for the traced run only and removed
afterwards, leaving the program exactly as it was.

Every root span (a call with no wrapped caller on its thread) gets a
request id, and the spans nested in it share that id.  The id comes
from the call itself where the program has one (the batch id the service
writer passes to ``Nebula.insert_annotations``), else from
:meth:`Tracer.request`, which the load generator sets around each
operation it issues.

Totals per span name (calls, time, self time) are kept for every call;
full span records are kept in memory only for the first
``keep_requests`` requests, because a long run makes millions of spans.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

Hook = Callable[["ThreadState", tuple, dict, Any, float, float], None]
RequestOf = Callable[[tuple, dict], Optional[str]]


class ThreadState:
    """One thread's span stack, totals, counters and event records."""

    def __init__(self, thread_id: int) -> None:
        self.thread_id = thread_id
        #: One child-time accumulator per open span.
        self.stack: List[float] = []
        #: Request id set by the load generator for the next root span.
        self.request: Optional[str] = None
        self.root: Optional[str] = None
        self.keep = False
        self.auto_ids = 0
        #: name -> [calls, total seconds, self seconds].
        self.totals: Dict[str, List[float]] = {}
        #: Free-form counters and event lists filled by hooks.
        self.counters: Dict[str, float] = {}
        self.events: Dict[str, List[tuple]] = {}
        #: (request id, name, depth, start, end, self seconds).
        self.spans: List[Tuple[str, str, int, float, float, float]] = []

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def record(self, key: str, event: tuple) -> None:
        self.events.setdefault(key, []).append(event)


class Tracer:
    """Installs timing wrappers and aggregates what they record."""

    def __init__(self, keep_requests: int = 200) -> None:
        self.keep_requests = keep_requests
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[ThreadState] = []
        self._kept = itertools.count()
        #: (owner, attribute, original or None when it was inherited).
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- per-thread state ----------------------------------------------

    def state(self) -> ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = ThreadState(threading.get_ident())
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    @contextlib.contextmanager
    def request(self, request_id: str) -> Iterator[None]:
        """Give the root spans opened inside the block this request id."""
        state = self.state()
        previous, state.request = state.request, request_id
        try:
            yield
        finally:
            state.request = previous

    # -- installing wrappers -------------------------------------------

    def wrap(
        self,
        owner: Any,
        attribute: str,
        name: str,
        hook: Optional[Hook] = None,
        request_of: Optional[RequestOf] = None,
    ) -> None:
        """Replace ``owner.attribute`` with a timing wrapper named ``name``.

        ``owner`` is a class (the method is patched for every instance)
        or a module (patch a function where the caller looks it up).
        ``hook`` runs after each successful call with the thread state,
        the arguments, the result and the call's start and end times.
        """
        inherited = isinstance(owner, type) and attribute not in owner.__dict__
        raw = getattr(owner, attribute) if inherited else _raw_attribute(owner, attribute)
        if isinstance(raw, classmethod):
            patched: Any = classmethod(self._wrapper(raw.__func__, name, hook, request_of))
        elif isinstance(raw, staticmethod):
            patched = staticmethod(self._wrapper(raw.__func__, name, hook, request_of))
        else:
            patched = self._wrapper(raw, name, hook, request_of)
        setattr(owner, attribute, patched)
        self._patches.append((owner, attribute, None if inherited else raw))

    def uninstall(self) -> None:
        """Put every wrapped function back, newest patch first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            if original is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)

    @contextlib.contextmanager
    def installed(self, installer: Callable[["Tracer"], None]) -> Iterator["Tracer"]:
        installer(self)
        try:
            yield self
        finally:
            self.uninstall()

    def _wrapper(
        self,
        function: Callable[..., Any],
        name: str,
        hook: Optional[Hook],
        request_of: Optional[RequestOf],
    ) -> Callable[..., Any]:
        local = self._local
        new_state = self.state
        clock = time.perf_counter
        limit = self.keep_requests
        tracer = self

        @functools.wraps(function)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            state = getattr(local, "state", None) or new_state()
            stack = state.stack
            if not stack:
                request_id = request_of(args, kwargs) if request_of is not None else None
                if request_id is None:
                    request_id = state.request
                if request_id is None:
                    state.auto_ids += 1
                    request_id = f"t{state.thread_id:x}-{state.auto_ids}"
                state.root = request_id
                state.keep = next(tracer._kept) < limit
            start = clock()
            stack.append(0.0)
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                child = stack.pop()
                duration = end - start
                if stack:
                    stack[-1] += duration
                totals = state.totals.get(name)
                if totals is None:
                    totals = state.totals[name] = [0, 0.0, 0.0]
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - child
                if state.keep:
                    state.spans.append(
                        (state.root, name, len(stack), start, end, duration - child)
                    )
            if hook is not None:
                hook(state, args, kwargs, result, start, end)
            return result

        return wrapper

    # -- reading what was recorded -------------------------------------

    def totals(self) -> Dict[str, Tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds) over all threads."""
        merged: Dict[str, List[float]] = {}
        for state in self._snapshot_threads():
            for name, (calls, total, own) in state.totals.items():
                into = merged.setdefault(name, [0, 0.0, 0.0])
                into[0] += calls
                into[1] += total
                into[2] += own
        return {name: (int(v[0]), v[1], v[2]) for name, v in merged.items()}

    def counter(self, key: str) -> float:
        return sum(state.counters.get(key, 0.0) for state in self._snapshot_threads())

    def events(self, key: str) -> List[tuple]:
        out: List[tuple] = []
        for state in self._snapshot_threads():
            out.extend(state.events.get(key, ()))
        return out

    def spans(self) -> List[Tuple[str, str, int, float, float, float]]:
        out: List[Tuple[str, str, int, float, float, float]] = []
        for state in self._snapshot_threads():
            out.extend(state.spans)
        return out

    def reset(self) -> None:
        """Forget everything recorded so far (the wrappers stay)."""
        for state in self._snapshot_threads():
            state.totals.clear()
            state.counters.clear()
            state.events.clear()
            state.spans.clear()
        self._kept = itertools.count()

    def write_spans(self, path: str) -> None:
        """Write the retained span records as JSON lines."""
        with open(path, "w") as handle:
            for request_id, name, depth, start, end, own in sorted(
                self.spans(), key=lambda s: s[3]
            ):
                handle.write(
                    json.dumps(
                        {
                            "request": request_id,
                            "name": name,
                            "depth": depth,
                            "start": start,
                            "end": end,
                            "self": own,
                        }
                    )
                    + "\n"
                )

    def _snapshot_threads(self) -> List[ThreadState]:
        with self._lock:
            return list(self._threads)


def _raw_attribute(owner: Any, attribute: str) -> Any:
    """The attribute as stored, so class/static methods keep their kind."""
    if isinstance(owner, type):
        return owner.__dict__[attribute]
    return getattr(owner, attribute)


# ----------------------------------------------------------------------
# The program's layers
# ----------------------------------------------------------------------

#: CommitLog methods that write the append-only log.
_LOG_WRITES = (
    "begin",
    "record_annotation_insert",
    "record_annotation_range",
    "record_attachment_insert",
    "record_attachments_above",
    "promote_attachment",
    "delete_attachment",
)


def _rows_hook(state: ThreadState, args: tuple, kwargs: dict, result: Any,
               start: float, end: float) -> None:
    state.count("search.rows", len(result))


def _shared_hook(state: ThreadState, args: tuple, kwargs: dict, result: Any,
                 start: float, end: float) -> None:
    stats = args[0].last_stats
    state.count("shared.total_sql", stats.total_sql)
    state.count("shared.saved", stats.saved_statements)


def _batch_hook(state: ThreadState, args: tuple, kwargs: dict, result: Any,
                start: float, end: float) -> None:
    state.record("insert_annotations", (kwargs.get("request_id"), len(result), start, end))


def _succeed_hook(state: ThreadState, args: tuple, kwargs: dict, result: Any,
                  start: float, end: float) -> None:
    state.record("succeed", (args[0].batch_id, end))


def install_layers(tracer: Tracer) -> None:
    """Wrap the public entry points of every measured ``repro.*`` layer."""
    import repro.annotations.store as store_module
    import repro.cli as cli
    import repro.core.nebula as nebula_module
    from repro.annotations.engine import AnnotationManager
    from repro.annotations.store import AnnotationStore
    from repro.core.acg import AnnotationsConnectivityGraph
    from repro.core.nebula import Nebula
    from repro.core.shared_execution import SharedExecutor
    from repro.core.verification import VerificationQueue
    from repro.meta.repository import NebulaMeta
    from repro.resilience.boundaries import Savepoint
    from repro.search.engine import KeywordSearchEngine
    from repro.search.persist import PersistentValueIndex
    from repro.service.queue import Submission
    from repro.service.service import AnnotationService
    from repro.storage.backends import SqliteFileBackend
    from repro.versioning.log import CommitLog

    wrap = tracer.wrap
    # Request roots.
    wrap(Nebula, "insert_annotation", "core.insert_annotation")
    wrap(Nebula, "insert_annotations", "core.insert_annotations", hook=_batch_hook,
         request_of=lambda args, kwargs: kwargs.get("request_id"))
    wrap(Submission, "succeed", "service.succeed", hook=_succeed_hook,
         request_of=lambda args, kwargs: args[0].batch_id)
    for read in ("annotations_for", "pending_verifications", "find_annotations",
                 "head_commit"):
        wrap(AnnotationService, read, "service.read")
    # repro.meta
    wrap(NebulaMeta, "value_mappings", "meta.value_mappings")
    wrap(NebulaMeta, "concept_mappings", "meta.concept_mappings")
    # repro.core, Stages 1-3
    wrap(nebula_module, "generate_queries", "core.generate_queries")
    wrap(nebula_module, "identify_related_tuples", "core.identify")
    wrap(nebula_module, "spreading_scope", "core.spreading_scope")
    wrap(SharedExecutor, "execute_groups", "core.execute_groups", hook=_shared_hook)
    wrap(VerificationQueue, "triage", "core.triage")
    wrap(AnnotationsConnectivityGraph, "shortest_hops", "core.shortest_hops")
    # repro.search
    wrap(KeywordSearchEngine, "generate", "search.generate")
    wrap(KeywordSearchEngine, "execute_rows", "search.execute", hook=_rows_hook)
    # repro.annotations
    wrap(AnnotationManager, "add_annotation", "annotations.add")
    wrap(AnnotationManager, "bulk_add_annotations", "annotations.add")
    wrap(AnnotationStore, "attach", "annotations.attach")
    # repro.versioning
    for method in _LOG_WRITES:
        wrap(CommitLog, method, "versioning.record")
    # repro.storage
    wrap(SqliteFileBackend, "open_reader", "storage.open_reader")
    # repro.resilience
    for method in ("begin", "release", "rollback"):
        wrap(Savepoint, method, "resilience.savepoint")
    # Engine open.
    wrap(cli, "_build_meta", "open.meta_bootstrap")
    wrap(store_module, "ensure_schema", "open.migrations")
    wrap(PersistentValueIndex, "open", "open.index")
    wrap(AnnotationsConnectivityGraph, "build_from_manager", "open.acg_build")
    wrap(AnnotationService, "recover", "open.recover")
    wrap(CommitLog, "verify_head", "open.verify_head")
