"""Structured tracing for the Nebula pipeline.

One annotation's pass through the pipeline becomes a *trace*: a tree of
named spans mirroring the Figure 16 stages::

    insert_annotation
    ├── stage0.store
    ├── stage1.maps
    ├── stage1.context
    ├── stage1.queries
    ├── stage2.batch_execute
    └── stage3.curate

(a spreading search runs Stages 1-2 under an ``analyze`` span holding
the ``stage1.*`` spans and ``stage2.execute`` instead).

Each span carries wall-clock duration and a flat attribute map (annotation
id, query count, candidate-tuple count, ACG edge deltas, ...).  When the
outermost span of a tracer closes, the finished tree is handed to every
registered *exporter*:

* :class:`RingBufferExporter` keeps the last N traces in memory (what
  ``DiscoveryReport.trace`` and ``repro trace --last N`` read);
* :class:`JsonlExporter` appends one JSON object per trace to a file.

The default pipeline runs with :data:`NOOP_TRACER`: ``span()`` hands back
a process-wide singleton context manager, so the hot path performs no
allocation and no exporter ever sees a record.
"""

from __future__ import annotations

import json
import logging
import os
import time
from collections import deque
from types import TracebackType
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Type, Union

logger = logging.getLogger("repro.observability")


class Span:
    """One named, timed region of the pipeline (a node of a trace tree)."""

    __slots__ = ("name", "start", "end", "attributes", "children", "links")

    def __init__(self, name: str, start: float) -> None:
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.attributes: Dict[str, Any] = {}
        self.children: List["Span"] = []
        #: Cross-trace correlations: ids of *other* units of work this
        #: span relates to without nesting under them — e.g. the service
        #: batch-flush span links every member submission's request_id.
        self.links: List[Dict[str, Any]] = []

    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def add_link(self, **attributes: Any) -> None:
        """Attach one correlation link (a flat id/attribute dict)."""
        self.links.append(dict(attributes))

    @property
    def duration(self) -> float:
        """Elapsed seconds (0.0 while the span is still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        record = {
            "name": self.name,
            "duration_ms": round(self.duration * 1e3, 4),
            "attributes": dict(self.attributes),
            "children": [child.to_dict() for child in self.children],
        }
        # Only linked spans carry the key, so pre-link trace files and
        # their consumers keep working unchanged.
        if self.links:
            record["links"] = [dict(link) for link in self.links]
        return record


class Tracer:
    """Produces nested spans and exports each finished root-span tree.

    >>> ring = RingBufferExporter()
    >>> tracer = Tracer([ring])
    >>> with tracer.span("outer") as outer:
    ...     with tracer.span("inner") as inner:
    ...         inner.set_attribute("rows", 3)
    >>> ring.last(1)[0]["children"][0]["attributes"]
    {'rows': 3}
    """

    enabled = True

    def __init__(self, exporters: Iterable[Any] = ()) -> None:
        self.exporters = list(exporters)
        self._stack: List[Span] = []
        #: The most recently exported trace record (root-span dict).
        self.last_trace: Optional[Dict[str, Any]] = None
        self._root_timestamp: float = 0.0

    @property
    def depth(self) -> int:
        return len(self._stack)

    def span(self, name: str) -> "_SpanContext":
        return _SpanContext(self, name)

    # -- used by _SpanContext ------------------------------------------

    def _open(self, name: str) -> Span:
        span = Span(name, time.perf_counter())
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self._root_timestamp = time.time()
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        # Tolerate unbalanced exits (an inner span leaked past its scope):
        # pop back to the span being closed rather than corrupting nesting.
        while self._stack and self._stack[-1] is not span:
            self._stack.pop()
        if self._stack:
            self._stack.pop()
        if not self._stack:
            record = span.to_dict()
            record["timestamp"] = self._root_timestamp
            self.last_trace = record
            for exporter in self.exporters:
                try:
                    exporter.export(record)
                except Exception as error:
                    # A broken exporter must never sink the pipeline.
                    logger.warning("trace exporter failed: %s", error)


class _SpanContext:
    """Context manager pairing one ``Span`` with its tracer bookkeeping."""

    __slots__ = ("_tracer", "_name", "_span")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self._tracer = tracer
        self._name = name
        self._span: Optional[Span] = None

    def __enter__(self) -> Span:
        self._span = self._tracer._open(self._name)
        return self._span

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> bool:
        if self._span is not None:
            if exc is not None:
                self._span.attributes["error"] = repr(exc)
            self._tracer._close(self._span)
        return False


class _NoopSpan:
    """Shared do-nothing span/context-manager (the disabled hot path)."""

    __slots__ = ()

    def set_attribute(self, key: str, value: Any) -> None:
        pass

    def add_link(self, **attributes: Any) -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> bool:
        return False


_NOOP_SPAN = _NoopSpan()


class NoopTracer:
    """Tracer whose spans are free: no allocation, no exports, no state."""

    enabled = False
    last_trace: Optional[Dict[str, Any]] = None
    depth = 0

    def span(self, name: str) -> _NoopSpan:
        return _NOOP_SPAN


#: Process-wide disabled tracer; the default for every pipeline component.
NOOP_TRACER = NoopTracer()

#: Either kind of tracer / span — the pipeline treats them structurally.
TracerLike = Union[Tracer, NoopTracer]
SpanLike = Union[Span, _NoopSpan]


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------


class RingBufferExporter:
    """Keeps the last ``capacity`` finished traces in memory."""

    def __init__(self, capacity: int = 64) -> None:
        self._buffer: deque = deque(maxlen=capacity)

    def export(self, record: Dict[str, Any]) -> None:
        self._buffer.append(record)

    def last(self, n: int = 1) -> List[Dict[str, Any]]:
        """The most recent ``n`` traces, oldest first."""
        if n <= 0:
            return []
        return list(self._buffer)[-n:]

    def __len__(self) -> int:
        return len(self._buffer)


class JsonlExporter:
    """Appends one JSON object per finished trace to ``path``."""

    def __init__(self, path: str) -> None:
        self.path = path
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)

    def export(self, record: Dict[str, Any]) -> None:
        with open(self.path, "a") as handle:
            handle.write(json.dumps(record, default=str) + "\n")


def read_jsonl_traces(path: str) -> List[Dict[str, Any]]:
    """Load every trace from a JSONL trace file (oldest first).

    Raises ``ValueError`` on a malformed line — the CI smoke job relies on
    this to fail loudly instead of silently skipping garbage.
    """
    traces: List[Dict[str, Any]] = []
    with open(path) as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise ValueError(f"{path}:{number}: malformed trace line: {error}")
            if not isinstance(record, dict) or "name" not in record:
                raise ValueError(f"{path}:{number}: trace record missing 'name'")
            traces.append(record)
    return traces


def format_trace(record: Dict[str, Any], indent: int = 0) -> List[str]:
    """Render one trace record as an indented span tree."""
    attributes = " ".join(
        f"{key}={value}" for key, value in sorted(record.get("attributes", {}).items())
    )
    line = f"{'  ' * indent}{record['name']}  {record.get('duration_ms', 0.0)}ms"
    if attributes:
        line += f"  [{attributes}]"
    lines = [line]
    for child in record.get("children", ()):
        lines.extend(format_trace(child, indent + 1))
    return lines


def span_names(record: Dict[str, Any]) -> List[str]:
    """Flatten a trace record into depth-first span names (test helper)."""
    names = [record["name"]]
    for child in record.get("children", ()):
        names.extend(span_names(child))
    return names


def iter_spans(record: Dict[str, Any]) -> Iterator[Dict[str, Any]]:
    """Yield every span dict of a trace record, depth-first."""
    yield record
    for child in record.get("children", ()):
        yield from iter_spans(child)


def validate_trace_file(path: str, minimum: int = 1) -> Sequence[Dict[str, Any]]:
    """Ensure ``path`` holds at least ``minimum`` well-formed traces.

    Returns the traces; raises ``ValueError`` when the file is missing,
    empty, malformed, or every trace is a childless stub.
    """
    if not os.path.exists(path):
        raise ValueError(f"trace file {path} does not exist")
    traces = read_jsonl_traces(path)
    if len(traces) < minimum:
        raise ValueError(
            f"trace file {path} holds {len(traces)} trace(s), expected >= {minimum}"
        )
    if not any(trace.get("children") for trace in traces):
        raise ValueError(f"trace file {path} holds no nested spans")
    return traces
