"""Load generators: the closed loop with its read probe, and serve-mixed.

Every operation goes through the program's public entry points:
``Nebula.insert_annotation``, ``AnnotationService.submit`` and the
service's read endpoints.  Engines are opened the way the CLI opens them
(see :func:`open_engine`).
"""

from __future__ import annotations

import contextlib
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, ContextManager, Deque, List, Optional, Sequence, Tuple

import repro.cli as cli
from repro.config import NebulaConfig
from repro.core.nebula import DiscoveryReport, Nebula
from repro.core.verification import Decision
from repro.errors import ServiceOverloadedError
from repro.service import AnnotationService
from repro.storage import get_backend
from repro.types import TupleRef

from tracing import Tracer
from workloads import (
    PIN_REFRESH,
    Inputs,
    Read,
    Request,
    needle_of,
    probe_schedule,
    read_target,
    service_schedule,
)

clock = time.perf_counter

#: Tuples recent acknowledged writes attached, for "recent" reads.
RECENT_TUPLES = 256


#: The CLI's keyword aliases (``repro.cli._open_engine``).
ALIASES = {
    "genes": ("Gene", None),
    "proteins": ("Protein", None),
    "id": ("Gene", "GID"),
    "accession": ("Protein", "PID"),
}


def open_engine(path: str, config: Optional[NebulaConfig] = None) -> Nebula:
    """Open the engine on ``path`` as ``repro.cli._open_engine`` does (the
    ``sqlite-file`` backend, the CLI's meta bootstrap, ``Nebula`` with the
    CLI's aliases), with ``config`` (default: the CLI's) and the write
    connection relaxed to ``synchronous = NORMAL``.

    Every write still commits to the WAL; NORMAL moves the fsync from
    each commit to the checkpoints.  Under SQLite's default FULL, the WAL
    fsync took 5.4 ms of a long annotation's 13.7 ms, and its latency
    followed the shared disk, not the program.
    """
    config = config or NebulaConfig()
    backend = get_backend(
        config.storage_backend,
        path=path,
        pool_size=config.pool_size,
        journal_mode=config.journal_mode,
        busy_timeout=config.busy_timeout,
    )
    backend.primary.execute("PRAGMA synchronous = NORMAL")
    meta = cli._build_meta(backend.primary)
    return Nebula(backend.primary, meta, config, aliases=ALIASES, backend=backend)


def close_engine(nebula: Nebula) -> None:
    cli._close_engine(nebula)


#: Task decisions that attach the tuple (the predicted attachments).
ATTACHING = (Decision.AUTO_ACCEPTED.value, Decision.PENDING.value)


@dataclass(frozen=True)
class Outcome:
    """What the harness keeps of one acknowledged annotation.

    Reports are dropped as soon as they are acknowledged: holding every
    ``DiscoveryReport`` of a run would grow the heap the program's own
    garbage collector walks, and lengthen the pauses being measured.
    """

    index: int
    annotation_id: int
    mode: str
    degraded: bool
    #: (table, rowid, decision, confidence) per verification task.
    tasks: Tuple[Tuple[str, int, str, float], ...]

    @classmethod
    def of(cls, index: int, report: DiscoveryReport) -> "Outcome":
        return cls(
            index=index,
            annotation_id=int(report.annotation_id or 0),
            mode=report.mode,
            degraded=bool(report.degradations),
            tasks=tuple(
                (t.ref.table, t.ref.rowid, t.decision.value, t.confidence)
                for t in report.tasks
            ),
        )

    def predicted(self) -> List[TupleRef]:
        return [TupleRef(table, rowid) for table, rowid, decision, _c in self.tasks
                if decision in ATTACHING]


@dataclass
class PhaseResult:
    """What one measured phase observed."""

    #: Seconds of the write phase: annotate-long, the time spent in write
    #: calls; serve-mixed, schedule start until the last ack.
    wall: float = 0.0
    #: Process CPU seconds of serve-mixed's write phase (all threads).
    cpu: float = 0.0
    #: Annotations committed untimed, before the write phase.
    warmup: int = 0
    #: One per acknowledged annotation.
    outcomes: List[Outcome] = field(default_factory=list)
    #: Seconds per acknowledged annotation.
    acks: List[float] = field(default_factory=list)
    head_reads: List[float] = field(default_factory=list)
    pinned_reads: List[float] = field(default_factory=list)
    #: How late each load-thread operation started (serve-mixed).
    write_late: List[float] = field(default_factory=list)
    read_late: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    refused: int = 0
    #: The first few failures, for the log.
    errors: List[str] = field(default_factory=list)
    #: (submit time, batch id) per acknowledged write (serve-mixed).
    submissions: List[Tuple[float, Optional[str]]] = field(default_factory=list)
    #: (as_of, table, rowid, rows) of a sample of pinned reads.
    pinned_samples: List[Tuple[int, str, int, list]] = field(default_factory=list)
    #: Whether the service stopped cleanly (annotate-long: always).
    clean_stop: bool = True

    def count_failure(self, error: BaseException) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(repr(error))

    def add_read(self, kind: str, seconds: float, pin: Optional[int],
                 ref: Optional[TupleRef], rows: list) -> None:
        """Keep one read's latency; every fifth pinned read is also kept
        whole, for the correctness gate to re-issue."""
        if kind != "pinned":
            self.head_reads.append(seconds)
            return
        if len(self.pinned_reads) % 5 == 0 and ref is not None and pin is not None:
            self.pinned_samples.append((pin, ref.table, ref.rowid, rows))
        self.pinned_reads.append(seconds)


def _scope(tracer: Optional[Tracer]) -> Callable[[str], ContextManager[None]]:
    if tracer is None:
        return lambda _request_id: contextlib.nullcontext()
    return tracer.request


# ----------------------------------------------------------------------
# annotate-long: a closed loop with a read probe
# ----------------------------------------------------------------------


def run_single(
    nebula: Nebula,
    requests: Sequence[Request],
    seconds: float,
    limit: Optional[int],
    tracer: Optional[Tracer],
    result: PhaseResult,
    first: int = 0,
    probe: Optional["ReadProbe"] = None,
) -> None:
    """One caller, ``insert_annotation`` + commit per annotation, from
    request ``first`` until its calls have taken ``seconds`` (or, with
    ``limit``, up to that request index).  The probe's reads run between
    the calls, outside their clock."""
    scope = _scope(tracer)
    for index in range(first, len(requests) if limit is None else limit):
        if result.wall >= seconds:
            break
        request = requests[index].build()
        result.attempted += 1
        began = clock()
        with scope(f"ann-{index}"):
            report = nebula.insert_annotation(request.text, attach_to=request.focal)
            nebula.connection.commit()
        took = clock() - began
        result.wall += took
        result.acks.append(took)
        outcome = Outcome.of(index, report)
        result.outcomes.append(outcome)
        if probe is not None:
            probe.recent.extend(request.focal)
            probe.recent.extend(outcome.predicted())
            probe.catch_up(result.wall / seconds, result)


def issue_read(
    service: AnnotationService,
    read: Read,
    inputs: Inputs,
    recent: Sequence[TupleRef],
    pin: Optional[int],
) -> Tuple[Optional[TupleRef], list]:
    """Run one scheduled read; returns its target tuple and rows."""
    if read.kind == "pending":
        return None, service.pending_verifications(limit=20)
    if read.kind == "find":
        return None, service.find_annotations(needle_of(read, inputs.needles), limit=20)
    ref = read_target(read, inputs.tables, recent)
    as_of = pin if read.kind == "pinned" else None
    return ref, service.annotations_for(ref.table, ref.rowid, as_of=as_of)


class ReadProbe:
    """The closed loop's reads: the probe schedule, issued through the
    read endpoints of an unstarted ``AnnotationService`` on the phase's
    own engine, between write calls, spread evenly over the write phase.

    The reads see the database the loop is writing (half the tuple reads
    go to tuples recent writes attached) but never overlap a write, so
    they give the uncontended read cost; serve-mixed gives the contended
    one.  Pinned reads hold the snapshot the write phase started from: a
    pinned read costs in proportion to the history up to its pin, so a
    pin that followed the head would make the read cost depend on how
    much the loop had written by then, that is on the host's speed.
    """

    def __init__(self, nebula: Nebula, inputs: Inputs) -> None:
        self.service = AnnotationService(nebula)
        self.inputs = inputs
        self.schedule = probe_schedule(inputs.seed)
        self.issued = 0
        self.pin = self.service.head_commit()
        self.recent: Deque[TupleRef] = deque(maxlen=RECENT_TUPLES)

    def catch_up(self, progress: float, result: PhaseResult) -> None:
        """Issue every probe read due by ``progress`` (0..1) of the phase."""
        due = min(len(self.schedule), progress * len(self.schedule))
        while self.issued < due:
            read = self.schedule[self.issued]
            self.issued += 1
            result.attempted += 1
            began = clock()
            try:
                ref, rows = issue_read(self.service, read, self.inputs, self.recent, self.pin)
            except Exception as error:
                result.count_failure(error)
                continue
            result.add_read(read.kind, clock() - began, self.pin, ref, rows)


# ----------------------------------------------------------------------
# serve-mixed: an open loop from exactly two load threads
# ----------------------------------------------------------------------


def run_service(
    service: AnnotationService,
    requests: Sequence[Request],
    inputs: Inputs,
    seconds: float,
    tracer: Optional[Tracer],
    result: PhaseResult,
    first: int = 0,
) -> None:
    """Drive a started service with the requests from ``first`` on.  The
    write thread submits on its Poisson schedule and, until each next due
    time, waits on its oldest outstanding ticket; the read thread runs
    the read schedule.  Latencies count from the due time."""
    write_due, reads = service_schedule(inputs.seed, int(seconds), len(requests) - first)
    recent: Deque[TupleRef] = deque(maxlen=RECENT_TUPLES)
    scope = _scope(tracer)
    errors: List[BaseException] = []
    lock = threading.Lock()

    def count_failure(error: BaseException) -> None:
        with lock:
            result.count_failure(error)

    def acknowledge(index: int, due: float, submitted: float, ticket: Any,
                    timeout: Optional[float]) -> bool:
        try:
            report = ticket.result(timeout)
        except TimeoutError:
            return False
        except Exception as error:  # a failed write: counted, not timed
            count_failure(error)
            return True
        result.acks.append(clock() - due)
        outcome = Outcome.of(index, report)
        result.outcomes.append(outcome)
        result.submissions.append((submitted, ticket.batch_id))
        recent.extend(TupleRef(table, rowid) for table, rowid in requests[index].focal)
        recent.extend(outcome.predicted())
        return True

    def write_load() -> None:
        #: (request index, due, submit time, ticket), oldest first.
        outstanding: Deque[Tuple[int, float, float, Any]] = deque()
        for index, offset in enumerate(write_due, first):
            due = start + offset
            while True:
                now = clock()
                if now >= due:
                    break
                if outstanding:
                    if acknowledge(*outstanding[0], due - now):
                        outstanding.popleft()
                else:
                    time.sleep(due - now)
            request = requests[index].build()
            submitted = clock()
            result.write_late.append(submitted - due)
            with lock:
                result.attempted += 1
            try:
                ticket = service.submit(request)
            except ServiceOverloadedError as error:
                with lock:
                    result.refused += 1
                count_failure(error)
                continue
            outstanding.append((index, due, submitted, ticket))
        while outstanding:
            if not acknowledge(*outstanding.popleft(), 60.0):
                count_failure(TimeoutError("no acknowledgement within 60 s"))

    def read_load() -> None:
        pin = service.head_commit()
        next_pin = PIN_REFRESH
        for number, read in enumerate(reads):
            due = start + read.due
            now = clock()
            if now < due:
                time.sleep(due - now)
            if read.kind == "pinned" and read.due >= next_pin:
                pin = service.head_commit()
                next_pin += PIN_REFRESH
            began = clock()
            result.read_late.append(began - due)
            with lock:
                result.attempted += 1
            try:
                with scope(f"read-{number}"):
                    ref, rows = issue_read(service, read, inputs, recent, pin)
            except Exception as error:
                count_failure(error)
                continue
            result.add_read(read.kind, clock() - due, pin, ref, rows)

    def guarded(body: Callable[[], None]) -> Callable[[], None]:
        def run() -> None:
            try:
                body()
            except BaseException as error:  # reported by the main thread
                errors.append(error)

        return run

    threads = [
        threading.Thread(target=guarded(write_load), name="load-write", daemon=True),
        threading.Thread(target=guarded(read_load), name="load-read", daemon=True),
    ]
    cpu_start = time.process_time()
    start = clock() + 0.05
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(seconds + 120.0)
    result.wall = clock() - start
    result.cpu = time.process_time() - cpu_start
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("serve-mixed load threads did not finish")
    if errors:
        raise errors[0]
