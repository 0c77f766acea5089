"""Per-stage fault boundaries for the annotation pipeline.

Two primitives:

* :class:`Savepoint` — a named SQLite SAVEPOINT wrapping the *persistent*
  side of the pipeline.  ``release()`` folds the writes into the
  enclosing transaction; ``rollback()`` undoes every write made since
  ``begin()`` (annotation row, focal attachments, verification tasks,
  predicted attachments) without touching earlier state.
* :func:`pipeline_stage` — a context manager marking a named stage.  It
  fires the stage's fault-injection point (if an injector is armed) and
  re-raises any escaping exception as
  :class:`repro.errors.PipelineStageError` tagged with the stage name, so
  the top-level boundary in ``Nebula.insert_annotation`` knows exactly
  which stage to blame in the dead-letter record.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from types import TracebackType
from typing import TYPE_CHECKING, Iterator, Optional, Type

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .faults import FaultInjector

from ..errors import PipelineStageError
from ..observability.metrics import get_metrics
from ..storage.compat import Connection
from ..utils.sql import quote_identifier

#: Process-wide counter making savepoint names unique even when nested.
_SAVEPOINT_IDS = itertools.count(1)


class Savepoint:
    """One SQLite SAVEPOINT with explicit begin/release/rollback."""

    def __init__(self, connection: Connection, label: str = "nebula") -> None:
        self.connection = connection
        # SQLite identifiers: keep it alphanumeric + underscore.
        safe = "".join(c if c.isalnum() else "_" for c in label)
        self.name = f"sp_{safe}_{next(_SAVEPOINT_IDS)}"
        self._active = False

    @property
    def active(self) -> bool:
        return self._active

    def begin(self) -> "Savepoint":
        self.connection.execute(f"SAVEPOINT {quote_identifier(self.name)}")
        self._active = True
        return self

    def release(self) -> None:
        """Commit the savepoint's writes into the enclosing transaction."""
        if self._active:
            self.connection.execute(f"RELEASE SAVEPOINT {quote_identifier(self.name)}")
            self._active = False

    def rollback(self) -> None:
        """Undo every write since ``begin()`` and discard the savepoint."""
        if self._active:
            name = quote_identifier(self.name)
            self.connection.execute(f"ROLLBACK TO SAVEPOINT {name}")
            self.connection.execute(f"RELEASE SAVEPOINT {name}")
            self._active = False

    def __enter__(self) -> "Savepoint":
        return self.begin()

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        if exc_type is None:
            self.release()
        else:
            self.rollback()


@contextmanager
def pipeline_stage(
    stage: str, faults: Optional["FaultInjector"] = None
) -> Iterator[None]:
    """Mark a pipeline stage; tag escaping failures with the stage name.

    ``faults`` is an optional :class:`repro.resilience.FaultInjector`
    checked on entry, so every boundary doubles as an injection point.
    """
    try:
        if faults is not None:
            faults.check(stage)
        yield
    except PipelineStageError:
        raise  # already tagged by an inner stage
    except Exception as error:
        get_metrics().counter(
            "nebula_stage_failures_total", {"stage": stage}
        ).inc()
        raise PipelineStageError(stage, error) from error
