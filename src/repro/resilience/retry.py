"""Retry with exponential backoff for transient storage failures.

SQLite under concurrent writers surfaces contention as
``OperationalError: database is locked`` (or ``database table is
locked`` / busy).  Those are *transient*: the correct reaction is to back
off and try again, not to fail the annotation pipeline.  The policy here
is deliberately deterministic — the clock is a seam (``sleep`` callable)
and the jitter derives from a seeded generator keyed by the attempt
number — so tests can assert the exact delay schedule.

:class:`RetryPolicy` retries only errors its ``retry_on`` predicate deems
transient; anything else propagates unchanged on the first attempt.  When
a transient error survives every attempt it is wrapped in
:class:`repro.errors.TransientStorageError` so upstream fault boundaries
can distinguish "storage kept failing" from logic errors.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, List, TypeVar

from ..errors import TransientStorageError
from ..observability.metrics import get_metrics
from ..storage.compat import OperationalError

T = TypeVar("T")

#: Substrings of ``OperationalError`` messages that indicate
#: transient lock/busy contention rather than a malformed statement.
_TRANSIENT_MARKERS = ("locked", "busy")


def is_transient_operational_error(error: BaseException) -> bool:
    """Whether ``error`` is a retriable storage-contention failure."""
    if isinstance(error, TransientStorageError):
        return True
    if not isinstance(error, OperationalError):
        return False
    message = str(error).casefold()
    return any(marker in message for marker in _TRANSIENT_MARKERS)


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic jitter.

    The delay before attempt ``n+1`` is
    ``min(max_delay, base_delay * multiplier**(n-1)) * (1 + jitter * u_n)``
    where ``u_n`` in [0, 1) comes from ``random.Random(seed + n)`` — the
    schedule is a pure function of the policy, never of wall-clock state.
    """

    max_attempts: int = 3
    base_delay: float = 0.005
    max_delay: float = 0.25
    multiplier: float = 2.0
    jitter: float = 0.1
    seed: int = 0
    #: Clock seam: tests inject a recorder, production uses ``time.sleep``.
    sleep: Callable[[float], None] = field(default=time.sleep, repr=False)
    retry_on: Callable[[BaseException], bool] = field(
        default=is_transient_operational_error, repr=False
    )

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < self.base_delay:
            raise ValueError("delays must satisfy 0 <= base_delay <= max_delay")

    def delay_for(self, attempt: int) -> float:
        """Backoff before retrying after failed attempt number ``attempt``."""
        backoff = min(self.max_delay, self.base_delay * self.multiplier ** (attempt - 1))
        fraction = random.Random(self.seed + attempt).random()
        return backoff * (1.0 + self.jitter * fraction)

    def schedule(self) -> List[float]:
        """The full delay schedule (one entry per possible retry)."""
        return [self.delay_for(n) for n in range(1, self.max_attempts)]

    def run(self, operation: Callable[[], T], description: str = "") -> T:
        """Run ``operation``, retrying transient failures per the policy.

        Non-transient errors propagate immediately; a transient error that
        survives ``max_attempts`` is re-raised as
        :class:`TransientStorageError` (chained to the original).
        """
        attempt = 0
        while True:
            attempt += 1
            try:
                return operation()
            except BaseException as error:  # noqa: B036 - re-raised below
                if not self.retry_on(error):
                    raise
                if attempt >= self.max_attempts:
                    get_metrics().counter("nebula_transient_errors_total").inc()
                    label = description or getattr(operation, "__name__", "operation")
                    raise TransientStorageError(
                        f"{label}: {error}", attempts=attempt
                    ) from error
                get_metrics().counter("nebula_retry_attempts_total").inc()
                self.sleep(self.delay_for(attempt))


def no_retry() -> RetryPolicy:
    """A policy that gives up immediately (single attempt, no sleeps)."""
    return RetryPolicy(max_attempts=1)
