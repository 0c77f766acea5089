"""The graceful-degradation ladder of the discovery pipeline.

When an *optimization* stage fails, the pipeline steps down to the slower
but simpler technique it optimizes, instead of failing the annotation:

==========================  ==========================================
failure                     fallback
==========================  ==========================================
spreading-scope construction  full-database search
shared multi-query executor   per-query sequential execution
context-based adjustment      unadjusted signature-map weights
mini-database drop            leak the temp tables (logged, non-fatal)
sustained service pressure    approximate (spreading) search pinned on
service reader connection     the primary, under the write lock
==========================  ==========================================

Every step down is recorded as a label in
``DiscoveryReport.degradations`` so callers (and operators) can see that
an answer was produced in degraded mode.  Labels are ``<fault point>:
<fallback>`` strings, stable enough to alert on.
"""

from __future__ import annotations

import logging
from typing import Callable, List, TypeVar

from ..observability.metrics import get_metrics

logger = logging.getLogger("repro.resilience")

T = TypeVar("T")

#: Spreading-scope construction failed -> whole-database search.
SPREADING_FALLBACK = "spreading.scope:full-search"
#: Shared executor failed -> per-query sequential execution.
EXECUTOR_FALLBACK = "executor.run:sequential"
#: Context-based weight adjustment failed -> unadjusted weights.
CONTEXT_FALLBACK = "context.adjust:unadjusted-weights"
#: Mini-database drop failed -> temp tables leaked until connection close.
MINI_DROP_LEAK = "spreading.mini_drop:leaked"
#: Sustained queue pressure -> the service pins the cheaper approximate
#: (focal-based spreading) search for the batches it flushes.
SERVICE_SHED = "service.pressure:approximate-search"
#: No pooled service reader could serve a read -> the writer's primary,
#: under the write lock, serves it.
SERVICE_READER_FALLBACK = "service.reader:primary"


def count_degradation(label: str) -> None:
    """Record one degradation event in the metrics registry.

    Every site that appends to ``DiscoveryReport.degradations`` calls
    this, so operators can alert on ``nebula_degradation_events_total``
    without scraping logs; the label keys the fault point (low
    cardinality by construction — labels are the module constants above).
    """
    get_metrics().counter(
        "nebula_degradation_events_total", {"fallback": label}
    ).inc()


def with_fallback(
    primary: Callable[[], T],
    fallback: Callable[[], T],
    label: str,
    degradations: List[str],
) -> T:
    """Run ``primary``; on any failure record ``label`` and run ``fallback``.

    The fallback's own failure propagates — one step down the ladder per
    fault point; a broken fallback is a hard error by design.
    """
    try:
        return primary()
    except Exception as error:
        logger.warning("degrading (%s): %s", label, error)
        degradations.append(label)
        count_degradation(label)
        return fallback()
