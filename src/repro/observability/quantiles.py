"""Streaming latency quantiles over a bounded sliding window.

The service layer needs p50/p95/p99 of queue-wait, flush, and
end-to-end latency *while running*, without unbounded memory and
without external dependencies.  :class:`StreamingQuantiles` keeps the
last ``window`` observations in a ring buffer; a quantile query sorts a
copy of the window (queries are rare — a stats call or a scrape — while
observations are the hot path and stay O(1)).

Accuracy bound: the estimate is **exact over the retained window** (the
most recent ``window`` observations) and approximates the lifetime
distribution only as well as the window represents it.  With the
default window of 1024 the p99 rank sits ~10 observations from the top,
so single outliers move it visibly — which is exactly what a live
dashboard wants.  Memory is O(window) floats, forever.

:class:`PhaseQuantiles` bundles one estimator per named phase and
publishes ``<metric>{phase=...,quantile=...}`` gauges into a
:class:`~repro.observability.metrics.MetricsRegistry`, which is how the
estimates reach the Prometheus exposition and ``repro stats``.

Both classes snapshot/restore like the registry, so CLI runs can
accumulate across processes.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .metrics import Gauge, MetricsRegistry

#: The percentiles the service publishes, as (label, q) pairs.
SERVICE_PERCENTILES: Tuple[Tuple[str, float], ...] = (
    ("p50", 0.50),
    ("p95", 0.95),
    ("p99", 0.99),
)


def _interpolate(ordered: Sequence[float], q: float) -> float:
    """The q-quantile of an already-sorted sample (0.0 when empty)."""
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must be in [0, 1]")
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = position - lower
    return ordered[lower] + (ordered[upper] - ordered[lower]) * fraction


class StreamingQuantiles:
    """Bounded ring-buffer quantile estimator (thread-safe).

    >>> est = StreamingQuantiles(window=4)
    >>> for v in (1.0, 2.0, 3.0, 4.0):
    ...     est.observe(v)
    >>> est.quantile(0.5)
    2.5
    """

    def __init__(self, window: int = 1024) -> None:
        if window < 1:
            raise ValueError("quantile window must be >= 1")
        self.window = window
        self._values: List[float] = []
        self._next = 0  # ring cursor once the window is full
        self._count = 0  # lifetime observations
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            if len(self._values) < self.window:
                self._values.append(value)
            else:
                self._values[self._next] = value
                self._next = (self._next + 1) % self.window
            self._count += 1

    @property
    def count(self) -> int:
        """Lifetime observation count (retained window may be smaller)."""
        with self._lock:
            return self._count

    def __len__(self) -> int:
        with self._lock:
            return len(self._values)

    def quantile(self, q: float) -> float:
        """The q-quantile of the retained window (0.0 when empty).

        Linear interpolation between the two closest ranks — the same
        convention as ``statistics.quantiles`` with inclusive method.
        """
        with self._lock:
            ordered = sorted(self._values)
        return _interpolate(ordered, q)

    def percentiles(
        self, points: Iterable[Tuple[str, float]] = SERVICE_PERCENTILES
    ) -> Dict[str, float]:
        """Named percentiles of the window, e.g. ``{"p50": ..., ...}``.

        One sort serves every requested point.
        """
        with self._lock:
            ordered = sorted(self._values)
        return {label: _interpolate(ordered, q) for label, q in points}

    # -- persistence ----------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """JSON-serializable state: window size, values, lifetime count."""
        with self._lock:
            # Oldest-first so restore() refills in arrival order.
            values = self._values[self._next:] + self._values[: self._next]
            return {
                "window": self.window,
                "values": list(values),
                "count": self._count,
            }

    def restore(self, snapshot: Mapping[str, Any]) -> None:
        """Reload a prior :meth:`snapshot` (excess values are dropped)."""
        values = [float(v) for v in snapshot.get("values", [])]
        with self._lock:
            self._values = values[-self.window:]
            self._next = 0
            self._count = max(int(snapshot.get("count", len(values))), len(values))


class PhaseQuantiles:
    """Per-phase estimators published as ``{phase,quantile}`` gauges.

    The service observes one duration per (request, phase); a
    :meth:`publish` refreshes the registry gauges — one per
    (phase, percentile) — that the Prometheus exporter and
    ``repro stats`` read.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        metric_name: str,
        phases: Sequence[str],
        window: int = 1024,
    ) -> None:
        self.metric_name = metric_name
        self.phases = tuple(phases)
        self.estimators: Dict[str, StreamingQuantiles] = {
            phase: StreamingQuantiles(window) for phase in self.phases
        }
        self._gauges: Dict[Tuple[str, str], Gauge] = {}
        for phase in self.phases:
            for label, _ in SERVICE_PERCENTILES:
                self._gauges[(phase, label)] = registry.gauge(
                    metric_name, {"phase": phase, "quantile": label}
                )

    def observe(self, phase: str, value: float) -> None:
        self.estimators[phase].observe(value)

    def publish(self) -> None:
        """Push every (phase, percentile) estimate into its gauge."""
        for phase, estimator in self.estimators.items():
            for label, value in estimator.percentiles().items():
                self._gauges[(phase, label)].set(value)

    def percentiles(self, phase: str) -> Dict[str, float]:
        return self.estimators[phase].percentiles()

    def counts(self) -> Dict[str, int]:
        """Lifetime observations per phase (test/debug helper)."""
        return {phase: est.count for phase, est in self.estimators.items()}

    def snapshot(self) -> Dict[str, Any]:
        return {phase: est.snapshot() for phase, est in self.estimators.items()}

    def restore(self, snapshot: Mapping[str, Any]) -> None:
        for phase, dump in snapshot.items():
            estimator = self.estimators.get(phase)
            if estimator is not None and isinstance(dump, Mapping):
                estimator.restore(dump)
        self.publish()


def merged_percentiles(
    estimators: Iterable[StreamingQuantiles],
    points: Iterable[Tuple[str, float]] = SERVICE_PERCENTILES,
) -> Optional[Dict[str, float]]:
    """Percentiles over the union of several windows (None when empty).

    Used by benchmarks that shard observations across client threads.
    """
    values: List[float] = []
    for estimator in estimators:
        values.extend(estimator.snapshot()["values"])
    if not values:
        return None
    merged = StreamingQuantiles(window=max(len(values), 1))
    for value in values:
        merged.observe(value)
    return merged.percentiles(points)
