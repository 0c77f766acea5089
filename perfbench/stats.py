"""Percentiles with the sample rule the benchmark reports by.

A tail percentile is named only when the run has at least
:data:`MIN_BEYOND` samples beyond it; with fewer, its value is set by a
handful of samples and moves from run to run for no reason in the code.
"""

from __future__ import annotations

import math
from typing import Sequence

#: Samples a run must have beyond a reported percentile.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked for with fewer than MIN_BEYOND samples beyond it."""


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the ``q``-th percentile."""
    return int(math.floor(count * (100.0 - q) / 100.0 + 1e-9))


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (linear interpolation between ranks).

    Raises :class:`TooFewSamples` when fewer than :data:`MIN_BEYOND`
    samples lie beyond it.
    """
    count = len(values)
    if samples_beyond(count, q) < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q:g} needs {MIN_BEYOND} samples beyond it; "
            f"{count} samples give {samples_beyond(count, q)}"
        )
    ordered = sorted(values)
    rank = (count - 1) * q / 100.0
    low = int(math.floor(rank))
    high = min(low + 1, count - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise TooFewSamples("median of no samples")
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0
