"""Spam-annotation detection (paper §3, footnote 1).

The problem statement assumes "spam-like annotations, e.g., an annotation
that references all (or most) data tuples, do not exist" and cites
bipartite-graph click-spam detection [26] for handling them.  This module
provides the guard that upholds that assumption in practice: before
triaging an annotation's candidates, Nebula can screen the prediction for
spam signals and quarantine the annotation instead of flooding the
database with attachments.

Signals (any one suffices):

* **coverage** — the candidate set covers more than ``max_coverage`` of
  the searchable tuples ("references most data tuples");
* **flatness** — the confidence distribution is nearly uniform across a
  large candidate set (no reference stands out, the signature of text
  that merely *mentions everything*);
* **fan-out** — the number of candidates exceeds ``max_candidates``
  regardless of database size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..storage.compat import Connection
from ..types import ScoredTuple
from ..utils.sql import quote_identifier


@dataclass(frozen=True)
class SpamVerdict:
    """Outcome of the spam screen for one annotation's prediction."""

    is_spam: bool
    #: Which signal fired (``"coverage"``, ``"flatness"``, ``"fan-out"``)
    #: or None.
    reason: Optional[str]
    coverage: float
    candidate_count: int
    confidence_spread: float


class SpamGuard:
    """Screens candidate sets for spam-like annotations."""

    def __init__(
        self,
        max_coverage: float = 0.30,
        max_candidates: int = 500,
        flatness_minimum: int = 50,
        flatness_spread: float = 0.15,
    ) -> None:
        self.max_coverage = max_coverage
        self.max_candidates = max_candidates
        self.flatness_minimum = flatness_minimum
        self.flatness_spread = flatness_spread

    def screen(
        self,
        candidates: Sequence[ScoredTuple],
        searchable_tuples: int,
    ) -> SpamVerdict:
        """Evaluate one candidate set.

        ``searchable_tuples`` is the total number of tuples the search can
        reach (the coverage denominator).
        """
        count = len(candidates)
        coverage = count / searchable_tuples if searchable_tuples else 0.0
        spread = self._spread(candidates)

        if count > self.max_candidates:
            return SpamVerdict(True, "fan-out", coverage, count, spread)
        if coverage > self.max_coverage:
            return SpamVerdict(True, "coverage", coverage, count, spread)
        if count >= self.flatness_minimum and spread < self.flatness_spread:
            return SpamVerdict(True, "flatness", coverage, count, spread)
        return SpamVerdict(False, None, coverage, count, spread)

    @staticmethod
    def _spread(candidates: Sequence[ScoredTuple]) -> float:
        """Max minus median confidence — 0 for perfectly flat sets."""
        if not candidates:
            return 1.0
        confidences = sorted(t.confidence for t in candidates)
        median = confidences[len(confidences) // 2]
        return confidences[-1] - median


def count_searchable_tuples(
    connection: Connection, tables: Sequence[str]
) -> int:
    """Total rows of the searchable tables (the coverage denominator)."""
    total = 0
    for table in dict.fromkeys(tables):
        row = connection.execute(
            f"SELECT COUNT(*) FROM {quote_identifier(table)}"
        ).fetchone()
        total += int(row[0])
    return total
