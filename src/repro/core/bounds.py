"""Adaptive tuning of the verification bounds (paper §7, Figure 9).

The BoundsSetting() algorithm:

1. take a training dataset in which each annotation's attachments are
   complete (our oracle world);
2. distort it — keep only Δ links per annotation (``D_incomplete``);
3. rediscover the missing attachments with the regular pipeline;
4. assess the predictions for a grid of (β_lower, β_upper) settings —
   note the candidate set does not depend on the bounds, so discovery
   runs once per annotation and the grid sweep is pure arithmetic;
5. average per setting and pick the one minimizing the expert effort
   ``M_F`` subject to acceptable ``F_N`` and ``F_P``.

The M_H-guided refinement of the paper's "further enhancements" is also
implemented: when the chosen setting's manual hit ratio is very high, the
upper bound shifts left (more auto-accepts) while the constraints hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..types import ScoredTuple, TupleRef
from .assessment import Assessment, assess, average_assessments


@dataclass(frozen=True)
class TrainingSample:
    """One distorted training annotation, already rediscovered.

    ``candidates`` is the normalized output of IdentifyRelatedTuples();
    ``ideal`` the oracle attachment set; ``focal`` the links kept by the
    distortion.
    """

    candidates: Tuple[ScoredTuple, ...]
    ideal: frozenset
    focal: Tuple[TupleRef, ...]


@dataclass(frozen=True)
class BoundsChoice:
    """The tuned bounds and their averaged training assessment."""

    beta_lower: float
    beta_upper: float
    assessment: Assessment


def _default_grid(step: float = 0.06) -> List[Tuple[float, float]]:
    values = [round(step * i, 4) for i in range(int(1.0 / step) + 1)]
    return [(lo, hi) for lo in values for hi in values if lo <= hi]


class BoundsSetting:
    """Grid sweep + constrained selection of (β_lower, β_upper)."""

    def __init__(
        self,
        fn_limit: float = 0.25,
        fp_limit: float = 0.10,
        grid: Optional[Sequence[Tuple[float, float]]] = None,
        mh_refinement: bool = True,
        mh_threshold: float = 0.9,
    ) -> None:
        self.fn_limit = fn_limit
        self.fp_limit = fp_limit
        self.grid = list(grid) if grid is not None else _default_grid()
        self.mh_refinement = mh_refinement
        self.mh_threshold = mh_threshold

    # ------------------------------------------------------------------

    def evaluate(
        self, samples: Sequence[TrainingSample], beta_lower: float, beta_upper: float
    ) -> Assessment:
        """Average assessment of one bounds setting over the samples."""
        assessments = [
            assess(s.candidates, s.ideal, s.focal, beta_lower, beta_upper)
            for s in samples
        ]
        return average_assessments(assessments)

    def sweep(self, samples: Sequence[TrainingSample]) -> List[BoundsChoice]:
        """Assess every grid setting (Step 3's exploration loop)."""
        return [
            BoundsChoice(lo, hi, self.evaluate(samples, lo, hi))
            for lo, hi in self.grid
        ]

    def tune(self, samples: Sequence[TrainingSample]) -> BoundsChoice:
        """Pick the best setting: minimize M_F within the F_N/F_P limits.

        When no setting satisfies both limits, the constraint miss
        ``max(0, F_N - limit) + max(0, F_P - limit)`` is minimized instead
        (graceful degradation), then M_F breaks ties.
        """
        if not samples:
            raise ValueError("bounds tuning needs at least one training sample")
        choices = self.sweep(samples)
        feasible = [
            c
            for c in choices
            if c.assessment.f_n <= self.fn_limit and c.assessment.f_p <= self.fp_limit
        ]
        if feasible:
            best = min(
                feasible,
                key=lambda c: (
                    c.assessment.m_f,
                    c.assessment.f_n + c.assessment.f_p,
                    -c.beta_upper,
                ),
            )
        else:
            best = min(
                choices,
                key=lambda c: (
                    max(0.0, c.assessment.f_n - self.fn_limit)
                    + max(0.0, c.assessment.f_p - self.fp_limit),
                    c.assessment.m_f,
                ),
            )
        if self.mh_refinement:
            best = self._refine_with_mh(samples, best)
        return best

    # ------------------------------------------------------------------

    def _refine_with_mh(
        self, samples: Sequence[TrainingSample], best: BoundsChoice
    ) -> BoundsChoice:
        """M_H-guided refinement: a hit ratio near 1 means nearly all
        manually verified predictions get accepted, so β_upper can move
        left to auto-accept more — as long as the limits keep holding."""
        current = best
        while current.assessment.m_h >= self.mh_threshold and current.assessment.m_f > 0:
            lowered = round(current.beta_upper - 0.02, 4)
            if lowered <= current.beta_lower:
                break
            candidate = BoundsChoice(
                current.beta_lower,
                lowered,
                self.evaluate(samples, current.beta_lower, lowered),
            )
            if (
                candidate.assessment.f_n > self.fn_limit
                or candidate.assessment.f_p > self.fp_limit
            ):
                break
            current = candidate
        return current
