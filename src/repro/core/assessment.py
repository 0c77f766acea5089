"""Assessment criteria for predicted attachments (paper Definition 7.2).

Given one annotation's triaged predictions, the ideal attachment set, and
the focal, the four criteria are:

.. math::

    F_N = (N_{ideal} - (N_{verify-T} + N_{accept-T} + N_{focal})) / N_{ideal}
    F_P = N_{accept-F} / (N_{verify-T} + N_{accept} + N_{focal})
    M_F = N_{verify}
    M_H = N_{verify-T} / N_{verify}

``N_verify*`` counts the pending (expert) band; in the experiments the
expert is played by the oracle (a pending prediction is verified-true iff
its edge exists in ``D_ideal``), exactly as the paper's own evaluation
computes these factors automatically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Iterable, Sequence, Tuple

from ..types import ScoredTuple, TupleRef


@dataclass(frozen=True)
class Assessment:
    """The four criteria plus the underlying Figure-8 counters."""

    f_n: float
    f_p: float
    m_f: int
    m_h: float
    n_ideal: int
    n_focal: int
    n_reject: int
    n_verify_t: int
    n_verify_f: int
    n_accept_t: int
    n_accept_f: int

    @property
    def n_verify(self) -> int:
        return self.n_verify_t + self.n_verify_f

    @property
    def n_accept(self) -> int:
        return self.n_accept_t + self.n_accept_f


def band_counts(
    candidates: Sequence[ScoredTuple],
    ideal: AbstractSet[TupleRef],
    focal: Sequence[TupleRef],
    beta_lower: float,
    beta_upper: float,
) -> Tuple[int, int, int, int, int]:
    """(n_reject, n_verify_t, n_verify_f, n_accept_t, n_accept_f).

    Focal tuples among the candidates are excluded (they are existing
    attachments, not predictions) — mirroring the triage.
    """
    focal_set = set(focal)
    n_reject = n_verify_t = n_verify_f = n_accept_t = n_accept_f = 0
    for candidate in candidates:
        if candidate.ref in focal_set:
            continue
        correct = candidate.ref in ideal
        if candidate.confidence < beta_lower:
            n_reject += 1
        elif candidate.confidence > beta_upper:
            if correct:
                n_accept_t += 1
            else:
                n_accept_f += 1
        else:
            if correct:
                n_verify_t += 1
            else:
                n_verify_f += 1
    return n_reject, n_verify_t, n_verify_f, n_accept_t, n_accept_f


def assess(
    candidates: Sequence[ScoredTuple],
    ideal: AbstractSet[TupleRef],
    focal: Sequence[TupleRef],
    beta_lower: float,
    beta_upper: float,
) -> Assessment:
    """Compute Definition 7.2 for one annotation's prediction."""
    focal_set = {f for f in focal if f in ideal}
    n_ideal = len(ideal)
    n_focal = len(focal_set)
    n_reject, n_verify_t, n_verify_f, n_accept_t, n_accept_f = band_counts(
        candidates, ideal, focal, beta_lower, beta_upper
    )
    n_verify = n_verify_t + n_verify_f
    n_accept = n_accept_t + n_accept_f
    covered = n_verify_t + n_accept_t + n_focal
    f_n = (n_ideal - covered) / n_ideal if n_ideal else 0.0
    denominator = n_verify_t + n_accept + n_focal
    f_p = n_accept_f / denominator if denominator else 0.0
    m_h = n_verify_t / n_verify if n_verify else 0.0
    return Assessment(
        f_n=max(0.0, f_n),
        f_p=f_p,
        m_f=n_verify,
        m_h=m_h,
        n_ideal=n_ideal,
        n_focal=n_focal,
        n_reject=n_reject,
        n_verify_t=n_verify_t,
        n_verify_f=n_verify_f,
        n_accept_t=n_accept_t,
        n_accept_f=n_accept_f,
    )


def average_assessments(assessments: Sequence[Assessment]) -> Assessment:
    """Average the criteria over a set of annotations (paper Step 3)."""
    if not assessments:
        raise ValueError("cannot average zero assessments")
    n = len(assessments)

    def mean(values: Iterable[float]) -> float:
        return sum(values) / n

    return Assessment(
        f_n=mean(a.f_n for a in assessments),
        f_p=mean(a.f_p for a in assessments),
        m_f=round(mean(a.m_f for a in assessments)),
        m_h=mean(a.m_h for a in assessments),
        n_ideal=round(mean(a.n_ideal for a in assessments)),
        n_focal=round(mean(a.n_focal for a in assessments)),
        n_reject=round(mean(a.n_reject for a in assessments)),
        n_verify_t=round(mean(a.n_verify_t for a in assessments)),
        n_verify_f=round(mean(a.n_verify_f for a in assessments)),
        n_accept_t=round(mean(a.n_accept_t for a in assessments)),
        n_accept_f=round(mean(a.n_accept_f for a in assessments)),
    )
