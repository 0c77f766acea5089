"""Unit tests for the BoundsSetting adaptive tuning algorithm."""

import pytest

from repro.core.bounds import BoundsSetting, TrainingSample
from repro.types import ScoredTuple, TupleRef


def _t(i: int) -> TupleRef:
    return TupleRef("Gene", i)


def _sample(candidate_pairs, ideal_indices, focal_indices):
    return TrainingSample(
        candidates=tuple(ScoredTuple(_t(i), c, ()) for i, c in candidate_pairs),
        ideal=frozenset(_t(i) for i in ideal_indices),
        focal=tuple(_t(i) for i in focal_indices),
    )


@pytest.fixture
def clean_samples():
    """True links score high, junk scores low — cleanly separable."""
    return [
        _sample([(2, 0.95), (3, 0.92), (50, 0.15)], [1, 2, 3], [1]),
        _sample([(5, 0.90), (51, 0.20)], [4, 5], [4]),
        _sample([(7, 0.97), (8, 0.94), (52, 0.10)], [6, 7, 8], [6]),
    ]


@pytest.fixture
def noisy_samples():
    """True and junk overlap in the middle band — experts are needed."""
    return [
        _sample([(2, 0.95), (3, 0.55), (50, 0.60), (51, 0.15)], [1, 2, 3], [1]),
        _sample([(5, 0.50), (52, 0.45), (53, 0.1)], [4, 5], [4]),
        _sample([(7, 0.9), (8, 0.58), (54, 0.52)], [6, 7, 8], [6]),
    ]


class TestTune:
    def test_clean_world_needs_no_expert(self, clean_samples):
        choice = BoundsSetting(fn_limit=0.05, fp_limit=0.05).tune(clean_samples)
        assert choice.assessment.m_f == 0
        assert choice.assessment.f_n <= 0.05
        assert choice.assessment.f_p <= 0.05

    def test_noisy_world_keeps_expert_band(self, noisy_samples):
        choice = BoundsSetting(fn_limit=0.05, fp_limit=0.05).tune(noisy_samples)
        # Separating the overlapping 0.45-0.60 band automatically would
        # violate one of the limits: the tuner must keep a pending band.
        assert choice.beta_lower < choice.beta_upper
        assert choice.assessment.f_n <= 0.05
        assert choice.assessment.f_p <= 0.05
        assert choice.assessment.m_f > 0

    def test_infeasible_limits_degrade_gracefully(self, noisy_samples):
        grid = [(0.5, 0.5)]  # single degenerate setting, limits unreachable
        choice = BoundsSetting(fn_limit=0.0, fp_limit=0.0, grid=grid).tune(
            noisy_samples
        )
        assert (choice.beta_lower, choice.beta_upper) == (0.5, 0.5)

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            BoundsSetting().tune([])

    def test_sweep_covers_grid(self, clean_samples):
        grid = [(0.2, 0.8), (0.3, 0.9)]
        setting = BoundsSetting(grid=grid)
        choices = setting.sweep(clean_samples)
        assert [(c.beta_lower, c.beta_upper) for c in choices] == grid

    def test_evaluate_matches_manual_assessment(self, clean_samples):
        setting = BoundsSetting()
        averaged = setting.evaluate(clean_samples, 0.32, 0.86)
        assert averaged.f_n == pytest.approx(0.0)
        assert averaged.f_p == pytest.approx(0.0)


class TestMhRefinement:
    def test_refinement_lowers_upper_bound(self):
        # All pending predictions are true: M_H = 1, so the upper bound
        # can safely move left until the pending band is empty.
        samples = [
            _sample([(2, 0.7), (3, 0.75)], [1, 2, 3], [1]),
            _sample([(5, 0.72)], [4, 5], [4]),
        ]
        with_refinement = BoundsSetting(
            fn_limit=0.1, fp_limit=0.1, mh_refinement=True
        ).tune(samples)
        without = BoundsSetting(
            fn_limit=0.1, fp_limit=0.1, mh_refinement=False
        ).tune(samples)
        assert with_refinement.beta_upper <= without.beta_upper
        assert with_refinement.assessment.m_f <= without.assessment.m_f

    def test_refinement_never_crosses_lower_bound(self, noisy_samples):
        choice = BoundsSetting(mh_refinement=True).tune(noisy_samples)
        assert choice.beta_lower < choice.beta_upper or choice.assessment.m_f == 0
