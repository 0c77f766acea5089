"""Unit tests for RNG helpers and the configuration object."""

import pytest

from repro.config import NEBULA_06, NEBULA_08, NebulaConfig
from repro.errors import ConfigurationError
from repro.utils.rng import make_rng


class TestMakeRng:
    def test_same_seed_same_stream(self):
        assert make_rng(1, "s").random() == make_rng(1, "s").random()

    def test_salt_decorrelates(self):
        assert make_rng(1, "a").random() != make_rng(1, "b").random()

    def test_none_seed_gives_fresh_rng(self):
        rng = make_rng(None)
        assert 0.0 <= rng.random() < 1.0


class TestNebulaConfig:
    def test_defaults_are_valid(self):
        config = NebulaConfig()
        assert config.epsilon == 0.6
        assert config.beta1 > config.beta2 > config.beta3

    def test_named_variants(self):
        assert NEBULA_06.epsilon == 0.6
        assert NEBULA_08.epsilon == 0.8

    def test_with_updates_returns_new_object(self):
        base = NebulaConfig()
        updated = base.with_updates(epsilon=0.8)
        assert updated.epsilon == 0.8
        assert base.epsilon == 0.6

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epsilon": 0.0},
            {"epsilon": 1.5},
            {"alpha": 0},
            {"beta1": 0.1, "beta2": 0.2, "beta3": 0.05},
            {"beta_lower": 0.9, "beta_upper": 0.5},
            {"beta_upper": 1.5},
            {"batch_size": 0},
            {"stability_mu": 0.0},
            {"stability_mu": 1.0},
            {"spreading_hops": 0},
            {"target_recall": 0.0},
            {"analysis_cache_size": -1},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            NebulaConfig(**kwargs)

    def test_frozen(self):
        with pytest.raises(Exception):
            NebulaConfig().epsilon = 0.9  # type: ignore[misc]
