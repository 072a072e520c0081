"""Score-to-weight mapping and its configuration guardrails."""

import numpy as np
import pytest

from natsel.errors import ConfigError
from natsel.weighting import WeightingConfig, compute_weights


class TestWeightingConfig:
    def test_strategy_follows_sign_of_rho(self):
        assert WeightingConfig(1.0, 0.3).strategy == "ns_ws"
        assert WeightingConfig(1.0, -0.3).strategy == "ns_lf"
        assert WeightingConfig(1.0, 0.0).strategy == "uniform"

    def test_sigma_must_be_non_negative(self):
        with pytest.raises(ConfigError):
            WeightingConfig(sigma=-0.1, rho=0.0)

    def test_sigma_must_cover_negative_rho(self):
        with pytest.raises(ConfigError):
            WeightingConfig(sigma=0.5, rho=-1.0)
        edge = WeightingConfig(1.0, -1.0)
        w = compute_weights([1.0 - 1e-12, 1e-12], edge)
        assert np.all(w >= 0.0)


class TestComputeWeights:
    def test_affine_map_example(self):
        cfg = WeightingConfig(0.7, 1.0)
        w = compute_weights([0.25], cfg)
        assert abs(w[0] - 0.95) <= 1e-15

    def test_zero_rho_gives_constant_sigma(self):
        cfg = WeightingConfig(1.3, 0.0)
        w = compute_weights([0.1, 0.5, 0.9], cfg)
        assert w.tolist() == [1.3, 1.3, 1.3]

    def test_loser_focus_example(self):
        cfg = WeightingConfig(2.5, -1.0)
        w = compute_weights([0.5], cfg)
        assert abs(w[0] - 2.0) <= 1e-15

    def test_positive_rho_preserves_score_order(self):
        scores = np.array([0.1, 0.4, 0.2, 0.3])
        w = compute_weights(scores, WeightingConfig(0.7, 1.0))
        assert np.array_equal(np.argsort(w), np.argsort(scores))

    def test_negative_rho_reverses_score_order(self):
        scores = np.array([0.1, 0.4, 0.2, 0.3])
        w = compute_weights(scores, WeightingConfig(2.0, -1.0))
        assert np.array_equal(np.argsort(w), np.argsort(-scores))

    def test_group_mean_is_sigma_plus_rho_over_m(self):
        # Scores within a group sum to 1, so the mean weight is fixed.
        scores = np.array([0.1, 0.2, 0.3, 0.4])
        for sigma, rho in ((0.7, 1.0), (2.5, -1.0), (1.0, 0.5)):
            cfg = WeightingConfig(sigma, rho)
            mean = compute_weights(scores, cfg).mean()
            assert abs(mean - (sigma + rho / 4)) <= 1e-12

    def test_weights_stay_in_bounds(self):
        rng = np.random.default_rng(3)
        scores = rng.random(100) * 0.98 + 0.01
        for sigma, rho in ((0.7, 1.0), (1.5, -1.0), (0.0, 1.0)):
            cfg = WeightingConfig(sigma, rho)
            w = compute_weights(scores, cfg)
            lo, hi = sorted((sigma, sigma + rho))
            assert w.min() >= lo - 1e-15
            assert w.max() <= hi + 1e-15

    def test_scores_must_be_strictly_interior(self):
        cfg = WeightingConfig(1.0, 0.0)
        with pytest.raises(ConfigError):
            compute_weights([0.0, 0.5], cfg)
        with pytest.raises(ConfigError):
            compute_weights([0.5, 1.0], cfg)
        with pytest.raises(ConfigError):
            compute_weights([-0.1], cfg)

    @pytest.mark.parametrize("scores", [[0.5, float("nan")],
                                        [float("nan"), 0.5],
                                        [float("nan")]])
    def test_nan_score_rejected(self, scores):
        with pytest.raises(ConfigError):
            compute_weights(scores, WeightingConfig(1.0, 0.4))

    def test_negative_weight_is_a_config_error(self):
        # A config that could emit a negative weight never gets built, so
        # compute_weights cannot meet one partway through training.
        with pytest.raises(ConfigError):
            WeightingConfig(0.5, -1.0)

    def test_non_finite_weight_rejected(self):
        # A config that could emit a non-finite weight never gets built,
        # so compute_weights cannot meet one partway through training.
        with pytest.raises(ConfigError):
            WeightingConfig(float("inf"), 0.0)

    def test_empty_scores_allowed(self):
        cfg = WeightingConfig(1.0, 1.0)
        assert compute_weights([], cfg).shape == (0,)
