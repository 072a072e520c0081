"""Mapping competition scores to per-sample loss weights.

The mapping is affine: w_i = sigma + rho * s_i.  Positive rho boosts
group winners (high-score samples), negative rho boosts losers, zero
degenerates to uniform weighting.  Weights multiply per-sample losses
directly with no batch renormalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = ["WeightingConfig", "compute_weights"]


@dataclass(frozen=True)
class WeightingConfig:
    """Affine score-to-weight map w = sigma + rho * s.

    Scores lie in (0, 1), so sigma + rho >= 0 is exactly the condition
    for never emitting a negative weight, and finite sigma and sigma + rho
    for never emitting a non-finite one (every weight lies between the
    two); both are checked here, before any training starts.
    """

    sigma: float
    rho: float

    def __post_init__(self):
        if not all(math.isfinite(b) for b in self.bounds):
            raise ConfigError(
                f"sigma={self.sigma} with rho={self.rho} gives non-finite "
                "weights; sigma and sigma + rho must be finite"
            )
        if self.sigma < 0:
            raise ConfigError(f"sigma must be non-negative, got {self.sigma}")
        if self.sigma + self.rho < 0:
            raise ConfigError(
                f"sigma={self.sigma} with rho={self.rho} can emit negative "
                f"weights; sigma must be at least {-self.rho}"
            )

    @property
    def strategy(self) -> str:
        """The sign of rho by name: ns_ws (rho > 0) strengthens group
        winners, ns_lf (rho < 0) focuses on losers, uniform (rho == 0)
        weights every sample sigma."""
        if self.rho > 0:
            return "ns_ws"
        if self.rho < 0:
            return "ns_lf"
        return "uniform"

    @property
    def bounds(self) -> tuple[float, float]:
        """Closed interval containing every weight this config can emit."""
        lo, hi = sorted((self.sigma, self.sigma + self.rho))
        return lo, hi


def compute_weights(scores, cfg: WeightingConfig) -> np.ndarray:
    """w_i = sigma + rho * s_i for scores strictly inside (0, 1).

    ``WeightingConfig`` guarantees finite sigma and sigma + rho >= 0, so
    every weight is finite and none is negative.
    """
    s = np.asarray(scores, dtype=np.float64)
    if s.size:
        lo = np.minimum.reduce(s, axis=None)
        hi = np.maximum.reduce(s, axis=None)
        # NaN compares false, so a NaN score fails this test
        if not (lo > 0.0 and hi < 1.0):
            raise ConfigError("scores must lie strictly inside (0, 1); "
                              f"got range [{lo}, {hi}]")
    w = cfg.rho * s
    w += cfg.sigma
    return w

