"""The one training objective, its targets, and the score decoder.

Every task trains on one loss: the mean KL divergence of the softmax of
the model's logits from a target distribution.  Similarity scoring
treats a real-valued score as an expectation over K integer levels
1..K: the gold score y becomes a sparse distribution p with mass on the
two adjacent levels floor(y) and floor(y)+1 such that sum_i i * p_i = y.
The predicted score is the softmax expectation, mapped back to the
dataset's native range.  A classification target is one-hot on the gold
class, which makes the KL divergence the softmax cross entropy.

Datasets whose native range is not [1, K] (for example [0, 5]) are
affine-mapped into [1, K] and inverted for reporting; Pearson
correlation is unaffected by this map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .errors import ConfigError, DataError


@dataclass(frozen=True)
class ScoreSpec:
    """Integer level count K plus the dataset's native score range."""

    K: int
    raw_min: float
    raw_max: float

    def __post_init__(self):
        if self.K < 2:
            raise ConfigError(f"score_k must be >= 2, got {self.K}")
        if not self.raw_max > self.raw_min:
            raise ConfigError(
                f"raw score range is empty: [{self.raw_min}, {self.raw_max}]")

    @property
    def levels(self) -> np.ndarray:
        return np.arange(1, self.K + 1, dtype=np.float64)

    def map_raw(self, raw: float) -> float:
        """Affine map from the native range onto [1, K]."""
        span = self.raw_max - self.raw_min
        return 1.0 + (self.K - 1) * (float(raw) - self.raw_min) / span

    def unmap(self, mapped: float) -> float:
        span = self.raw_max - self.raw_min
        return self.raw_min + (float(mapped) - 1.0) * span / (self.K - 1)


def sparse_target(y: float, K: int) -> np.ndarray:
    """Distribution over levels 1..K with expectation y.

    Mass sits on levels floor(y) and floor(y)+1; for integer y all mass
    is on level y.
    """
    y = float(y)
    if not 1.0 <= y <= K:
        raise DataError(f"mapped score {y} outside [1, {K}]")
    p = np.zeros(K)
    fl = math.floor(y)
    if fl == K:
        p[K - 1] = 1.0
        return p
    p[fl - 1] = fl - y + 1.0
    p[fl] = y - fl
    return p


def one_hot_target(label: int, C: int) -> np.ndarray:
    """Distribution over C classes with all mass on class ``label``."""
    if not 0 <= label < C:
        raise DataError(f"class label {label} outside [0, {C})")
    p = np.zeros(C)
    p[label] = 1.0
    return p


def _check_target(p: np.ndarray):
    if np.any(p < 0) or np.any(np.abs(p.sum(axis=-1) - 1.0) > 1e-9):
        raise DataError("target is not a probability distribution")


def kl_loss(p: np.ndarray, logits):
    """KL(p || softmax(logits)) per row of (B, K) targets and logits, a (B,)
    vector; a scalar for one (K,) row.  Differentiable in logits."""
    p = np.asarray(p, dtype=np.float64)
    _check_target(p)
    return nc.kl_from_logits(p, logits)


def decode_score(logits, spec: ScoreSpec) -> float:
    """Expected level under softmax(logits), mapped back to the native range."""
    z = np.asarray(nc._value(logits), dtype=np.float64)
    if z.shape != (spec.K,):
        raise ConfigError(f"expected {spec.K} logits, got shape {z.shape}")
    q = np.exp(z - z.max())
    q /= q.sum()
    return spec.unmap(float(spec.levels @ q))
