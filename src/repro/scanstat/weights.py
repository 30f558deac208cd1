"""Weight calibration: observations -> the integer weight axis.

The MIDAS scan-statistics DP tracks an integer weight ``z``; real data
carries p-values or real-valued counts.  Two mappings are provided:

* **binary** (:func:`binary_weights_from_pvalues`) — weight 1 iff the node
  is individually significant at level ``alpha``.  This is the Chen–Neill
  non-parametric setting (Berk–Jones / Higher-Criticism) and keeps the
  weight axis at ``z <= k`` — the cheapest and the one the paper's road
  network case study uses.
* **rounded counts** (:func:`round_weights`) — the Knapsack-style rounding
  the paper references after Lemma 3: scale real weights so the largest is
  ``levels``, floor to integers.  The induced relative error per subgraph
  is at most ``k / levels``, for a weight axis of ``O(k * levels)``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import ConfigurationError


def normal_lower_pvalues(x: np.ndarray, mu: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Lower-tail p-values ``P[N(mu, sigma) <= x]`` per node.

    This is exactly the paper's road-network recipe: the p-value of a
    sensor is the normal CDF of its current reading under its historical
    mean and standard deviation (small p-value = anomalously *low* speed).
    """
    from scipy.special import ndtr

    x = np.asarray(x, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    if np.any(sigma <= 0):
        raise ConfigurationError("sigma must be positive everywhere")
    return ndtr((x - mu) / sigma)


def binary_weights_from_pvalues(pvalues: np.ndarray, alpha: float = 0.05) -> np.ndarray:
    """Weight 1 for nodes with ``p < alpha``, else 0 (non-parametric scan)."""
    p = np.asarray(pvalues, dtype=np.float64)
    if np.any((p < 0) | (p > 1)):
        raise ConfigurationError("p-values must lie in [0, 1]")
    if not (0.0 < alpha < 1.0):
        raise ConfigurationError(f"alpha must be in (0, 1), got {alpha}")
    return (p < alpha).astype(np.int64)


def round_weights(weights: np.ndarray, levels: int = 16) -> Tuple[np.ndarray, float]:
    """Round non-negative real weights to integers in ``[0, levels]``.

    Returns ``(int_weights, scale)`` with ``real ~ int * scale``.  For any
    subgraph of ``k`` nodes the rounded total underestimates the true total
    by at most ``k * scale`` (each node loses < one level), i.e. a relative
    error ``<= k / levels`` at the maximum — the standard Knapsack rounding
    trade-off the paper invokes to keep ``W(V)`` manageable.
    """
    w = np.asarray(weights, dtype=np.float64)
    if np.any(w < 0):
        raise ConfigurationError("weights must be non-negative")
    if levels < 1:
        raise ConfigurationError(f"levels must be >= 1, got {levels}")
    wmax = float(w.max()) if w.size else 0.0
    if wmax == 0.0:
        return np.zeros(w.shape, dtype=np.int64), 1.0
    scale = wmax / levels
    return np.floor(w / scale).astype(np.int64), scale
