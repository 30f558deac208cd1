"""Synthetic event generation for scan-statistics experiments.

Implements the hypothesis-testing setup of Section II-A2: under the null,
every node's event count is Poisson with rate proportional to its baseline;
under the alternative, a small connected set ``S`` generates counts at an
elevated rate.  Used by the anomaly-detection tests (a detector must
recover the injected cluster) and the epidemic example.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.util.rng import as_stream


def null_poisson_counts(baselines: np.ndarray, rate: float = 1.0, rng=None) -> np.ndarray:
    """Counts under H0: ``Poisson(rate * b(v))`` per node."""
    rng = as_stream(rng, "null-counts")
    b = np.asarray(baselines, dtype=np.float64)
    if np.any(b < 0) or rate < 0:
        raise ConfigurationError("baselines and rate must be non-negative")
    return rng.poisson(lam=rate * b).astype(np.int64)


def inject_poisson_counts(
    baselines: np.ndarray,
    cluster: np.ndarray,
    elevation: float = 3.0,
    rate: float = 1.0,
    rng=None,
) -> np.ndarray:
    """Counts under H1(S): cluster nodes at ``elevation * rate``, rest at ``rate``."""
    rng = as_stream(rng, "alt-counts")
    b = np.asarray(baselines, dtype=np.float64)
    if elevation < 1.0:
        raise ConfigurationError(f"elevation must be >= 1, got {elevation}")
    lam = rate * b.copy()
    cl = np.asarray(cluster, dtype=np.int64)
    lam[cl] *= elevation
    return rng.poisson(lam=lam).astype(np.int64)


def pvalues_from_counts(
    counts: np.ndarray, baselines: np.ndarray, rate: float = 1.0
) -> np.ndarray:
    """Upper-tail Poisson p-values ``P[Poisson(rate b) >= c]`` per node."""
    from scipy.special import pdtrc

    c = np.asarray(counts, dtype=np.int64)
    b = np.asarray(baselines, dtype=np.float64)
    lam = np.maximum(rate * b, 1e-12)
    # P[X >= c] = P[X > c - 1], and P[X >= 0] = 1
    return np.where(c > 0, pdtrc(c - 1, lam), 1.0)
