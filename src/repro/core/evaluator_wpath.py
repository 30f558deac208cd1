"""Weighted k-path evaluation (the paper's Problem 1 max-weight variant).

Section II-A1 lists "finding a maximum weight embedding in a weighted
version of the graph" as a variant the approach extends to, and Problem 3
asks for "the maximum weight of any multilinear term".  With non-negative
integer node weights this is a weight-resolved path DP — the k-path
analogue of Algorithm 5's weight axis:

    ``P(i, 1, z) = x_i`` for ``z = w(i)``, else 0
    ``P(i, j, z) = x_i * sum_u P(u, j-1, z - w(i))``

Summed over the ``2^k`` iterations, cell ``z`` of the degree-``k`` row is
nonzero iff a simple k-path of total node weight exactly ``z`` exists;
the maximum nonzero ``z`` is the answer.  The per-node shift ``z - w(i)``
is vectorized as one fancy-indexed gather along the weight axis, applied
to the neighbour sum.  States are ``(rows, Z+1, lanes...)``; on simulated
ranks each level's halo message therefore carries the whole weight axis.
"""

from __future__ import annotations

import numpy as np

from repro.core.leveldp import Lanes, Recurrence, run_whole_graph
from repro.errors import ConfigurationError
from repro.ff.fingerprint import Fingerprint
from repro.graph.csr import CSRGraph, memory_order


def check_weights(n: int, weights: np.ndarray, z_max: int = 0) -> np.ndarray:
    """Validate a node-weight vector (and the weight axis' bound, where the
    caller has one already); returns it as int64."""
    w = np.asarray(weights, dtype=np.int64)
    if w.shape != (n,):
        raise ConfigurationError(
            f"weights must be one integer per vertex ({n}), got shape {w.shape}"
        )
    if np.any(w < 0):
        raise ConfigurationError("weights must be non-negative integers")
    if z_max < 0:
        raise ConfigurationError(f"z_max must be >= 0, got {z_max}")
    return w


def weight_seed(lanes: Lanes, w: np.ndarray, z_max: int) -> np.ndarray:
    """``P(., 1, ., .)``: each row's level-0 variable at weight ``w(i)``
    (rows heavier than ``z_max`` stay zero)."""
    base = lanes.base(0)
    out = np.zeros((len(w), z_max + 1) + base.shape[1:], dtype=base.dtype)
    ok = np.nonzero(w <= z_max)[0]
    out[ok, w[ok]] = base[ok]
    return out


def _gather_rows_z(s: np.ndarray, flat_src: np.ndarray) -> np.ndarray:
    """``s[i, z]`` for ``flat_src = i (Z+1) + z`` per logical ``(row, z)``
    cell: one ``take`` over the merged row-weight axis of ``s`` as it lies
    in memory (rows and weight cells are adjacent there in every layout),
    so the result keeps ``s``'s memory order — a plane-major state stays
    plane-major, and the multiply that consumes it runs along contiguous
    words.  (Fancy indexing ``s[row_idx, src_z]`` would lay the result out
    row-major whatever ``s`` was.)"""
    order, inverse = memory_order(s)
    blk = s.transpose(order)
    at = order.index(0)
    merged = blk.reshape(blk.shape[:at] + (-1,) + blk.shape[at + 2:])
    out = np.take(merged, flat_src, axis=at)
    return out.reshape(blk.shape).transpose(inverse)


def weighted_path_recurrence(weights: np.ndarray, k: int, z_max: int) -> Recurrence:
    """``P(i, j, z) = x_i(j) * neighbour-sum(P(., j-1, .))[i, z - w(i)]``."""
    weights = np.asarray(weights, dtype=np.int64)

    def recurrence(lanes):
        w = lanes.take(weights)
        p = weight_seed(lanes, w, z_max)
        # per-row shifted gather: shifted[i, z] = s[i, z - w(i)] (0 pad)
        src_z = np.arange(z_max + 1, dtype=np.int64)[None, :] - w[:, None]
        valid = src_z >= 0
        src_z = np.where(valid, src_z, 0)
        flat_src = (np.arange(len(w), dtype=np.int64)[:, None] * (z_max + 1)
                    + src_z).ravel()
        for j in range(1, k):
            s = yield p
            shifted = _gather_rows_z(s, flat_src)
            shifted[~valid] = 0
            p = lanes.mul(lanes.base(j)[:, None], shifted)
        return p

    return recurrence


def weighted_path_eval_phase(
    graph: CSRGraph,
    weights: np.ndarray,
    fp: Fingerprint,
    z_max: int,
    q_start: int,
    n2: int,
) -> np.ndarray:
    """Evaluate the weight-resolved k-path polynomial over one phase.

    Returns a ``(z_max + 1, n2)`` field array: ``out[z, t]`` is
    ``sum_i P(i, q_start + t, k, z)``.
    """
    if fp.levels < fp.k:
        raise ConfigurationError(f"fingerprint has {fp.levels} levels; k={fp.k} needed")
    w = check_weights(graph.n, weights, z_max)
    return run_whole_graph(
        graph, weighted_path_recurrence(w, fp.k, z_max), fp, q_start, n2
    )


def weighted_path_phase_value(
    graph: CSRGraph,
    weights: np.ndarray,
    fp: Fingerprint,
    z_max: int,
    q_start: int,
    n2: int,
) -> np.ndarray:
    """Per-weight scalar contributions of the phase: ``(z_max + 1,)``."""
    vals = weighted_path_eval_phase(graph, weights, fp, z_max, q_start, n2)
    return np.bitwise_xor.reduce(vals, axis=1)
