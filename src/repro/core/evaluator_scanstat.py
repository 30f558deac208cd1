"""PAREVALUATEPOLYNOMIALSCANSTAT (paper Algorithm 5) as a level-DP recurrence.

The scan-statistics polynomial tracks connected subgraphs by *size* ``j``
and integer *weight* ``z``:

    ``P(i, 1, z) = x_i`` for ``z = w(i)``, else 0
    ``P(i, j, z) = sum_u sum_{j'} sum_{z'} P(i, j', z') P(u, j-j', z-z')``

Because multiplication distributes over the neighbour sum, the inner loop
factorizes: with ``S(j'')`` the neighbour sum of ``P(., j'', .)`` the
update is a *z-convolution* of two ``(rows, Z+1, lanes...)`` arrays,
vectorized over nodes, weight, and the iteration batch.  On simulated
ranks each size level's halo message carries the whole weight axis — the
``W(V)`` factor in Lemma 3's communication bound.

Two deliberate deviations from the raw pseudocode (documented in
DESIGN.md):

* a random join coefficient ``y[i, j]`` multiplies each size-``j``
  combination — without it, the two build orders of a single edge
  ``{a, b}`` produce identical monomials and cancel in characteristic 2;
* only the size row ``j = dim`` (the group dimension this evaluation runs
  with) is returned, matching the paper's ``return sum_q sum_i
  P(i,q,k,z)``: rows ``j < dim`` always sum to zero over ``2^dim``
  iterations (a rank-``j`` term survives ``2^{dim-j}`` iterations — an even
  count).  The driver assembles the full (size, weight) grid from one run
  per size.
"""

from __future__ import annotations

import numpy as np

from repro.core.evaluator_wpath import check_weights, weight_seed
from repro.core.leveldp import Recurrence, run_whole_graph
from repro.errors import ConfigurationError
from repro.ff.fingerprint import Fingerprint
from repro.graph.csr import CSRGraph


def scan_y_degree(dim: int) -> int:
    """Degree in the fingerprint's ``y``s of size row ``dim``'s polynomial,
    which sizes its field (:func:`repro.ff.gf2m.field_degree_for_k`).

    A size-``j`` term has ``j`` base ``y``s and is built by ``j - 1``
    joins, each multiplying in one join coefficient: ``2j - 1``.  Rows 1
    and 2 take row 2's degree, as they always took row 2's field.
    """
    return 2 * max(dim, 2) - 1


def scanstat_recurrence(weights: np.ndarray, dim: int, z_max: int) -> Recurrence:
    """``P(., j, .) = y(j) * sum_{j1 + j2 = j} P(., j1, .) (*) S(j2)`` where
    ``S(j2)`` is the neighbour sum of ``P(., j2, .)`` and ``(*)`` is the
    convolution along the weight axis."""
    weights = np.asarray(weights, dtype=np.int64)

    def recurrence(lanes):
        p = {1: weight_seed(lanes, lanes.take(weights), z_max)}
        s = {}
        for j in range(2, dim + 1):
            s[j - 1] = yield p[j - 1]
            acc = np.zeros_like(p[1])
            for j1 in range(1, j):
                a, b = p[j1], s[j - j1]
                for z1 in range(z_max + 1):
                    col = a[:, z1]
                    if col.any():
                        acc[:, z1:] ^= lanes.mul(col[:, None], b[:, : z_max + 1 - z1])
            p[j] = lanes.mul(lanes.coeff(j)[:, None], acc)
        return p[dim]

    return recurrence


def scanstat_eval_phase(
    graph: CSRGraph, weights: np.ndarray, fp: Fingerprint, z_max: int,
    q_start: int, n2: int,
) -> np.ndarray:
    """Evaluate ``P(dim, z)`` for all ``z`` over one iteration window.

    ``fp.k`` is the size being detected (the group dimension).  Returns a
    ``(z_max + 1, n2)`` field array: ``out[z, t]`` is
    ``sum_i P(i, q_start + t, dim, z)``.
    """
    if fp.levels < fp.k + 1:
        raise ConfigurationError(
            f"scan-stat evaluation needs {fp.k + 1} fingerprint levels (base + join "
            f"coefficients per size), fingerprint has {fp.levels}"
        )
    w = check_weights(graph.n, weights, z_max)
    return run_whole_graph(
        graph, scanstat_recurrence(w, fp.k, z_max), fp, q_start, n2
    )


def scanstat_phase_value(
    graph: CSRGraph, weights: np.ndarray, fp: Fingerprint, z_max: int,
    q_start: int, n2: int,
) -> np.ndarray:
    """Per-weight scalar contributions of the phase: ``(z_max + 1,)``."""
    vals = scanstat_eval_phase(graph, weights, fp, z_max, q_start, n2)
    return np.bitwise_xor.reduce(vals, axis=1)
