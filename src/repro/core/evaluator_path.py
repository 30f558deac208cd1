"""PAREVALUATEPOLYNOMIALPATH (paper Algorithm 3) as a level-DP recurrence.

The k-path polynomial is evaluated per iteration ``q`` via the DP

    ``P(i, 1) = x_i``  and  ``P(i, j) = x_i * sum_{u in NBR(i)} P(u, j-1)``

where ``x_i`` evaluates, at iteration ``q`` and DP level ``j``, to
``y[i, j] * [ <v_i, q> even ]`` (see :mod:`repro.ff.fingerprint`).  A whole
*phase* of ``N_2`` iterations is evaluated at once.

:func:`path_recurrence` is the DP itself; :mod:`repro.core.leveldp` runs
it on the whole graph (:func:`path_eval_phase` — the ground truth every
backend must match bit-for-bit, element-wise or plane-resident by the
field's kernel) or on simulated ranks with per-level halo exchange of
boundary values batched over the phase's ``N_2`` iterations (the paper's
message coalescing).
"""

from __future__ import annotations

import numpy as np

from repro.core.leveldp import Recurrence, run_whole_graph
from repro.errors import ConfigurationError
from repro.ff.fingerprint import Fingerprint
from repro.graph.csr import CSRGraph


def path_recurrence(k: int) -> Recurrence:
    """``P(., j) = x(j) * neighbour-sum(P(., j-1))`` for ``j = 1 .. k-1``."""

    def recurrence(lanes):
        p = lanes.base(0)
        for j in range(1, k):
            summed = yield p
            p = None  # the level below is dead once summed: free it first
            p = lanes.mul(lanes.base(j), summed)
        return p

    return recurrence


def path_eval_phase(graph: CSRGraph, fp: Fingerprint, q_start: int, n2: int) -> np.ndarray:
    """Evaluate the k-path polynomial for iterations ``[q_start, q_start+n2)``.

    Returns an ``(n2,)`` field array: entry ``t`` is
    ``sum_i P(i, q_start + t, k)``.  XORing these across all ``2^k``
    iterations gives the round's final value.
    """
    if fp.levels < fp.k:
        raise ConfigurationError(f"fingerprint has {fp.levels} levels; k={fp.k} needed")
    return run_whole_graph(graph, path_recurrence(fp.k), fp, q_start, n2)


def path_phase_value(graph: CSRGraph, fp: Fingerprint, q_start: int, n2: int) -> int:
    """The phase's scalar contribution ``SUM_t`` (XOR over its iterations)."""
    return int(np.bitwise_xor.reduce(path_eval_phase(graph, fp, q_start, n2)))
