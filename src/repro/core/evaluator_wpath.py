"""The weighted k-path phase evaluator, kept only for
``benchmarks/ledger/layers.py``; it goes with ROADMAP item 1.  The
weighted k-path is :meth:`MLDCircuit.weighted_path`."""

import numpy as np

from repro.core.mld import MLDCircuit
from repro.core.problems import compile
from repro.util.validation import check_weights


def weighted_path_eval_phase(graph, weights, fp, z_max: int, q_start: int,
                             n2: int) -> np.ndarray:
    """Per-weight, per-iteration values: ``(z_max + 1, n2)``."""
    circuit = MLDCircuit.weighted_path(check_weights(graph.n, weights, z_max), fp.k, z_max)
    return compile(circuit, fp.field).lane_cells(graph, fp, q_start, n2)
