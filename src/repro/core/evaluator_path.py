"""The k-path phase evaluator, kept only for ``benchmarks/ledger/layers.py``;
it goes with ROADMAP item 1.  The k-path is :meth:`MLDCircuit.k_path`."""

import numpy as np

from repro.core.leveldp import run_whole_graph
from repro.core.mld import MLDCircuit


def path_eval_phase(graph, fp, q_start: int, n2: int) -> np.ndarray:
    """Per-iteration k-path values over ``[q_start, q_start + n2)``."""
    return run_whole_graph(graph, MLDCircuit.k_path(fp.k).recurrence(), fp, q_start, n2)[0]


def path_phase_value(graph, fp, q_start: int, n2: int) -> int:
    """The window's scalar contribution (XOR over its iterations)."""
    return int(np.bitwise_xor.reduce(path_eval_phase(graph, fp, q_start, n2)))
