"""The k-tree phase evaluator, kept only for ``benchmarks/ledger/layers.py``;
it goes with ROADMAP item 1.  The k-tree is :meth:`MLDCircuit.k_tree`."""

import numpy as np

from repro.core.leveldp import run_whole_graph
from repro.core.mld import MLDCircuit


def tree_eval_phase(graph, template, fp, q_start: int, n2: int,
                    specs=None) -> np.ndarray:
    """Per-iteration k-tree values (``specs``, a decomposition, is unused)."""
    circuit = MLDCircuit.k_tree(template)
    return run_whole_graph(graph, circuit.recurrence(), fp, q_start, n2)[0]
