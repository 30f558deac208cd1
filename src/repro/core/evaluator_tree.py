"""PAREVALUATEPOLYNOMIALTREE (paper Algorithm 4) as a level-DP recurrence.

The k-tree polynomial follows the template decomposition of
:func:`repro.graph.templates.decompose_template` (paper Fig 2):

* single-node subtree rooted at template node ``a``:
  ``P(i, {a}) = x_i`` — evaluated as ``y[i, a] * [ <v_i, q> even ]``
  (one fingerprint level per *template node*, so distinct homomorphisms
  carry distinct monomials);
* composite subtree ``H'`` with children ``H'_1`` (same root) and ``H'_2``
  (rooted at the detached neighbour):
  ``P(i, H') = sum_{u in NBR(i)} P(i, H'_1) * P(u, H'_2)``
  — one neighbour sum of the branch child, then one field multiply with
  the same-root child.

Specs are evaluated children-first.  The decomposition gives every
non-root subtree exactly one consumer, so a child's array is released the
moment it is used, keeping peak memory at ``O(k)`` arrays of ``(n, N_2)``.
The k-path is the special case of a path template (and the test-suite
checks the two evaluators agree on it).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.leveldp import Recurrence, run_whole_graph
from repro.errors import ConfigurationError
from repro.ff.fingerprint import Fingerprint
from repro.graph.csr import CSRGraph
from repro.graph.templates import SubtreeSpec, TreeTemplate, decompose_template


def tree_recurrence(specs: Sequence[SubtreeSpec]) -> Recurrence:
    """``P(., H') = P(., H'_1) * neighbour-sum(P(., H'_2))`` per composite spec."""

    def recurrence(lanes):
        values = {}
        for s in specs:
            if s.is_leaf:
                values[s.sid] = lanes.base(s.root)
            else:
                acc = yield values.pop(s.child_branch)
                values[s.sid] = lanes.mul(values.pop(s.child_same), acc)
        return values[specs[-1].sid]

    return recurrence


def tree_eval_phase(
    graph: CSRGraph, template: TreeTemplate, fp: Fingerprint, q_start: int, n2: int,
    specs: Sequence[SubtreeSpec] = None,
) -> np.ndarray:
    """Evaluate the k-tree polynomial for iterations ``[q_start, q_start+n2)``.

    Returns ``(n2,)``: per-iteration values of ``sum_i P(i, H)``.
    """
    if fp.k != template.k:
        raise ConfigurationError(
            f"fingerprint k={fp.k} does not match template k={template.k}"
        )
    if fp.levels < template.k:
        raise ConfigurationError(
            f"tree evaluation needs one fingerprint level per template node "
            f"({template.k}); fingerprint has {fp.levels}"
        )
    if specs is None:
        specs = decompose_template(template)
    return run_whole_graph(graph, tree_recurrence(specs), fp, q_start, n2)


def tree_phase_value(
    graph: CSRGraph, template: TreeTemplate, fp: Fingerprint, q_start: int, n2: int,
    specs: Sequence[SubtreeSpec] = None,
) -> int:
    """The phase's scalar ``SUM_t`` for the tree polynomial."""
    return int(np.bitwise_xor.reduce(tree_eval_phase(graph, template, fp, q_start, n2, specs)))
