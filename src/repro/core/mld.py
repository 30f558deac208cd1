"""The k-MLD problem as a first-class abstraction (paper Problem 3).

Two deliverables live here:

* :class:`MLDCircuit` — a generic recursively-defined polynomial: callers
  supply the DP structure (how level values are combined from neighbour
  sums), and :func:`detect_multilinear` evaluates it over the matrix
  representation without the caller touching fields or fingerprints.  The
  k-path and k-tree reductions are provided as constructors; new
  reductions (other subgraph families) plug in the same way.
* :func:`algorithm1_reference` — the paper's **Algorithm 1 verbatim**:
  evaluate over the *integers* with ``P(i,1) = 1 + (-1)^{v_i^T t_bin}``,
  accumulate ``P mod 2^{k+1}``, answer "yes" iff nonzero.  This is the
  Koutis formulation the paper presents before the Williams ``GF(2^l)``
  refinement that the production evaluators implement.  It is exponential
  in memory-free but slow (big-int coefficients are avoided by reducing
  mod ``2^{k+1}`` throughout), and exists as an executable specification:
  the test-suite cross-checks the production detector against it.

Note the known gap in the verbatim algorithm (also present in the paper's
pseudocode): over the integers mod ``2^{k+1}``, distinct multilinear terms
can pairwise cancel — most plainly, an undirected path and its reverse
contribute identically, making ``P ≡ 0 (mod 2^{k+1})`` even when paths
exist.  :func:`algorithm1_reference` therefore accepts ``directed=True``
(count each walk orientation from a fixed endpoint order) for testing the
positive direction, and the production path is the fingerprinted
``GF(2^l)`` version.  This is exactly the deviation DESIGN.md documents.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.core.leveldp import Recurrence, run_whole_graph
from repro.core.schedule import rounds_for_epsilon
from repro.ff.fingerprint import Fingerprint, base_indicator_block
from repro.ff.gf2m import default_field_for_k
from repro.graph.csr import CSRGraph
from repro.graph.templates import TreeTemplate, decompose_template
from repro.util.rng import as_stream


@dataclass(frozen=True)
class CircuitStep:
    """One DP step of an :class:`MLDCircuit`.

    ``target`` is the slot written; ``operand`` the slot whose values are
    gathered over neighbours and summed; ``factor`` the slot multiplied
    with the neighbour sum (the paper's ``P(i, j') * sum_u P(u, j'')``
    shape).  ``variable_level`` is the fingerprint level whose ``x_i``
    base value multiplies into the result, or ``None`` if no fresh
    variable enters at this step (tree steps introduce variables only at
    leaves).
    """

    target: int
    factor: Optional[int]
    operand: int
    variable_level: Optional[int]


@dataclass(frozen=True)
class MLDCircuit:
    """A recursively defined polynomial of multilinear degree ``k``.

    ``leaves[slot] = level`` seeds slot ``slot`` with the variable at
    fingerprint level ``level``; ``steps`` then run in order; ``output``
    names the slot whose vertex-sum is the polynomial value.
    """

    k: int
    n_slots: int
    leaves: Sequence[tuple]
    steps: Sequence[CircuitStep]
    output: int
    levels: int
    name: str = "circuit"

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ConfigurationError(f"k must be >= 1, got {self.k}")
        if not (0 <= self.output < self.n_slots):
            raise ConfigurationError("output slot out of range")
        for slot, level in self.leaves:
            if not (0 <= slot < self.n_slots) or not (0 <= level < self.levels):
                raise ConfigurationError(f"bad leaf ({slot}, {level})")
        for s in self.steps:
            for ref in (s.target, s.operand):
                if not (0 <= ref < self.n_slots):
                    raise ConfigurationError(f"slot {ref} out of range")
            if s.factor is not None and not (0 <= s.factor < self.n_slots):
                raise ConfigurationError(f"slot {s.factor} out of range")
            if s.variable_level is not None and not (0 <= s.variable_level < self.levels):
                raise ConfigurationError(f"level {s.variable_level} out of range")
        written = {slot for slot, _level in self.leaves}
        for s in self.steps:
            for ref in (s.operand, s.factor):
                if ref is not None and ref not in written:
                    raise ConfigurationError(
                        f"step writing slot {s.target} reads slot {ref} before it is set"
                    )
            written.add(s.target)
        if self.output not in written:
            raise ConfigurationError("output slot never written")

    # ------------------------------------------------------------ builders
    @staticmethod
    def k_path(k: int) -> "MLDCircuit":
        """The k-path reduction (Section III-D): levels = path positions."""
        leaves = [(0, 0)]
        steps = [
            CircuitStep(target=j, factor=None, operand=j - 1, variable_level=j)
            for j in range(1, k)
        ]
        return MLDCircuit(
            k=k, n_slots=k, leaves=leaves, steps=steps, output=k - 1,
            levels=k, name=f"k_path({k})",
        )

    @staticmethod
    def k_tree(template: TreeTemplate) -> "MLDCircuit":
        """The k-tree reduction (Section V-A) from a template decomposition."""
        specs = decompose_template(template)
        leaves = []
        steps = []
        for s in specs:
            if s.is_leaf:
                leaves.append((s.sid, s.root))
            else:
                steps.append(
                    CircuitStep(
                        target=s.sid, factor=s.child_same, operand=s.child_branch,
                        variable_level=None,
                    )
                )
        return MLDCircuit(
            k=template.k, n_slots=len(specs), leaves=leaves, steps=steps,
            output=specs[-1].sid, levels=template.k, name=f"k_tree({template.name})",
        )

    # ----------------------------------------------------------- evaluation
    def recurrence(self) -> Recurrence:
        """The circuit as a :mod:`repro.core.leveldp` recurrence: one
        neighbour sum per step (run it on simulated ranks with
        :func:`~repro.core.leveldp.phase_program`)."""

        def recurrence(lanes):
            slots = {slot: lanes.base(level) for slot, level in self.leaves}
            for s in self.steps:
                acc = yield slots[s.operand]
                if s.factor is not None:
                    acc = lanes.mul(slots[s.factor], acc)
                if s.variable_level is not None:
                    acc = lanes.mul(lanes.base(s.variable_level), acc)
                slots[s.target] = acc
            return slots[self.output]

        return recurrence

    def eval_phase(self, graph: CSRGraph, fp: Fingerprint, q_start: int, n2: int) -> np.ndarray:
        """Evaluate per-iteration values over a window: returns ``(n2,)``."""
        return run_whole_graph(graph, self.recurrence(), fp, q_start, n2)


def detect_multilinear(
    graph: CSRGraph,
    circuit: MLDCircuit,
    eps: float = 0.2,
    rng=None,
    n2: Optional[int] = None,
    early_exit: bool = True,
) -> bool:
    """Decide whether ``circuit`` has a degree-``k`` multilinear term.

    One-sided Monte Carlo with failure probability at most ``eps``; the
    generic-driver analogue of :func:`repro.core.midas.detect_path`.
    """
    rng = as_stream(rng, "mld")
    k = circuit.k
    total = 1 << k
    if n2 is None:
        n2 = min(total, 64)
    if total % n2:
        raise ConfigurationError(f"n2 (={n2}) must divide 2^k (={total})")
    field = default_field_for_k(k)
    rounds = rounds_for_epsilon(eps)
    hit = False
    for ell in range(rounds):
        fp = Fingerprint.draw(graph.n, k, rng.child(f"round{ell}"),
                              levels=circuit.levels, field=field)
        value = 0
        for t in range(total // n2):
            value ^= int(np.bitwise_xor.reduce(
                circuit.eval_phase(graph, fp, t * n2, n2)
            ))
        if value:
            hit = True
            if early_exit:
                break
    return hit


def algorithm1_reference(
    graph: CSRGraph,
    k: int,
    rng=None,
    directed_from: Optional[int] = None,
) -> int:
    """Paper Algorithm 1, verbatim over the integers mod ``2^(k+1)``.

    One round: draw ``v_i`` uniformly in ``Z_2^k``; for each iteration
    ``t`` evaluate the k-path DP with ``P(i, 1) = 1 + (-1)^{v_i^T t_bin}``
    (values in {0, 2}); return ``sum_t sum_i P(i, t, k) mod 2^(k+1)``.

    ``directed_from`` restricts the final sum to walks *ending* at one
    vertex — useful in tests because, as the module docstring explains,
    the undirected total is identically 0 mod ``2^(k+1)`` whenever every
    path pairs with its reverse.
    """
    rng = as_stream(rng, "alg1")
    if not (1 <= k <= 20):
        raise ConfigurationError(f"reference algorithm supports 1 <= k <= 20, got {k}")
    n = graph.n
    mod = 1 << (k + 1)
    v = rng.integers(0, 1 << k, size=n).astype(np.uint64)
    total = 0
    for t in range(1 << k):
        base = (2 * base_indicator_block(v, t, 1)[:, 0].astype(np.int64))  # {0, 2}
        p = base.copy()
        for _j in range(1, k):
            gathered = p[graph.indices]
            # integer segment-sum mod 2^(k+1)
            sums = np.zeros(n, dtype=np.int64)
            np.add.at(sums, np.repeat(np.arange(n), np.diff(graph.indptr)), gathered)
            p = (base * sums) % mod
        if directed_from is None:
            total = (total + int(p.sum())) % mod
        else:
            total = (total + int(p[directed_from])) % mod
    return total
