"""The problem layer of the unified detection engine.

Every MIDAS application — k-path, k-tree, weighted k-path, scan
statistics — is the *same* Koutis/Williams evaluation loop over a
different DP: ``2^k`` iterations organized round → batch → phase, a
fresh fingerprint per amplification round, XOR accumulation of the
per-phase polynomial values.  The DP is an
:class:`~repro.core.mld.MLDCircuit`, and :func:`compile` turns it into
the :class:`ProblemSpec` the :class:`~repro.core.engine.DetectionEngine`
runs on any backend: everything that differs between applications, as
data derived from the circuit — ``k``, the fingerprint's ``levels`` and
``field``, the accumulator (a GF(2^l) scalar, or a weight-axis vector
XORed elementwise), the recurrence both :mod:`repro.core.leveldp`
drivers run, the Theorem-2 model's parameters, and the circuit itself,
which the process backend ships to its workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, List, Optional, Sequence, Union

import numpy as np

from repro.core.leveldp import Recurrence, run_whole_graph
from repro.core.mld import MLDCircuit
from repro.ff.fingerprint import Fingerprint
from repro.ff.gf2m import default_field_for_k, round_success_bound
from repro.graph.csr import CSRGraph

#: a per-phase contribution / per-round accumulator: GF scalar or weight axis
Value = Union[int, np.ndarray]


@dataclass
class ProblemSpec:
    """One MIDAS application, expressed as data for the detection engine.

    ``payload == 1`` means the accumulator is a scalar GF(2^l) value
    (plain detection); ``payload == z_max + 1`` means it is a weight-axis
    vector and all combination is elementwise XOR.  Both are commutative
    and associative, which is what lets the threaded backend accumulate
    phase results in completion order yet stay bit-identical.
    """

    name: str  # metrics / trace / checkpoint label ("k-path", "scanstat", ...)
    k: int  # iteration-space exponent: the round covers 2^k iterations
    levels: int  # fingerprint levels to draw per round
    field: Any  # GF(2^l) table set, sized by the polynomial's degree in the y's
    payload: int  # accumulator width: 1 = scalar, else z_max + 1
    recurrence: Recurrence  # the DP, run by either repro.core.leveldp driver
    # (rows, [Z+1,] lanes) states the recurrence keeps alive at once, besides
    # a multiply's temporaries: what a fused window's width is budgeted by
    live_states: int = 1
    vector: bool = False  # accumulator is a weight axis even when payload == 1
    # the Theorem-2 model's DP levels — neighbour sums per iteration (None:
    # k - 1) — and whether it charges the scan rows' z-convolution
    exchanges: Optional[int] = None
    convolves: bool = False
    # what mode="process" workers rebuild the spec from: the recurrence is a
    # closure and cannot cross a process boundary (None: hand-built spec)
    circuit: Optional[MLDCircuit] = None

    # ------------------------------------------------------------ semantics
    @property
    def scalar(self) -> bool:
        # `payload == 1` alone is wrong: a weight-axis problem with
        # z_max = 0 (all-zero weights) has a length-1 vector accumulator,
        # not a GF scalar
        return self.payload == 1 and not self.vector

    @property
    def round_success(self) -> Fraction:
        """The exact lower bound on a round's success in this spec's field
        (:func:`~repro.ff.gf2m.round_success_bound`), for its circuit's
        ``y``-degree (a hand-built spec: a k-path's, ``k``)."""
        d = self.circuit.y_degree if self.circuit is not None else self.k
        return round_success_bound(self.k, self.field.m, d)

    @property
    def reduce_nbytes(self) -> int:
        """Wire bytes of the per-round XOR all-reduce."""
        return 8 * self.payload

    def draw_fingerprint(self, n: int, rng) -> Fingerprint:
        return Fingerprint.draw(n, self.k, rng, levels=self.levels, field=self.field)

    def acc_init(self) -> Value:
        if self.scalar:
            return 0
        return np.zeros(self.payload, dtype=self.field.dtype)

    def combine(self, acc: Value, contribution: Value) -> Value:
        """XOR-fold one phase contribution into the round accumulator."""
        return acc ^ contribution

    def rank_value(self, raw) -> Value:
        """Coerce a rank program's all-reduced result to accumulator form."""
        if self.scalar:
            return int(raw)
        return np.asarray(raw, dtype=self.field.dtype)

    def phase_value(self, graph: CSRGraph, fp: Fingerprint, q0: int, n2: int) -> Value:
        """One phase window's contribution, evaluated on the whole graph."""
        per_lane = run_whole_graph(graph, self.recurrence, fp, q0, n2)
        return self.rank_value(np.bitwise_xor.reduce(per_lane, axis=-1))

    def window_values(self, graph: CSRGraph, fp: Fingerprint, n2: int,
                      width: int) -> List[Value]:
        """Every ``n2``-lane phase window's contribution to one round, in
        phase order, from whole-graph runs of ``width`` lanes each (both
        powers of two, at most ``2^k``): a run spans ``width / n2``
        windows, or a window ``n2 / width`` runs."""
        group = min(width, n2)  # lanes that one run gives one window
        parts = []
        for q in range(0, 1 << self.k, width):
            per_lane = run_whole_graph(graph, self.recurrence, fp, q, width)
            parts.append(np.bitwise_xor.reduce(
                per_lane.reshape(per_lane.shape[:-1] + (-1, group)), axis=-1))
        per_group = np.concatenate(parts, axis=-1)
        per_window = np.bitwise_xor.reduce(
            per_group.reshape(per_group.shape[:-1] + (-1, n2 // group)), axis=-1)
        return [self.rank_value(per_window[..., t]) for t in range(per_window.shape[-1])]

    def phase_values(self, graph: CSRGraph, fps: Sequence[Fingerprint], q0: int,
                     n2: int) -> List[Value]:
        """One phase window's contribution to each of ``len(fps)`` rounds:
        the rounds side by side in one window on the whole graph, each
        round's value the XOR of its own ``n2`` lanes (one round is
        :meth:`phase_value`)."""
        if len(fps) == 1:
            return [self.phase_value(graph, fps[0], q0, n2)]
        per_lane = run_whole_graph(graph, self.recurrence, fps, q0, n2)
        per_round = np.bitwise_xor.reduce(
            per_lane.reshape(per_lane.shape[:-1] + (len(fps), n2)), axis=-1)
        return [self.rank_value(per_round[..., r]) for r in range(len(fps))]

    def hit(self, value: Value) -> bool:
        """Does this round's accumulator certify a witness?"""
        if self.scalar:
            return value != 0
        return bool(np.any(np.asarray(value) != 0))


def compile(circuit: MLDCircuit, field: Any = None) -> ProblemSpec:
    """The engine's spec of ``circuit``, every parameter derived from it.

    ``field`` optionally supplies a prebuilt GF(2^l) table set (an
    :class:`~repro.core.engine.EngineSession` caches one per degree, so
    repeated queries skip table construction); the default
    builds ``default_field_for_k(circuit.y_degree)``.  Either way the
    tables are identical, so results never depend on who built them.
    """
    if field is None:
        field = default_field_for_k(circuit.y_degree)
    return ProblemSpec(
        name=circuit.name, k=circuit.k, levels=circuit.levels, field=field,
        payload=circuit.payload, recurrence=circuit.recurrence(),
        live_states=circuit.live_states, vector=circuit.weights is not None,
        # every neighbour sum is one halo exchange, and one DP level to the model
        exchanges=sum(s.operand is not None for s in circuit.steps),
        convolves=any(s.conv for s in circuit.steps), circuit=circuit,
    )


def path_problem(graph: CSRGraph, k: int, field: Any = None) -> ProblemSpec:
    """The k-path spec; kept only for ``benchmarks/ledger/layers.py``, and
    goes with ROADMAP item 1."""
    return compile(MLDCircuit.k_path(k), field)
