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
drivers run, a weighted kind's evaluation points, the Theorem-2 model's
parameters, and the circuit itself, which the process backend ships to
its workers.

A weighted kind's windows run at ``P`` points of its ``z``
(:class:`~repro.core.leveldp.PointBlocks`); the spec interpolates each
window's point values into weight cells where it forms the window's
value (:meth:`ProblemSpec.phase_values`, :meth:`ProblemSpec.window_values`;
a simulated rank does it before its all-reduce), so the engine's
accumulators, digests and checkpoints only ever see cells.  A circuit of
several outputs — the scan grid, one per size — has them side by side in
one value, output-major (:func:`~repro.core.leveldp.fold_values`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, List, Optional, Sequence, Union

import numpy as np

from repro.core.leveldp import PointBlocks, Recurrence, fold_values, run_whole_graph
from repro.core.mld import MLDCircuit
from repro.ff.fingerprint import Fingerprint
from repro.ff.gf2m import default_field_for_k, round_success_bound
from repro.graph.csr import CSRGraph

#: a per-phase contribution / per-round accumulator: GF scalar or weight axis
Value = Union[int, np.ndarray]


@dataclass
class ProblemSpec:
    """One MIDAS application, expressed as data for the detection engine.

    ``payload == 1`` with one output means the accumulator is a scalar
    GF(2^l) value (plain detection); otherwise it is a vector of each
    output's ``payload`` cells (``z_max + 1`` on a weight axis) and all
    combination is elementwise XOR.  Both are commutative and associative,
    which is what lets the threaded backend accumulate phase results in
    completion order yet stay bit-identical.
    """

    name: str  # metrics / trace / checkpoint label ("k-path", "scanstat", ...)
    k: int  # iteration-space exponent: the round covers 2^k iterations
    levels: int  # fingerprint levels to draw per round
    field: Any  # GF(2^l) table set, sized by the polynomial's degree in the y's
    payload: int  # an output's accumulator width: 1 = scalar, else z_max + 1
    recurrence: Recurrence  # the DP, run by either repro.core.leveldp driver
    # what the spec is compiled from, and what mode="process" workers rebuild
    # it from: the recurrence is a closure and cannot cross a process boundary
    circuit: MLDCircuit
    # (rows, lanes) states the recurrence keeps alive at once, besides a
    # multiply's temporaries: what a fused window's width is budgeted by
    live_states: int = 1
    # the Theorem-2 model's DP levels — neighbour sums per iteration (None:
    # k - 1) — and whether it charges the scan rows' z-convolution
    exchanges: Optional[int] = None
    convolves: bool = False
    # a weighted kind's lane blocks: the points its z is evaluated at
    points: Optional[PointBlocks] = None

    # ------------------------------------------------------------ semantics
    @property
    def outputs(self) -> int:
        """The circuit's outputs, each its own ``payload`` cells of a value."""
        return len(self.circuit.outputs)

    @property
    def scalar(self) -> bool:
        # `payload == 1` alone is wrong: a weighted problem with z_max = 0
        # has a length-1 vector accumulator, not a GF scalar
        return self.points is None and self.outputs == 1

    @property
    def round_success(self) -> Fraction:
        """The exact lower bound on a round's success in this spec's field
        (:func:`~repro.ff.gf2m.round_success_bound`), for its circuit's
        ``y``-degree."""
        return round_success_bound(self.k, self.field.m, self.circuit.y_degree)

    @property
    def schedule_payload(self) -> int:
        """What a window's state is budgeted by
        (:attr:`MLDCircuit.schedule_payload`)."""
        return self.circuit.schedule_payload

    @property
    def linked_only(self) -> bool:
        """Whole-graph runs may leave out rows without a neighbour
        (:attr:`MLDCircuit.needs_edges`)."""
        return self.circuit.needs_edges

    @property
    def reduce_nbytes(self) -> int:
        """Wire bytes of the per-round XOR all-reduce."""
        return 8 * self.outputs * self.payload

    def draw_fingerprint(self, n: int, rng) -> Fingerprint:
        return Fingerprint.draw(n, self.k, rng, levels=self.levels, field=self.field)

    def acc_init(self) -> Value:
        if self.scalar:
            return 0
        return np.zeros(self.outputs * self.payload, dtype=self.field.dtype)

    def combine(self, acc: Value, contribution: Value) -> Value:
        """XOR-fold one phase contribution into the round accumulator."""
        return acc ^ contribution

    def rank_value(self, raw) -> Value:
        """Coerce a rank program's all-reduced result to accumulator form."""
        if self.scalar:
            return int(raw)
        return np.asarray(raw, dtype=self.field.dtype)

    def _values(self, per_point: np.ndarray) -> List[Value]:
        """``(outputs P, G)`` per-point values of ``G`` windows or rounds,
        each in accumulator form (:func:`~repro.core.leveldp.fold_values`)."""
        per_point = per_point.reshape(self.outputs, -1, per_point.shape[-1])
        return [self.rank_value(v)
                for v in fold_values(per_point.transpose(2, 0, 1), self.points)]

    def _run(self, graph: CSRGraph, fp, q0: int, n2: int, groups: int) -> np.ndarray:
        """A whole-graph run of ``n2`` lanes a block, XORed into ``groups``
        equal groups of each block's lanes: ``(outputs P, blocks / P * groups)``."""
        per_lane = run_whole_graph(graph, self.recurrence, fp, q0, n2, points=self.points,
                                   linked_only=self.linked_only)
        count = self.outputs * (1 if self.points is None else self.points.count)
        return np.bitwise_xor.reduce(per_lane.reshape(count, -1, n2 // groups), axis=-1)

    def lane_cells(self, graph: CSRGraph, fp: Fingerprint, q0: int, n2: int) -> np.ndarray:
        """A weighted kind's per-iteration weight cells of its last output
        (a scan grid's top row), ``(z_max + 1, n2)``: each lane's point
        values interpolated on their own."""
        per_lane = run_whole_graph(graph, self.recurrence, fp, q0, n2, points=self.points,
                                   linked_only=self.linked_only)
        return self.points.cells(per_lane[-1].reshape(self.points.count, n2).T).T

    def phase_value(self, graph: CSRGraph, fp: Fingerprint, q0: int, n2: int) -> Value:
        """One phase window's contribution, evaluated on the whole graph."""
        return self._values(self._run(graph, fp, q0, n2, 1))[0]

    def window_values(self, graph: CSRGraph, fp, n2: int, width: int) -> List[Value]:
        """Every ``n2``-lane phase window's contribution to one round, in
        phase order — or, for a sequence of ``R`` fingerprints, to each of
        ``R`` rounds, round-major — from whole-graph runs of ``width``
        lanes a round (both powers of two, at most ``2^k``): the rounds
        side by side in each run, as a sequential window fuses them
        (:func:`~repro.core.engine.whole_graph_window`).  A run spans
        ``width / n2`` windows, or a window ``n2 / width`` runs."""
        group = min(width, n2)  # lanes that one run gives one window
        # (P, R, groups) of each run, its groups in phase order
        runs = [self._run(graph, fp, q, width, width // group)
                for q in range(0, 1 << self.k, width)]
        per_group = np.concatenate([run.reshape(len(run), -1, width // group)
                                    for run in runs], axis=-1)
        per_window = np.bitwise_xor.reduce(
            per_group.reshape(per_group.shape[:2] + (-1, n2 // group)), axis=-1)
        return self._values(per_window.reshape(len(per_window), -1))

    def phase_values(self, graph: CSRGraph, fps: Sequence[Fingerprint], q0: int,
                     n2: int) -> List[Value]:
        """One phase window's contribution to each of ``len(fps)`` rounds:
        the rounds side by side in one window on the whole graph, each
        round's value the XOR of its own ``n2`` lanes (one round is
        :meth:`phase_value`)."""
        if len(fps) == 1:
            return [self.phase_value(graph, fps[0], q0, n2)]
        return self._values(self._run(graph, fps, q0, n2, 1))

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
        payload=circuit.payload, recurrence=circuit.recurrence(), circuit=circuit,
        live_states=circuit.live_states,
        # every neighbour sum is one halo exchange, and one DP level to the model
        exchanges=sum(s.operand is not None for s in circuit.steps),
        convolves=any(s.products for s in circuit.steps), points=circuit.points(field),
    )


def path_problem(graph: CSRGraph, k: int, field: Any = None) -> ProblemSpec:
    """The k-path spec; kept only for ``benchmarks/ledger/layers.py``, and
    goes with ROADMAP item 1."""
    return compile(MLDCircuit.k_path(k), field)
