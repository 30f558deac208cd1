"""The level-DP core: the one place a MIDAS DP step is written.

Every MIDAS polynomial (Algorithms 3, 4, 5 and the generic
:class:`~repro.core.mld.MLDCircuit`) is evaluated by the same step —
sum a state over each vertex's neighbours, multiply by field values —
repeated a handful of times.  This module factors that into three
orthogonal pieces:

* a **recurrence** — one generator function per problem.  It is handed a
  *lane layout*, asks it for level base blocks / coefficients /
  multiplies, and ``yield``\\ s a state array whenever it needs that state
  summed over neighbours; the ``yield`` evaluates to the neighbour sum,
  aligned with the same rows.  It ``return``\\ s the final state.  A
  recurrence never sees a graph, a halo, a message tag or a comm op, and
  treats every axis after the first (rows) and the optional second
  (weight ``z``) as opaque;
* a **lane layout** — how the ``n2`` iterations of a phase are stored:
  :class:`ElementLanes` keeps ``(rows, [Z+1,] n2)`` field elements,
  :class:`PlaneLanes` keeps ``(rows, [Z+1,] m, W)`` uint64 bit-planes
  (:mod:`repro.ff.bitsliced`) — that *logical* shape over plane-major
  memory; either way the phase indicator is computed once per window;
* a **driver** — where the rows live: :func:`run_whole_graph` holds all
  of them in one process, :func:`phase_program` spreads them over
  simulated ranks and owns the only halo exchange in the code base
  (blocking, or overlapped with the own-column half of the sum).

Adding a problem is writing one recurrence; adding a layout or an
exchange discipline is one branch here, and every problem gets it.
"""

from __future__ import annotations

from typing import Callable, Generator, List, Optional

import numpy as np

from repro.core.halo import HaloView
from repro.errors import ConfigurationError
from repro.ff.fingerprint import Fingerprint
from repro.graph.csr import CSRGraph, memory_order, xor_segment_reduce
from repro.runtime.comm import AllReduce, Irecv, Recv, Send, Wait

#: ``recurrence(lanes)`` -> generator yielding states to neighbour-sum
Recurrence = Callable[["Lanes"], Generator[np.ndarray, np.ndarray, np.ndarray]]


# ------------------------------------------------------------- lane layouts
class Lanes:
    """One phase window ``[q_start, q_start + n2)`` over a set of rows.

    ``rows`` restricts to a subset of vertex ids (a rank's own vertices);
    ``None`` means the whole graph.  Subclasses fix the storage of the
    ``n2`` iterations; recurrences only call the methods below.
    """

    def __init__(self, fp: Fingerprint, q_start: int, n2: int,
                 rows: Optional[np.ndarray] = None) -> None:
        self.fp, self.q_start, self.n2 = fp, q_start, n2
        self.rows = None if rows is None else np.asarray(rows, dtype=np.int64)
        self.field = fp.field
        # {0, 1}, (rows, n2): depends on the window alone, not on the level
        self.indicator = fp.base_block(q_start, n2, nodes=self.rows)

    def take(self, per_vertex: np.ndarray) -> np.ndarray:
        """Restrict a per-vertex array (weights, ...) to this layout's rows."""
        return per_vertex if self.rows is None else per_vertex[self.rows]

    def _y(self, level: int) -> np.ndarray:
        if not (0 <= level < self.fp.levels):
            raise ConfigurationError(
                f"level {level} out of range for fingerprint with "
                f"{self.fp.levels} levels"
            )
        return self.take(self.fp.y[:, level])

    def base(self, level: int) -> np.ndarray:
        """The evaluated variable ``x_i`` at ``level``: ``y[i, level]`` on
        the lanes where the phase indicator is set, 0 elsewhere."""
        raise NotImplementedError

    def coeff(self, level: int) -> np.ndarray:
        """``y[i, level]`` on every lane (broadcastable against a state)."""
        raise NotImplementedError

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Field product, broadcasting over the row and weight axes."""
        raise NotImplementedError

    def finish(self, state: np.ndarray) -> np.ndarray:
        """Sum a state over its rows: ``([Z+1,] n2)`` field elements."""
        raise NotImplementedError


class ElementLanes(Lanes):
    """``(rows, [Z+1,] n2)`` field elements, one per iteration."""

    def base(self, level: int) -> np.ndarray:
        # indicator in {0, 1}: multiply == select; avoids a field multiply
        return (self.indicator * self.coeff(level)).astype(self.field.dtype, copy=False)

    def coeff(self, level: int) -> np.ndarray:
        return self._y(level)[:, None]

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.field.mul(a, b)

    def finish(self, state: np.ndarray) -> np.ndarray:
        return self.field.xor_sum(state, axis=0)


class PlaneLanes(Lanes):
    """``(rows, [Z+1,] m, W)`` uint64 bit-planes, 64 iterations per word.

    That is the *logical* shape — what recurrences index (``[:, z]``,
    ``[row_idx, src_z]``).  In memory the plane axis is outermost: every
    state this layout hands out is a transposed view of a contiguous
    ``(m, rows, [Z+1,] W)`` block, so the multiply is ``2m`` unit-stride
    block ops and :func:`neighbour_sum` gathers and reduces along
    contiguous words.  The ``{0, 1}`` indicator is packed into lane words
    once per phase; each level's base block is one masked AND of them.
    """

    def __init__(self, fp: Fingerprint, q_start: int, n2: int,
                 rows: Optional[np.ndarray] = None) -> None:
        super().__init__(fp, q_start, n2, rows)
        self.bs = fp.field.bitsliced
        self.words = self.bs.pack_indicator(self.indicator)

    def base(self, level: int) -> np.ndarray:
        return self.bs.planes_from_words(self.words, self._y(level))

    def coeff(self, level: int) -> np.ndarray:
        return self.bs.planes_from_words(np.full_like(self.words, ~np.uint64(0)),
                                         self._y(level))

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.bs.mul(a, b)

    def finish(self, state: np.ndarray) -> np.ndarray:
        return self.bs.unslice(self.bs.xor_sum(state, axis=0), self.n2, self.field.dtype)


def whole_graph_lanes(fp: Fingerprint, q_start: int, n2: int) -> Lanes:
    """The layout :func:`run_whole_graph` callers use for ``fp``'s field.

    This is the single place a layout is chosen, from the kernel the
    field was resolved to: ``"bitsliced"`` fields stay plane-resident for
    every problem kind, ``"table"`` / ``"logexp"`` fields stay
    element-wise.
    """
    if fp.field.kernel_strategy == "bitsliced":
        return PlaneLanes(fp, q_start, n2)
    return ElementLanes(fp, q_start, n2)


# ------------------------------------------------------------------ drivers
def neighbour_sum(state: np.ndarray, indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Row ``i`` of the result is the XOR of ``state[indices[j]]`` over
    ``indptr[i] <= j < indptr[i + 1]`` — GF(2^m) summation over a CSR
    neighbourhood, trailing axes untouched.  Rows are copied (``np.take``,
    bounds-checked) along the row axis as it lies in memory, so the
    result keeps the state's memory order."""
    order, inverse = memory_order(state)
    gathered = np.take(state.transpose(order), indices, axis=order.index(0))
    return xor_segment_reduce(gathered.transpose(inverse), indptr)


def _advance(gen, acc=None):
    """Resume a recurrence; returns ``(state, done)``."""
    try:
        return gen.send(acc), False
    except StopIteration as stop:
        return stop.value, True


def run_whole_graph(graph: CSRGraph, recurrence: Recurrence, lanes: Lanes,
                    exchanges: Optional[list] = None) -> np.ndarray:
    """Evaluate ``recurrence`` with every vertex in this process.

    Returns the per-iteration values ``([Z+1,] n2)`` in ``field.dtype``;
    XOR over the last axis is the phase's contribution to the round.

    ``exchanges``, when given, collects the window's *exchange signature*:
    the ``(row shape, dtype)`` of every state the recurrence asked to have
    neighbour-summed.  Under :func:`phase_program` each of those is one
    halo exchange whose message sizes are the partition's boundary lists
    times that row, so two windows of one stage with equal signatures put
    the same messages on the wire — the guard the simulated backend keys
    its memoised phase timelines by.
    """
    gen = recurrence(lanes)
    state, done = _advance(gen)
    while not done:
        if exchanges is not None:
            exchanges.append((state.shape[1:], state.dtype))
        state, done = _advance(gen, neighbour_sum(state, graph.indptr, graph.indices))
    return lanes.finish(state)


def phase_program(views: List[HaloView], recurrence: Recurrence, fp: Fingerprint,
                  q_start: int, n2: int, overlapped: bool = False):
    """SPMD rank program evaluating ``recurrence`` on ``len(views)`` ranks.

    Each rank holds its own rows element-wise.  Whenever the recurrence
    asks for a neighbour sum, the rank sends the state's boundary rows to
    each peer as one message batched over the phase's ``n2`` iterations
    (and the weight axis, if any), fills its ghost rows from the peers'
    messages, and reduces over its local CSR.  With ``overlapped`` the
    receives are posted nonblocking and the own-column half of the sum
    (:meth:`HaloView.split_adjacency`) is reduced while the messages fly;
    GF addition is XOR, so the halves compose exactly.  Exchanges are
    tagged by their ordinal.  The program ends with one XOR all-reduce of
    the per-rank partial values in ``field.dtype``, so every rank returns
    the same value (an ``int`` for a scalar accumulator, a ``(Z+1,)``
    array for a weight axis) — bit-identical to :func:`run_whole_graph`
    folded over its last axis.  Every state a recurrence yields must have
    one shape: the ghost buffer is allocated at the first exchange.
    """

    def program(ctx):
        view = views[ctx.rank]
        lanes = ElementLanes(fp, q_start, n2, rows=view.own)
        if overlapped:
            # own columns are read from the state; the buffer holds ghosts alone
            iptr_own, idx_own, iptr_gh, idx_gh = view.split_adjacency()
            n_head = 0
        else:
            # one own+ghost buffer the local CSR indexes directly
            n_head = view.n_own
        buf = None
        gen = recurrence(lanes)
        state, done = _advance(gen)
        exchange = 0
        while not done:
            if ctx.tracer is not None:
                ctx.annotate(f"level{exchange + 1}")
            if buf is None:
                # every ghost row belongs to one peer's list, so the buffer
                # is fully rewritten each exchange and can be reused
                buf = np.zeros((n_head + view.n_ghost,) + state.shape[1:], state.dtype)
            for peer, idxs in view.send_lists.items():
                yield Send(peer, exchange, state[idxs])
            if overlapped:
                requests = {}
                for peer in view.recv_lists:
                    requests[peer] = yield Irecv(peer, exchange)
                # overlap window: the own-column half needs no remote data
                acc = neighbour_sum(state, iptr_own, idx_own)
                for peer, slots in view.recv_lists.items():
                    buf[slots] = yield Wait(requests[peer])
                if len(idx_gh):
                    acc ^= neighbour_sum(buf, iptr_gh, idx_gh)
            else:
                buf[:n_head] = state
                for peer, slots in view.recv_lists.items():
                    buf[n_head + slots] = yield Recv(peer, exchange)
                acc = neighbour_sum(buf, view.indptr, view.indices)
            exchange += 1
            state, done = _advance(gen, acc)
        local = np.bitwise_xor.reduce(lanes.finish(state), axis=-1)
        total = yield AllReduce(local, op="xor")
        return total if np.ndim(total) else int(total)

    return program


__all__ = [
    "ElementLanes",
    "Lanes",
    "PlaneLanes",
    "Recurrence",
    "neighbour_sum",
    "phase_program",
    "run_whole_graph",
    "whole_graph_lanes",
]
