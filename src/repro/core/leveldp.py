"""The level-DP core: the one place a MIDAS DP step is written.

Every MIDAS polynomial (an :class:`~repro.core.mld.MLDCircuit`: the
k-path, k-tree, weighted k-path and scan rows of Algorithms 3 - 5) is
evaluated by the same step — sum a state over each vertex's neighbours,
multiply by field values — repeated a handful of times.  This module
factors that into three orthogonal pieces:

* a **recurrence** — one generator function per problem
  (:meth:`MLDCircuit.recurrence` interprets any circuit as one).  It is
  handed the lanes, asks them for level base blocks, per-row scalings
  and multiplies, and ``yield``\\ s a state array whenever it needs that
  state summed over neighbours; the ``yield`` evaluates to the neighbour
  sum, aligned with the same rows.  It ``return``\\ s its outputs, each
  final state with its vertex-variable count (:attr:`MLDCircuit.variables`).
  A recurrence never sees a graph, a halo, a message tag, a comm op or a
  weight, and treats every axis after the first (rows) as opaque;
* the **lanes** (:class:`Lanes`) — the one layout of the ``n2``
  iterations of a phase, of one round or of ``R`` rounds side by side,
  each at ``P`` evaluation points of a weighted kind's ``z``
  (:class:`PointBlocks`): ``(rows, m, W)`` uint64 bit-planes
  (:mod:`repro.ff.bitsliced`), the phase indicator packed once per
  window.  A level's multiply by each row's ``y`` is one pass of the
  compiled level step (:mod:`repro.ff.native`), which builds no planes
  of ``y``, where it is built; where it is not, a GF(2)-linear map in a
  narrow window and the numpy schoolbook in a wide one — rules inside
  the class, not a choice anyone makes;
* a **driver** — where the rows live:
  :func:`run_whole_graph` holds all of them in one process, in the
  graph's jagged-diagonal row order for the whole window, at any width
  and in any field; :func:`phase_program` spreads them over simulated
  ranks and owns the only halo exchange in the code base (blocking, or
  overlapped with the own-column half of the sum).  Both sum through the
  one :func:`neighbour_sum`.

Adding a problem is building one circuit; adding an exchange discipline
is one branch here, and every problem gets it.

The allocator policy is here too: a process's first :func:`run_whole_graph`
window fixes glibc's malloc thresholds (:func:`retain_worker_heaps`) for
every thread and every fleet worker, whatever its start method.
"""

from __future__ import annotations

import ctypes
from functools import lru_cache
from typing import Callable, Generator, List, Optional

import numpy as np

from repro.core.halo import HaloView
from repro.errors import ConfigurationError
from repro.ff import native
from repro.ff.fingerprint import Fingerprint
from repro.ff.points import evaluation_points
from repro.graph.csr import CSRGraph, JaggedDiagonals, xor_segment_reduce
from repro.runtime.comm import AllReduce, Collect, Exchange
from repro.util.layout import memory_order

#: ``recurrence(lanes)`` -> generator yielding states to neighbour-sum
Recurrence = Callable[["Lanes"], Generator[np.ndarray, np.ndarray, list]]

# <malloc.h> parameter numbers, and the fixed thresholds asked for: arrays
# under 16 MB come from the heap, whose freed top is handed back to the
# kernel only beyond 64 MB
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD, _TRIM_THRESHOLD = 16 << 20, 64 << 20
# what retain_worker_heaps() returned in this process; None: not asked yet.
# A forked child inherits the value with the setting, a spawned one neither.
_heaps_retained: Optional[bool] = None


def retain_worker_heaps() -> bool:
    """Tell glibc malloc to keep freed heap memory in the process.

    A level step's temporaries are 0.1 - 1.3 MB each (a 16-word window of
    planes), above glibc's self-adjusting mmap/trim thresholds, so with the
    defaults the allocator hands the heap top back to the kernel after
    one level and faults it in again for the next: on ``kpath_dense``
    (k=10, n=800, W=16) 28 k minor faults and 35-50 ms of kernel time in
    a 0.25 s op on the main thread; a querying thread's own arena, which
    starts empty, shows it from 0.2 MB on.  With the fixed thresholds
    the same op takes a handful of faults.  The price is that memory
    freed after a peak stays resident (up to the trim threshold per
    arena).  Process-wide and irreversible; :func:`run_whole_graph` calls
    it once per process.  Returns False where there is no glibc
    ``mallopt`` (musl, macOS, Windows), changing nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return bool(mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
                and mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD))


# ------------------------------------------------------------- lane layouts
def _fingerprints(fp) -> tuple:
    """A window's fingerprints: one per round it carries."""
    return (fp,) if isinstance(fp, Fingerprint) else tuple(fp)


class PointBlocks:
    """A weighted circuit's weight axis as ``P`` lane blocks.

    The weight rides along as the exponent of a formal ``z``; evaluated at
    ``P = D + 1`` distinct points (:class:`~repro.ff.points.EvaluationPoints`;
    ``degree`` is ``D``, :attr:`MLDCircuit.weight_degree`), every product
    of the circuit is a pointwise one, and the ``z``-coefficients of a
    value are recovered by interpolation (:meth:`cells`).  At point ``p``
    the variable of row ``i`` carries the extra factor ``p^{w(i)}``
    (:attr:`powers`) — 0 for a row heavier than ``z_max``, which no
    counted term can hold; join coefficients carry none.
    """

    def __init__(self, field, weights: np.ndarray, z_max: int, degree: int) -> None:
        w = np.asarray(weights, dtype=np.int64)
        self.z_max = z_max
        self.points = evaluation_points(field, degree + 1)
        self.count = self.points.count
        self.field = self.points.field
        self.powers = self.points.powers(np.minimum(w, z_max))
        self.powers[w > z_max] = 0

    def cells(self, values: np.ndarray) -> np.ndarray:
        """``(..., P)`` point values -> the ``(..., z_max + 1)`` weight cells,
        in the base field: cut, or zero past ``D``."""
        return self.points.coefficients(values, self.z_max + 1)


def fold_values(per_point: np.ndarray, points: Optional[PointBlocks]) -> list:
    """``(G, outputs, P)`` point values of ``G`` windows or rounds -> their
    values, the one reduce of every driver: each output's weight cells
    (its one value unweighted), output-major; a lone scalar as an ``int``."""
    if points is not None:
        per_point = points.cells(per_point)
    elif per_point.shape[1] == 1:
        return [int(v) for v in per_point.ravel()]
    return list(per_point.reshape(len(per_point), -1))


@lru_cache(maxsize=None)
def _spread_bytes(n2: int) -> np.ndarray:
    """``(256, n2)`` uint8: row ``v`` is the ``8 n2`` little-endian lane
    bits of 8 consecutive ``n2``-lane blocks, block ``j``'s lanes set iff
    bit ``j`` of ``v`` is."""
    bits = (np.arange(256)[:, None] >> np.arange(8)) & 1
    return np.packbits(np.repeat(bits, n2, axis=1).astype(np.uint8), axis=1,
                       bitorder="little")


class Lanes:
    """One phase window ``[q_start, q_start + n2)`` over ``rows`` (vertex
    ids: a rank's own, the graph's jagged-diagonal order; ``None``: the
    whole graph) as ``(rows, m, W)`` uint64 bit-planes, 64 iterations a
    word (:mod:`repro.ff.bitsliced`) — the one lane layout.

    ``fp`` is one round's :class:`~repro.ff.fingerprint.Fingerprint`, or a
    sequence of ``R`` of them: the window then carries ``R`` rounds side
    by side, round-major — round ``r`` owns lanes ``[r n2, (r+1) n2)``,
    each round with its own indicator and its own ``y``.  With
    ``points`` (:class:`PointBlocks`) every round is evaluated at each of
    ``P`` points too: the lanes are ``P R`` *blocks* of ``n2``, block
    ``p R + r`` holding round ``r`` at point ``p``.  Blocks are
    independent, so nothing a recurrence does mixes lanes of two of them.

    ``(rows, m, W)`` is the *logical* shape — what recurrences index; the
    memory order is the arithmetic's (row-major from the compiled level
    step and the numpy one-word map, plane-major from the numpy
    schoolbook).  The ``{0, 1}``
    indicator is packed into lane words once per window; each level's base
    block is one masked AND of them.  Lanes past ``P R n2`` in the last
    word are zero in the packed indicator, so every state is zero there,
    and :meth:`finish` drops them, as it drops each output's lanes past
    its own ``2^j`` iterations.  A level's coefficient differs per block: a block filling
    whole words (``n2`` a multiple of 64) takes its ``y`` mask on each of
    them; blocks sharing words have each plane's bits packed 8 blocks a
    byte and spread to their lanes by one table read (:func:`_spread_bytes`).
    """

    #: the largest ``(rows, m, m)`` uint64 mask block the numpy
    #: :meth:`scale` builds for the linear map, in bytes: one-word windows
    #: past it (about 450 rows at m = 6, 64 at m = 16) take the
    #: schoolbook, which wins there
    MAP_BYTES = 128 << 10

    def __init__(self, fp, q_start: int, n2: int,
                 rows: Optional[np.ndarray] = None,
                 points: Optional[PointBlocks] = None) -> None:
        self.fps = _fingerprints(fp)
        self.fp, self.q_start, self.n2 = self.fps[0], q_start, n2
        self.rounds = len(self.fps)
        self.points = points
        self.blocks = self.rounds * (1 if points is None else points.count)
        self.width = self.blocks * n2
        self.rows = None if rows is None else np.asarray(rows, dtype=np.int64)
        self.field = self.fp.field if points is None else points.field
        if self.rounds > 1:
            # (rows, levels, R): every round's coefficients, this layout's rows
            self._ys = self.take(np.stack([f.y for f in self.fps], axis=-1))
        if points is not None:
            self._powers = self.take(points.powers)  # (rows, P)
        self.bs = self.field.bitsliced
        self.words = self.bs.pack_indicator(self._indicator())
        self._ones = None  # the all-lanes word block, built on first use
        m, (rows, w) = self.bs.m, self.words.shape
        self._map = self.blocks == w == 1 and 8 * rows * m * m <= self.MAP_BYTES

    def _indicator(self) -> np.ndarray:
        """{0, 1}, ``(rows, P R n2)``: depends on the window alone, not on the
        level, so it is packed once."""
        blocks = [f.base_block(self.q_start, self.n2, nodes=self.rows)
                  for f in self.fps]
        ind = blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=1)
        return ind if self.points is None else np.tile(ind, (1, self.points.count))

    def take(self, per_vertex: np.ndarray) -> np.ndarray:
        """Restrict a per-vertex array (weights, ...) to this layout's rows."""
        return per_vertex if self.rows is None else per_vertex[self.rows]

    def _y(self, level: int, variable: bool = False) -> np.ndarray:
        """``y[:, level]`` on this layout's rows, times ``p^{w(i)}`` for a
        ``variable`` at point ``p``: ``(rows,)`` in one block, else
        ``(rows, P R)``."""
        if not (0 <= level < self.fp.levels):
            raise ConfigurationError(
                f"level {level} out of range for fingerprint with "
                f"{self.fp.levels} levels"
            )
        y = self._ys[:, level] if self.rounds > 1 else self.take(self.fp.y[:, level])
        if self.points is None:
            return y
        rows = len(y)
        y = self.points.points.lift(y).reshape(rows, 1, self.rounds)
        if variable:
            y = self.field.mul(self._powers[:, :, None], y)
        else:
            y = np.broadcast_to(y, (rows, self.points.count, self.rounds))
        return y.reshape(rows, self.blocks) if self.blocks > 1 else y.reshape(rows)

    def _planes(self, words: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Planes of the per-row, per-block ``y`` on the lanes set in ``words``."""
        if self.blocks == 1:
            return self.bs.planes_from_words(words, y)
        # (m, rows, B): bit b of each block's coefficient
        bits = ((y[None] >> np.arange(self.bs.m, dtype=y.dtype)[:, None, None])
                & y.dtype.type(1))
        m, rows, blocks = bits.shape
        if self.n2 % 64 == 0:
            # each block owns whole words: its 0 / ~0 mask on each of them
            masks = np.negative(bits.astype(np.uint64))
            planes = masks[..., None] & words.reshape(rows, blocks, self.n2 // 64)
        else:
            # blocks share words: 8 blocks' bits a byte (one flat pack of the
            # blocks padded to whole bytes), each byte spread to its blocks'
            # 8 n2 lanes, cut or padded to the words' bytes
            nb = -(-blocks // 8)
            padded = np.zeros((m, rows, 8 * nb), np.uint8)
            padded[..., :blocks] = bits
            lanes = _spread_bytes(self.n2).take(
                np.packbits(padded.ravel(), bitorder="little"), axis=0).reshape(
                    m, rows, nb * self.n2)
            nbytes = 8 * words.shape[-1]
            if lanes.shape[-1] < nbytes:
                lanes = np.concatenate([lanes, np.zeros(
                    (m, rows, nbytes - lanes.shape[-1]), np.uint8)], axis=-1)
            planes = np.ascontiguousarray(lanes[..., :nbytes]).view(np.uint64) & words
        return planes.reshape(m, rows, words.shape[-1]).transpose(1, 0, 2)

    def _compiled(self, y: np.ndarray, words: Optional[np.ndarray],
                  acc: Optional[np.ndarray]) -> Optional[np.ndarray]:
        """:func:`repro.ff.native.scale` into a new row-major state, or
        ``None`` where the numpy reference runs."""
        if native.LIB is None:
            return None
        out = np.empty((len(y), self.bs.m, self.words.shape[1]), dtype=np.uint64)
        native.scale(self.bs.m, self.bs.modulus, y, self.n2, words, acc, out)
        return out

    def base(self, level: int) -> np.ndarray:
        """The evaluated variable ``x_i`` at ``level``: ``y[i, level]``
        (times ``p^{w(i)}`` at point ``p``) on the lanes where the phase
        indicator is set, 0 elsewhere."""
        y = self._y(level, variable=True)
        out = self._compiled(y, self.words, None)
        return self._planes(self.words, y) if out is None else out

    def scale(self, level: int, acc: np.ndarray, variable: bool = False) -> np.ndarray:
        """``acc`` times the ``variable`` ``x_i`` at ``level`` (:meth:`base`),
        or the join coefficient ``y[i, level]`` on every lane: the compiled
        scaling, which builds no planes of ``y``.  On the numpy path, the
        linear map :meth:`~repro.ff.bitsliced.BitslicedGF2m.mul_rows` in a
        one-block, one-word window whose masks fit :attr:`MAP_BYTES` (a
        rank's few dozen rows, a graph of a few hundred), else the
        schoolbook multiply by the planes of ``y``."""
        y = self._y(level, variable)
        out = self._compiled(y, self.words if variable else None, acc)
        if out is not None:
            return out
        if self._map:
            return self.bs.mul_rows(y, acc, self.words if variable else None)
        if not variable and self._ones is None:
            self._ones = np.full_like(self.words, ~np.uint64(0))
        return self.bs.mul(self._planes(self.words if variable else self._ones, y), acc)

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Field product, broadcasting over the row axis."""
        return self.bs.mul(a, b)

    def mul_sum(self, pairs: list) -> np.ndarray:
        """``sum of a * b`` over ``pairs`` of states of one shape."""
        return self.bs.mul_sum(pairs)

    def drop(self, variables: int) -> np.ndarray:
        """``(n2,)`` bool: the window's iterations with a bit set in
        ``j .. k-1`` (``j = variables``) — in a run, those from ``2^j`` on."""
        high = (1 << self.fp.k) - (1 << variables)
        return (np.arange(self.q_start, self.q_start + self.n2) & high) != 0

    def finish(self, outputs: list) -> np.ndarray:
        """Sum each ``(state, variables)`` output over its rows: ``(outputs,
        P R n2)`` field elements.  An output of ``j`` variables is a
        ``j``-dimensional run on the iterations below ``2^j`` alone, which
        read only the low ``j`` bits of each ``v_i``: its other lanes
        (:meth:`drop`) are zero, and a window past ``2^j`` sums nothing."""
        values = np.zeros((len(outputs), self.width), self.field.dtype)
        for value, (state, variables) in zip(values, outputs):
            drop = self.drop(variables)
            if not drop.all():
                value[:] = self.bs.unslice(self.bs.xor_sum(state, axis=0), self.width,
                                           self.field.dtype)
                value.reshape(self.blocks, self.n2)[:, drop] = 0
        return values


# ------------------------------------------------------------------ drivers
def neighbour_sum(state: np.ndarray, jagged: JaggedDiagonals) -> np.ndarray:
    """GF(2^m) summation over every row's neighbourhood, trailing axes
    untouched: row ``p`` of the result is the XOR of the ``state`` rows
    that ``jagged`` lists for its row ``p`` (CSR row ``jagged.order[p]``).

    Compiled (:func:`repro.ff.native.gather_xor`), for a state whose rows
    are whole words: one pass over ``jagged``'s CSR, each row's neighbours
    XORed into a C-contiguous result.  The numpy reference, where no
    kernel is built and for any other state: one gather-XOR per neighbour
    slot into a contiguous prefix of the accumulator, then one gather +
    :func:`xor_segment_reduce` for the jagged tail; the largest temporary
    is one slot — at most one state — wide.  Rows are copied
    (``np.take``, bounds-checked) along the row axis as it lies in memory,
    and the result keeps the state's memory order.
    """
    if native.LIB is not None:
        if len(state) < jagged.n_columns:
            raise IndexError(f"a state of {len(state)} rows for a sum over "
                             f"{jagged.n_columns} columns")
        acc = np.empty((len(jagged.order),) + state.shape[1:], dtype=state.dtype)
        if native.gather_xor(state, jagged.indptr, jagged.indices, acc):
            return acc
    order, inverse = memory_order(state)
    block, axis = state.transpose(order), order.index(0)
    shape = block.shape[:axis] + (len(jagged.order),) + block.shape[axis + 1:]
    lead = (slice(None),) * axis
    acc = np.zeros(shape, dtype=state.dtype)
    for slot in jagged.slots:
        acc[lead + (slice(len(slot)),)] ^= np.take(block, slot, axis=axis)
    if len(jagged.tail_indices):
        tail = np.take(block, jagged.tail_indices, axis=axis).transpose(inverse)
        acc[lead + (slice(len(jagged.tail_indptr) - 1),)] ^= xor_segment_reduce(
            tail, jagged.tail_indptr).transpose(order)
    return acc.transpose(inverse)


def _own_order_sum(state: np.ndarray, jagged: JaggedDiagonals) -> np.ndarray:
    """:func:`neighbour_sum` with the rows back in CSR order."""
    return np.take(neighbour_sum(state, jagged), jagged.rank, axis=0)


def _advance(gen, acc=None):
    """Resume a recurrence; returns ``(state, done)``."""
    try:
        return gen.send(acc), False
    except StopIteration as stop:
        return stop.value, True


def run_whole_graph(graph: CSRGraph, recurrence: Recurrence, fp,
                    q_start: int, n2: int, points: Optional[PointBlocks] = None,
                    linked_only: bool = False) -> np.ndarray:
    """Evaluate ``recurrence`` over the window ``[q_start, q_start + n2)``
    with every vertex in this process — of one round, or of each round
    of a sequence of fingerprints side by side, and at each of
    ``points``' evaluation points (see :class:`Lanes`).

    The state is :class:`Lanes` bit-planes whatever the field and the
    width, and lives in the graph's jagged-diagonal row order
    (:meth:`CSRGraph.jagged`) from the first base block to the last
    multiply — the lanes are built over ``rows=order`` and the final sum
    over rows does not care — so no level permutes anything.  With
    ``linked_only`` (a recurrence whose every output term has a neighbour
    sum as a factor) the rows without a neighbour, which add nothing, are
    left out (:meth:`JaggedDiagonals.linked`).  Returns each output's
    per-iteration values ``(outputs, P R n2)`` in the lanes' field,
    block-major (:meth:`Lanes.finish`); XOR over a block's ``n2`` lanes is
    the phase's contribution to its round at its point.

    The first call in a process applies :func:`retain_worker_heaps`.
    """
    global _heaps_retained
    if _heaps_retained is None:
        _heaps_retained = retain_worker_heaps()
    jagged = graph.jagged().linked() if linked_only else graph.jagged()
    lanes = Lanes(fp, q_start, n2, rows=jagged.order, points=points)
    gen = recurrence(lanes)
    state, done = _advance(gen)
    while not done:
        summed = neighbour_sum(state, jagged)
        # neither the summed state nor, a level later, its sum is kept
        # alive from here: a recurrence that lets go of what it yielded
        # multiplies with only the operands and the product in memory
        state = None
        state, done = _advance(gen, summed)
        summed = None
    return lanes.finish(state)


def phase_program(views: List[HaloView], recurrence: Recurrence, fp: Fingerprint,
                  q_start: int, n2: int, overlapped: bool = False,
                  points: Optional[PointBlocks] = None):
    """SPMD rank program evaluating ``recurrence`` on ``len(views)`` ranks.

    Each rank holds its own rows on :class:`Lanes` bit-planes, as a
    whole-graph run does.  Whenever the recurrence
    asks for a neighbour sum, the rank posts one halo exchange
    (:class:`~repro.runtime.comm.Exchange`: the state's boundary rows to
    each peer as one message batched over the phase's ``n2`` iterations
    and the evaluation points, if any — one gather of every outgoing row
    over the view's flat send list, each message its peer's slice),
    collects the peers' rows into its ghost rows
    (:class:`~repro.runtime.comm.Collect`; one scatter of the
    concatenated messages over the flat receive list,
    :meth:`HaloView.flat_lists`) and sums over its
    local adjacency (:func:`neighbour_sum`, its few dozen rows put back in
    ``own`` order by one small ``take``).  The two forms differ only in
    what they compute between the two yields: the blocking one copies its
    own rows into the own+ghost buffer; the ``overlapped`` one takes the
    own-column half of the sum (:meth:`HaloView.split_jagged`) while the
    messages fly and adds the ghost-column half after — GF addition is
    XOR, so the halves compose exactly.  The program ends with one XOR
    all-reduce of the per-rank partial values, so every rank returns the
    same value (:func:`fold_values`: an ``int`` for a lone scalar
    output) — bit-identical to :func:`run_whole_graph` folded over its
    last axis.  With ``points`` a rank interpolates its partial values
    into each output's ``z_max + 1`` weight cells before the all-reduce
    (interpolation is linear).  A halo
    message is charged as the paper's element rows, whatever the planes
    weigh: ``n2`` base-field elements a row, times the ``z_max + 1``
    weight cells with ``points``, whatever ``P`` is.  Every
    state a recurrence yields must have one shape: the ghost buffer is
    allocated at the first exchange.
    """
    # wire bytes of one message row: the paper's row of field elements
    cells = 1 if points is None else points.z_max + 1
    row_bytes = cells * n2 * np.dtype(fp.field.dtype).itemsize

    def program(ctx):
        view = views[ctx.rank]
        lanes = Lanes(fp, q_start, n2, rows=view.own, points=points)
        peers, recv_from = tuple(view.send_lists), tuple(view.recv_lists)
        send_rows, send_slices, recv_rows = view.flat_lists()
        if overlapped:
            # own columns are read from the state; the buffer holds ghosts alone
            jag_own, jag_ghost = view.split_jagged()
            n_head = 0
        else:
            # one own+ghost buffer the local adjacency indexes directly
            jag = view.jagged()
            n_head = view.n_own
        ghost_at = n_head + recv_rows
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
            # one gather of every outgoing row; a peer's message is its slice
            out = state.take(send_rows, axis=0)
            yield Exchange(dict(zip(peers, [out[s] for s in send_slices])),
                           recv_from, row_bytes)
            if overlapped:
                # overlap window: the own-column half needs no remote data
                acc = _own_order_sum(state, jag_own)
            else:
                buf[:n_head] = state
            ghosts = yield Collect()
            if recv_from:
                # one scatter of every ghost row, the peers' messages in order
                buf[ghost_at] = np.concatenate(ghosts)
            if not overlapped:
                acc = _own_order_sum(buf, jag)
            elif view.n_ghost:
                acc ^= _own_order_sum(buf, jag_ghost)
            exchange += 1
            state, done = _advance(gen, acc)
        per_lane = lanes.finish(state)
        per_point = np.bitwise_xor.reduce(per_lane.reshape(1, len(per_lane), -1, n2),
                                          axis=-1)
        return (yield AllReduce(fold_values(per_point, points)[0]))

    return program


__all__ = [
    "Lanes",
    "PointBlocks",
    "Recurrence",
    "fold_values",
    "neighbour_sum",
    "phase_program",
    "retain_worker_heaps",
    "run_whole_graph",
]
