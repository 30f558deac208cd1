"""The level-DP core: the one place a MIDAS DP step is written.

Every MIDAS polynomial (an :class:`~repro.core.mld.MLDCircuit`: the
k-path, k-tree, weighted k-path and scan rows of Algorithms 3 - 5) is
evaluated by the same step — sum a state over each vertex's neighbours,
multiply by field values — repeated a handful of times.  This module
factors that into three orthogonal pieces:

* a **recurrence** — one generator function per problem
  (:meth:`MLDCircuit.recurrence` interprets any circuit as one).  It is
  handed a *lane layout*, asks it for level base blocks / coefficients /
  multiplies — and, on a weight axis, for the seed, shift and
  convolution written here once — and ``yield``\\ s a state array
  whenever it needs that state summed over neighbours; the ``yield``
  evaluates to the neighbour sum, aligned with the same rows.  It
  ``return``\\ s the final state.  A recurrence never sees a graph, a
  halo, a message tag or a comm op, and treats every axis after the
  first (rows) and the optional second (weight ``z``) as opaque;
* a **lane layout** — how the ``n2`` iterations of a phase, of one
  round or of ``R`` rounds side by side, are stored:
  :class:`ElementLanes` keeps ``(rows, [Z+1,] R n2)`` field elements,
  :class:`PlaneLanes` keeps ``(rows, [Z+1,] m, W)`` uint64 bit-planes
  (:mod:`repro.ff.bitsliced`) — that *logical* shape over plane-major
  memory, weight cells outside the rows; either way the phase indicator
  is computed once per window;
* a **driver** — where the rows live, and so which layout they take:
  :func:`run_whole_graph` holds all of them in one process on bit-planes,
  in the graph's jagged-diagonal row order for the whole window, at any
  width and in any field; :func:`phase_program` spreads them over
  simulated ranks, element-wise, and owns the only halo exchange in the
  code base (blocking, or overlapped with the own-column half of the
  sum).  Both sum through the one :func:`neighbour_sum`.

Adding a problem is building one circuit; adding a layout or an
exchange discipline is one branch here, and every problem gets it.

The allocator policy is here too: a process's first :func:`run_whole_graph`
window fixes glibc's malloc thresholds (:func:`retain_worker_heaps`) for
every thread and every fleet worker, whatever its start method.
"""

from __future__ import annotations

import ctypes
from typing import Callable, Generator, List, Optional

import numpy as np

from repro.core.halo import HaloView
from repro.errors import ConfigurationError
from repro.ff.fingerprint import Fingerprint
from repro.graph.csr import CSRGraph, JaggedDiagonals, xor_segment_reduce
from repro.runtime.comm import AllReduce, Irecv, Recv, Send, Wait
from repro.util.layout import memory_order

#: ``recurrence(lanes)`` -> generator yielding states to neighbour-sum
Recurrence = Callable[["Lanes"], Generator[np.ndarray, np.ndarray, np.ndarray]]

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


class Lanes:
    """One phase window ``[q_start, q_start + n2)`` over a set of rows.

    ``fp`` is one round's :class:`~repro.ff.fingerprint.Fingerprint`, or a
    sequence of ``R`` of them: the window then carries ``R`` rounds side
    by side, round-major — round ``r`` owns lanes ``[r n2, (r+1) n2)``,
    each round with its own indicator and its own ``y``.  Rounds are
    independent, so nothing a recurrence does mixes lanes of two rounds.

    ``rows`` restricts to a subset of vertex ids (a rank's own vertices);
    ``None`` means the whole graph.  Subclasses fix the storage of the
    ``R n2`` iterations; recurrences only call the methods below.
    """

    #: the memory order of a weight-axis state's logical axes, outermost
    #: first: one layout per lane kind, fixed where the state is built
    #: (:func:`weight_seed`, :func:`z_convolve`) and kept by every op after
    weight_order: tuple = ()

    def __init__(self, fp, q_start: int, n2: int,
                 rows: Optional[np.ndarray] = None) -> None:
        self.fps = _fingerprints(fp)
        self.fp, self.q_start, self.n2 = self.fps[0], q_start, n2
        self.rounds = len(self.fps)
        self.width = self.rounds * n2
        self.rows = None if rows is None else np.asarray(rows, dtype=np.int64)
        self.field = self.fp.field
        if self.rounds > 1:
            # (rows, levels, R): every round's coefficients, this layout's rows
            self._ys = self.take(np.stack([f.y for f in self.fps], axis=-1))

    def _indicator(self) -> np.ndarray:
        """{0, 1}, ``(rows, R n2)``: depends on the window alone, not on the
        level, so each layout stores it once, in its own form."""
        blocks = [f.base_block(self.q_start, self.n2, nodes=self.rows)
                  for f in self.fps]
        return blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=1)

    def take(self, per_vertex: np.ndarray) -> np.ndarray:
        """Restrict a per-vertex array (weights, ...) to this layout's rows."""
        return per_vertex if self.rows is None else per_vertex[self.rows]

    def _y(self, level: int) -> np.ndarray:
        """``y[:, level]`` on this layout's rows: ``(rows,)``, or
        ``(rows, R)`` when the window carries several rounds."""
        if not (0 <= level < self.fp.levels):
            raise ConfigurationError(
                f"level {level} out of range for fingerprint with "
                f"{self.fp.levels} levels"
            )
        if self.rounds > 1:
            return self._ys[:, level]
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
        """Sum a state over its rows: ``([Z+1,] R n2)`` field elements."""
        raise NotImplementedError


class ElementLanes(Lanes):
    """``(rows, [Z+1,] R n2)`` field elements, one per iteration, in that
    memory order: the layout of a simulated rank (:func:`phase_program`)
    and of what models one (:func:`exchange_signature`, the kernel
    calibration)."""

    weight_order = (0, 1, 2)

    def __init__(self, fp, q_start: int, n2: int,
                 rows: Optional[np.ndarray] = None) -> None:
        super().__init__(fp, q_start, n2, rows)
        self.indicator = self._indicator()

    def base(self, level: int) -> np.ndarray:
        # indicator in {0, 1}: multiply == select; avoids a field multiply
        return (self.indicator * self.coeff(level)).astype(self.field.dtype, copy=False)

    def coeff(self, level: int) -> np.ndarray:
        y = self._y(level)
        # one round: a broadcast column; several: each round's y on its lanes
        return y[:, None] if self.rounds == 1 else np.repeat(y, self.n2, axis=1)

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.field.mul(a, b)

    def finish(self, state: np.ndarray) -> np.ndarray:
        return self.field.xor_sum(state, axis=0)


class PlaneLanes(Lanes):
    """``(rows, [Z+1,] m, W)`` uint64 bit-planes, 64 iterations per word.

    That is the *logical* shape — what recurrences index (``[:, z]``,
    ``[row_idx, src_z]``).  In memory the plane axis is outermost: a state
    without a weight axis is a transposed view of a contiguous ``(m, rows,
    W)`` block, and a weight-axis state is *weight-cell-major*, a view of
    a contiguous ``(m, Z+1, rows, W)`` block (:attr:`weight_order`).  So
    the multiply is ``2m`` unit-stride block ops over ``rows x W`` words
    or more, a weight cell's column ``[:, z]`` is one contiguous run per
    plane, and a per-row coefficient or a column broadcast along ``z``
    costs no copy (:meth:`BitslicedGF2m.mul`).  The ``{0, 1}`` indicator
    is packed into lane words once per phase; each level's base block is
    one masked AND of them.  A window of fewer than 64 lanes is one
    partial word: the lanes past it are zero in the packed indicator, so
    every state is zero there, and :meth:`finish` drops them.

    With ``R`` rounds in the window a level's coefficient differs per
    round.  When a round fills whole words (``n2 >= 64``) each word
    belongs to one round and takes that round's ``y`` mask; when it does
    not, a word holds ``64 / n2`` rounds and its mask is the OR of each
    round's ``y`` mask over that round's lanes (the last word's lanes past
    ``R n2`` stay zero).
    """

    weight_order = (2, 1, 0, 3)

    def __init__(self, fp, q_start: int, n2: int,
                 rows: Optional[np.ndarray] = None) -> None:
        super().__init__(fp, q_start, n2, rows)
        self.bs = self.field.bitsliced
        self.words = self.bs.pack_indicator(self._indicator())
        self._ones = None  # the all-lanes word block, built by the first coeff
        if self.rounds > 1 and n2 < 64:
            # a word holds `per_word` rounds, round j of them on these lanes
            per_word = min(self.rounds, 64 // n2)
            self._slots = np.array([((1 << n2) - 1) << (j * n2)
                                    for j in range(per_word)], dtype=np.uint64)

    def _planes(self, words: np.ndarray, level: int) -> np.ndarray:
        """Planes of ``y[:, level]`` on the lanes set in ``words``."""
        y = self._y(level)
        if self.rounds == 1:
            return self.bs.planes_from_words(words, y)
        # (m, rows, R): 0 / ~0 per bit of each round's coefficient
        masks = ((y[None] >> np.arange(self.bs.m, dtype=y.dtype)[:, None, None])
                 & y.dtype.type(1)).astype(np.uint64)
        np.negative(masks, out=masks)
        m, rows, rounds = masks.shape
        if self.n2 >= 64:
            # each round owns whole words: its mask on each of them
            planes = masks[..., None] & words.reshape(rows, rounds, -1)
        else:
            # each word holds several rounds: OR their masks over their
            # lanes; a ragged last word's missing rounds get zero masks
            per_word = len(self._slots)
            if rounds % per_word:
                masks = np.concatenate([masks, np.zeros(
                    (m, rows, per_word - rounds % per_word), np.uint64)], axis=2)
            masks = masks.reshape(m, rows, -1, per_word)
            planes = masks[..., 0] & self._slots[0]
            for j in range(1, per_word):
                planes |= masks[..., j] & self._slots[j]
            planes &= words
        return planes.reshape(m, rows, -1).transpose(1, 0, 2)

    def base(self, level: int) -> np.ndarray:
        return self._planes(self.words, level)

    def coeff(self, level: int) -> np.ndarray:
        if self._ones is None:
            self._ones = np.full_like(self.words, ~np.uint64(0))
        return self._planes(self._ones, level)

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.bs.mul(a, b)

    def finish(self, state: np.ndarray) -> np.ndarray:
        order, _ = memory_order(state)
        if order.index(0) > 1:
            # a weight-cell-major state: summed over rows W words at a time,
            # the reduce costs ~4x a copy with the rows outermost
            state = _relaid(state, _rows_outer(order))
        return self.bs.unslice(self.bs.xor_sum(state, axis=0), self.width,
                               self.field.dtype)


# -------------------------------------------------------------- weight axis
# States of a weighted recurrence carry a weight axis ``z = 0 .. z_max``
# right after the rows: ``(rows, Z+1, ...)`` in either layout's logical
# shape, over the layout's memory order (:attr:`Lanes.weight_order`).
def _weight_zeros(lanes: Lanes, shape: tuple, dtype) -> np.ndarray:
    """A zero weight-axis state of logical ``shape`` in ``lanes``' layout."""
    order = lanes.weight_order
    return np.zeros([shape[ax] for ax in order], dtype).transpose(np.argsort(order))


def weight_seed(lanes: Lanes, w: np.ndarray, z_max: int, level: int) -> np.ndarray:
    """Each row's variable at ``level`` in weight cell ``z = w(i)`` (rows
    heavier than ``z_max`` stay zero), laid out as ``lanes`` keeps a
    weight-axis state: weight-cell-major ``(m, Z+1, rows, W)`` memory on
    planes, ``(rows, Z+1, R n2)`` on elements."""
    base = lanes.base(level)
    out = _weight_zeros(lanes, (len(w), z_max + 1) + base.shape[1:], base.dtype)
    ok = np.nonzero(w <= z_max)[0]
    out[ok, w[ok]] = base[ok]
    return out


def row_shift(w: np.ndarray, z_max: int) -> tuple:
    """``(rows_major, z_major, invalid)`` of the per-row weight shift
    :func:`shift_rows` applies: the source cell of every ``(i, z)`` in the
    merged row-weight axis, indexed ``i (Z+1) + z - w(i)`` when rows are
    outer and ``(z - w(i)) rows + i`` (in ``(z, i)`` order) when weight
    cells are, and where ``z < w(i)`` leaves nothing to take.  Built once
    a window."""
    rows = np.arange(len(w), dtype=np.int64)[:, None]
    src_z = np.arange(z_max + 1, dtype=np.int64)[None, :] - w[:, None]
    invalid = src_z < 0
    src_z = np.where(invalid, 0, src_z)
    return ((rows * (z_max + 1) + src_z).ravel(), (src_z * len(w) + rows).T.ravel(),
            invalid)


def shift_rows(state: np.ndarray, shift: tuple) -> np.ndarray:
    """``out[i, z] = state[i, z - w(i)]`` (0 below ``w(i)``), by
    :func:`row_shift`'s index: one ``take`` over the merged row-weight
    axis of ``state`` as it lies in memory — ``(z, rows)`` on a
    weight-cell-major plane state, ``(rows, z)`` on elements — so the
    result keeps ``state``'s memory order and the multiply that consumes
    it runs along contiguous words.  (Fancy indexing ``state[row_idx,
    src_z]`` would lay the result out row-major whatever ``state`` was.)"""
    rows_major, z_major, invalid = shift
    order, _ = memory_order(state)
    outer, inner = (1, 0) if order.index(1) < order.index(0) else (0, 1)
    # the pair is adjacent in memory; a size-1 axis may sit anywhere, so
    # put the inner one right inside the outer one
    order.remove(inner)
    at = order.index(outer)
    order.insert(at + 1, inner)
    blk = state.transpose(order)
    merged = blk.reshape(blk.shape[:at] + (-1,) + blk.shape[at + 2:])
    flat_src = z_major if outer == 1 else rows_major
    out = np.take(merged, flat_src, axis=at).reshape(blk.shape).transpose(np.argsort(order))
    out[invalid] = 0
    return out


def z_convolve(lanes: Lanes, pairs: list, z_max: int) -> np.ndarray:
    """``sum over (a, b) in pairs of a (*) b``, convolved along the weight
    axis one column of ``a`` at a time (an all-zero column costs nothing)."""
    acc = _weight_zeros(lanes, pairs[0][0].shape, pairs[0][0].dtype)
    for a, b in pairs:
        for z1 in range(z_max + 1):
            col = a[:, z1]
            if col.any():
                acc[:, z1:] ^= lanes.mul(col[:, None], b[:, : z_max + 1 - z1])
    return acc


# ------------------------------------------------------------------ drivers
def neighbour_sum(state: np.ndarray, jagged: JaggedDiagonals) -> np.ndarray:
    """GF(2^m) summation over every row's neighbourhood, trailing axes
    untouched: row ``p`` of the result is the XOR of the ``state`` rows
    that ``jagged`` lists for its row ``p`` (CSR row ``jagged.order[p]``).

    One gather-XOR per neighbour slot into a contiguous prefix of the
    accumulator, then one gather + :func:`xor_segment_reduce` for the
    jagged tail; the largest temporary is one slot — at most one state —
    wide.  Rows are copied (``np.take``, bounds-checked) along the row
    axis as it lies in memory, and the result keeps the state's memory
    order.  A state whose rows lie deeper than just inside the outermost
    axis — weight-cell-major planes ``(m, Z+1, rows, W)``, rows of ``W``
    words — is summed on one copy with the rows outermost, ``(rows, m,
    Z+1, W)``, and the sum laid back out as the state: on the state
    itself a slot's ``take`` moves ``W`` words a chunk and, at ``W = 3``,
    costs about twice as much as on the copy.
    """
    order, inverse = memory_order(state)
    if order.index(0) > 1:
        return _relaid(neighbour_sum(_relaid(state, _rows_outer(order)), jagged), order)
    block, axis = state.transpose(order), order.index(0)
    lead = (slice(None),) * axis
    acc = np.zeros(block.shape[:axis] + (len(jagged.order),) + block.shape[axis + 1:],
                   dtype=state.dtype)
    for slot in jagged.slots:
        acc[lead + (slice(len(slot)),)] ^= np.take(block, slot, axis=axis)
    if len(jagged.tail_indices):
        tail = np.take(block, jagged.tail_indices, axis=axis).transpose(inverse)
        acc[lead + (slice(len(jagged.tail_indptr) - 1),)] ^= xor_segment_reduce(
            tail, jagged.tail_indptr).transpose(order)
    return acc.transpose(inverse)


def _rows_outer(order: list) -> list:
    """``order`` with the row axis moved outermost."""
    return [0] + [ax for ax in order if ax]


def _relaid(a: np.ndarray, order: list) -> np.ndarray:
    """A copy of ``a`` laid out in memory in axis order ``order``, outermost
    first; an innermost axis that is contiguous on both sides moves as one
    item a row (a transposing copy of 24-byte rows runs ~1.5x faster so)."""
    src = a.transpose(order)
    out = np.empty(src.shape, a.dtype)
    if src.shape[-1] and src.strides[-1] == a.itemsize:
        row = np.dtype((np.void, a.itemsize * src.shape[-1]))
        out.view(row)[...] = src.view(row)
    else:
        out[...] = src
    return out.transpose(np.argsort(order))


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
                    q_start: int, n2: int) -> np.ndarray:
    """Evaluate ``recurrence`` over the window ``[q_start, q_start + n2)``
    with every vertex in this process — of one round, or of each round
    of a sequence of fingerprints side by side (see :class:`Lanes`).

    The state is :class:`PlaneLanes` bit-planes whatever the field and the
    width, and lives in the graph's jagged-diagonal row order
    (:meth:`CSRGraph.jagged`) from the first base block to the last
    multiply — the lanes are built over ``rows=order`` and the final sum
    over rows does not care — so no level permutes anything.  Returns the
    per-iteration values ``([Z+1,] R n2)`` in ``field.dtype``, round-major;
    XOR over a round's ``n2`` lanes is the phase's contribution to it.

    The first call in a process applies :func:`retain_worker_heaps`.
    """
    global _heaps_retained
    if _heaps_retained is None:
        _heaps_retained = retain_worker_heaps()
    jagged = graph.jagged()
    lanes = PlaneLanes(fp, q_start, n2, rows=jagged.order)
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


def exchange_signature(recurrence: Recurrence, fp: Fingerprint, q_start: int,
                       n2: int) -> tuple:
    """The window's *exchange signature*: the ``(row shape, dtype)`` of
    every state ``recurrence`` asks to have neighbour-summed, as
    :func:`phase_program`'s ranks hold it — taken by driving the
    recurrence on zero rows of :class:`ElementLanes`, so it costs no DP.
    Each of those states is one halo exchange whose message sizes are the
    partition's boundary lists times that row, so two windows of one
    stage with equal signatures put the same messages on the wire — the
    guard the simulated backend keys its memoised phase timelines by."""
    gen = recurrence(ElementLanes(fp, q_start, n2, rows=np.zeros(0, np.int64)))
    signature = []
    state, done = _advance(gen)
    while not done:
        signature.append((state.shape[1:], state.dtype))
        state, done = _advance(gen, np.zeros_like(state))
    return tuple(signature)


def phase_program(views: List[HaloView], recurrence: Recurrence, fp: Fingerprint,
                  q_start: int, n2: int, overlapped: bool = False):
    """SPMD rank program evaluating ``recurrence`` on ``len(views)`` ranks.

    Each rank holds its own rows element-wise.  Whenever the recurrence
    asks for a neighbour sum, the rank sends the state's boundary rows to
    each peer as one message batched over the phase's ``n2`` iterations
    (and the weight axis, if any), fills its ghost rows from the peers'
    messages, and sums over its local adjacency (:func:`neighbour_sum`,
    its few dozen rows put back in ``own`` order by one small ``take``).
    With ``overlapped`` the receives are posted nonblocking and the
    own-column half of the sum (:meth:`HaloView.split_jagged`) is taken
    while the messages fly; GF addition is XOR, so the halves compose
    exactly.  Exchanges are
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
            jag_own, jag_ghost = view.split_jagged()
            n_head = 0
        else:
            # one own+ghost buffer the local adjacency indexes directly
            jag = view.jagged()
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
                acc = _own_order_sum(state, jag_own)
                for peer, slots in view.recv_lists.items():
                    buf[slots] = yield Wait(requests[peer])
                if view.n_ghost:
                    acc ^= _own_order_sum(buf, jag_ghost)
            else:
                buf[:n_head] = state
                for peer, slots in view.recv_lists.items():
                    buf[n_head + slots] = yield Recv(peer, exchange)
                acc = _own_order_sum(buf, jag)
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
    "exchange_signature",
    "neighbour_sum",
    "phase_program",
    "retain_worker_heaps",
    "row_shift",
    "run_whole_graph",
    "shift_rows",
    "weight_seed",
    "z_convolve",
]
