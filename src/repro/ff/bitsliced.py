"""Bit-sliced GF(2^m) kernels over uint64 bit-planes.

The element-wise kernels in :mod:`repro.ff.gf2m` spend most of their time
in table gathers: one memory-indirect load per element per multiply.
Characteristic 2 admits a different layout — *bit-slicing* — where an
array of field elements is transposed into ``m`` uint64 planes: plane
``b``, word ``w`` holds bit ``b`` of elements ``64w .. 64w+63``.  In that
layout

* addition is a plane-wise XOR (64 lanes per machine word);
* multiplication is a carry-less schoolbook product — the same ``m^2``
  word-ANDs, issued as ``m`` block ANDs and ``m`` block XORs into
  ``2m - 1`` partial planes (operand plane ``i`` against *all* planes of
  the other operand at once) — followed by a block reduction derived from
  the modulus (``x^m = modulus mod x^m``): the high planes fold down in
  chunks of ``m - max(tap)`` planes, one XOR per tap per chunk;
* multiplication by a fixed element is a GF(2)-linear map: output plane
  ``b`` is the XOR of the input planes ``j`` with bit ``b`` set in ``s *
  x^j mod modulus``, the ``m x m`` masks read from a per-field table —
  for one scalar (:meth:`BitslicedGF2m.mul_scalar`) or, on the numpy
  path, for each row its own (:meth:`BitslicedGF2m.mul_rows`).

This is the trick the paper's C kernels (and Williams' original 2^k
algorithm) lean on: ~``m^2`` word ops cover 64 iteration lanes at once,
where the table kernel pays one gather *per lane*.

**Compiled and reference.**  Where :mod:`repro.ff.native` is built,
:meth:`~BitslicedGF2m.mul` and :meth:`~BitslicedGF2m.mul_sum` of
``(rows, m, W)`` planes run its C loop — per 8-word tile the schoolbook's
partial planes of every product and one fused reduction — and return
row-major (C-contiguous) planes.  The numpy schedule below is the
reference that loop equals bit for bit, and what runs for planes of other
ranks and where no kernel is built.

**Logical shape vs memory order.**  Every plane array has the *logical*
shape ``(..., m, W)`` with ``W = ceil(n2 / 64)``: the leading axes stay
the node (and any other) axes, so callers index rows exactly as they index
element arrays.  The *memory* order is free.  :meth:`slice` returns
node-major (C-contiguous) planes, and so does :meth:`mul_rows`, made for
one-word windows; the numpy :meth:`mul` and :meth:`planes_from_words`
accept any order and return **plane-major** memory — a ``(m, ..., W)``
block seen
through a transposed view, its other axes in the order of the full-shape
operand (an ``(m, Z, rows, W)`` block stays so) — where every op of the
schedule is one unit-stride pass over whole planes, and where the
evaluators' neighbour sum (:func:`repro.core.leveldp.neighbour_sum`: per
neighbour slot a ``take`` and an in-place XOR, both following an array's
memory order) runs along contiguous words.  The whole DP stays
plane-resident across levels and only the final ``(m, W)`` reduction is
unpacked.  The round-trip per-call dispatch (slice, multiply, unslice) is
also provided for API completeness; it is the *plane-resident* use that
wins (the ledger's ``eval.path_phase_s.bitsliced`` against ``.table``).

Lane packing uses little-endian bit order within bytes and native
(little-endian) byte order within words — the layout
``np.packbits(..., bitorder="little")`` + ``view(uint64)`` produces on
every platform numpy supports as a practical target here.  Lanes beyond
``n2`` in the last word are padding: kernels may leave garbage there; it
is masked out by ``unslice(..., n2)``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import FieldError
from repro.ff import native
from repro.util.layout import memory_order

_MAX_M = 16


def _pack_bit_rows(bits: np.ndarray, words: int) -> np.ndarray:
    """Pack a ``(..., n2)`` array of {0, 1} into ``(..., words)`` uint64."""
    packed = np.packbits(bits, axis=-1, bitorder="little")  # (..., ceil(n2/8))
    pad = words * 8 - packed.shape[-1]
    if pad:
        packed = np.concatenate(
            [packed, np.zeros(packed.shape[:-1] + (pad,), dtype=np.uint8)],
            axis=-1,
        )
    return np.ascontiguousarray(packed).view(np.uint64)


def _plane_first(p: np.ndarray) -> np.ndarray:
    """View logical ``(..., m, W)`` planes as ``(m, ..., W)``."""
    p = np.asarray(p, dtype=np.uint64)
    return p.transpose(p.ndim - 2, *range(p.ndim - 2), p.ndim - 1)


def _plane_back(t: np.ndarray) -> np.ndarray:
    """View a ``(m, ..., W)`` block as logical ``(..., m, W)`` planes."""
    return t.transpose(*range(1, t.ndim - 1), 0, t.ndim - 1)


class BitslicedGF2m:
    """Plane-wise GF(2^m) arithmetic for one ``(m, modulus)`` pair.

    All plane arguments have logical shape ``(..., m, W)`` uint64, in any
    memory order (see the module docs).  The substrate is stateless apart
    from the reduction taps and the linear-map tables (built on first
    use, the same every time), so one instance
    may be shared by any number of threads.
    """

    def __init__(self, m: int, modulus: int) -> None:
        if not (1 <= m <= _MAX_M):
            raise FieldError(f"bit-slicing supports 1 <= m <= {_MAX_M}, got m={m}")
        self.m = int(m)
        self.modulus = int(modulus)
        # x^m = sum_{s in taps} x^s (mod modulus): the reduction schedule
        # folds plane d into planes d - m + s for every tap s — none of
        # which lies within m - max(tap) planes of d, so that many fold at once
        self._taps = tuple(s for s in range(self.m) if (self.modulus >> s) & 1)
        self._fold = self.m - max(self._taps, default=0)
        self._maps: Optional[Tuple[np.ndarray, ...]] = None

    # ------------------------------------------------------------- layout
    def words(self, n2: int) -> int:
        """uint64 words per plane row for an ``n2``-lane window."""
        if n2 < 0:
            raise FieldError(f"lane count must be >= 0, got {n2}")
        return (n2 + 63) // 64

    def slice(self, a: np.ndarray) -> np.ndarray:
        """Transpose ``(..., n2)`` field elements into ``(..., m, W)`` planes."""
        a = np.asarray(a)
        if a.ndim < 1:
            raise FieldError("slice needs at least one lane axis")
        n2 = a.shape[-1]
        w = self.words(n2)
        out = np.empty(a.shape[:-1] + (self.m, w), dtype=np.uint64)
        for b in range(self.m):
            out[..., b, :] = _pack_bit_rows(((a >> b) & 1).astype(np.uint8), w)
        return out

    def unslice(self, planes: np.ndarray, n2: int, dtype=np.uint8) -> np.ndarray:
        """Transpose ``(..., m, W)`` planes back to ``(..., n2)`` elements."""
        planes = np.ascontiguousarray(planes, dtype=np.uint64)
        bits = np.unpackbits(planes.view(np.uint8), axis=-1, count=n2,
                             bitorder="little").astype(dtype)  # (..., m, n2)
        bits <<= np.arange(self.m, dtype=dtype)[:, None]
        return np.bitwise_or.reduce(bits, axis=-2)

    def pack_indicator(self, indicator: np.ndarray) -> np.ndarray:
        """Pack a ``(n, n2)`` {0, 1} indicator into ``(n, W)`` lane words.

        The indicator of a phase window depends only on ``(q_start, n2)``,
        so evaluators pack it once and rebuild per-level planes from the
        words (:meth:`planes_from_words`) — one packbits per phase, not
        per DP level.
        """
        return _pack_bit_rows(np.asarray(indicator, dtype=np.uint8),
                              self.words(indicator.shape[-1]))

    def planes_from_words(self, iw: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Planes of ``indicator * y[:, None]`` from pre-packed lane words.

        ``iw`` is ``(n, W)`` from :meth:`pack_indicator`, ``y`` is ``(n,)``
        field scalars; lane ``(i, t)`` of the result holds ``y[i]`` where
        the indicator bit is set — one AND of the words with the
        ``(m, n)`` 0/~0 mask of ``y``'s bits, no element-wise multiply and
        no ``(n, n2)`` element array.  Returns ``(n, m, W)``, plane-major.
        """
        bits = (np.asarray(y)[None, :] >> np.arange(self.m)[:, None]) & 1
        mask = -bits.astype(np.uint64)  # 0 -> 0, 1 -> ~0
        return _plane_back(mask[:, :, None] & iw)

    # --------------------------------------------------------- arithmetic
    def add(self, pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
        """Plane addition: XOR (characteristic 2)."""
        return np.bitwise_xor(pa, pb)

    def xor_sum(self, planes: np.ndarray, axis: int = 0) -> np.ndarray:
        """Field sum (XOR-reduce) along a leading (node) axis."""
        return np.bitwise_xor.reduce(planes, axis=axis)

    def _reduce(self, t: np.ndarray) -> np.ndarray:
        """Fold partial planes ``t`` (``(>= m, ..., W)``, plane axis first)
        modulo the modulus; returns the logical ``(..., m, W)`` view."""
        m, hi = self.m, t.shape[0]
        while hi > m:
            lo = max(m, hi - self._fold)
            for s in self._taps:
                t[lo - m + s : hi - m + s] ^= t[lo:hi]
            hi = lo
        return _plane_back(t[:m])

    def _compiled(self, pairs, shape: tuple):
        """The compiled sum of products (:mod:`repro.ff.native`) as a new
        row-major ``(rows, m, W)`` state, or ``None`` where the numpy
        schedule below runs: no kernel built, or planes of another rank."""
        if native.LIB is None or len(shape) != 3:
            return None
        out = np.empty(shape, dtype=np.uint64)
        native.mul_sum(self.m, self.modulus, pairs, out)
        return out

    def mul(self, pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
        """Carry-less schoolbook multiply + reduction, plane-wise.

        ``m`` block ANDs (plane ``i`` of ``pa`` against every plane of
        ``pb``) and ``m`` block XORs into ``2m - 1`` partial planes, then
        the chunked reduction.  Leading axes broadcast.

        The product lies in memory as the operand of full (broadcast)
        shape does, plane axis first: every block op runs in that order,
        and an operand broadcast along axes that are outer in it (a
        per-row coefficient against an ``(m, Z, rows, W)`` block) is read
        as it is, its broadcast free.
        """
        a, b = _plane_first(pa), _plane_first(pb)
        if a.ndim != b.ndim or any(
            x != y and 1 not in (x, y) for x, y in zip(a.shape, b.shape)
        ):
            raise FieldError(
                f"plane shapes must broadcast axis for axis, got "
                f"{np.shape(pa)} vs {np.shape(pb)}"
            )
        m = self.m
        shape = tuple(x if y == 1 else y for x, y in zip(a.shape, b.shape))
        out = self._compiled([(pa, pb)], shape[1:-1] + (m, shape[-1]))
        if out is not None:
            return out
        full = b if b.shape[1:] == shape[1:] else a
        rest, back = memory_order(full[0])
        order = [0] + [ax + 1 for ax in rest]
        a, b = a.transpose(order), b.transpose(order)
        shape = tuple(shape[ax] for ax in order)
        # the broadcast (m, ..., W) block, written straight into t's low planes
        t = np.empty((2 * m - 1,) + shape[1:], dtype=np.uint64)
        np.bitwise_and(a[0], b, out=t[:m])
        t[m:] = 0
        tmp = np.empty(shape, dtype=np.uint64)
        for i in range(1, m):
            np.bitwise_and(a[i], b, out=tmp)
            t[i : i + m] ^= tmp
        return self._reduce(t.transpose([0] + [ax + 1 for ax in back]))

    def mul_sum(self, pairs) -> np.ndarray:
        """``sum(pa * pb for pa, pb in pairs)`` over planes of one shape.

        Every product's ``2m - 1`` partial planes are XORed into one block
        and reduced once — the reduction is linear — so a sum of ``p``
        products costs ``p`` schoolbook multiplies and one reduction.
        Returns plane-major planes (row-major ones from the compiled loop).
        """
        m, shape = self.m, np.shape(pairs[0][1])
        for pa, pb in pairs:
            if np.shape(pa) != shape or np.shape(pb) != shape:
                raise FieldError(f"mul_sum needs planes of one shape, got "
                                 f"{np.shape(pa)} vs {np.shape(pb)}")
        out = self._compiled(pairs, shape)
        if out is not None:
            return out
        tmp = np.empty(_plane_first(pairs[0][1]).shape, dtype=np.uint64)
        t = np.zeros((2 * m - 1,) + tmp.shape[1:], dtype=np.uint64)
        for pa, pb in pairs:
            a, b = _plane_first(pa), _plane_first(pb)
            for i in range(m):
                np.bitwise_and(a[i], b, out=tmp)
                t[i : i + m] ^= tmp
        return self._reduce(t)

    def _row_maps(self) -> tuple:
        """One table per byte of a scalar ``y``: ``(256, m, m)`` 0/~0 words
        (fewer rows above ``m``), entry ``[v, b, j]`` set iff bit ``b`` of
        ``(v << 8t) * x^j`` is.  The map is linear in ``y``, so past ``m =
        8`` its matrix is the XOR of two tables' rows, not one of ``2^m``."""
        if self._maps is None:
            m, maps = self.m, []
            for shift in range(0, m, 8):
                col = np.arange(1 << min(8, m - shift), dtype=np.int64) << shift
                cols = []
                for _ in range(m):  # column j is v * x^j mod the modulus
                    cols.append(col)
                    col = col << 1
                    col = np.where((col >> m) & 1, col ^ self.modulus, col)
                bits = (np.stack(cols, axis=-1)[:, None, :] >> np.arange(m)[:, None]) & 1
                maps.append(np.negative(bits.astype(np.uint64)))
            self._maps = tuple(maps)
        return self._maps

    def _masks(self, y: np.ndarray) -> np.ndarray:
        """``(len(y), m, m)``: each scalar's matrix, from :meth:`_row_maps`."""
        maps = self._row_maps()
        masks = maps[0].take(y & 0xFF if len(maps) > 1 else y, axis=0)
        for t, table in enumerate(maps[1:], 1):
            masks ^= table.take((y >> (8 * t)) & 0xFF, axis=0)
        return masks

    def mul_rows(self, y: np.ndarray, pb: np.ndarray, words=None) -> np.ndarray:
        """Row ``i`` of planes ``pb`` (logical ``(rows, m, W)``) times the
        scalar ``y[i]``, ANDed with the ``(rows, W)`` lane ``words`` if
        given: :meth:`mul` of :meth:`planes_from_words` and ``pb``, lane
        for lane.  Multiplying by a fixed element is GF(2)-linear, so this
        is one gather of each row's ``m x m`` masks, one broadcast AND and
        one XOR-reduce.  The temporary is ``m`` states wide, so it pays
        only in a small one-word window (:class:`~repro.core.leveldp.Lanes`
        keeps its masks within ``Lanes.MAP_BYTES``); past that the
        schoolbook :meth:`mul` wins.  Returns row-major planes, which a
        one-word neighbour sum gathers fastest.
        """
        masks = self._masks(y)[..., None]  # (rows, m, m, 1) against (rows, 1, m, W)
        pb = np.asarray(pb, dtype=np.uint64)[:, None]
        prod = np.bitwise_and(masks, pb, out=masks if pb.shape[-1] == 1 else None)
        out = np.bitwise_xor.reduce(prod, axis=2)
        if words is not None:
            out &= words[:, None]
        return out

    def mul_scalar(self, pa: np.ndarray, s: int) -> np.ndarray:
        """Multiply planes by the scalar ``s``, the same linear map for every
        row: output plane ``b`` is the XOR of the input planes ``j`` whose
        mask ``[b, j]`` is set — at most ``m`` XORs per plane."""
        s = int(s)
        if not (0 <= s < (1 << self.m)):
            raise FieldError(f"scalar {s} is not an element of GF(2^{self.m})")
        pa = np.asarray(pa, dtype=np.uint64)
        out = np.zeros_like(pa)
        for b, j in zip(*np.nonzero(self._masks(np.array([s]))[0])):
            out[..., b, :] ^= pa[..., j, :]
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BitslicedGF2m(m={self.m}, modulus={bin(self.modulus)})"


__all__ = ["BitslicedGF2m"]
