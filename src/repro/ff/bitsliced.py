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
* scalar multiplication is a GF(2)-linear map: at most ``m`` XORs per
  output plane, with the column masks ``s * x^i mod modulus`` precomputed
  per scalar.

This is the trick the paper's C kernels (and Williams' original 2^k
algorithm) lean on: ~``m^2`` word ops cover 64 iteration lanes at once,
where the table kernel pays one gather *per lane*.

**Logical shape vs memory order.**  Every plane array has the *logical*
shape ``(..., m, W)`` with ``W = ceil(n2 / 64)``: the leading axes stay
the node (and any other) axes, so callers index rows exactly as they index
element arrays.  The *memory* order is free.  :meth:`slice` returns
node-major (C-contiguous) planes; the arithmetic (:meth:`mul`,
:meth:`square`, :meth:`planes_from_words`) accepts any order and returns
**plane-major** memory — a ``(m, ..., W)`` block seen through a
transposed view, its other axes in the order of the full-shape operand
(an ``(m, Z, rows, W)`` block stays so) — because that is
where every op of the schedule is one unit-stride pass over whole
planes, and where the evaluators' neighbour sum
(:func:`repro.core.leveldp.neighbour_sum`: per neighbour slot a ``take``
and an in-place XOR, both following an array's memory order) runs along
contiguous words.  The whole DP stays
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

from typing import Dict, Tuple

import numpy as np

from repro.errors import FieldError
from repro.ff.poly2 import poly_mulmod
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
    from the reduction taps and a per-scalar column cache, so one instance
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
        self._scalar_cols: Dict[int, Tuple[int, ...]] = {}

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
        out = np.zeros(planes.shape[:-2] + (n2,), dtype=dtype)
        for b in range(self.m):
            row = np.ascontiguousarray(planes[..., b, :]).view(np.uint8)
            bits = np.unpackbits(row, axis=-1, count=n2, bitorder="little")
            out |= bits.astype(dtype) << dtype(b)
        return out

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

    def indicator_planes(self, indicator: np.ndarray, y: np.ndarray) -> np.ndarray:
        """One-shot :meth:`pack_indicator` + :meth:`planes_from_words`."""
        return self.planes_from_words(self.pack_indicator(indicator), y)

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
        Returns plane-major planes.
        """
        m, shape = self.m, _plane_first(pairs[0][1]).shape
        t = np.zeros((2 * m - 1,) + shape[1:], dtype=np.uint64)
        tmp = np.empty(shape, dtype=np.uint64)
        for pa, pb in pairs:
            a, b = _plane_first(pa), _plane_first(pb)
            if a.shape != shape or b.shape != shape:
                raise FieldError(f"mul_sum needs planes of one shape, got "
                                 f"{np.shape(pa)} vs {np.shape(pb)}")
            for i in range(m):
                np.bitwise_and(a[i], b, out=tmp)
                t[i : i + m] ^= tmp
        return self._reduce(t)

    def square(self, pa: np.ndarray) -> np.ndarray:
        """Plane squaring: ``(sum a_i x^i)^2 = sum a_i x^{2i}`` in char 2."""
        a = _plane_first(pa)
        t = np.zeros((2 * self.m - 1,) + a.shape[1:], dtype=np.uint64)
        t[::2] = a
        return self._reduce(t)

    def pow(self, pa: np.ndarray, e: int) -> np.ndarray:
        """Plane power ``a^e`` (``e >= 0``), square-and-multiply.

        Matches the table kernel's convention exactly: ``a^0 = 1`` for
        every element including 0; for ``e > 0`` with ``e mod (2^m - 1)
        == 0``, zero lanes stay 0 and nonzero lanes become 1.
        """
        if e < 0:
            raise FieldError(f"exponent must be non-negative, got {e}")
        pa = np.asarray(pa, dtype=np.uint64)
        if e == 0:
            out = np.zeros_like(pa)
            out[..., 0, :] = np.uint64(0xFFFFFFFFFFFFFFFF)
            return out
        q1 = (1 << self.m) - 1
        er = e % q1
        if er == 0:
            nonzero = np.bitwise_or.reduce(pa, axis=-2)
            out = np.zeros_like(pa)
            out[..., 0, :] = nonzero
            return out
        result = None
        base = pa
        while er:
            if er & 1:
                result = base.copy() if result is None else self.mul(result, base)
            er >>= 1
            if er:
                base = self.square(base)
        return result

    def inv(self, pa: np.ndarray) -> np.ndarray:
        """Plane inverse ``a^(2^m - 2)``; zero lanes are the caller's problem
        (they come back 0)."""
        return self.pow(pa, (1 << self.m) - 2)

    def mul_scalar(self, pa: np.ndarray, s: int) -> np.ndarray:
        """Multiply planes by the scalar ``s``: a GF(2)-linear map.

        Output plane ``b`` is the XOR of input planes ``i`` with bit ``b``
        set in ``s * x^i mod modulus`` — at most ``m`` XORs per plane,
        with the columns cached per scalar.
        """
        s = int(s)
        if not (0 <= s < (1 << self.m)):
            raise FieldError(f"scalar {s} is not an element of GF(2^{self.m})")
        pa = np.asarray(pa, dtype=np.uint64)
        if s == 0:
            return np.zeros_like(pa)
        cols = self._scalar_cols.get(s)
        if cols is None:
            cols = self._scalar_cols[s] = tuple(
                poly_mulmod(s, 1 << i, self.modulus) for i in range(self.m)
            )
        out = np.zeros_like(pa)
        for i, ci in enumerate(cols):
            if not ci:
                continue
            ai = pa[..., i, :]
            for b in range(self.m):
                if (ci >> b) & 1:
                    out[..., b, :] ^= ai
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BitslicedGF2m(m={self.m}, modulus={bin(self.modulus)})"


__all__ = ["BitslicedGF2m"]
