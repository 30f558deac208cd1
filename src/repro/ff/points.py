"""Evaluation points for a polynomial in one extra variable ``z``.

A weighted MIDAS polynomial carries its weight as the exponent of a formal
``z``.  Rather than multiplying such polynomials as truncated
convolutions, the level DP evaluates ``z`` at ``P`` distinct field points
(one lane block each) and recovers the ``P`` coefficients afterwards
through the inverse of the Vandermonde matrix of the points — Williams'
evaluation framework (arXiv:0807.3026) applied to ``z``.  This module
holds what that needs, per field and point count:

* the points ``0, 1, ..., P - 1`` (integer-encoded field elements);
* where ``P`` exceeds the field's ``2^l`` elements, an extension field
  ``GF(2^{jl})`` to hold them, the embedding of ``GF(2^l)`` into it
  (a root of the base field's modulus), and a GF(2)-linear projection
  back that is the identity on the embedded subfield;
* the inverse Vandermonde matrix, and :meth:`EvaluationPoints.coefficients`,
  which applies it and the projection.

Both maps back are GF(2)-linear, so they commute with every XOR the
engine folds values with.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.errors import ConfigurationError
from repro.ff.gf2m import GF2m

_MAX_M = 16


def _embedding(base: GF2m, ext: GF2m) -> np.ndarray:
    """``embed[a]``: the image of every element of ``base`` in ``ext``, by
    ``x -> beta`` for the least root ``beta`` of ``base``'s modulus."""
    xs = np.arange(ext.order, dtype=np.int64).astype(ext.dtype)
    value = np.zeros_like(xs)
    for bit in range(base.m, -1, -1):  # Horner over the modulus' coefficients
        value = ext.mul(value, xs) ^ ext.dtype((base.modulus >> bit) & 1)
    beta = int(np.flatnonzero(value == 0)[0])
    powers =[int(ext.pow(np.array(beta, ext.dtype), i)) for i in range(base.m)]
    a = np.arange(base.order, dtype=np.int64)
    embed = np.zeros(base.order, dtype=ext.dtype)
    for i, p in enumerate(powers):
        embed ^= (((a >> i) & 1) * p).astype(ext.dtype)
    return embed


def _projection(base: GF2m, ext: GF2m, embed: np.ndarray) -> np.ndarray:
    """``project[x]``: a GF(2)-linear map ``ext -> base`` that inverts
    ``embed`` on its image.  The image's basis ``embed[2^i]`` is reduced
    to echelon form over GF(2); an element's coordinates on it (its
    remainder lies in the span of the non-pivot unit vectors) are the
    bits of its projection."""
    rows = []  # (pivot bit, vector, the base element it stands for)
    for i in range(base.m):
        vec, coord = int(embed[1 << i]), 1 << i
        for pivot, pvec, pcoord in rows:
            if (vec >> pivot) & 1:
                vec, coord = vec ^ pvec, coord ^ pcoord
        pivot = vec.bit_length() - 1
        # keep the echelon reduced: no other row has this pivot bit
        rows = [(p, v ^ vec, c ^ coord) if (v >> pivot) & 1 else (p, v, c)
                for p, v, c in rows]
        rows.append((pivot, vec, coord))
    x = np.arange(ext.order, dtype=np.int64)
    out = np.zeros(ext.order, dtype=np.int64)
    for pivot, _vec, coord in rows:
        out ^= ((x >> pivot) & 1) * coord
    return out.astype(base.dtype)


def _inverse(field: GF2m, matrix: np.ndarray) -> np.ndarray:
    """The inverse of a nonsingular square matrix over ``field``, by
    Gauss-Jordan elimination with whole-row field operations."""
    n = len(matrix)
    aug = np.concatenate([matrix.astype(field.dtype),
                          np.eye(n, dtype=field.dtype)], axis=1)
    for col in range(n):
        pivot = col + int(np.flatnonzero(aug[col:, col])[0])
        aug[[col, pivot]] = aug[[pivot, col]]
        aug[col] = field.mul(aug[col], field.inv(aug[col, col]))
        factors = aug[:, col].copy()
        factors[col] = 0
        aug ^= field.mul(factors[:, None], aug[col][None, :])
    return aug[:, n:]


class EvaluationPoints:
    """``count`` distinct points of a field containing ``base``.

    ``field`` is ``base`` when ``count <= 2^l``, else the smallest
    ``GF(2^{jl})`` with ``2^{jl} >= count`` (``jl <= 16``; a larger
    ``count`` is a :class:`~repro.errors.ConfigurationError`).
    ``embed`` maps base elements into ``field``, ``project`` maps field
    elements back (GF(2)-linearly, exactly on the embedded subfield);
    both are ``None`` when the field is ``base``.
    """

    def __init__(self, base: GF2m, count: int) -> None:
        if count < 1:
            raise ConfigurationError(f"need at least one evaluation point, got {count}")
        j = 1
        while (1 << (j * base.m)) < count:
            j += 1
        if j * base.m > _MAX_M:
            raise ConfigurationError(
                f"{count} evaluation points need a field of more than 2^{_MAX_M} "
                f"elements over GF(2^{base.m}); lower z_max or the weights' range "
                "(repro.scanstat.weights.round_weights)")
        self.base, self.count = base, count
        self.field = base if j == 1 else GF2m(j * base.m)
        self.embed = self.project = None
        if j > 1:
            self.embed = _embedding(base, self.field)
            self.project = _projection(base, self.field, self.embed)
        f = self.field
        self.values = np.arange(count, dtype=np.int64).astype(f.dtype)
        # V[p, z] = values[p]^z, with 0^0 = 1
        vander = np.stack([f.pow(self.values, z) for z in range(count)], axis=1)
        self.inverse_vandermonde = _inverse(f, vander)

    def powers(self, exponents: np.ndarray) -> np.ndarray:
        """``values[p]^e`` for every exponent: ``(len(exponents), count)``."""
        f = self.field
        e = np.asarray(exponents, dtype=np.int64)
        out = np.empty((len(e), self.count), dtype=f.dtype)
        for w in np.unique(e):
            out[e == w] = f.pow(self.values, int(w))
        return out

    def lift(self, a: np.ndarray) -> np.ndarray:
        """Base-field elements as elements of :attr:`field`."""
        return a if self.embed is None else self.embed.take(a)

    def coefficients(self, values: np.ndarray, cells: int) -> np.ndarray:
        """The polynomial of degree ``< count`` taking ``values[..., p]`` at
        point ``p``: its coefficients ``0 .. cells - 1`` (zero past
        ``count``) in ``..., cells`` base-field elements."""
        f = self.field
        rows = self.inverse_vandermonde[:cells]
        values = np.asarray(values, dtype=f.dtype)
        coeffs = np.bitwise_xor.reduce(f.mul(rows, values[..., None, :]), axis=-1)
        if self.project is not None:
            coeffs = self.project.take(coeffs)
        if len(rows) < cells:
            pad = np.zeros(coeffs.shape[:-1] + (cells - len(rows),), coeffs.dtype)
            coeffs = np.concatenate([coeffs, pad], axis=-1)
        return coeffs.astype(self.base.dtype, copy=False)


@lru_cache(maxsize=64)
def evaluation_points(base: GF2m, count: int) -> EvaluationPoints:
    """The :class:`EvaluationPoints` of ``count`` points over ``base``,
    built once per ``(field, count)``."""
    return EvaluationPoints(base, count)


__all__ = ["EvaluationPoints", "evaluation_points"]
