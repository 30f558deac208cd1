"""Random algebraic fingerprints for multilinear detection.

A *fingerprint* is the per-round randomness of the Koutis–Williams scheme:

* ``v[i]`` — a uniform vector in ``Z_2^k`` for every node ``i`` (packed into
  a uint64).  In iteration ``q`` of the matrix representation, the group part
  of variable ``x_i`` evaluates to the indicator ``<v_i, q> == 0 (mod 2)``
  (the paper's ``1 + (-1)^{v_i^T q_bin}`` with the global factor ``2^k``
  divided out).
* ``y[i, j]`` — a uniform *nonzero* coefficient from ``GF(2^l)`` for every
  node and every DP level ``j`` (or template-subtree id for trees).  These
  make distinct surviving walks carry distinct monomials in the ``y``'s, so
  reversals and automorphisms of the same vertex set cannot cancel in
  characteristic 2; the final value is then nonzero w.h.p. by
  Schwartz–Zippel whenever any full-rank multilinear term survives.

Everything here is drawn from a *round-scoped* RNG stream, never a
rank-scoped one, so the detection transcript is independent of the parallel
decomposition — the property the parallel==sequential tests pin down.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.ff.gf2m import GF2m, default_field_for_k
from repro.util.rng import RngStream


def base_indicator_block(v: np.ndarray, q_start: int, n_q: int) -> np.ndarray:
    """Indicator table ``I[i, t] = 1`` iff ``<v_i, (q_start + t)>`` is even.

    Parameters
    ----------
    v:
        uint64 array of per-node vectors in ``Z_2^k`` (one row per node).
    q_start, n_q:
        The phase's iteration window ``[q_start, q_start + n_q)``; ``n_q`` is
        the batching factor ``N_2`` of the paper — evaluating a whole window
        at once is the vectorization that makes the inner loop fast *and*
        models the paper's cache-locality gain from larger ``N_2``.

    Returns
    -------
    uint8 array of shape ``(len(v), n_q)`` with values in {0, 1}.
    """
    if n_q < 1:
        raise ConfigurationError(f"iteration window must be >= 1 wide, got {n_q}")
    if q_start < 0:
        raise ConfigurationError(f"iteration window must start at >= 0, got {q_start}")
    # ``v & q`` has no bit above the window's highest iteration index, and
    # parity is XOR-linear: the bytes of ``v & q`` are folded together as
    # they are formed, so the block is one byte per entry (and one
    # same-sized temporary) however wide the iteration indices are
    width = np.min_scalar_type(q_start + n_q - 1).itemsize
    v = np.asarray(v, dtype=np.uint64)
    q = np.arange(q_start, q_start + n_q, dtype=np.uint64)
    x = np.zeros((len(v), n_q), dtype=np.uint8)
    for shift in range(0, 8 * width, 8):
        x ^= ((v >> np.uint64(shift)).astype(np.uint8)[:, None]
              & (q >> np.uint64(shift)).astype(np.uint8)[None, :])
    for shift in (4, 2, 1):
        x ^= x >> shift
    np.invert(x, out=x)
    x &= 1
    return x


@dataclass(frozen=True)
class Fingerprint:
    """One round's worth of randomness for a k-MLD evaluation.

    Attributes
    ----------
    k:
        Target multilinear degree (number of ``Z_2^k`` dimensions).
    field:
        The coefficient field ``GF(2^l)``.
    v:
        ``(n,)`` uint64 — per-node random vectors.
    y:
        ``(n, levels)`` field dtype — per-(node, level) nonzero coefficients.
        ``levels`` is ``k`` for paths and scan statistics, and the number of
        template subtrees for trees.
    """

    k: int
    field: GF2m
    v: np.ndarray
    y: np.ndarray

    @property
    def n(self) -> int:
        return int(self.v.shape[0])

    @property
    def levels(self) -> int:
        return int(self.y.shape[1])

    @staticmethod
    def draw(
        n: int,
        k: int,
        rng: RngStream,
        levels: int = 0,
        field: GF2m = None,
    ) -> "Fingerprint":
        """Draw a fresh fingerprint for ``n`` nodes and degree ``k``.

        ``levels`` defaults to ``k`` (one coefficient per DP level), and
        ``field`` to a k-path's (``default_field_for_k(k)``).
        """
        if n < 1:
            raise ConfigurationError(f"need at least one node, got n={n}")
        if not (1 <= k <= 63):
            raise ConfigurationError(f"k must be in [1, 63] (vectors packed in uint64), got {k}")
        if field is None:
            field = default_field_for_k(k)
        if levels <= 0:
            levels = k
        v = rng.integers(0, 1 << k, size=n, dtype=np.int64).astype(np.uint64)
        y = field.random_nonzero(rng, size=(n, levels))
        return Fingerprint(k=k, field=field, v=v, y=y)

    def base_block(self, q_start: int, n_q: int, nodes: np.ndarray = None) -> np.ndarray:
        """Indicator block for iterations ``[q_start, q_start + n_q)``.

        ``nodes`` optionally restricts to a subset of node ids (a partition's
        local vertices), returning shape ``(len(nodes), n_q)``.
        """
        v = self.v if nodes is None else self.v[np.asarray(nodes, dtype=np.int64)]
        return base_indicator_block(v, q_start, n_q)

    def level_base_block(
        self, level: int, q_start: int, n_q: int, nodes: np.ndarray = None
    ) -> np.ndarray:
        """The full per-level base value ``y[i, level] * indicator(i, q)``.

        This is the evaluated variable ``x_i`` as it appears at DP level
        ``level`` (``P(i, 1)`` in the paper's Algorithm 3, with the level's
        coefficient folded in).
        """
        if not (0 <= level < self.levels):
            raise ConfigurationError(
                f"level {level} out of range for fingerprint with {self.levels} levels"
            )
        ind = self.base_block(q_start, n_q, nodes=nodes)
        ycol = self.y[:, level] if nodes is None else self.y[np.asarray(nodes, np.int64), level]
        # indicator in {0,1}: multiply == select; avoids a field multiply.
        return (ind * ycol[:, None]).astype(self.field.dtype)
