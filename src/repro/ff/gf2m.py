"""Vectorized arithmetic in ``GF(2^m)``.

This is the single hottest substrate in the reproduction: every DP step of
every evaluator multiplies arrays of field elements of shape
``(local_nodes, N2)``.  The paper does this in C; we get within a usable
factor in pure Python by doing the arithmetic on whole numpy arrays:

* addition is ``XOR`` (characteristic 2) — a single vectorized op;
* multiplication uses either log/antilog tables (``exp[(log a + log b)]``
  with a sentinel trick that avoids both the modulo and the zero-masking
  ``where``), or, for ``m <= 8``, one dense ``2^m x 2^m`` product table
  stored flat and read with one gather, ``flat.take((a << m) | b)`` —
  measured fastest for the uint8 fields MIDAS actually uses
  (:func:`field_degree_for_k` gives ``m <= 6`` for ``k <= 19``; the ledger's
  ``ff.mul_ns.table`` against ``.logexp``).  Every table read is a ``take``
  with the narrowest index that holds it: numpy serves a two-array advanced
  index at about 6 ns per element, a flat ``take`` at about 1.3.

Elements are numpy ``uint8`` (m <= 8) or ``uint16`` (m <= 16) whose integer
value encodes the coefficient vector of the residue polynomial.  Where the
dtype is wider than ``m`` bits an array can hold a value that is not an
element; the table kernels raise :class:`~repro.errors.FieldError` for it
instead of reading a neighbouring table row.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Optional

import numpy as np

from repro.errors import FieldError
from repro.ff.bitsliced import BitslicedGF2m
from repro.ff.poly2 import find_irreducible, is_irreducible, poly_degree, poly_mulmod
from repro.util.rng import RngStream

_MAX_M = 16
_TABLE_MAX_M = 8


class GF2m:
    """The finite field with ``2^m`` elements, with array-first operations.

    Parameters
    ----------
    m:
        Extension degree; ``1 <= m <= 16``.
    modulus:
        Packed irreducible polynomial of degree ``m`` (see
        :mod:`repro.ff.poly2`).  Defaults to a known primitive polynomial.
    kernel_strategy:
        ``"table"`` (dense product table, only for ``m <= 8``),
        ``"logexp"``, ``"auto"`` (table when possible; ``None`` too) or
        ``"bitsliced"``, whose element-wise operations run on the
        ``"auto"`` tables, with the same values.  The element kernel
        built is :attr:`mul_strategy` (``"table"`` or ``"logexp"``).  The
        strategy names the field and labels its build metric; it
        chooses no layout.  Every field has the plane kernel
        (:attr:`bitsliced`: ``m`` uint64 bit-planes multiplied by
        carry-less AND/XOR schedules), which every level step uses.

    Table layout
    ------------
    The product table (``m <= 8``) is one flat ``uint8`` array of
    ``4^m`` entries, read at the ``uint16`` index ``(a << m) | b`` for
    every such ``m`` (at most 16 bits, so nothing wider is ever
    materialised).  The log table is ``uint16`` for ``m <= 14`` and
    ``uint32`` for ``m`` of 15 and 16 — the narrowest type that holds the
    largest sum of two logs, ``4 * (2^m - 1)``, the zero sentinel included.
    """

    def __init__(
        self,
        m: int,
        modulus: Optional[int] = None,
        kernel_strategy: Optional[str] = None,
    ) -> None:
        if not (1 <= m <= _MAX_M):
            raise FieldError(f"GF2m supports 1 <= m <= {_MAX_M}, got m={m}")
        self.m = int(m)
        self.order = 1 << self.m
        self.dtype = np.uint8 if self.m <= 8 else np.uint16
        self.modulus = find_irreducible(self.m) if modulus is None else int(modulus)
        if poly_degree(self.modulus) != self.m or not is_irreducible(self.modulus):
            raise FieldError(
                f"modulus {bin(self.modulus)} is not an irreducible polynomial of degree {m}"
            )
        if kernel_strategy not in (None, "auto", "table", "logexp", "bitsliced"):
            raise FieldError(f"unknown kernel_strategy {kernel_strategy!r}")
        use_table = kernel_strategy == "table" or (
            kernel_strategy != "logexp" and m <= _TABLE_MAX_M)
        if kernel_strategy == "table" and m > _TABLE_MAX_M:
            raise FieldError(f"dense table strategy needs m <= {_TABLE_MAX_M}, got m={m}")

        # lazy import: the field is a leaf dependency of nearly everything,
        # so it must not pull repro.obs (and transitively numpy-heavy
        # modules) at module-import time
        import time

        from repro.obs.metrics import get_default_registry

        t0 = time.perf_counter()
        self._build_log_tables()
        self.mul_strategy = "table" if use_table else "logexp"
        self.kernel_strategy = (
            "bitsliced" if kernel_strategy == "bitsliced" else self.mul_strategy
        )
        self._mul_flat = self._build_mul_table() if use_table else None
        # m bits in an m-bit dtype: every value is an element, nothing to check
        self._has_non_elements = self.order <= np.iinfo(self.dtype).max
        self._bitsliced = None
        reg = get_default_registry()
        reg.counter("midas_field_builds_total", "GF(2^m) table constructions").labels(
            m=self.m, strategy=self.kernel_strategy
        ).inc()
        reg.histogram(
            "midas_field_table_build_seconds", "GF(2^m) log/mul table build time"
        ).observe(time.perf_counter() - t0)

    # ------------------------------------------------------------------ setup
    def _build_log_tables(self) -> None:
        q1 = self.order - 1
        exp = np.zeros(q1, dtype=self.dtype)
        # narrowest type that holds log a + log b with both at the sentinel
        log = np.zeros(self.order, dtype=np.uint16 if 4 * q1 < 1 << 16 else np.uint32)
        x = 1
        generator = 0b10 if self.m > 1 else 1
        for i in range(q1):
            exp[i] = x
            log[x] = i
            x = poly_mulmod(x, generator, self.modulus)
        if x != 1 or len(set(exp.tolist())) != q1:
            # x was not a generator for this modulus; fall back to searching one.
            x = self._find_generator()
            e = 1
            for i in range(q1):
                exp[i] = e
                log[e] = i
                e = poly_mulmod(e, x, self.modulus)
        # Sentinel trick: log[0] = 2*q1 and an extended exp table that maps
        # any index >= 2*q1 to 0, so mul needs no branch and no modulo.
        log[0] = 2 * q1
        exp_ext = np.zeros(4 * q1 + 1, dtype=self.dtype)
        exp_ext[:q1] = exp
        exp_ext[q1 : 2 * q1] = exp
        self._log = log
        self._exp_ext = exp_ext
        self._q1 = q1

    def _find_generator(self) -> int:
        q1 = self.order - 1
        for cand in range(2, self.order):
            x, n = cand, 1
            while True:
                x = poly_mulmod(x, cand, self.modulus)
                n += 1
                if x == 1:
                    break
            if n == q1:
                return cand
        raise FieldError("no multiplicative generator found (impossible for a field)")

    def _build_mul_table(self) -> np.ndarray:
        """All products, row-major and flat: ``a * b`` is at ``(a << m) | b``."""
        return self._exp_ext.take(np.add.outer(self._log, self._log).ravel())

    def _not_an_element(self) -> FieldError:
        return FieldError(
            f"operand holds a value that is not an element of GF(2^{self.m})"
        )

    def _log_of(self, a: np.ndarray) -> np.ndarray:
        """Discrete logs of ``a`` (the sentinel ``2 * q1`` for 0).  The log
        table has exactly ``order`` entries, so ``take``'s own bounds check
        is the rejection of a non-element."""
        try:
            return self._log.take(a)
        except IndexError:
            raise self._not_an_element() from None

    # --------------------------------------------------------------- kernels
    @property
    def bitsliced(self):
        """The plane-wise kernel substrate for this ``(m, modulus)`` pair.

        Built lazily, once per field instance: every level step — a
        whole-graph run's, a simulated rank's, the exchange probe's, the
        calibration's — fetches it through here, so they share its
        per-field state, the linear map's mask tables.
        """
        if self._bitsliced is None:
            self._bitsliced = BitslicedGF2m(self.m, self.modulus)
        return self._bitsliced

    # ------------------------------------------------------------- operations
    def add(self, a, b):
        """Field addition (XOR); works elementwise on arrays or scalars."""
        return np.bitwise_xor(np.asarray(a, self.dtype), np.asarray(b, self.dtype))

    sub = add  # characteristic 2: subtraction is addition

    def mul(self, a, b):
        """Field multiplication, elementwise with broadcasting."""
        a = np.asarray(a, self.dtype)
        b = np.asarray(b, self.dtype)
        if self._mul_flat is None:
            return self._exp_ext.take(self._log_of(a) + self._log_of(b))
        if a.size > b.size:
            # the table is symmetric: widen and shift the smaller operand at
            # its own size, before broadcasting
            a, b = b, a
        # a non-element in ``b`` would alias into the next row of the table;
        # one in ``a`` lands past its end, where ``take`` raises
        if self._has_non_elements and b.max(initial=0) >= self.order:
            raise self._not_an_element()
        try:
            return self._mul_flat.take((a.astype(np.uint16) << self.m) | b)
        except IndexError:
            raise self._not_an_element() from None

    def inv(self, a):
        """Multiplicative inverse; raises on any zero element."""
        a = np.asarray(a, self.dtype)
        if np.any(a == 0):
            raise FieldError("zero has no multiplicative inverse")
        # log a is in [0, q1), and exp_ext[q1] is exp[0]: no modulo needed
        return self._exp_ext.take(self._q1 - self._log_of(a))

    def div(self, a, b):
        """Field division ``a / b``; raises on any zero divisor."""
        return self.mul(a, self.inv(b))

    def pow(self, a, e: int):
        """Field power ``a^e`` for integer ``e >= 0``, elementwise."""
        if e < 0:
            raise FieldError(f"exponent must be non-negative, got {e}")
        a = np.asarray(a, self.dtype)
        if e == 0:
            return np.ones_like(a)
        # a^q1 = 1: reduce e first, and widen before the product can wrap
        le = self._log_of(a).astype(np.int64) * (e % self._q1) % self._q1
        return np.where(a == 0, self.dtype(0), self._exp_ext.take(le))

    def xor_sum(self, a, axis=None):
        """Field sum (XOR-reduce) along ``axis``."""
        return np.bitwise_xor.reduce(np.asarray(a, self.dtype), axis=axis)

    def mul_scalar(self, a, s: int):
        """Multiply array ``a`` by the scalar field element ``s``."""
        s = int(s)
        if not (0 <= s < self.order):
            raise FieldError(f"scalar {s} is not an element of GF(2^{self.m})")
        if s == 0:
            return np.zeros_like(np.asarray(a, self.dtype))
        a = np.asarray(a, self.dtype)
        return self._exp_ext.take(self._log_of(a) + self._log[s])

    # ------------------------------------------------------------------ draws
    def random(self, rng: RngStream, size=None) -> np.ndarray:
        """Uniform field elements (including 0)."""
        return rng.integers(0, self.order, size=size, dtype=np.int64).astype(self.dtype)

    def random_nonzero(self, rng: RngStream, size=None) -> np.ndarray:
        """Uniform *nonzero* field elements (fingerprint coefficients)."""
        return (rng.integers(0, self.order - 1, size=size, dtype=np.int64) + 1).astype(self.dtype)

    # ------------------------------------------------------------------ misc
    def element(self, value: int) -> int:
        """Validate and return a scalar element."""
        v = int(value)
        if not (0 <= v < self.order):
            raise FieldError(f"{value} is not an element of GF(2^{self.m})")
        return v

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def __eq__(self, other) -> bool:
        # kernel_strategy is part of identity: two fields with the same
        # (m, modulus) but different kernels give bit-identical values, yet
        # build different tables and count under different metric labels.
        # The lanes never read it: every level step is bit-planes in any
        # field (repro.core.leveldp).
        return (
            isinstance(other, GF2m)
            and other.m == self.m
            and other.modulus == self.modulus
            and other.kernel_strategy == self.kernel_strategy
        )

    def __hash__(self) -> int:
        return hash(("GF2m", self.m, self.modulus, self.kernel_strategy))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GF2m(m={self.m}, modulus={bin(self.modulus)}, kernel={self.kernel_strategy})"


#: a lower bound, for every k, on ``prod_{j=1..k} (1 - 2^-j)``: the chance
#: that a term's k random vectors of ``Z_2^k`` are linearly independent
#: (0.2887, in ten-thousandths)
_FULL_RANK_E4 = 2887


def field_degree_for_k(d: int) -> int:
    """The smallest field degree ``l >= 3`` that keeps a round's success
    at least 1/5 for a polynomial of degree ``d`` in the fingerprint's ``y``s.

    A witness survives a round when its vectors are independent (probability
    above 0.2887) and its ``y``-polynomial does not vanish at the drawn
    nonzero ``y``s (Schwartz–Zippel over ``2^l - 1`` values: miss at most
    ``d / (2^l - 1)``); docs/THEORY.md §4.  A k-path, k-tree or weighted
    k-path has ``d = k``, so ``field_degree_for_k(k)`` is a k-path's field;
    a scan-grid row adds its join coefficients.  Every kind's ``d`` is
    derived from its circuit (:attr:`repro.core.mld.MLDCircuit.y_degree`).
    The round count then follows from the exact bound in that field,
    :func:`round_success_bound`, not from 1/5.
    """
    if d < 1:
        raise FieldError(f"the y-degree must be >= 1, got {d}")
    ell = 3
    # 0.2887 * (1 - d / q) >= 1/5 over the q = 2^l - 1 nonzero y, exactly
    while 5 * _FULL_RANK_E4 * ((1 << ell) - 1 - d) < 10_000 * ((1 << ell) - 1):
        ell += 1
    return ell


@lru_cache(maxsize=None)
def round_success_bound(k: int, ell: int, d: int) -> Fraction:
    """The exact lower bound on one round's success for a kind with ``k``
    variables per witness and ``y``-degree ``d``, in ``GF(2^ell)``:
    ``prod_{j=1..k} (1 - 2^-j) * (1 - d / (2^ell - 1))``.

    The first factor is the chance that a witness's ``k`` vectors are
    independent (Williams, arXiv:0807.3026), the second that its
    ``y``-polynomial does not vanish at the drawn nonzero ``y``s
    (Schwartz–Zippel); docs/THEORY.md §4.  At
    ``ell = field_degree_for_k(d)`` it is above 1/5 for every ``k``.
    """
    q = (1 << ell) - 1
    if k < 1 or not 1 <= d < q:
        raise FieldError(f"no round bound for k={k}, d={d} in GF(2^{ell})")
    full_rank = Fraction(1)
    for j in range(1, k + 1):
        full_rank *= Fraction((1 << j) - 1, 1 << j)
    return full_rank * Fraction(q - d, q)


def default_field_for_k(d: int, kernel_strategy: Optional[str] = None) -> GF2m:
    """``GF(2^field_degree_for_k(d))``: the field of a k-path (``d = k``),
    or of any kind whose polynomial has degree ``d`` in the ``y``s.

    For every k-path the paper evaluates (``k <= 18``) this is at most
    ``GF(2^6)``, so elements fit in a byte and the dense product table wins
    for element-wise calls.  Level steps are plane-resident on any field
    (:class:`~repro.core.leveldp.Lanes` multiplies through
    :attr:`GF2m.bitsliced`), so the engine never asks for a kernel.
    """
    return GF2m(field_degree_for_k(d), kernel_strategy=kernel_strategy)
