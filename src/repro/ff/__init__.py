"""Finite-field arithmetic substrate.

MIDAS evaluates its polynomials over the group algebra
``GF(2^l)[Z_2^k]``, with ``l`` the smallest degree that keeps a round's
success at least 1/5 for the polynomial's degree in the ``y``s
(:func:`repro.ff.gf2m.field_degree_for_k`; smaller than the paper's
``3 + ceil(log2 k)`` for every ``k >= 2``).  This subpackage provides:

* :mod:`repro.ff.poly2` — polynomials over GF(2) packed into machine ints,
  with an irreducibility test used to construct field moduli;
* :mod:`repro.ff.gf2m` — vectorized ``GF(2^m)`` arithmetic (numpy log/antilog
  and dense multiplication tables);
* :mod:`repro.ff.points` — the evaluation points of a weighted kind's
  ``z``, their interpolation back to weight cells, and the extension field
  (with the subfield embedding) that holds more points than ``GF(2^l)``;
* :mod:`repro.ff.fingerprint` — the random assignments (vectors ``v_i`` in
  ``Z_2^k`` and coefficients ``y`` in ``GF(2^l)``) that turn structure
  detection into polynomial identity testing.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "bitsliced": ("BitslicedGF2m",),
    "gf2m": ("GF2m", "default_field_for_k"),
    "fingerprint": ("Fingerprint", "base_indicator_block"),
    "poly2": ("find_irreducible", "is_irreducible", "poly_degree", "poly_divmod",
              "poly_gcd", "poly_mod", "poly_mul"),
})
