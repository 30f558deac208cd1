"""Field-axiom and kernel tests for vectorized GF(2^m)."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mld import MLDCircuit
from repro.errors import FieldError
from repro.ff.gf2m import GF2m, default_field_for_k, field_degree_for_k, round_success_bound
from repro.ff.poly2 import poly_mulmod
from repro.util.rng import RngStream


def scan_y_degree(dim: int) -> int:
    """The y-degree scan row ``dim``'s circuit sizes its field by."""
    return MLDCircuit.scan_row(np.zeros(1, dtype=np.int64), dim, 0).y_degree


@pytest.fixture(scope="module")
def gf8():
    return GF2m(3)


@pytest.fixture(scope="module")
def gf256():
    return GF2m(8)


def elements(field, max_value=None):
    hi = (field.order - 1) if max_value is None else max_value
    return st.integers(min_value=0, max_value=hi)


def reference_mul(field, a, b):
    """Broadcast product, one scalar polynomial multiply per element."""
    a, b = np.broadcast_arrays(a, b)
    out = [poly_mulmod(int(x), int(y), field.modulus) for x, y in zip(a.flat, b.flat)]
    return np.array(out, dtype=field.dtype).reshape(a.shape)


def _round_success_bound(k: int, d: int, ell: int) -> Fraction:
    """Williams' per-round success bound for a degree-``d`` polynomial in
    the ``y``s over ``Z_2^k`` and nonzero ``y`` in GF(2^ell): full rank
    times the Schwartz–Zippel non-vanishing bound."""
    full_rank = Fraction(1)
    for j in range(1, k + 1):
        full_rank *= 1 - Fraction(1, 2 ** j)
    return full_rank * (1 - Fraction(d, 2 ** ell - 1))


class TestConstruction:
    def test_one_fifth_bound_holds_and_one_degree_less_breaks_it(self):
        """``field_degree_for_k(d)`` is the smallest field keeping a round's
        success >= 1/5 (miss <= 0.8^rounds) for a y-degree ``d``."""
        for k in range(1, 64):
            for d in (k, 2 * k - 1):  # a k-path; a scan row's join coefficients
                ell = field_degree_for_k(d)
                assert _round_success_bound(k, d, ell) >= Fraction(1, 5), (k, d, ell)
                # minimal against the rule's k-free full-rank bound, 0.2887
                if ell > 3:
                    assert (Fraction(2887, 10000)
                            * (1 - Fraction(d, 2 ** (ell - 1) - 1))
                            < Fraction(1, 5)), (k, d, ell)

    def test_round_success_bound_is_the_exact_product(self):
        """The bound the round count comes from: exactly the product above
        at every (k, d) and its field, above 1/5 there, and no bound where
        the y-polynomial may vanish identically (``d >= 2^l - 1``)."""
        for k in range(1, 31):
            for d in (k, 2 * k - 1):
                ell = field_degree_for_k(d)
                p = round_success_bound(k, ell, d)
                assert isinstance(p, Fraction)
                assert p == _round_success_bound(k, d, ell) > Fraction(1, 5), (k, d)
        assert round_success_bound(1, 4, 3) == Fraction(2, 5)  # scan row 1
        for k, ell, d in [(3, 3, 7), (3, 3, 8), (0, 5, 1), (3, 5, 0)]:
            with pytest.raises(FieldError):
                round_success_bound(k, ell, d)

    def test_field_size_rule(self):
        for d, paper, ell in [
            (10, 7, 6),  # kpath_dense
            (11, 7, 6),  # kpath_wide_proc
            (8, 6, 5),   # sim_scaling; kinds_elementwise's binary(8) tree
            (6, 6, 5),   # service_mixed's k-path; kinds_elementwise's weighted path
            (5, 6, 5),   # service_mixed's k-tree
            (9, 7, 5),   # scan-grid row 5 (2·5 − 1); a k = 9 path, the tightest
        ]:
            assert 3 + math.ceil(math.log2(d)) == paper
            assert field_degree_for_k(d) == ell, d
        assert {field_degree_for_k(k) for k in range(10, 20)} == {6}
        assert (field_degree_for_k(1), field_degree_for_k(20)) == (3, 7)
        # 2 dim - 1: the grid runs in its top row's field, a lone row in its own
        assert [scan_y_degree(j) for j in range(1, 6)] == [1, 3, 5, 7, 9]
        with pytest.raises(FieldError):
            field_degree_for_k(0)

    def test_default_field_dtype_is_byte_for_paper_range(self):
        for k in (2, 5, 10, 18):
            assert default_field_for_k(k).dtype == np.uint8

    def test_invalid_degree_rejected(self):
        with pytest.raises(FieldError):
            GF2m(0)
        with pytest.raises(FieldError):
            GF2m(17)

    def test_reducible_modulus_rejected(self):
        with pytest.raises(FieldError):
            GF2m(2, modulus=0b101)  # (x+1)^2

    def test_table_strategy_limited(self):
        with pytest.raises(FieldError):
            GF2m(9, kernel_strategy="table")

    def test_unknown_strategy_rejected(self):
        with pytest.raises(FieldError):
            GF2m(4, kernel_strategy="nonsense")


class TestAxiomsExhaustiveGF8:
    """GF(2^3) is small enough to verify the full field axioms exhaustively."""

    def test_associativity_commutativity_distributivity(self, gf8):
        xs = np.arange(8, dtype=np.uint8)
        a = xs[:, None, None]
        b = xs[None, :, None]
        c = xs[None, None, :]
        assert np.array_equal(gf8.mul(gf8.mul(a, b), c), gf8.mul(a, gf8.mul(b, c)))
        assert np.array_equal(gf8.mul(a, b)[..., 0], gf8.mul(b, a)[..., 0])
        assert np.array_equal(
            gf8.mul(a, gf8.add(b, c)), gf8.add(gf8.mul(a, b), gf8.mul(a, c))
        )

    def test_identity_and_inverse(self, gf8):
        xs = np.arange(8, dtype=np.uint8)
        assert np.array_equal(gf8.mul(xs, np.uint8(1)), xs)
        nz = xs[1:]
        assert np.all(gf8.mul(nz, gf8.inv(nz)) == 1)

    def test_no_zero_divisors(self, gf8):
        xs = np.arange(1, 8, dtype=np.uint8)
        prod = gf8.mul(xs[:, None], xs[None, :])
        assert np.all(prod != 0)


# what the recurrences hand ``mul``: a coefficient column against a state,
# a weight column against a (rows, Z, n2) block, scalars, nothing at all,
# and views that are not contiguous
OPERAND_SHAPES = {
    "coeff-x-state": lambda xs: (xs(5, 1), xs(5, 8)),
    "state-x-coeff": lambda xs: (xs(5, 8), xs(5, 1)),
    "weight-column": lambda xs: (xs(5, 1, 8), xs(5, 3, 8)),
    "same-shape": lambda xs: (xs(5, 8), xs(5, 8)),
    "0-d": lambda xs: (xs(), xs()),
    "0-d-x-array": lambda xs: (xs(), xs(7)),
    "empty": lambda xs: (xs(0), xs(0)),
    "empty-rows": lambda xs: (xs(0, 1), xs(0, 8)),
    "transposed": lambda xs: (xs(8, 5).T, xs(5, 8)),
    "strided": lambda xs: (xs(5, 16)[:, ::2], xs(10, 8)[::2]),
    "column-view": lambda xs: (xs(5, 3, 8)[:, 1][:, None], xs(5, 3, 8)[:, :2]),
}


class TestStrategiesAgree:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_table_vs_logexp(self, m):
        """All ``order^2`` products, both kernels, against the polynomial
        arithmetic they tabulate."""
        ft = GF2m(m, kernel_strategy="table")
        fl = GF2m(m, kernel_strategy="logexp")
        xs = np.arange(ft.order, dtype=ft.dtype)
        expected = reference_mul(ft, xs[:, None], xs[None, :])
        assert np.array_equal(ft.mul(xs[:, None], xs[None, :]), expected)
        assert np.array_equal(fl.mul(xs[:, None], xs[None, :]), expected)

    @pytest.mark.parametrize("case", sorted(OPERAND_SHAPES))
    @pytest.mark.parametrize("m,strategy", [(6, "table"), (8, "table"),
                                            (6, "logexp"), (12, "logexp")])
    def test_operand_shapes(self, m, strategy, case):
        f = GF2m(m, kernel_strategy=strategy)
        rng = np.random.default_rng(m)

        def xs(*shape):
            return rng.integers(0, f.order, size=shape).astype(f.dtype)

        a, b = OPERAND_SHAPES[case](xs)
        a0, b0 = a.copy(), b.copy()
        out = f.mul(a, b)
        assert out.dtype == f.dtype
        assert out.shape == np.broadcast_shapes(a.shape, b.shape)
        assert np.array_equal(out, reference_mul(f, a0, b0))
        assert np.array_equal(f.mul(b, a), out)
        # the index is built from the operands: a shift in place on a view
        # would corrupt the caller's state
        assert np.array_equal(a, a0) and np.array_equal(b, b0)


class TestGF256Properties:
    @given(elements(GF2m(8)), elements(GF2m(8)), elements(GF2m(8)))
    @settings(max_examples=60)
    def test_axioms_sampled(self, a, b, c):
        f = GF2m(8)
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, b) == f.mul(b, a)
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))

    @given(st.integers(min_value=1, max_value=255), st.integers(min_value=0, max_value=20))
    @settings(max_examples=40)
    def test_pow_matches_repeated_mul(self, a, e):
        f = GF2m(8)
        expected = 1
        for _ in range(e):
            expected = int(f.mul(expected, a))
        assert int(f.pow(a, e)) == expected

    def test_pow_of_zero(self, gf256):
        assert int(gf256.pow(0, 0)) == 1
        assert int(gf256.pow(0, 3)) == 0

    def test_frobenius_is_additive(self, gf256):
        # squaring is a field automorphism in characteristic 2
        xs = np.arange(256, dtype=np.uint8)
        sq = gf256.pow(xs, 2)
        a = xs[:, None]
        b = xs[None, :]
        assert np.array_equal(gf256.pow(gf256.add(a, b), 2), gf256.add(sq[:, None], sq[None, :]))


class TestLargeField:
    def test_gf2_16_inverses(self):
        f = GF2m(12)
        xs = np.arange(1, f.order, dtype=f.dtype)
        assert np.all(f.mul(xs, f.inv(xs)) == 1)

    @pytest.mark.parametrize("m", [9, 12, 16])
    def test_logexp_products_sampled(self, m):
        f = GF2m(m)
        assert f.mul_strategy == "logexp"
        rng = np.random.default_rng(m)
        edge = np.array([0, 1, 2, f.order - 1], dtype=f.dtype)
        a = np.concatenate([edge, rng.integers(0, f.order, 2000).astype(f.dtype)])
        b = np.concatenate([edge[::-1], rng.integers(0, f.order, 2000).astype(f.dtype)])
        assert np.array_equal(f.mul(a, b), reference_mul(f, a, b))
        assert np.array_equal(f.mul(edge[:, None], edge[None, :]),
                              reference_mul(f, edge[:, None], edge[None, :]))
        assert np.array_equal(f.mul_scalar(a, f.order - 1),
                              reference_mul(f, a, f.dtype(f.order - 1)))
        nz = a[a != 0]
        assert np.all(f.mul(nz, f.inv(nz)) == 1)
        assert np.array_equal(f.pow(a, 3), f.mul(a, f.mul(a, a)))


class TestHelpers:
    def test_inv_zero_rejected(self, gf8):
        with pytest.raises(FieldError):
            gf8.inv(np.array([1, 0], dtype=np.uint8))

    def test_div(self, gf8):
        xs = np.arange(1, 8, dtype=np.uint8)
        assert np.all(gf8.div(gf8.mul(xs, 5), 5) == xs)

    def test_xor_sum(self, gf256):
        arr = np.array([[1, 2], [3, 4]], dtype=np.uint8)
        assert gf256.xor_sum(arr, axis=0).tolist() == [2, 6]
        assert int(gf256.xor_sum(arr)) == 1 ^ 2 ^ 3 ^ 4

    def test_mul_scalar(self, gf8):
        xs = np.arange(8, dtype=np.uint8)
        assert np.array_equal(gf8.mul_scalar(xs, 3), gf8.mul(xs, np.uint8(3)))
        assert np.all(gf8.mul_scalar(xs, 0) == 0)
        with pytest.raises(FieldError):
            gf8.mul_scalar(xs, 8)

    @pytest.mark.parametrize("m,strategy", [(3, "table"), (7, "table"),
                                            (3, "logexp"), (12, "logexp")])
    @pytest.mark.parametrize("op", [
        "mul-first", "mul-second", "mul-small-first", "mul-small-second",
        "mul-0-d", "mul_scalar", "inv", "pow", "div",
    ])
    def test_non_element_is_a_field_error(self, m, strategy, op):
        """A dtype wider than ``m`` bits can hold a non-element: every table
        kernel names it, for either operand, instead of leaking numpy's
        ``IndexError`` or reading a neighbouring row of the flat table."""
        f = GF2m(m, kernel_strategy=strategy)
        good = np.full((4, 6), 3, dtype=f.dtype)
        bad = good.copy()
        bad[2, 5] = f.order  # one past the last element, fits the dtype
        col = good[:, :1]
        call = {
            "mul-first": lambda: f.mul(bad, good),
            "mul-second": lambda: f.mul(good, bad),
            "mul-small-first": lambda: f.mul(bad[:, 5:], good),
            "mul-small-second": lambda: f.mul(good, bad[:, 5:]),
            "mul-0-d": lambda: f.mul(f.dtype(2), f.dtype(f.order)),
            "mul_scalar": lambda: f.mul_scalar(bad, 3),
            "inv": lambda: f.inv(bad),
            "pow": lambda: f.pow(bad, 2),
            "div": lambda: f.div(col, bad),
        }[op]
        with pytest.raises(FieldError, match="not an element"):
            call()

    def test_full_width_field_has_no_non_elements(self, gf256):
        # m bits in an m-bit dtype: the top values are elements, not rejects
        xs = np.arange(256, dtype=np.uint8)
        assert np.array_equal(gf256.mul(xs, np.uint8(255)), gf256.mul_scalar(xs, 255))
        f16 = GF2m(16)
        top = np.array([0xFFFF, 1], dtype=np.uint16)
        assert f16.mul(top, top[::-1]).tolist() == [0xFFFF, 0xFFFF]

    def test_random_nonzero_never_zero(self, gf8):
        draws = gf8.random_nonzero(RngStream(1), size=4096)
        assert np.all(draws != 0)
        assert draws.max() <= 7

    def test_random_covers_field(self, gf8):
        draws = gf8.random(RngStream(2), size=4096)
        assert set(np.unique(draws).tolist()) == set(range(8))

    def test_element_validation(self, gf8):
        assert gf8.element(7) == 7
        with pytest.raises(FieldError):
            gf8.element(8)

    def test_equality_and_hash(self):
        assert GF2m(4) == GF2m(4)
        assert GF2m(4) != GF2m(5)
        assert hash(GF2m(4)) == hash(GF2m(4))
