"""Tests for the dense group-algebra oracle GF(2^l)[Z_2^k].

The decisive test is `TestOracleAgreement`: evaluating a polynomial in the
group algebra must agree with the 2^k-iteration matrix-representation
evaluation the production code uses — specifically, the group-algebra
result equals (XOR over all iterations of the per-iteration value) times
the all-ones coefficient vector.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FieldError
from repro.ff.fingerprint import base_indicator_block
from repro.ff.gf2m import GF2m
from _group_algebra import GroupAlgebra


@pytest.fixture(scope="module")
def ga():
    return GroupAlgebra(GF2m(4), 3)


class TestBasics:
    def test_zero_one(self, ga):
        assert ga.zero().is_zero()
        assert not ga.one().is_zero()
        e = ga.basis(0b101, coeff=7)
        assert (e + e).is_zero()  # characteristic 2
        assert e * ga.one() == e

    def test_basis_multiplication_is_xor(self, ga):
        a = ga.basis(0b011)
        b = ga.basis(0b110)
        prod = a * b
        nz = np.nonzero(prod.coeffs)[0]
        assert nz.tolist() == [0b101]

    def test_scale(self, ga):
        e = ga.basis(0b010, coeff=3)
        s = e.scale(5)
        assert int(s.coeffs[0b010]) == int(ga.field.mul(3, 5))

    def test_out_of_range_rejected(self, ga):
        with pytest.raises(FieldError):
            ga.basis(8)
        with pytest.raises(FieldError):
            GroupAlgebra(GF2m(4), 0)
        with pytest.raises(FieldError):
            GroupAlgebra(GF2m(4), 20)

    def test_cross_algebra_rejected(self, ga):
        other = GroupAlgebra(GF2m(4), 2)
        with pytest.raises(FieldError):
            ga.one() + other.one()


class TestSquareVanishes:
    """(v0 + v)^2 = 0: the identity that kills non-multilinear monomials."""

    @pytest.mark.parametrize("v", range(1, 8))
    def test_all_nonidentity_elements(self, ga, v):
        x = ga.variable(v, coeff=5)
        assert (x * x).is_zero()

    @given(st.integers(min_value=0, max_value=7), st.integers(min_value=1, max_value=15))
    @settings(max_examples=30)
    def test_with_any_coefficient(self, v, coeff):
        ga = GroupAlgebra(GF2m(4), 3)
        x = ga.variable(v, coeff=coeff)
        assert (x * x).is_zero()
        assert (x ** 2).is_zero()

    def test_higher_powers_vanish(self, ga):
        x = ga.variable(0b110, coeff=2)
        assert (x ** 3).is_zero()


class TestMultilinearSurvival:
    def test_independent_vectors_survive(self, ga):
        # v1, v2, v3 linearly independent => product nonzero with all-equal coeffs
        xs = [ga.variable(v, coeff=1) for v in (0b001, 0b010, 0b100)]
        prod = xs[0] * xs[1] * xs[2]
        assert not prod.is_zero()
        assert len(set(prod.coeffs.tolist())) == 1  # all-ones pattern

    def test_dependent_vectors_vanish(self, ga):
        # v3 = v1 xor v2 => rank 2 < 3 => product is zero
        xs = [ga.variable(v, coeff=1) for v in (0b001, 0b010, 0b011)]
        assert (xs[0] * xs[1] * xs[2]).is_zero()


class TestOracleAgreement:
    """Group-algebra evaluation == 2^k-iteration evaluation (the core claim)."""

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=15, deadline=None)
    def test_random_path_polynomial(self, seed):
        from repro.util.rng import RngStream

        rng = RngStream(seed)
        k = 3
        field = GF2m(5)
        ga = GroupAlgebra(field, k)
        n = 5
        v = rng.integers(0, 1 << k, size=n).astype(np.uint64)
        y = (rng.integers(0, field.order - 1, size=(n, k)) + 1).astype(field.dtype)
        # a tiny path graph 0-1-2-3-4; polynomial P = sum_i P(i, k)
        nbrs = {0: [1], 1: [0, 2], 2: [1, 3], 3: [2, 4], 4: [3]}

        # --- group algebra evaluation
        def var(i, level):
            return ga.variable(int(v[i]), coeff=int(y[i, level]))

        P = {i: var(i, 0) for i in range(n)}
        for j in range(1, k):
            P = {
                i: ga.sum(P[u] for u in nbrs[i]) * var(i, j)
                for i in range(n)
            }
        total_ga = ga.sum(P.values())

        # --- iteration-based evaluation (what the evaluators do)
        total_iter = 0
        for q in range(1 << k):
            ind = base_indicator_block(v, q, 1)[:, 0]
            vals = (ind * y[:, 0]).astype(field.dtype)
            for j in range(1, k):
                acc = np.zeros(n, dtype=field.dtype)
                for i in range(n):
                    s = 0
                    for u in nbrs[i]:
                        s ^= int(vals[u])
                    acc[i] = field.mul(int(ind[i] * y[i, j]), s)
                vals = acc
            total_iter ^= int(np.bitwise_xor.reduce(vals))

        # the group-algebra element is total_iter times the all-ones vector
        expected = np.full(1 << k, total_iter, dtype=field.dtype)
        assert np.array_equal(total_ga.coeffs, expected)
