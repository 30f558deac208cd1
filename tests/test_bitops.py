"""Unit and property tests for repro.util.bitops."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.bitops import parity_u64

U64 = st.integers(min_value=0, max_value=(1 << 64) - 1)


class TestParity:
    def test_scalar_values(self):
        assert parity_u64(0) == 0
        assert parity_u64(1) == 1
        assert parity_u64(3) == 0
        assert parity_u64(7) == 1

    def test_array_shape_preserved(self):
        arr = np.arange(16, dtype=np.uint64).reshape(4, 4)
        out = parity_u64(arr)
        assert out.shape == (4, 4)
        assert out.dtype == np.uint8

    @given(U64)
    @settings(max_examples=80)
    def test_matches_popcount_mod2(self, x):
        assert parity_u64(x) == x.bit_count() % 2

    @given(U64, U64)
    @settings(max_examples=50)
    def test_xor_additivity(self, a, b):
        # parity(a ^ b) == parity(a) ^ parity(b)
        assert parity_u64(a ^ b) == parity_u64(a) ^ parity_u64(b)

    def test_does_not_mutate_input(self):
        arr = np.array([5, 6], dtype=np.uint64)
        parity_u64(arr)
        assert arr.tolist() == [5, 6]

