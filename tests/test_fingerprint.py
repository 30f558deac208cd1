"""Tests for random fingerprints and base-indicator tables."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.ff.fingerprint import Fingerprint, base_indicator_block
from repro.ff.gf2m import GF2m
from repro.util.bitops import parity_u64
from repro.util.rng import RngStream


class TestBaseIndicatorBlock:
    def test_matches_scalar_parity(self):
        v = np.array([0b1011, 0b0000, 0b1111], dtype=np.uint64)
        blk = base_indicator_block(v, 0, 16)
        for i, vi in enumerate(v):
            for t in range(16):
                expected = 1 - parity_u64(int(vi) & t)
                assert blk[i, t] == expected

    def test_zero_vector_always_one(self):
        blk = base_indicator_block(np.zeros(3, dtype=np.uint64), 5, 9)
        assert np.all(blk == 1)

    def test_iteration_zero_always_one(self):
        v = np.arange(1, 20, dtype=np.uint64)
        blk = base_indicator_block(v, 0, 1)
        assert np.all(blk[:, 0] == 1)

    @given(st.integers(min_value=1, max_value=2**12), st.integers(min_value=1, max_value=64))
    @settings(max_examples=30, deadline=None)
    def test_window_offsets_consistent(self, q0, nq):
        v = np.array([0b110101], dtype=np.uint64)
        wide = base_indicator_block(v, 0, q0 + nq)
        window = base_indicator_block(v, q0, nq)
        assert np.array_equal(wide[:, q0:], window)

    @pytest.mark.parametrize("bits", [1, 7, 8, 9, 16, 17, 32, 33, 63])
    def test_every_fold_width_matches_the_64_bit_parity(self, bits):
        # windows ending just below / at / above 2^8, 2^16, 2^32 fold the
        # parity in uint8, uint16, uint32 and uint64; vectors keep all 63 bits
        v = np.random.default_rng(bits).integers(0, 1 << 63, size=40).astype(np.uint64)
        top = (1 << bits) - 1
        for q0, nq in [(max(0, top - 5), min(6, top + 1)), (top, 3), (0, min(top + 1, 64))]:
            q = np.arange(q0, q0 + nq, dtype=np.uint64)
            want = (1 - parity_u64(v[:, None] & q[None, :])).astype(np.uint8)
            got = base_indicator_block(v, q0, nq)
            assert got.dtype == np.uint8 and np.array_equal(got, want), (bits, q0, nq)

    def test_invalid_window_rejected(self):
        v = np.zeros(2, dtype=np.uint64)
        with pytest.raises(ConfigurationError):
            base_indicator_block(v, 0, 0)
        with pytest.raises(ConfigurationError):
            base_indicator_block(v, -1, 4)

    def test_half_density(self):
        # for a nonzero vector, exactly half of all 2^k iterations survive
        k = 8
        v = np.array([0b10110001], dtype=np.uint64)
        blk = base_indicator_block(v, 0, 1 << k)
        assert int(blk.sum()) == 1 << (k - 1)


class TestFingerprint:
    def test_shapes_and_dtypes(self):
        fp = Fingerprint.draw(17, 6, RngStream(0))
        assert fp.v.shape == (17,)
        assert fp.y.shape == (17, 6)
        assert fp.n == 17 and fp.levels == 6
        assert np.all(fp.y != 0)  # coefficients are nonzero
        assert fp.v.max() < (1 << 6)

    def test_custom_levels(self):
        fp = Fingerprint.draw(5, 3, RngStream(1), levels=7)
        assert fp.levels == 7

    def test_default_field_matches_k(self):
        fp = Fingerprint.draw(5, 10, RngStream(2))
        assert fp.field.m == 6  # a 10-path's field: field_degree_for_k(10)

    def test_level_base_block_is_masked_coefficient(self):
        fp = Fingerprint.draw(8, 4, RngStream(3))
        blk = fp.level_base_block(2, 0, 16)
        ind = fp.base_block(0, 16)
        expected = (ind * fp.y[:, 2][:, None]).astype(fp.field.dtype)
        assert np.array_equal(blk, expected)

    def test_node_subset(self):
        fp = Fingerprint.draw(10, 4, RngStream(4))
        nodes = np.array([2, 5, 7])
        sub = fp.level_base_block(1, 0, 8, nodes=nodes)
        full = fp.level_base_block(1, 0, 8)
        assert np.array_equal(sub, full[nodes])

    def test_invalid_args_rejected(self):
        with pytest.raises(ConfigurationError):
            Fingerprint.draw(0, 4, RngStream(0))
        with pytest.raises(ConfigurationError):
            Fingerprint.draw(5, 0, RngStream(0))
        with pytest.raises(ConfigurationError):
            Fingerprint.draw(5, 64, RngStream(0))
        fp = Fingerprint.draw(5, 4, RngStream(0))
        with pytest.raises(ConfigurationError):
            fp.level_base_block(4, 0, 4)

    def test_deterministic_given_stream(self):
        a = Fingerprint.draw(9, 5, RngStream(42))
        b = Fingerprint.draw(9, 5, RngStream(42))
        assert np.array_equal(a.v, b.v)
        assert np.array_equal(a.y, b.y)
