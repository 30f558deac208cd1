"""Tests for algorithmic XOR all-reduces and their cost-model validation."""

import functools
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from _collectives import recursive_doubling_allreduce, ring_allreduce
from repro.runtime.comm import AllReduce
from repro.runtime.costmodel import CostModel, LAPTOP_NODE
from repro.runtime.scheduler import Simulator


def run(nranks, program, **kw):
    return Simulator(nranks, measure_compute=False, trace=False, **kw).run(program)


class TestRingAllreduce:
    @pytest.mark.parametrize("p", [1, 2, 3, 5, 8])
    def test_sum(self, p):
        """The GF(2^m) sum of scalars: XOR."""
        def prog(ctx):
            out = yield from ring_allreduce(ctx, ctx.rank + 1)
            return out

        res = run(p, prog)
        assert res.results == [functools.reduce(operator.xor, range(1, p + 1))] * p

    def test_xor_arrays(self):
        def prog(ctx):
            v = np.full(4, 1 << ctx.rank, dtype=np.uint8)
            out = yield from ring_allreduce(ctx, v)
            return out

        res = run(4, prog)
        assert all(np.all(r == 0b1111) for r in res.results)

    def test_cost_scales_with_ranks(self):
        def make(p):
            def prog(ctx):
                out = yield from ring_allreduce(ctx, np.zeros(1000, dtype=np.uint8))
                return out

            return prog

        t4 = run(4, make(4)).makespan
        t8 = run(8, make(8)).makespan
        assert t8 > t4  # (P-1) hops on the critical path


class TestRecursiveDoubling:
    @pytest.mark.parametrize("p", [1, 2, 4, 8, 16])
    def test_one_hot_sum(self, p):
        """Every rank's bit reaches every rank exactly once."""
        def prog(ctx):
            out = yield from recursive_doubling_allreduce(ctx, 1 << ctx.rank)
            return out

        res = run(p, prog)
        assert res.results == [(1 << p) - 1] * p

    def test_non_power_of_two_rejected(self):
        def prog(ctx):
            out = yield from recursive_doubling_allreduce(ctx, 1)
            return out

        with pytest.raises(ConfigurationError):
            run(3, prog)

    def test_fewer_rounds_than_ring(self):
        """log2(P) exchanges vs (P-1) hops: recursive doubling must have a
        smaller makespan for small payloads on the same cost model."""
        payload = np.zeros(8, dtype=np.uint8)

        def ring_prog(ctx):
            out = yield from ring_allreduce(ctx, payload)
            return out

        def rd_prog(ctx):
            out = yield from recursive_doubling_allreduce(ctx, payload)
            return out

        p = 16
        t_ring = run(p, ring_prog).makespan
        t_rd = run(p, rd_prog).makespan
        assert t_rd < t_ring


class TestPropertyFuzz:
    @given(
        st.integers(min_value=1, max_value=8),
        st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=8),
    )
    @settings(max_examples=25, deadline=None)
    def test_ring_matches_direct_reduction(self, p, payload):
        arrs = [np.array(payload, dtype=np.int64) * (r + 1) for r in range(p)]

        def prog(ctx):
            out = yield from ring_allreduce(ctx, arrs[ctx.rank])
            return out

        res = run(p, prog)
        direct = functools.reduce(np.bitwise_xor, arrs)
        for r in res.results:
            assert np.array_equal(r, direct)

    @given(
        st.sampled_from([1, 2, 4, 8, 16]),
        st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=20, deadline=None)
    def test_recursive_doubling_matches_ring(self, p, seed):
        vals = [(seed + r * 17) % 1009 for r in range(p)]

        def ring_prog(ctx):
            out = yield from ring_allreduce(ctx, vals[ctx.rank])
            return out

        def rd_prog(ctx):
            out = yield from recursive_doubling_allreduce(ctx, vals[ctx.rank])
            return out

        assert run(p, ring_prog).results == run(p, rd_prog).results


class TestMagicCollectiveCostValidation:
    def test_builtin_allreduce_cost_in_band(self):
        """The simulator's closed-form all-reduce cost must land between
        the best (recursive doubling) and worst (ring) message-level
        implementations for the same payload."""
        payload = np.zeros(64, dtype=np.uint8)
        p = 8

        def magic(ctx):
            out = yield AllReduce(payload)
            return out

        def ring_prog(ctx):
            out = yield from ring_allreduce(ctx, payload)
            return out

        def rd_prog(ctx):
            out = yield from recursive_doubling_allreduce(ctx, payload)
            return out

        t_magic = run(p, magic).makespan
        t_ring = run(p, ring_prog).makespan
        t_rd = run(p, rd_prog).makespan
        assert t_rd <= t_magic * 3
        assert t_magic <= t_ring * 3
        # and all three produce identical values
        assert np.array_equal(run(p, magic).results[0], run(p, ring_prog).results[0])
