"""Tests for the SPMD simulator: messaging, collectives, clocks, deadlocks."""

import numpy as np
import pytest

from repro.errors import DeadlockError, RuntimeSimulationError
from repro.runtime.comm import (
    AllReduce,
    Charge,
    Recv,
    Send,
    payload_nbytes,
    resolve_reducer,
)
from repro.runtime.costmodel import CostModel, LAPTOP_NODE
from repro.runtime.scheduler import Simulator


class TestPointToPoint:
    def test_ring(self):
        def ring(ctx):
            nxt = (ctx.rank + 1) % ctx.nranks
            prv = (ctx.rank - 1) % ctx.nranks
            yield Send(nxt, "tok", ctx.rank)
            got = yield Recv(prv, "tok")
            return got

        res = Simulator(6, trace=False).run(ring)
        assert res.results == [(r - 1) % 6 for r in range(6)]

    def test_message_ordering_fifo(self):
        def prog(ctx):
            if ctx.rank == 0:
                for i in range(5):
                    yield Send(1, "seq", i)
                return None
            got = []
            for _ in range(5):
                got.append((yield Recv(0, "seq")))
            return got

        res = Simulator(2, trace=False).run(prog)
        assert res.results[1] == [0, 1, 2, 3, 4]

    def test_tags_do_not_mix(self):
        def prog(ctx):
            if ctx.rank == 0:
                yield Send(1, "a", "A")
                yield Send(1, "b", "B")
                return None
            b = yield Recv(0, "b")
            a = yield Recv(0, "a")
            return (a, b)

        res = Simulator(2, trace=False).run(prog)
        assert res.results[1] == ("A", "B")

    def test_payloads_copied_by_default(self):
        buf = np.array([1, 2, 3], dtype=np.int64)

        def prog(ctx):
            if ctx.rank == 0:
                yield Send(1, "x", buf)
                buf[0] = 99  # mutate after send: receiver must not see it
                yield AllReduce(0, op="sum")
                return None
            yield AllReduce(0, op="sum")
            got = yield Recv(0, "x")
            return int(got[0])

        res = Simulator(2, trace=False).run(prog)
        assert res.results[1] == 1

    def test_invalid_destination(self):
        def prog(ctx):
            yield Send(99, "x", 1)

        with pytest.raises(RuntimeSimulationError):
            Simulator(2, trace=False).run(prog)

    def test_non_op_yield_rejected(self):
        def prog(ctx):
            yield "not an op"

        with pytest.raises(RuntimeSimulationError):
            Simulator(1, trace=False).run(prog)


class TestCollectives:
    def test_allreduce_ops(self):
        def prog(ctx):
            s = yield AllReduce(ctx.rank + 1, op="sum")
            m = yield AllReduce(ctx.rank, op="max")
            x = yield AllReduce(ctx.rank + 1, op="xor")
            return (s, m, x)

        res = Simulator(4, trace=False).run(prog)
        assert all(r == (10, 3, 1 ^ 2 ^ 3 ^ 4) for r in res.results)

    def test_allreduce_arrays_xor(self):
        def prog(ctx):
            v = np.full(3, 1 << ctx.rank, dtype=np.uint8)
            return (yield AllReduce(v, op="xor"))

        res = Simulator(3, trace=False).run(prog)
        assert all(np.all(r == 7) for r in res.results)

    def test_custom_reducer(self):
        def prog(ctx):
            return (yield AllReduce([ctx.rank], op=lambda a, b: a + b))

        res = Simulator(3, trace=False).run(prog)
        assert res.results[0] == [0, 1, 2]


class TestDeadlocks:
    def test_recv_never_sent(self):
        def prog(ctx):
            yield Recv((ctx.rank + 1) % ctx.nranks, "ghost")

        with pytest.raises(DeadlockError, match="blocked on Recv"):
            Simulator(2, trace=False).run(prog)

    def test_partial_collective(self):
        def prog(ctx):
            if ctx.rank == 0:
                return None
            yield AllReduce(1, op="sum")

        with pytest.raises(DeadlockError):
            Simulator(2, trace=False).run(prog)


class TestVirtualTime:
    def test_charge_advances_clock(self):
        def prog(ctx):
            yield Charge(1.5)
            return None

        res = Simulator(2, measure_compute=False, trace=False).run(prog)
        assert np.all(res.clocks >= 1.5)

    def test_message_time_scales_with_bytes(self):
        def make(nbytes):
            def prog(ctx):
                if ctx.rank == 0:
                    yield Send(1, "x", None, nbytes=nbytes)
                else:
                    yield Recv(0, "x")
                return None

            return prog

        small = Simulator(2, measure_compute=False, trace=False).run(make(10))
        large = Simulator(2, measure_compute=False, trace=False).run(make(10**8))
        assert large.makespan > small.makespan

    def test_collective_synchronizes_clocks(self):
        def prog(ctx):
            yield Charge(float(ctx.rank))  # rank r is r seconds "busy"
            yield AllReduce(0, op="sum")
            return None

        res = Simulator(4, measure_compute=False, trace=False).run(prog)
        # all clocks equal after an all-reduce, at least the max charge
        assert np.allclose(res.clocks, res.clocks[0])
        assert res.clocks[0] >= 3.0

    def test_determinism_of_results(self):
        def prog(ctx):
            vals = []
            for peer in range(ctx.nranks):
                if peer != ctx.rank:
                    yield Send(peer, ("v", ctx.rank), ctx.rank * 100)
            for peer in range(ctx.nranks):
                if peer != ctx.rank:
                    vals.append((yield Recv(peer, ("v", peer))))
            return tuple(vals)

        a = Simulator(4, trace=False).run(prog).results
        b = Simulator(4, trace=False).run(prog).results
        assert a == b

    def test_trace_summary(self):
        def prog(ctx):
            yield Charge(0.5)
            yield AllReduce(0, op="sum")
            return None

        sim = Simulator(2, measure_compute=False, trace=True)
        res = sim.run(prog)
        assert res.summary.total_compute >= 1.0
        assert res.summary.makespan > 0
        assert "rank" in res.summary.report()


class TestCommHelpers:
    def test_payload_nbytes(self):
        assert payload_nbytes(None) == 0
        assert payload_nbytes(np.zeros(10, dtype=np.uint8)) == 10
        assert payload_nbytes(b"abcd") == 4
        assert payload_nbytes(3) == 8
        assert payload_nbytes([np.zeros(4, np.uint8), 1]) == 12
        assert payload_nbytes({"k": 2}) > 0
        assert payload_nbytes(object()) == 64

    def test_resolve_reducer_unknown(self):
        with pytest.raises(ValueError):
            resolve_reducer("median")

    def test_zero_ranks_rejected(self):
        with pytest.raises(RuntimeSimulationError):
            Simulator(0)
