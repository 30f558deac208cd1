"""Tests for the SPMD simulator: messaging, collectives, clocks, deadlocks."""

import numpy as np
import pytest

from repro.errors import DeadlockError, RuntimeSimulationError
from repro.runtime.comm import AllReduce, Charge, Collect, Exchange
from repro.runtime.costmodel import CostModel, LAPTOP_NODE
from repro.runtime.scheduler import Simulator


class TestPointToPoint:
    def test_ring(self):
        def ring(ctx):
            nxt = (ctx.rank + 1) % ctx.nranks
            prv = (ctx.rank - 1) % ctx.nranks
            yield Exchange({nxt: ctx.rank}, (prv,))
            (got,) = yield Collect()
            return got

        res = Simulator(6, trace=False).run(ring)
        assert res.results == [(r - 1) % 6 for r in range(6)]

    def test_message_ordering_fifo(self):
        """Exchange ``i`` on the sender meets exchange ``i`` on the receiver."""
        def prog(ctx):
            if ctx.rank == 0:
                for i in range(5):
                    yield Exchange({1: i})
                return None
            for _ in range(5):
                yield Exchange(recv_from=(0,))
            got = []
            for _ in range(5):
                got += yield Collect()
            return got

        res = Simulator(2, trace=False).run(prog)
        assert res.results[1] == [0, 1, 2, 3, 4]

    def test_tags_do_not_mix(self):
        """A later exchange's message never completes an earlier one, even
        when it arrives first."""
        def prog(ctx):
            if ctx.rank == 0:
                yield Exchange({1: ["A"]}, row_bytes=10**8)  # one slow row
                yield Exchange({1: ["B"]})
                return None
            yield Exchange(recv_from=(0,))
            yield Exchange(recv_from=(0,))
            (a,) = yield Collect()
            (b,) = yield Collect()
            return (a, b)

        res = Simulator(2, trace=False).run(prog)
        assert res.results[1] == (["A"], ["B"])

    def test_payloads_copied_by_default(self):
        buf = np.array([1, 2, 3], dtype=np.int64)

        def prog(ctx):
            if ctx.rank == 0:
                yield Exchange({1: buf})
                buf[0] = 99  # mutate after send: receiver must not see it
                yield AllReduce(0)
                return None
            yield Exchange(recv_from=(0,))
            yield AllReduce(0)
            (got,) = yield Collect()
            return int(got[0])

        res = Simulator(2, trace=False).run(prog)
        assert res.results[1] == 1

    def test_invalid_destination(self):
        def prog(ctx):
            yield Exchange({99: 1})

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
            x = yield AllReduce(ctx.rank + 1)
            y = yield AllReduce(np.uint64(1) << np.uint64(ctx.rank))
            return (x, int(y))

        res = Simulator(4, trace=False).run(prog)
        assert all(r == (1 ^ 2 ^ 3 ^ 4, 0b1111) for r in res.results)

    def test_allreduce_arrays_xor(self):
        def prog(ctx):
            v = np.full(3, 1 << ctx.rank, dtype=np.uint8)
            return (yield AllReduce(v))

        res = Simulator(3, trace=False).run(prog)
        assert all(np.all(r == 7) for r in res.results)


class TestDeadlocks:
    def test_recv_never_sent(self):
        def prog(ctx):
            yield Exchange(recv_from=((ctx.rank + 1) % ctx.nranks,))
            yield Collect()

        with pytest.raises(DeadlockError, match="blocked in Collect"):
            Simulator(2, trace=False).run(prog)

    def test_partial_collective(self):
        def prog(ctx):
            if ctx.rank == 0:
                return None
            yield AllReduce(1)

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
                    yield Exchange({1: np.zeros(1)}, row_bytes=nbytes)
                else:
                    yield Exchange(recv_from=(0,))
                    yield Collect()
                return None

            return prog

        small = Simulator(2, measure_compute=False, trace=False).run(make(10))
        large = Simulator(2, measure_compute=False, trace=False).run(make(10**8))
        assert large.makespan > small.makespan

    def test_collective_synchronizes_clocks(self):
        def prog(ctx):
            yield Charge(float(ctx.rank))  # rank r is r seconds "busy"
            yield AllReduce(0)
            return None

        res = Simulator(4, measure_compute=False, trace=False).run(prog)
        # all clocks equal after an all-reduce, at least the max charge
        assert np.allclose(res.clocks, res.clocks[0])
        assert res.clocks[0] >= 3.0

    def test_determinism_of_results(self):
        def prog(ctx):
            peers = [p for p in range(ctx.nranks) if p != ctx.rank]
            yield Exchange({p: ctx.rank * 100 for p in peers}, tuple(peers))
            return tuple((yield Collect()))

        a = Simulator(4, trace=False).run(prog).results
        b = Simulator(4, trace=False).run(prog).results
        assert a == b

    def test_trace_summary(self):
        def prog(ctx):
            yield Charge(0.5)
            yield AllReduce(0)
            return None

        sim = Simulator(2, measure_compute=False, trace=True)
        res = sim.run(prog)
        assert res.summary.total_compute >= 1.0
        assert res.summary.makespan > 0
        assert "rank" in res.summary.report()


class TestCommHelpers:
    def test_payload_nbytes(self):
        """A message is charged its rows' bytes, or ``row_bytes`` a row; an
        all-reduce its array's bytes, or one 8-byte word for a scalar."""
        rows = np.zeros((4, 3), dtype=np.uint8)
        assert Exchange({1: rows}).wire_bytes(rows) == 12
        assert Exchange({1: rows}, row_bytes=100).wire_bytes(rows) == 400
        assert Exchange().wire_bytes(3) == 8
        assert AllReduce(np.zeros(10, dtype=np.uint8)).wire_bytes() == 10
        assert AllReduce(np.uint8(3)).wire_bytes() == 8
        assert AllReduce(3).wire_bytes() == 8

    def test_zero_ranks_rejected(self):
        with pytest.raises(RuntimeSimulationError):
            Simulator(0)
