"""Failure-injection tests for the SPMD simulator."""

import numpy as np
import pytest

from repro.errors import DeadlockError, RuntimeSimulationError
from repro.runtime.comm import AllReduce, Collect, Exchange
from repro.runtime.scheduler import Simulator


class TestExceptionPropagation:
    def test_rank_annotated(self):
        def prog(ctx):
            if ctx.rank == 2:
                raise ValueError("kernel exploded")
            yield AllReduce(0)

        with pytest.raises(ValueError, match="kernel exploded") as ei:
            Simulator(4, trace=False).run(prog)
        assert any("[rank 2]" in n for n in ei.value.__notes__)
        # args are NOT rewritten: the original exception round-trips
        assert ei.value.args == ("kernel exploded",)

    def test_exception_mid_communication(self):
        def prog(ctx):
            yield Exchange({(ctx.rank + 1) % ctx.nranks: ctx.rank},
                           ((ctx.rank - 1) % ctx.nranks,))
            (got,) = yield Collect()
            if ctx.rank == 1:
                raise RuntimeError(f"bad value {got}")
            return got

        with pytest.raises(RuntimeError, match="bad value") as ei:
            Simulator(3, trace=False).run(prog)
        assert any("[rank 1]" in n for n in ei.value.__notes__)

    def test_argless_exception(self):
        def prog(ctx):
            if ctx.rank == 0:
                raise KeyError()
            yield AllReduce(0)

        with pytest.raises(KeyError) as ei:
            Simulator(2, trace=False).run(prog)
        assert any("[rank 0]" in n for n in ei.value.__notes__)

    def test_non_string_args_preserved(self):
        """KeyError(3) keeps its integer arg — the pre-fix annotation
        rewrote args[0] to a string, breaking ``exc.args`` round-trips."""

        def prog(ctx):
            if ctx.rank == 1:
                raise KeyError(3)
            yield AllReduce(0)

        with pytest.raises(KeyError) as ei:
            Simulator(2, trace=False).run(prog)
        assert ei.value.args == (3,)
        assert any("[rank 1]" in n for n in ei.value.__notes__)


class TestPartialFailures:
    def test_one_rank_early_return_deadlocks_allreduce(self):
        def prog(ctx):
            if ctx.rank == 0:
                return "bailed"
            yield AllReduce(1)
            return "synced"

        with pytest.raises(DeadlockError):
            Simulator(3, trace=False).run(prog)

    def test_mismatched_message_counts_deadlock(self):
        def prog(ctx):
            if ctx.rank == 0:
                yield Exchange({1: 1})
                return None
            yield Exchange(recv_from=(0,))
            yield Exchange(recv_from=(0,))  # its message never comes
            yield Collect()
            yield Collect()
            return None

        with pytest.raises(DeadlockError):
            Simulator(2, trace=False).run(prog)


class TestCollectiveMisuse:
    def test_mismatched_call_counts(self):
        def prog(ctx):
            yield AllReduce(1)
            if ctx.rank == 0:
                yield AllReduce(1)  # extra collective on one rank only
            yield AllReduce(1)
            return None

        # rank 0's third call waits on a rank that has exited
        with pytest.raises(DeadlockError, match="deadlock"):
            Simulator(2, trace=False).run(prog)

    def test_invalid_destination_rank(self):
        def prog(ctx):
            yield Exchange({ctx.nranks + 3: 1})
            return None

        with pytest.raises(RuntimeSimulationError, match="invalid rank"):
            Simulator(2, trace=False).run(prog)

    def test_yielding_non_op_rejected(self):
        def prog(ctx):
            yield "not an op"

        with pytest.raises(RuntimeSimulationError, match="not a communication op"):
            Simulator(1, trace=False).run(prog)

    def test_early_exit_while_others_wait_in_allreduce(self):
        def prog(ctx):
            if ctx.rank == 2:
                return "left early"
            yield AllReduce(np.uint64(ctx.rank))
            return "reduced"

        with pytest.raises(DeadlockError):
            Simulator(3, trace=False).run(prog)


class TestAllReduceAliasing:
    def test_ranks_receive_copies_not_aliases(self):
        """Every rank gets its own copy of the result: a rank that
        scribbles on it (or on its input buffer) changes no peer's."""

        def prog(ctx):
            buf = np.full(4, 1 << ctx.rank, dtype=np.int64)
            total = yield AllReduce(buf)
            buf[:] = -1  # trash the input after the collective
            total += ctx.rank  # and scribble on the result ...
            yield AllReduce(0)  # ... before any peer returns
            return total

        res = Simulator(3, trace=False).run(prog)
        for r, arr in enumerate(res.results):
            assert np.array_equal(arr, np.full(4, 7 + r)), "ranks share a result"

    def test_result_mutation_does_not_leak_to_an_input(self):
        """On one rank the sum is the rank's own buffer: it still gets a
        copy."""
        probe = {}

        def prog(ctx):
            buf = np.zeros(2, dtype=np.int64)
            probe[ctx.rank] = buf
            total = yield AllReduce(buf)
            total += 99  # the rank scribbles on what it received
            return None

        Simulator(1, trace=False).run(prog)
        assert np.array_equal(probe[0], np.zeros(2)), "result aliased an input"


class TestDeadlockDiagnosis:
    def test_diagnosis_lists_inbox_and_in_flight(self):
        def prog(ctx):
            if ctx.rank == 0:
                yield Exchange({1: 1}, (1,))
                yield Exchange({1: 2})
                yield Collect()
            else:
                yield Exchange(recv_from=(0,))
                yield Collect()
                yield Exchange()  # leaves exchange 1's message unread
                yield Collect()
                yield Exchange(recv_from=(0,))
                yield Collect()
            return None

        with pytest.raises(DeadlockError) as ei:
            Simulator(2, trace=False).run(prog)
        msg = str(ei.value)
        assert "rank 0: blocked in Collect(src=1, exchange=0)" in msg
        assert "rank 1: blocked in Collect(src=0, exchange=2)" in msg
        assert "inbox: 1 undelivered" in msg
        assert "in flight: 0->1 tag=1" in msg


class TestStress:
    def test_all_to_all_sixteen_ranks(self):
        """Dense exchange on 16 ranks: every pair swaps a payload."""

        def prog(ctx):
            peers = tuple(p for p in range(ctx.nranks) if p != ctx.rank)
            yield Exchange({p: ctx.rank * 1000 + p for p in peers}, peers)
            return dict(zip(peers, (yield Collect())))

        res = Simulator(16, trace=False).run(prog)
        for r, got in enumerate(res.results):
            for peer, val in got.items():
                assert val == peer * 1000 + r

    def test_long_chain_of_supersteps(self):
        """Many alternating compute/exchange rounds do not leak state."""

        def prog(ctx):
            acc = np.uint64(ctx.rank)
            nxt = (ctx.rank + 1) % ctx.nranks
            prv = (ctx.rank - 1) % ctx.nranks
            for _ in range(50):
                yield Exchange({nxt: acc}, (prv,))
                (incoming,) = yield Collect()
                acc = np.uint64((int(acc) + int(incoming)) % 1_000_003)
            return int(acc)

        a = Simulator(5, trace=False).run(prog).results
        b = Simulator(5, trace=False).run(prog).results
        assert a == b  # deterministic
