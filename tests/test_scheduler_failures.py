"""Failure-injection tests for the SPMD simulator."""

import numpy as np
import pytest

from repro.errors import DeadlockError, RuntimeSimulationError
from repro.runtime.comm import AllReduce, Recv, Send
from repro.runtime.scheduler import Simulator


class TestExceptionPropagation:
    def test_rank_annotated(self):
        def prog(ctx):
            if ctx.rank == 2:
                raise ValueError("kernel exploded")
            yield AllReduce(0, op="sum")

        with pytest.raises(ValueError, match="kernel exploded") as ei:
            Simulator(4, trace=False).run(prog)
        assert any("[rank 2]" in n for n in ei.value.__notes__)
        # args are NOT rewritten: the original exception round-trips
        assert ei.value.args == ("kernel exploded",)

    def test_exception_mid_communication(self):
        def prog(ctx):
            yield Send((ctx.rank + 1) % ctx.nranks, "x", ctx.rank)
            got = yield Recv((ctx.rank - 1) % ctx.nranks, "x")
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
            yield AllReduce(0, op="sum")

        with pytest.raises(KeyError) as ei:
            Simulator(2, trace=False).run(prog)
        assert any("[rank 0]" in n for n in ei.value.__notes__)

    def test_non_string_args_preserved(self):
        """KeyError(3) keeps its integer arg — the pre-fix annotation
        rewrote args[0] to a string, breaking ``exc.args`` round-trips."""

        def prog(ctx):
            if ctx.rank == 1:
                raise KeyError(3)
            yield AllReduce(0, op="sum")

        with pytest.raises(KeyError) as ei:
            Simulator(2, trace=False).run(prog)
        assert ei.value.args == (3,)
        assert any("[rank 1]" in n for n in ei.value.__notes__)


class TestPartialFailures:
    def test_one_rank_early_return_deadlocks_allreduce(self):
        def prog(ctx):
            if ctx.rank == 0:
                return "bailed"
            yield AllReduce(1, op="sum")
            return "synced"

        with pytest.raises(DeadlockError):
            Simulator(3, trace=False).run(prog)

    def test_mismatched_message_counts_deadlock(self):
        def prog(ctx):
            if ctx.rank == 0:
                yield Send(1, "a", 1)
                return None
            yield Recv(0, "a")
            yield Recv(0, "a")  # second message never comes
            return None

        with pytest.raises(DeadlockError):
            Simulator(2, trace=False).run(prog)


class TestCollectiveMisuse:
    def test_mismatched_call_counts(self):
        def prog(ctx):
            yield AllReduce(1, op="sum")
            if ctx.rank == 0:
                yield AllReduce(1, op="sum")  # extra collective on one rank only
            yield AllReduce(1, op="sum")
            return None

        # rank 0's third call waits on a rank that has exited
        with pytest.raises(DeadlockError, match="deadlock"):
            Simulator(2, trace=False).run(prog)

    def test_invalid_destination_rank(self):
        def prog(ctx):
            yield Send(ctx.nranks + 3, "x", 1)
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
            yield AllReduce(np.uint64(ctx.rank), op="xor", nbytes=8)
            return "reduced"

        with pytest.raises(DeadlockError):
            Simulator(3, trace=False).run(prog)


class TestAllReduceAliasing:
    def test_ranks_receive_copies_not_aliases(self):
        """Every rank gets its own copy of the result: a rank that
        scribbles on it (or on its input buffer) changes no peer's."""

        def prog(ctx):
            buf = np.full(4, 1 << ctx.rank, dtype=np.int64)
            total = yield AllReduce(buf, op="xor")
            buf[:] = -1  # trash the input after the collective
            total += ctx.rank  # and scribble on the result ...
            yield AllReduce(0, op="sum")  # ... before any peer returns
            return total

        res = Simulator(3, trace=False).run(prog)
        for r, arr in enumerate(res.results):
            assert np.array_equal(arr, np.full(4, 7 + r)), "ranks share a result"

    def test_result_mutation_does_not_leak_to_an_input(self):
        probe = {}

        def prog(ctx):
            buf = np.zeros(2, dtype=np.int64)
            probe[ctx.rank] = buf
            # a reducer that hands back its first operand: rank 0's buffer
            total = yield AllReduce(buf, op=lambda a, b: a)
            total += 99  # every rank scribbles on what it received
            yield AllReduce(0, op="sum")
            return None

        Simulator(2, trace=False).run(prog)
        assert np.array_equal(probe[0], np.zeros(2)), "result aliased an input"

    def test_non_array_results_are_copies_too(self):
        """A callable reducer's list result is copied per rank like an
        array: one rank appending to it changes no peer's."""

        def prog(ctx):
            merged = yield AllReduce([ctx.rank], op=lambda a, b: a + b)
            merged.append(ctx.rank)
            yield AllReduce(0, op="sum")
            return merged

        res = Simulator(3, trace=False).run(prog)
        assert res.results == [[0, 1, 2, r] for r in range(3)]


class TestDeadlockDiagnosis:
    def test_diagnosis_lists_inbox_and_in_flight(self):
        def prog(ctx):
            if ctx.rank == 0:
                yield Send(1, "a", 1)
                yield Send(1, "b", 2)
                yield Recv(1, "never")
            else:
                yield Recv(0, "a")
                yield Recv(0, "wrong-tag")
            return None

        with pytest.raises(DeadlockError) as ei:
            Simulator(2, trace=False).run(prog)
        msg = str(ei.value)
        assert "rank 0: blocked on Recv(src=1, tag='never')" in msg
        assert "rank 1: blocked on Recv(src=0, tag='wrong-tag')" in msg
        assert "inbox: 1 undelivered" in msg
        assert "in flight: 0->1 tag='b'" in msg


class TestStress:
    def test_all_to_all_sixteen_ranks(self):
        """Dense exchange on 16 ranks: every pair swaps a payload."""

        def prog(ctx):
            for peer in range(ctx.nranks):
                if peer != ctx.rank:
                    yield Send(peer, ("a2a", ctx.rank), ctx.rank * 1000 + peer)
            got = {}
            for peer in range(ctx.nranks):
                if peer != ctx.rank:
                    got[peer] = yield Recv(peer, ("a2a", peer))
            return got

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
            for step in range(50):
                yield Send(nxt, ("chain", step), acc)
                incoming = yield Recv(prv, ("chain", step))
                acc = np.uint64((int(acc) + int(incoming)) % 1_000_003)
            return int(acc)

        a = Simulator(5, trace=False).run(prog).results
        b = Simulator(5, trace=False).run(prog).results
        assert a == b  # deterministic
