"""Property fuzzing of the SPMD simulator.

Generates random but *matched* communication scripts (every message has a
receiver that lists its sender; every rank takes part in every exchange,
so exchange ordinals agree) and checks the simulator delivers everything correctly and
deterministically; unmatched scripts must deadlock, never hang.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import DeadlockError
from repro.runtime.comm import AllReduce, Collect, Exchange
from repro.runtime.scheduler import Simulator


@st.composite
def matched_script(draw):
    """A list of (src, dst, payload) messages over a small communicator."""
    nranks = draw(st.integers(min_value=2, max_value=5))
    n_msgs = draw(st.integers(min_value=0, max_value=12))
    msgs = []
    for i in range(n_msgs):
        src = draw(st.integers(min_value=0, max_value=nranks - 1))
        dst = draw(st.integers(min_value=0, max_value=nranks - 1).filter(lambda d: True))
        if dst == src:
            dst = (dst + 1) % nranks
        msgs.append((src, dst, i * 101 + src))
    return nranks, msgs


def _exchange(rank, src, dst, payload):
    """``rank``'s part of one message's exchange."""
    return Exchange({dst: payload} if rank == src else {},
                    (src,) if rank == dst else ())


class TestMatchedScripts:
    @given(matched_script())
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.data_too_large])
    def test_all_messages_delivered(self, script):
        nranks, msgs = script

        def prog(ctx):
            # one exchange per message, on every rank: its ordinal is the index
            for src, dst, payload in msgs:
                yield _exchange(ctx.rank, src, dst, payload)
            got = {}
            for i, (src, dst, payload) in enumerate(msgs):
                rows = yield Collect()
                if dst == ctx.rank:
                    (got[i],) = rows
            yield AllReduce(0)
            return got

        res = Simulator(nranks, trace=False).run(prog)
        for i, (src, dst, payload) in enumerate(msgs):
            assert res.results[dst][i] == payload

    @given(matched_script())
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.data_too_large])
    def test_deterministic(self, script):
        nranks, msgs = script

        def prog(ctx):
            total = 0
            for src, dst, payload in msgs:
                yield _exchange(ctx.rank, src, dst, payload)
            for _ in msgs:
                total += sum((yield Collect()))
            out = yield AllReduce(total)
            return out

        a = Simulator(nranks, trace=False).run(prog).results
        b = Simulator(nranks, trace=False).run(prog).results
        assert a == b
        assert len(set(a)) == 1  # allreduce agrees everywhere


class TestUnmatchedScripts:
    @given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=4))
    @settings(max_examples=20, deadline=None)
    def test_extra_recv_deadlocks_not_hangs(self, nranks, extra_rank):
        extra_rank = extra_rank % nranks

        def prog(ctx):
            if ctx.rank == extra_rank:
                yield Exchange(recv_from=((ctx.rank + 1) % ctx.nranks,))
                yield Collect()
            return None

        with pytest.raises(DeadlockError):
            Simulator(nranks, trace=False).run(prog)
