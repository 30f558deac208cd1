"""Fault-injection substrate tests: specs, plans, and scheduler behavior."""

import json

import numpy as np
import pytest

from repro.errors import (
    ConfigurationError,
    DeadlockError,
    FaultInjectedError,
    RankFailedError,
    SendFailedError,
)
from repro.core.halo import build_halo_views
from repro.core.leveldp import phase_program
from repro.core.mld import MLDCircuit
from repro.ff.fingerprint import Fingerprint
from repro.graph.generators import erdos_renyi
from repro.graph.partition import random_partition
from repro.runtime.comm import AllReduce, Charge, Collect, Exchange
from repro.runtime.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    crash,
    delay,
    drop,
    duplicate,
    load_fault_plan,
    send_fail,
    straggler,
)
from repro.runtime.scheduler import Simulator
from repro.util.rng import RngStream


# --------------------------------------------------------------------- specs
class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault kind"):
            FaultSpec("meteor")

    def test_probability_bounds(self):
        with pytest.raises(ConfigurationError, match="probability"):
            drop(p=1.5)
        with pytest.raises(ConfigurationError, match="probability"):
            drop(p=-0.1)

    def test_crash_needs_rank(self):
        with pytest.raises(ConfigurationError, match="needs a rank"):
            FaultSpec("crash")

    def test_crash_defaults_to_first_op(self):
        assert crash(rank=0).after_ops == 0

    def test_straggler_validation(self):
        with pytest.raises(ConfigurationError, match="rank or a node"):
            FaultSpec("straggler")
        with pytest.raises(ConfigurationError, match="factor"):
            straggler(rank=0, factor=0.5)

    def test_negative_delay_rejected(self):
        with pytest.raises(ConfigurationError, match="delay"):
            delay(-1.0)

    def test_fatal_kinds_default_once_only(self):
        # crash/drop/send_fail must not refire on a driver retry by default
        for spec in (crash(rank=0), drop(), send_fail(),
                     FaultSpec.from_dict({"kind": "crash", "rank": 1}),
                     FaultSpec.from_dict({"kind": "drop"})):
            assert spec.max_events == 1
        # non-lossy kinds stay unlimited
        assert duplicate().max_events is None
        assert delay(1e-6).max_events is None

    def test_dict_round_trip(self):
        spec = delay(2e-6, src=1, dst=0, tag="halo", p=0.25, max_events=7)
        again = FaultSpec.from_dict(spec.to_dict())
        assert again == spec

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault spec fields"):
            FaultSpec.from_dict({"kind": "drop", "extra": 1.0})

    def test_matches_message_wildcards(self):
        spec = drop(src=None, dst=2, tag=None)
        assert spec.matches_message(0, 2, "x")
        assert spec.matches_message(5, 2, ("t", 1))
        assert not spec.matches_message(0, 1, "x")


class TestFaultPlan:
    def test_json_round_trip(self):
        plan = FaultPlan([crash(rank=1, after_ops=3), drop(src=0, p=0.5)], seed=9)
        again = FaultPlan.from_json(plan.to_json())
        assert again == plan

    def test_load_passthrough_and_parsing(self, tmp_path):
        plan = FaultPlan([straggler(rank=0, factor=3.0)], seed=4)
        assert load_fault_plan(plan) is plan
        assert load_fault_plan(None) is None
        assert load_fault_plan(plan.to_dict()) == plan
        assert load_fault_plan(plan.to_json()) == plan
        f = tmp_path / "plan.json"
        f.write_text(plan.to_json())
        assert load_fault_plan(str(f)) == plan

    def test_bool(self):
        assert not FaultPlan([])
        assert FaultPlan([drop()])


# ----------------------------------------------------------------- scheduler
def _ring_prog(ctx):
    nxt = (ctx.rank + 1) % ctx.nranks
    prv = (ctx.rank - 1) % ctx.nranks
    yield Exchange({nxt: ctx.rank}, (prv,))
    (got,) = yield Collect()
    total = yield AllReduce(np.uint64(got))
    return int(total)


class TestCrashInjection:
    def test_crash_fails_collective_typed(self):
        plan = FaultPlan([crash(rank=1, after_ops=1)], seed=0)
        with pytest.raises(RankFailedError) as ei:
            Simulator(3, trace=False, faults=plan).run(_ring_prog)
        assert 1 in ei.value.ranks
        assert isinstance(ei.value, FaultInjectedError)

    def test_crash_at_virtual_time(self):
        def prog(ctx):
            yield Charge(1e-3)
            yield AllReduce(1)
            return "ok"

        plan = FaultPlan([crash(rank=0, at_time=5e-4)], seed=0)
        with pytest.raises(RankFailedError, match=r"\[0\]"):
            Simulator(2, trace=False, measure_compute=False,
                      faults=plan).run(prog)

    def test_crash_before_first_op(self):
        plan = FaultPlan([crash(rank=2)], seed=0)
        with pytest.raises(RankFailedError):
            Simulator(4, trace=False, faults=plan).run(_ring_prog)

    def test_crash_never_blanket_deadlock(self):
        """A crash-induced stall must not be reported as a DeadlockError."""
        plan = FaultPlan([crash(rank=0, after_ops=0)], seed=0)
        with pytest.raises(RankFailedError):
            try:
                Simulator(2, trace=False, faults=plan).run(_ring_prog)
            except DeadlockError:  # pragma: no cover - the bug being tested
                pytest.fail("crash surfaced as DeadlockError")

    def test_crashed_ranks_reported_when_run_completes(self):
        def prog(ctx):
            yield Charge(1e-6)
            if ctx.rank == 0:
                yield Charge(1.0)  # rank 1's crash fires mid-run
            return ctx.rank

        plan = FaultPlan([crash(rank=1, after_ops=1)], seed=0)
        res = Simulator(2, trace=False, measure_compute=False,
                        faults=plan).run(prog)
        assert res.crashed_ranks == (1,)

    def test_fault_trace_event_recorded(self):
        plan = FaultPlan([crash(rank=1, after_ops=1)], seed=0)
        sim = Simulator(3, trace=True, faults=plan)
        with pytest.raises(RankFailedError):
            sim.run(_ring_prog)
        faults = [e for e in sim.trace.events if e.kind == "fault"]
        assert any(e.info == "crash" and e.rank == 1 for e in faults)


def _phase_ops(rank, faults=None):
    """Rank ``rank``'s send, recv and collective events in one blocking
    ``phase_program`` run on four ranks (the run may fail: its trace
    stands)."""
    g = erdos_renyi(40, m=100, rng=RngStream(10))
    fp = Fingerprint.draw(g.n, 4, RngStream(11))
    views = build_halo_views(g, random_partition(g, 4, rng=RngStream(12)))
    sim = Simulator(4, measure_compute=False, faults=faults)
    try:
        sim.run(phase_program(views, MLDCircuit.k_path(4).recurrence(), fp, 0, 8))
    except RankFailedError:
        pass
    return [e.kind for e in sim.trace.events if e.rank == rank
            and e.kind in ("send", "recv", "collective", "fault")]


@pytest.mark.parametrize("rank", range(4))
def test_after_ops_counts_each_message_and_collective(rank):
    """``crash(after_ops=n)`` fires after exactly ``n`` of the rank's
    sends, receives and all-reduces, between two messages of one
    exchange as readily as between two exchanges."""
    total = len(_phase_ops(rank))
    assert total > 4
    for n in range(total):
        kinds = _phase_ops(rank, FaultPlan([crash(rank=rank, after_ops=n)], seed=0))
        assert kinds == _phase_ops(rank)[:n] + ["fault"], n


class TestDropInjection:
    def test_drop_without_timeout_raises_rank_failed(self):
        plan = FaultPlan([drop(src=0, dst=1, tag=0)], seed=0)
        with pytest.raises(RankFailedError) as ei:
            Simulator(2, trace=False, faults=plan).run(_ring_prog)
        assert (0, 1, 0) in ei.value.lost_messages

    def test_duplicate_delivers_twice(self):
        """Both copies land; the exchange's Collect takes one and discards
        the other, so the next exchange gets its own message."""
        def prog(ctx):
            if ctx.rank == 0:
                yield Exchange({1: 7})
                yield Exchange({1: 8})
                return None
            got = []
            for _ in range(2):
                yield Exchange(recv_from=(0,))
                got += yield Collect()
            return got

        plan = FaultPlan([duplicate(src=0, dst=1, tag=0)], seed=0)
        inj = FaultInjector(plan).for_run("dup")
        sim = Simulator(2, trace=False, faults=inj)
        res = sim.run(prog)
        assert inj.counts == {"duplicate": 1}
        assert res.results[1] == [7, 8]
        assert sim._states[1].inbox == {}

    def test_delay_slows_arrival(self):
        def prog(ctx):
            if ctx.rank == 0:
                yield Exchange({1: 1})
                return None
            yield Exchange(recv_from=(0,))
            return (yield Collect())

        base = Simulator(2, trace=False, measure_compute=False).run(prog)
        plan = FaultPlan([delay(5e-3, src=0, dst=1)], seed=0)
        slow = Simulator(2, trace=False, measure_compute=False,
                         faults=plan).run(prog)
        assert slow.results == base.results
        assert slow.clocks[1] >= base.clocks[1] + 5e-3


class TestSendFailInjection:
    def test_send_failure_thrown_and_retryable(self):
        """The failure reaches the rank at its Exchange yield after the
        earlier messages went; re-posting the exchange sends them again,
        and each receiver's Collect discards the second copy."""
        def prog(ctx):
            if ctx.rank == 0:
                for _ in range(3):
                    try:
                        yield Exchange({2: "early", 1: "payload"})
                        break
                    except SendFailedError as exc:
                        assert exc.rank == 0 and exc.dst == 1 and exc.tag == 0
                return None
            yield Exchange(recv_from=(0,))
            (got,) = yield Collect()
            return got

        plan = FaultPlan([send_fail(src=0, dst=1, max_events=1)], seed=0)
        sim = Simulator(3, trace=False, faults=plan)
        res = sim.run(prog)
        assert res.results[1:] == ["payload", "early"]
        assert all(not st.inbox for st in sim._states)


class TestStragglerInjection:
    def test_straggler_scales_charged_compute(self):
        def prog(ctx):
            yield Charge(1e-3)
            yield AllReduce(0)
            return None

        plan = FaultPlan([straggler(rank=1, factor=4.0)], seed=0)
        res = Simulator(2, trace=False, measure_compute=False,
                        faults=plan).run(prog)
        # the all-reduce syncs both ranks to the straggler's clock
        assert res.makespan == pytest.approx(4e-3, rel=0.2)


class TestDeterminism:
    def test_same_plan_same_transcript(self):
        plan = FaultPlan(
            [delay(1e-5, p=0.5, max_events=None), duplicate(p=0.2)], seed=123
        )

        def run():
            inj = FaultInjector(plan).for_run("r")
            res = Simulator(4, trace=False, measure_compute=False,
                            faults=inj).run(_ring_prog)
            return res.results, res.clocks.tolist(), dict(inj.counts)

        r1, c1, k1 = run()
        r2, c2, k2 = run()
        assert r1 == r2
        assert c1 == c2
        assert k1 == k2

    def test_distinct_run_keys_distinct_streams(self):
        plan = FaultPlan([drop(p=0.5, max_events=1000)], seed=7)
        inj = FaultInjector(plan)
        fires = []
        for i in range(40):
            run_inj = inj.for_run(f"key{i}")
            verdict = run_inj.on_send(0, 1, "t")
            fires.append(not verdict.deliver)
        assert any(fires) and not all(fires)  # p=0.5 over 40 keyed streams

    def test_budget_shared_across_runs(self):
        plan = FaultPlan([crash(rank=0, max_events=1)], seed=0)
        inj = FaultInjector(plan)
        with pytest.raises(RankFailedError):
            Simulator(2, trace=False, faults=inj.for_run("a0")).run(_ring_prog)
        # budget consumed: the retry runs clean
        res = Simulator(2, trace=False, faults=inj.for_run("a1")).run(_ring_prog)
        assert res.crashed_ranks == ()
        assert inj.exhausted()
