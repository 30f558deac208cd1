"""Critical-path extraction: exactness on hand-built programs, the
length == makespan invariant on generated deadlock-free programs, and
the analytics built on top (blame, slack, comm matrix, stragglers)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.midas import MidasRuntime, detect_path
from repro.graph.generators import erdos_renyi
from repro.obs.analyze import (
    analyze_run,
    communication_matrix,
    extract_critical_path,
    slack_histogram,
)
from repro.obs.report import RunReport
from repro.runtime.comm import AllReduce, Charge, Collect, Exchange
from repro.runtime.faults import FaultPlan, FaultSpec
from repro.runtime.scheduler import Simulator
from repro.runtime.tracing import DepEdge, Scope, TraceRecorder
from repro.util.rng import RngStream

from test_sanitize_fuzz import build_scripts, make_program, spmd_programs


def run_traced(nranks, program, **kw):
    sim = Simulator(nranks, measure_compute=False, **kw)
    res = sim.run(program)
    return res, sim.trace


class TestHandBuiltChains:
    def test_two_rank_blocking_chain_exact(self):
        """rank0 computes 1ms then sends; rank1 blocks on the recv and
        then computes 2ms.  The critical path is exactly rank0's charge,
        the message dependency, and rank1's charge."""

        def prog(ctx):
            if ctx.rank == 0:
                yield Charge(1e-3)
                yield Exchange({1: 7})
            else:
                yield Exchange(recv_from=(0,))
                yield Collect()
                yield Charge(2e-3)

        res, trace = run_traced(2, prog)
        path = extract_critical_path(trace.events, trace.edges)
        assert path.makespan == pytest.approx(res.makespan)
        assert path.length == pytest.approx(path.makespan, rel=1e-9)
        assert path.coverage == pytest.approx(1.0)
        # the chain crosses ranks exactly once, via the message edge
        kinds = [(s.rank, s.kind) for s in path.segments]
        assert ("message", ) not in kinds  # edges carry kind, events labels
        ranks = [s.rank for s in path.segments]
        assert ranks == sorted(ranks), "path must move 0 -> 1 monotonically"
        assert any(s.via == "edge" and s.kind == "message"
                   for s in path.segments)
        assert any(s.rank == 0 and s.kind == "charge" for s in path.segments)
        assert any(s.rank == 1 and s.kind == "charge" for s in path.segments)
        # blame: rank1's 2ms charge dominates
        top = path.blame()[0]
        assert top["rank"] == 1 and top["seconds"] == pytest.approx(2e-3)

    def test_straggler_dominates_collective(self):
        """The slowest entrant into an allreduce owns the path."""

        def prog(ctx):
            yield Charge(1e-3 * (ctx.rank + 1))
            yield AllReduce(ctx.rank)

        res, trace = run_traced(3, prog)
        path = extract_critical_path(trace.events, trace.edges)
        assert path.length == pytest.approx(path.makespan, rel=1e-9)
        # rank 2 charged 3ms, the longest, so its charge is on the path
        assert any(s.rank == 2 and s.kind == "charge" for s in path.segments)
        assert any(s.via == "edge" and s.kind == "collective"
                   for s in path.segments)

    def test_empty_and_trivial(self):
        assert extract_critical_path([], []).segments == []
        assert extract_critical_path([], []).coverage == 1.0

    def test_edges_shift_with_extend(self):
        rec = TraceRecorder(enabled=True)
        rec.record_edge("message", 0, 1.0, 1, 2.0, info="x")
        dst = TraceRecorder(enabled=True)
        dst.extend(rec.events, t_shift=10.0, rank_offset=4, edges=rec.edges)
        (e,) = dst.edges
        assert (e.src_rank, e.t_src, e.dst_rank, e.t_dst) == (4, 11.0, 5, 12.0)
        assert e.weight == pytest.approx(1.0)


FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


class TestPathEqualsMakespanProperty:
    @FUZZ
    @given(spmd_programs())
    def test_generated_programs(self, case):
        """On every deadlock-free program the extracted critical path
        tiles [0, makespan] exactly (the ISSUE acceptance criterion)."""
        nranks, events = case
        res, trace = run_traced(nranks, make_program(build_scripts(nranks, events)))
        if not trace.events:
            return
        path = extract_critical_path(trace.events, trace.edges)
        assert path.makespan == pytest.approx(
            max(e.t_end for e in trace.events))
        assert path.length == pytest.approx(path.makespan, rel=1e-9, abs=1e-12)
        # segments tile backward-contiguously
        for a, b in zip(path.segments, path.segments[1:]):
            assert b.t_start == pytest.approx(a.t_end, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("n,k,n1,N", [(30, 4, 2, 4), (48, 5, 4, 8)])
    def test_engine_spliced_run(self, n, k, n1, N):
        """The invariant holds on a full engine run: per-phase simulator
        timelines spliced onto the run-level clock with barrier edges."""
        rec = TraceRecorder(enabled=True)
        rt = MidasRuntime(n_processors=N, n1=n1, mode="simulated",
                          recorder=rec)
        g = erdos_renyi(n, rng=RngStream(5, name="g").child("er"))
        detect_path(g, k, eps=0.3, rng=RngStream(5, name="d").child("run"),
                    runtime=rt)
        assert rec.events and rec.edges
        path = extract_critical_path(rec.events, rec.edges)
        assert path.length == pytest.approx(path.makespan, rel=1e-9)
        assert path.coverage == pytest.approx(1.0)


class TestAnalytics:
    def _ring_trace(self, nranks=4):
        def prog(ctx):
            nxt = (ctx.rank + 1) % ctx.nranks
            prv = (ctx.rank - 1) % ctx.nranks
            yield Exchange({nxt: np.arange(64)}, (prv,))
            (got,) = yield Collect()
            yield Charge(1e-4 * (1 + ctx.rank))
            return got

        return run_traced(nranks, prog)

    def test_comm_matrix_ring(self):
        _, trace = self._ring_trace(4)
        mat = communication_matrix(trace.events, 4)
        msgs = np.asarray(mat["messages"])
        nbytes = np.asarray(mat["bytes"])
        for r in range(4):
            assert msgs[r][(r + 1) % 4] == 1
            assert nbytes[r][(r + 1) % 4] > 0
        assert msgs.sum() == 4
        assert np.trace(msgs) == 0

    def test_slack_histogram(self):
        res, trace = self._ring_trace(4)
        path = extract_critical_path(trace.events, trace.edges)
        sl = slack_histogram(trace.events, path)
        assert sl["count"] >= 1
        assert sl["max"] <= path.makespan + 1e-12
        assert sum(sl["bins"]) == sl["count"]

    def test_analyze_run_sections(self):
        res, trace = self._ring_trace(4)
        rec = TraceRecorder()  # the ring as round 0, phase 0 of a run
        rec.extend(trace.events, scope=Scope(round=0, phase=0), edges=trace.edges)
        an = analyze_run(rec.events, rec.edges, nranks=4)
        d = an.to_dict()
        assert d["makespan"] == pytest.approx(res.makespan)
        assert d["critical_path"]["coverage"] == pytest.approx(1.0)
        assert len(d["per_rank"]) == 4
        assert d["imbalance_ratio"] >= 1.0
        assert [(p["round"], p["phase"], p["worst_rank"], p["nranks_active"])
                for p in d["phase_imbalance"]] == [(0, 0, 3, 4)]
        text = RunReport.build(rec.events, 4, analysis=d).text()
        assert "critical path:" in text and "imbalance (busy t_max/t_avg)" in text
        assert "worst phases: round 0 phase 0 " in text and "(rank 3)" in text
        # four equal token messages: the hottest pair is the first one
        assert "communication: 4 message(s)" in text
        assert "hottest pair 0->1" in text

    def test_straggler_cross_references_fault_plan(self):
        plan = FaultPlan(
            specs=(FaultSpec(kind="straggler", rank=1, factor=30.0),), seed=3)

        def prog(ctx):
            yield Charge(1e-4)

        sim = Simulator(3, measure_compute=False, faults=plan)
        sim.run(prog)
        an = analyze_run(sim.trace.events, sim.trace.edges, nranks=3,
                         fault_plan=plan, n1=3)
        tagged = [s for s in an.stragglers if s.get("injected")]
        assert tagged and tagged[0]["rank"] == 1

    def test_report_carries_analysis(self):
        res, trace = self._ring_trace(3)
        rep = RunReport.build(trace.events, 3, problem="ring",
                              mode="simulated", edges=trace.edges, n1=3)
        assert rep.analysis is not None
        assert rep.analysis["critical_path"]["coverage"] == pytest.approx(1.0)
        assert "critical path:" in rep.text()
        rt = RunReport.from_dict(rep.to_dict())
        assert rt.analysis == rep.analysis


class TestDepEdgeModel:
    def test_weight_and_guard(self):
        e = DepEdge("message", 0, 1.0, 1, 3.5)
        assert e.weight == pytest.approx(2.5)
        rec = TraceRecorder(enabled=True)
        rec.record_edge("message", 0, 5.0, 1, 1.0)  # t_dst < t_src: dropped
        assert rec.edges == []
        rec2 = TraceRecorder(enabled=False)
        rec2.record_edge("message", 0, 0.0, 1, 1.0)
        assert rec2.edges == []

    def test_clear_resets_edges(self):
        rec = TraceRecorder(enabled=True)
        rec.record_edge("message", 0, 0.0, 1, 1.0)
        rec.clear()
        assert rec.edges == []
