"""CommSanitizer unit tests: each violation class is detected with a
typed error naming rank and op; clean programs never trip it; injected
faults are never misreported as program bugs."""

from __future__ import annotations

import operator

import numpy as np
import pytest

from repro.core.engine import MidasRuntime
from repro.core.midas import detect_path
from repro.errors import ConfigurationError, RankFailedError, SanitizerError
from repro.graph.generators import erdos_renyi
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import RunReport
from repro.runtime.comm import AllReduce, Irecv, Recv, Send, Wait
from repro.runtime.faults import FaultPlan, FaultSpec
from repro.runtime.scheduler import Simulator
from repro.sanitize import CommSanitizer, SanitizerReport
from repro.sanitize.comm import VIOLATION_KINDS, payload_digest
from repro.util.rng import RngStream


def run_strict(program, nranks=2, faults=None):
    san = CommSanitizer("strict")
    Simulator(nranks, faults=faults, sanitizer=san).run(program)
    return san.report


def run_warn(program, nranks=2, faults=None):
    rep = SanitizerReport()
    Simulator(nranks, faults=faults,
              sanitizer=CommSanitizer("warn", rep)).run(program)
    return rep


# --------------------------------------------------------- clean programs
class TestCleanPrograms:
    def test_point_to_point_and_collectives(self):
        def prog(ctx):
            if ctx.rank == 0:
                yield Send(1, "x", np.arange(5))
            elif ctx.rank == 1:
                v = yield Recv(0, "x")
                assert (v == np.arange(5)).all()
            yield AllReduce(0, op="sum")
            total = yield AllReduce(ctx.rank, op="sum")
            assert total == 1

        rep = run_strict(prog)
        assert rep.clean
        assert rep.ops_checked > 0
        assert rep.runs == 1

    def test_irecv_wait_pair_is_clean(self):
        def prog(ctx):
            if ctx.rank == 0:
                yield Send(1, 5, 42)
                yield AllReduce(0, op="sum")
            else:
                req = yield Irecv(0, 5)
                yield AllReduce(0, op="sum")
                v = yield Wait(req)
                assert v == 42

        assert run_strict(prog).clean

    def test_two_irecvs_same_key_both_waited(self):
        def prog(ctx):
            if ctx.rank == 0:
                yield Send(1, "t", 1)
                yield Send(1, "t", 2)
            else:
                r1 = yield Irecv(0, "t")
                r2 = yield Irecv(0, "t")
                a = yield Wait(r1)
                b = yield Wait(r2)
                assert (a, b) == (1, 2)

        assert run_strict(prog).clean

    def test_sanitizer_does_not_change_clocks(self):
        def prog(ctx):
            if ctx.rank == 0:
                yield Send(1, "x", np.arange(100))
            elif ctx.rank == 1:
                yield Recv(0, "x")
            yield AllReduce(1.0, op="sum")

        bare = Simulator(2, measure_compute=False).run(prog)
        san = Simulator(2, measure_compute=False,
                        sanitizer=CommSanitizer("strict")).run(prog)
        assert np.array_equal(bare.clocks, san.clocks)


# ------------------------------------------------------- violation classes
class TestViolations:
    def test_self_send(self):
        def prog(ctx):
            yield Send(ctx.rank, "t", 7)

        with pytest.raises(SanitizerError) as ei:
            run_strict(prog)
        assert ei.value.kind == "self-send"
        assert ei.value.rank == 0
        assert "Send" in ei.value.op

    def test_double_wait(self):
        def prog(ctx):
            if ctx.rank == 0:
                yield Send(1, "t", 7)
            else:
                req = yield Irecv(0, "t")
                yield Wait(req)
                yield Wait(req)

        with pytest.raises(SanitizerError) as ei:
            run_strict(prog)
        assert ei.value.kind == "double-wait"
        assert ei.value.rank == 1

    def test_wait_without_irecv(self):
        from repro.runtime.comm import RecvRequest

        def prog(ctx):
            if ctx.rank == 0:
                yield Send(1, "t", 7)
            else:
                yield Wait(RecvRequest(0, "t"))

        with pytest.raises(SanitizerError) as ei:
            run_strict(prog)
        assert ei.value.kind == "double-wait"

    def test_leaked_request(self):
        def prog(ctx):
            if ctx.rank == 1:
                yield Irecv(0, 999)
            yield AllReduce(0, op="sum")

        with pytest.raises(SanitizerError) as ei:
            run_strict(prog)
        assert ei.value.kind == "leaked-request"
        assert ei.value.rank == 1
        assert ei.value.tag == 999

    def test_unmatched_send(self):
        def prog(ctx):
            if ctx.rank == 0:
                yield Send(1, 777, 7)
            yield AllReduce(0, op="sum")

        with pytest.raises(SanitizerError) as ei:
            run_strict(prog)
        assert ei.value.kind == "unmatched-send"
        assert ei.value.rank == 0  # blames the sender
        assert ei.value.tag == 777

    def test_collective_type_divergence(self):
        """One rank reduces a scalar, the other an array."""

        def prog(ctx):
            yield AllReduce(1 if ctx.rank == 0 else np.ones(1, np.uint64), op="xor")

        with pytest.raises(SanitizerError) as ei:
            run_strict(prog)
        assert ei.value.kind == "collective-divergence"
        assert "scalar" in str(ei.value) and "ndarray" in str(ei.value)

    def test_collective_reducer_divergence(self):
        def prog(ctx):
            yield AllReduce(1, op="sum" if ctx.rank == 0 else "xor")

        with pytest.raises(SanitizerError) as ei:
            run_strict(prog)
        assert ei.value.kind == "collective-divergence"
        assert "sum" in str(ei.value) and "xor" in str(ei.value)

    def test_collective_shape_divergence(self):
        def prog(ctx):
            val = np.zeros(4 if ctx.rank == 0 else 8, dtype=np.uint64)
            yield AllReduce(val, op="xor")

        with pytest.raises(SanitizerError) as ei:
            run_strict(prog)
        assert ei.value.kind == "collective-divergence"

    def test_rank_exits_while_others_in_collective(self):
        def prog(ctx):
            if ctx.rank == 0:
                return
            yield AllReduce(0, op="sum")

        with pytest.raises(SanitizerError) as ei:
            run_strict(prog)
        assert ei.value.kind == "collective-divergence"
        assert "exited" in str(ei.value)

    def test_send_buffer_mutation(self):
        def prog(ctx):
            buf = np.arange(8)
            if ctx.rank == 0:
                yield Send(1, "m", buf)
                buf[3] = 99  # mutate before the receiver runs
                yield AllReduce(0, op="sum")
            else:
                yield AllReduce(0, op="sum")
                yield Recv(0, "m")

        with pytest.raises(SanitizerError) as ei:
            run_strict(prog)
        assert ei.value.kind == "send-buffer-mutation"
        assert ei.value.rank == 0

    def test_mutation_of_nested_list_payload(self):
        def prog(ctx):
            buf = [np.arange(3), np.arange(3)]
            if ctx.rank == 0:
                yield Send(1, "m", buf)
                buf[0][0] = 5
                yield AllReduce(0, op="sum")
            else:
                yield AllReduce(0, op="sum")
                yield Recv(0, "m")

        with pytest.raises(SanitizerError) as ei:
            run_strict(prog)
        assert ei.value.kind == "send-buffer-mutation"

    def test_reduce_reducer_divergence(self):
        """Callable reducers diverge by name, like the built-in ones."""

        def prog(ctx):
            yield AllReduce(1, op=operator.add if ctx.rank == 0 else max)

        with pytest.raises(SanitizerError) as ei:
            run_strict(prog)
        assert ei.value.kind == "collective-divergence"
        assert "callable:add" in str(ei.value) and "callable:max" in str(ei.value)

    def test_reduce_matching_is_clean(self):
        def prog(ctx):
            total = yield AllReduce(ctx.rank + 1, op="sum")
            assert total == 3

        assert run_strict(prog).clean


# ------------------------------------------------------------- warn mode
class TestWarnMode:
    def test_warn_accumulates_instead_of_raising(self):
        def prog(ctx):
            yield Send(ctx.rank, "a", 1)  # self-send on every rank
            if ctx.rank == 0:
                yield Send(1, "b", 2)  # never received
            yield AllReduce(0, op="sum")

        rep = run_warn(prog)
        counts = rep.counts()
        assert counts["self-send"] == 2
        # the two self-sent messages are never received either, so the
        # end-of-run scan reports them alongside the "b" send: 3 total
        assert counts["unmatched-send"] == 3
        assert not rep.clean
        assert "self-send" in rep.text()

    def test_report_raise_if_any(self):
        def prog(ctx):
            yield Send(ctx.rank, "a", 1)

        rep = run_warn(prog)
        with pytest.raises(SanitizerError):
            rep.raise_if_any()

    def test_report_shared_across_runs(self):
        def prog(ctx):
            if ctx.rank == 0:
                yield Send(1, "x", 1)
            else:
                yield Recv(0, "x")

        rep = SanitizerReport()
        for _ in range(3):
            Simulator(2, sanitizer=CommSanitizer("warn", rep)).run(prog)
        assert rep.runs == 3
        assert rep.clean

    def test_invalid_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            CommSanitizer("loud")

    def test_clean_report_text(self):
        def prog(ctx):
            yield AllReduce(0, op="sum")

        rep = run_warn(prog)
        assert "clean" in rep.text()

    def test_to_dict_roundtrip_fields(self):
        def prog(ctx):
            yield Send(ctx.rank, "a", 1)

        d = run_warn(prog).to_dict()
        assert set(d) == {"runs", "ops_checked", "clean", "violations",
                          "findings"}
        assert d["clean"] is False
        assert set(d["violations"]) <= set(VIOLATION_KINDS)


# ------------------------------------------------------- fault exemptions
class TestFaultInterplay:
    def test_injected_drop_not_blamed_on_program(self):
        plan = FaultPlan(specs=(FaultSpec(kind="drop", src=0, dst=1, p=1.0),),
                        seed=7)

        def prog(ctx):
            if ctx.rank == 0:
                yield Send(1, "t", 5)
            elif ctx.rank == 1:
                yield Recv(0, "t")
            yield AllReduce(0, op="sum")

        # the lost message stalls the run: a fault, not a program bug
        san = CommSanitizer("strict")
        with pytest.raises(RankFailedError) as ei:
            Simulator(2, faults=plan, sanitizer=san).run(prog)
        assert (0, 1, "t") in ei.value.lost_messages
        assert san.report.clean

    def test_injected_duplicate_not_unmatched(self):
        plan = FaultPlan(
            specs=(FaultSpec(kind="duplicate", src=0, dst=1, p=1.0),), seed=9
        )

        def prog(ctx):
            if ctx.rank == 0:
                yield Send(1, "t", 5)
            elif ctx.rank == 1:
                yield Recv(0, "t")
            yield AllReduce(0, op="sum")

        assert run_strict(prog, faults=plan).clean

    def test_crash_suppresses_exit_checks(self):
        plan = FaultPlan(specs=(FaultSpec(kind="crash", rank=1, after_ops=1),),
                        seed=3)

        def prog(ctx):
            if ctx.rank == 0:
                yield Send(1, "t", 5)
                yield Send(1, "u", 6)
            else:
                yield Recv(0, "t")
                yield Recv(0, "u")

        rep = SanitizerReport()
        sim = Simulator(2, faults=plan, sanitizer=CommSanitizer("strict", rep))
        res = sim.run(prog)
        assert res.crashed_ranks == (1,)
        assert rep.clean  # rank 1's unread mail is the crash's fault

    def test_real_bug_detected_even_with_faults_attached(self):
        # a real program bug (self-send) must surface even when a fault
        # plan is attached: only *end-of-run* checks are fault-exempt
        plan = FaultPlan(specs=(FaultSpec(kind="delay", src=0, dst=1,
                                          delay=0.5, p=1.0),), seed=5)

        def prog(ctx):
            yield Send(ctx.rank, "t", 1)

        with pytest.raises(SanitizerError) as ei:
            run_strict(prog, faults=plan)
        assert ei.value.kind == "self-send"


# ---------------------------------------------------------- payload digest
class TestPayloadDigest:
    def test_arrays_digest_by_content_and_shape(self):
        a = np.arange(6)
        assert payload_digest(a) == payload_digest(np.arange(6))
        assert payload_digest(a) != payload_digest(np.arange(6)[::-1].copy())
        assert payload_digest(a) != payload_digest(a.reshape(2, 3))

    def test_bytearray_and_memoryview_digest(self):
        buf = bytearray(b"abcd")
        d0 = payload_digest(buf)
        assert d0 == payload_digest(memoryview(buf))
        buf[0] = 0
        assert payload_digest(buf) != d0

    def test_immutable_payloads_skip(self):
        assert payload_digest(7) is None
        assert payload_digest("abc") is None
        assert payload_digest(None) is None
        assert payload_digest((1, 2)) is None  # tuple of immutables

    def test_containers_of_arrays_digest(self):
        a = [np.arange(3), {"k": np.ones(2)}]
        d0 = payload_digest(a)
        assert d0 is not None
        a[1]["k"][0] = 5.0
        assert payload_digest(a) != d0


# ----------------------------------------------------- engine integration
class TestEngineWiring:
    @pytest.fixture
    def graph(self):
        return erdos_renyi(30, m=55, rng=RngStream(42))

    def test_strict_clean_run_details_and_metrics(self, graph):
        reg = MetricsRegistry()
        rt = MidasRuntime(mode="simulated", n_processors=4, n1=2,
                          sanitize="strict", metrics=reg)
        res = detect_path(graph, 4, rng=RngStream(1), runtime=rt)
        sn = res.details["sanitizer"]
        assert sn["clean"] is True
        assert sn["ops_checked"] > 0
        snap = reg.snapshot()
        names = snap.names()
        assert "sanitizer_ops_checked_total" in names
        assert "sanitizer_runs_total" in names

    def test_strict_identical_results_and_virtual_time(self, graph):
        base = MidasRuntime(mode="simulated", n_processors=4, n1=2)
        sane = MidasRuntime(mode="simulated", n_processors=4, n1=2,
                            sanitize="strict")
        r0 = detect_path(graph, 5, rng=RngStream(9), runtime=base)
        r1 = detect_path(graph, 5, rng=RngStream(9), runtime=sane)
        assert r0.found == r1.found
        assert r0.virtual_seconds == r1.virtual_seconds
        assert [r.value for r in r0.rounds] == [r.value for r in r1.rounds]

    def test_overlapped_programs_clean_under_strict(self, graph):
        rt = MidasRuntime(mode="simulated", n_processors=4, n1=2,
                          overlap=True, sanitize="strict")
        res = detect_path(graph, 4, rng=RngStream(3), runtime=rt)
        assert res.details["sanitizer"]["clean"] is True

    def test_sanitize_under_fault_plan_stays_clean(self, graph):
        plan = FaultPlan(
            specs=(FaultSpec(kind="drop", src=0, dst=1, p=0.3),), seed=11
        )
        rt = MidasRuntime(mode="simulated", n_processors=4, n1=2,
                          fault_plan=plan, sanitize="strict")
        res = detect_path(graph, 4, rng=RngStream(5), runtime=rt)
        assert res.details["sanitizer"]["clean"] is True

    def test_invalid_sanitize_value_rejected(self):
        with pytest.raises(ConfigurationError):
            MidasRuntime(sanitize="paranoid")

    def test_nonsimulated_modes_report_trivially(self, graph):
        rt = MidasRuntime(mode="sequential", sanitize="warn")
        res = detect_path(graph, 4, rng=RngStream(1), runtime=rt)
        sn = res.details["sanitizer"]
        assert sn["clean"] is True
        assert sn["runs"] == 0  # no simulated substrate to check


# ------------------------------------------------------- RunReport section
class TestReportSection:
    def test_sanitizer_section_roundtrips_and_renders(self):
        sn = {"runs": 2, "ops_checked": 40, "clean": False,
              "violations": {"self-send": 1},
              "findings": ["[self-send] rank 0, Send(dst=0), tag='t'"]}
        rep = RunReport.build([], nranks=2, problem="k-path",
                              mode="simulated", sanitizer=sn)
        assert rep.sanitizer == sn
        text = rep.text()
        assert "sanitizer:" in text
        assert "VIOLATIONS" in text
        back = RunReport.from_dict(rep.to_dict())
        assert back.sanitizer == sn

    def test_absent_section_renders_nothing(self):
        rep = RunReport.build([], nranks=1)
        assert rep.sanitizer is None
        assert "sanitizer" not in rep.text()
