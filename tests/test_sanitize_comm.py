"""CommSanitizer unit tests: each violation class is detected with a
typed error naming rank and op; misuse the exchange ops make
unrepresentable is refused at the yield; clean programs never trip it;
injected faults are never misreported as program bugs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import MidasRuntime
from repro.core.midas import detect_path
from repro.errors import (
    ConfigurationError,
    RankFailedError,
    RuntimeSimulationError,
    SanitizerError,
)
from repro.graph.generators import erdos_renyi
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import RunReport
from repro.runtime.comm import AllReduce, Collect, Exchange
from repro.runtime.faults import FaultPlan, FaultSpec
from repro.runtime.scheduler import Simulator
from repro.sanitize import CommSanitizer, SanitizerReport
from repro.sanitize.comm import VIOLATION_KINDS
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


def unlisted(ctx):
    """Every rank sends to the next one, which does not list it."""
    yield Exchange({(ctx.rank + 1) % ctx.nranks: 1})
    yield Collect()


# --------------------------------------------------------- clean programs
class TestCleanPrograms:
    def test_point_to_point_and_collectives(self):
        def prog(ctx):
            if ctx.rank == 0:
                yield Exchange({1: np.arange(5)})
            elif ctx.rank == 1:
                yield Exchange(recv_from=(0,))
                (v,) = yield Collect()
                assert (v == np.arange(5)).all()
            yield AllReduce(0)
            total = yield AllReduce(ctx.rank)
            assert total == 1

        rep = run_strict(prog)
        assert rep.clean
        assert rep.ops_checked > 0
        assert rep.runs == 1

    def test_irecv_wait_pair_is_clean(self):
        """An exchange posted before a collective and collected after it."""
        def prog(ctx):
            if ctx.rank == 0:
                yield Exchange({1: 42})
                yield AllReduce(0)
            else:
                yield Exchange(recv_from=(0,))
                yield AllReduce(0)
                (v,) = yield Collect()
                assert v == 42

        assert run_strict(prog).clean

    def test_two_irecvs_same_key_both_waited(self):
        """Two exchanges posted from one peer, both collected."""
        def prog(ctx):
            if ctx.rank == 0:
                yield Exchange({1: 1})
                yield Exchange({1: 2})
            else:
                yield Exchange(recv_from=(0,))
                yield Exchange(recv_from=(0,))
                (a,) = yield Collect()
                (b,) = yield Collect()
                assert (a, b) == (1, 2)

        assert run_strict(prog).clean

    def test_sanitizer_does_not_change_clocks(self):
        def prog(ctx):
            if ctx.rank == 0:
                yield Exchange({1: np.arange(100)})
            elif ctx.rank == 1:
                yield Exchange(recv_from=(0,))
                yield Collect()
            yield AllReduce(1)

        bare = Simulator(2, measure_compute=False).run(prog)
        san = Simulator(2, measure_compute=False,
                        sanitizer=CommSanitizer("strict")).run(prog)
        assert np.array_equal(bare.clocks, san.clocks)


# ------------------------------------------------------- violation classes
class TestViolations:
    def test_self_send(self):
        """An exchange naming its own rank is refused at the yield: the
        simulator's error, not a sanitizer finding."""
        def prog(ctx):
            yield Exchange({ctx.rank: 7})

        with pytest.raises(RuntimeSimulationError, match="rank 0 exchanged with"):
            run_strict(prog)

    def test_double_wait(self):
        """A second Collect for one exchange finds nothing posted."""
        def prog(ctx):
            if ctx.rank == 0:
                yield Exchange({1: 7})
            else:
                yield Exchange(recv_from=(0,))
                yield Collect()
                yield Collect()

        with pytest.raises(RuntimeSimulationError, match="rank 1 yielded Collect"):
            run_strict(prog)

    def test_wait_without_irecv(self):
        def prog(ctx):
            yield Collect()

        with pytest.raises(RuntimeSimulationError, match="no Exchange posted"):
            run_strict(prog)

    def test_leaked_request(self):
        """An exchange posted and never collected leaves its message in
        the inbox: unmatched, blamed on the sender."""
        def prog(ctx):
            if ctx.rank == 0:
                yield Exchange({1: 5})
            else:
                yield Exchange(recv_from=(0,))
            yield AllReduce(0)

        with pytest.raises(SanitizerError) as ei:
            run_strict(prog)
        assert ei.value.kind == "unmatched-send"
        assert ei.value.rank == 0
        assert ei.value.tag == 0

    def test_unmatched_send(self):
        def prog(ctx):
            yield Exchange()  # exchange 0 carries nothing
            if ctx.rank == 0:
                yield Exchange({1: 7})
            else:
                yield Exchange()  # rank 1 does not list rank 0
            yield Collect()
            yield Collect()
            yield AllReduce(0)

        with pytest.raises(SanitizerError) as ei:
            run_strict(prog)
        assert ei.value.kind == "unmatched-send"
        assert ei.value.rank == 0  # blames the sender
        assert ei.value.tag == 1
        assert "Exchange(dst=1)" in ei.value.op

    def test_collective_type_divergence(self):
        """One rank reduces a scalar, the other an array."""

        def prog(ctx):
            yield AllReduce(1 if ctx.rank == 0 else np.ones(1, np.uint64))

        with pytest.raises(SanitizerError) as ei:
            run_strict(prog)
        assert ei.value.kind == "collective-divergence"
        assert "scalar" in str(ei.value) and "ndarray" in str(ei.value)

    def test_collective_shape_divergence(self):
        def prog(ctx):
            yield AllReduce(np.zeros(4 if ctx.rank == 0 else 8, dtype=np.uint64))

        with pytest.raises(SanitizerError) as ei:
            run_strict(prog)
        assert ei.value.kind == "collective-divergence"

    def test_rank_exits_while_others_in_collective(self):
        def prog(ctx):
            if ctx.rank == 0:
                return
            yield AllReduce(0)

        with pytest.raises(SanitizerError) as ei:
            run_strict(prog)
        assert ei.value.kind == "collective-divergence"
        assert "exited" in str(ei.value)

    def test_send_buffer_mutation(self):
        """The exchange copied the rows: a sender scribbling on its buffer
        before the receiver runs changes nothing it receives."""
        def prog(ctx):
            buf = np.arange(8)
            if ctx.rank == 0:
                yield Exchange({1: buf})
                buf[3] = 99
                yield AllReduce(0)
                return None
            yield Exchange(recv_from=(0,))
            yield AllReduce(0)
            (got,) = yield Collect()
            return got

        san = CommSanitizer("strict")
        res = Simulator(2, sanitizer=san).run(prog)
        assert np.array_equal(res.results[1], np.arange(8))
        assert san.report.clean

    def test_mutation_of_nested_list_payload(self):
        def prog(ctx):
            buf = [np.arange(3), np.arange(3)]
            if ctx.rank == 0:
                yield Exchange({1: buf})
                buf[0][0] = 5
                yield AllReduce(0)
                return None
            yield Exchange(recv_from=(0,))
            yield AllReduce(0)
            (got,) = yield Collect()
            return got

        res = Simulator(2, sanitizer=CommSanitizer("strict")).run(prog)
        assert res.results[1][0].tolist() == [0, 1, 2]

    def test_reduce_matching_is_clean(self):
        def prog(ctx):
            total = yield AllReduce(ctx.rank + 1)
            assert total == 3

        assert run_strict(prog).clean


# ------------------------------------------------------------- warn mode
class TestWarnMode:
    def test_warn_accumulates_instead_of_raising(self):
        def prog(ctx):
            yield from unlisted(ctx)
            yield AllReduce(np.zeros(ctx.rank + 1, np.int64))  # shapes diverge

        rep = run_warn(prog)
        assert rep.counts() == {"unmatched-send": 2, "collective-divergence": 1}
        assert not rep.clean
        assert "unmatched-send" in rep.text()

    def test_report_raise_if_any(self):
        rep = run_warn(unlisted)
        with pytest.raises(SanitizerError):
            rep.raise_if_any()

    def test_report_shared_across_runs(self):
        def prog(ctx):
            yield Exchange({1 - ctx.rank: 1}, (1 - ctx.rank,))
            yield Collect()

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
            yield AllReduce(0)

        rep = run_warn(prog)
        assert "clean" in rep.text()

    def test_to_dict_roundtrip_fields(self):
        d = run_warn(unlisted).to_dict()
        assert set(d) == {"runs", "ops_checked", "clean", "violations",
                          "findings"}
        assert d["clean"] is False
        assert set(d["violations"]) <= set(VIOLATION_KINDS)


# ------------------------------------------------------- fault exemptions
def _one_message(ctx):
    if ctx.rank == 0:
        yield Exchange({1: 5})
    elif ctx.rank == 1:
        yield Exchange(recv_from=(0,))
        yield Collect()
    yield AllReduce(0)


class TestFaultInterplay:
    def test_injected_drop_not_blamed_on_program(self):
        plan = FaultPlan(specs=(FaultSpec(kind="drop", src=0, dst=1, p=1.0),),
                        seed=7)

        # the lost message stalls the run: a fault, not a program bug
        san = CommSanitizer("strict")
        with pytest.raises(RankFailedError) as ei:
            Simulator(2, faults=plan, sanitizer=san).run(_one_message)
        assert (0, 1, 0) in ei.value.lost_messages
        assert san.report.clean

    def test_injected_duplicate_not_unmatched(self):
        plan = FaultPlan(
            specs=(FaultSpec(kind="duplicate", src=0, dst=1, p=1.0),), seed=9
        )
        assert run_strict(_one_message, faults=plan).clean

    def test_crash_suppresses_exit_checks(self):
        plan = FaultPlan(specs=(FaultSpec(kind="crash", rank=1, after_ops=1),),
                        seed=3)

        def prog(ctx):
            if ctx.rank == 0:
                yield Exchange({1: 5})
                yield Exchange({1: 6})
            else:
                yield Exchange(recv_from=(0,))
                yield Exchange(recv_from=(0,))
                yield Collect()
                yield Collect()

        rep = SanitizerReport()
        sim = Simulator(2, faults=plan, sanitizer=CommSanitizer("strict", rep))
        res = sim.run(prog)
        assert res.crashed_ranks == (1,)
        assert rep.clean  # rank 1's unread mail is the crash's fault

    def test_real_bug_detected_even_with_faults_attached(self):
        # a real program bug (a diverging collective) must surface even
        # when a fault plan is attached: only *end-of-run* checks are
        # fault-exempt
        plan = FaultPlan(specs=(FaultSpec(kind="delay", src=0, dst=1,
                                          delay=0.5, p=1.0),), seed=5)

        def prog(ctx):
            yield from _one_message(ctx)
            yield AllReduce(np.zeros(ctx.rank + 1, np.int64))

        with pytest.raises(SanitizerError) as ei:
            run_strict(prog, faults=plan)
        assert ei.value.kind == "collective-divergence"


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

    def test_a_window_is_one_yield_per_exchange(self):
        """k = 8 on N = 64, N1 = 16: each of a window's 16 ranks yields
        7 exchanges, 7 collects and one all-reduce — 240 ops a window."""
        rt = MidasRuntime(mode="simulated", n_processors=64, n1=16,
                          sanitize="warn")
        g = erdos_renyi(200, m=800, rng=RngStream(1))
        sn = detect_path(g, 8, rng=RngStream(2), runtime=rt).details["sanitizer"]
        assert sn["clean"] is True
        assert sn["ops_checked"] == 240 * sn["runs"]

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
              "violations": {"unmatched-send": 1},
              "findings": ["[unmatched-send] rank 0, Exchange(dst=1), tag=0"]}
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
