"""Tests for RunReport and the ``repro report`` CLI subcommand."""

import pytest

from repro.errors import ConfigurationError
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import RunReport
from repro.runtime.tracing import Scope, TraceEvent


def _scoped_events():
    """Two scoped phases on 2 ranks plus one coordinator reduce."""
    s0 = Scope(round=0, batch=0, phase=0, q0=0, q1=8)
    s1 = Scope(round=0, batch=0, phase=1, q0=8, q1=16)
    return [
        TraceEvent(0, "compute", 0.0, 1.0, scope=s0),
        TraceEvent(1, "compute", 0.0, 0.5, scope=s0),
        TraceEvent(1, "send", 0.5, 0.8, nbytes=40, scope=s0),
        TraceEvent(0, "wait", 1.0, 1.2, scope=s0),
        TraceEvent(0, "compute", 2.0, 2.2, scope=s1),
        TraceEvent(1, "compute", 2.0, 2.9, scope=s1),
        TraceEvent(-1, "collective", 3.0, 3.1, info="round-reduce", nbytes=8,
                   scope=Scope(round=0, label="round-reduce")),
        TraceEvent(0, "compute", 3.1, 3.2),  # unscoped -> summary only
    ]


def _estimate(phase_seconds):
    from repro.core.model import PerformanceEstimate
    from repro.core.schedule import PhaseSchedule

    return PerformanceEstimate(
        total_seconds=4 * phase_seconds,
        compute_seconds=3 * phase_seconds,
        comm_seconds=phase_seconds,
        phase_seconds=phase_seconds,
        reduce_seconds=0.01,
        rounds=2,
        schedule=PhaseSchedule(k=4, n_processors=4, n1=2, n2=8),
        memory_bytes_per_rank=1024,
    )


class TestBuild:
    def test_phase_table(self):
        rep = RunReport.build(_scoped_events(), nranks=2, problem="k-path",
                              mode="simulated")
        assert len(rep.phases) == 3  # phase 0, phase 1, and the reduce row
        p0 = rep.phases[0]
        assert (p0["round"], p0["phase"]) == (0, -1)  # reduce: phase=None -> -1
        p1, p2 = rep.phases[1], rep.phases[2]
        assert (p1["round"], p1["phase"]) == (0, 0)
        assert p1["span"] == pytest.approx(1.2)
        assert p1["compute"] == pytest.approx(1.5)
        assert p1["comm"] == pytest.approx(0.3)
        assert p1["idle"] == pytest.approx(0.2)
        assert p1["bytes"] == 40
        assert p1["worst_rank"] == 0  # rank 0: 1.0 vs rank 1: 0.5 + 0.3
        assert (p2["round"], p2["phase"]) == (0, 1)
        assert p2["worst_rank"] == 1

    def test_worst_rank_and_active_ranks_keep_their_two_rules(self):
        """The report row's worst rank is the first to appear among those
        tied on compute + comm and counts a rank that only waited; the
        analysis row's is the lowest tied rank and does not."""
        from repro.obs.analyze import analyze_run

        s = Scope(round=0, phase=0)
        events = [TraceEvent(2, "compute", 0.0, 1.0, scope=s),
                  TraceEvent(1, "compute", 0.0, 1.0, scope=s),
                  TraceEvent(0, "wait", 0.0, 1.0, scope=s)]
        row = RunReport.build(events, nranks=3).phases[0]
        assert (row["worst_rank"], list(row["by_rank"])) == (2, [2, 1, 0])
        imb = analyze_run(events, nranks=3).phase_imbalance[0]
        assert (imb["worst_rank"], imb["nranks_active"]) == (1, 2)
        assert imb["t_avg"] == pytest.approx(1.0)

    def test_summary_covers_unscoped_and_coordinator(self):
        rep = RunReport.build(_scoped_events(), nranks=2)
        assert rep.summary.other == pytest.approx(0.1)  # the rank -1 reduce
        assert rep.summary.total_bytes == 40  # coordinator bytes not per-rank
        assert rep.summary.makespan == pytest.approx(3.2)


class TestOverModel:
    def test_empty_without_estimate(self):
        rep = RunReport.build(_scoped_events(), nranks=2)
        assert rep.over_model() == []

    def test_flags_slow_phases_sorted_by_ratio(self):
        rep = RunReport.build(_scoped_events(), nranks=2,
                              estimate=_estimate(phase_seconds=0.5))
        over = rep.over_model()
        # spans: reduce 0.1 (ok), phase0 1.2 (2.4x), phase1 0.9 (1.8x)
        assert [(r["round"], r["phase"]) for r in over] == [(0, 0), (0, 1)]
        assert over[0]["ratio"] == pytest.approx(2.4)
        assert over[0]["dominant"] == "compute"
        assert over[0]["worst_rank"] == 0
        assert over[1]["ratio"] == pytest.approx(1.8)

    def test_tolerance_and_fast_model(self):
        rep = RunReport.build(_scoped_events(), nranks=2,
                              estimate=_estimate(phase_seconds=0.5))
        assert rep.over_model(tolerance=10.0) == []
        rep2 = RunReport.build(_scoped_events(), nranks=2,
                               estimate=_estimate(phase_seconds=100.0))
        assert rep2.over_model() == []


class TestText:
    def test_renders_sections(self):
        reg = MetricsRegistry()
        reg.counter("midas_rounds_total").inc(2)
        rep = RunReport.build(_scoped_events(), nranks=2, problem="k-path",
                              mode="simulated", metrics=reg.snapshot(),
                              estimate=_estimate(0.5), meta={"k": 4})
        txt = rep.text()
        assert "problem=k-path" in txt and "mode=simulated" in txt
        assert "k=4" in txt
        assert "phases (3 scoped)" in txt
        assert "other (out-of-range ranks)" in txt
        assert "wire bytes: 40" in txt
        assert "model (Theorem 2)" in txt
        assert "over model" in txt and "compute-bound" in txt
        assert "midas_rounds_total" in txt

    def test_max_phases_truncation(self):
        events = [
            TraceEvent(0, "compute", t, t + 0.5,
                       scope=Scope(round=0, phase=t))
            for t in range(8)
        ]
        txt = RunReport.build(events, nranks=1).text(max_phases=3)
        assert "... 5 more" in txt


class TestSerialization:
    def _full_report(self):
        reg = MetricsRegistry()
        reg.counter("midas_rounds_total").labels(problem="k-path").inc(2)
        return RunReport.build(_scoped_events(), nranks=2, problem="k-path",
                               mode="simulated", metrics=reg.snapshot(),
                               estimate=_estimate(0.5), meta={"k": 4})

    def test_roundtrip_through_files(self, tmp_path):
        from repro.serialization import dump_result, load_result

        rep = self._full_report()
        p = tmp_path / "report.json"
        dump_result(rep, p)
        back = load_result(p)
        assert isinstance(back, RunReport)
        assert back.problem == "k-path" and back.nranks == 2
        assert back.summary.other == pytest.approx(rep.summary.other)
        assert back.summary.total_bytes == rep.summary.total_bytes
        assert len(back.phases) == len(rep.phases)
        assert back.phases[1]["by_rank"][0]["compute"] == pytest.approx(1.0)
        assert back.metrics.get("midas_rounds_total", problem="k-path") == 2.0
        assert back.estimate.phase_seconds == pytest.approx(0.5)
        assert back.text() == rep.text()

    def test_roundtrip_minimal(self):
        rep = RunReport.build([], nranks=1)
        back = RunReport.from_dict(rep.to_dict())
        assert back.metrics is None and back.estimate is None
        assert back.summary.total_bytes == 0

    def test_from_dict_rejects_wrong_type(self):
        with pytest.raises(ConfigurationError):
            RunReport.from_dict({"type": "MetricsSnapshot"})


class TestReportCli:
    def _write(self, tmp_path, obj, name):
        from repro.serialization import dump_result

        p = tmp_path / name
        dump_result(obj, p)
        return p

    def test_report_subcommand_on_run_report(self, tmp_path, capsys):
        from repro.cli import main

        rep = RunReport.build(_scoped_events(), nranks=2, problem="k-path",
                              mode="simulated")
        p = self._write(tmp_path, rep, "report.json")
        assert main(["report", str(p)]) == 0
        out = capsys.readouterr().out
        assert "RunReport" in out and "phases" in out

    def test_report_subcommand_on_metrics(self, tmp_path, capsys):
        from repro.cli import main

        reg = MetricsRegistry()
        reg.counter("midas_rounds_total").labels(problem="k-path").inc(3)
        reg.histogram("midas_phase_seconds").observe(0.25)
        p = self._write(tmp_path, reg.snapshot(), "metrics.json")
        assert main(["report", str(p)]) == 0
        out = capsys.readouterr().out
        assert "midas_rounds_total" in out and "midas_phase_seconds" in out

    def test_report_subcommand_rejects_other_types(self, tmp_path, capsys):
        from repro.cli import main

        p = self._write(tmp_path, _estimate(0.5), "estimate.json")
        assert main(["report", str(p)]) == 1
