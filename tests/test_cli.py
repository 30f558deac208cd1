"""Tests for the command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.ff.gf2m import field_degree_for_k, round_success_bound
from repro.graph.generators import erdos_renyi, plant_path
from repro.graph.io import write_edge_list
from repro.util.rng import RngStream


def path_bound(k):
    """A k-path stage's per-round success bound."""
    return round_success_bound(k, field_degree_for_k(k), k)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_graph_source_is_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["detect-path", "-k", "4", "--er", "100", "--dataset", "miami"]
            )


class TestDatasets:
    def test_lists_registry(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("miami", "com-Orkut", "random-1e6", "random-1e7"):
            assert name in out

    def test_generate(self, capsys):
        assert main(["datasets", "--generate", "--scale", "0.0005"]) == 0
        out = capsys.readouterr().out
        assert "gen nodes" in out


class TestDetectPath:
    def test_er_found(self, capsys):
        rc = main(["detect-path", "--er", "300", "-k", "5", "--seed", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "FOUND" in out

    def test_exit_code_when_absent(self, capsys):
        # k larger than the graph: certain "not found", exit code 1
        rc = main(["detect-path", "--er", "20", "-k", "25", "--seed", "2"])
        assert rc == 1

    def test_edge_list_input(self, tmp_path, capsys):
        g, _ = plant_path(erdos_renyi(40, m=30, rng=RngStream(3)), 5, rng=RngStream(4))
        p = tmp_path / "g.txt"
        write_edge_list(g, p)
        rc = main(["detect-path", "--edge-list", str(p), "-k", "5", "--seed", "5",
                   "--eps", "0.02"])
        assert rc == 0

    def test_one_edge_list_is_one_scenario_by_any_path(self, tmp_path, capsys):
        """A run must meet its own baseline: the default RunStore scenario
        names the file, not the route that was taken to it."""
        from repro.obs.store import RunStore

        g, _ = plant_path(erdos_renyi(40, m=30, rng=RngStream(3)), 5, rng=RngStream(4))
        (tmp_path / "sub").mkdir()
        write_edge_list(g, tmp_path / "g.txt")
        store = tmp_path / "runs.jsonl"
        for route in (tmp_path / "g.txt", tmp_path / "sub" / ".." / "g.txt"):
            main(["detect-path", "--edge-list", str(route), "-k", "5",
                  "--seed", "5", "--store", str(store)])
        assert [r.scenario for r in RunStore(store).load()] == ["k-path:g:k5"] * 2

    def test_simulated_mode(self, capsys):
        rc = main(["detect-path", "--er", "200", "-k", "4", "--seed", "6",
                   "--mode", "simulated", "-N", "4", "--n1", "2", "--n2", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "mode=simulated" in out


class TestDetectTree:
    def test_star_template(self, capsys):
        rc = main(["detect-tree", "--er", "300", "-k", "5", "--template", "star",
                   "--seed", "7"])
        out = capsys.readouterr().out
        assert "star5" in out
        assert rc in (0, 1)


class TestScan:
    def test_planted_cluster(self, capsys):
        rc = main(["scan", "--er", "120", "-k", "4", "--plant", "4", "--seed", "8"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "score" in out

    def test_statistic_choice(self, capsys):
        rc = main(["scan", "--er", "100", "-k", "3", "--plant", "3",
                   "--statistic", "higher-criticism", "--seed", "9"])
        assert rc == 0


class TestFigures:
    def test_single_figure(self, capsys):
        rc = main(["figures", "fig11"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "fig11" in out
        assert "fascia" in out

    def test_unknown_figure(self, capsys):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            main(["figures", "fig99"])


class TestCalibrateAndModel:
    def test_calibrate(self, capsys):
        rc = main(["calibrate", "--nodes", "256", "--degree", "6", "-k", "5"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "best N2" in out

    def test_model(self, capsys):
        rc = main(["model", "--dataset", "random-1e6", "-k", "10",
                   "-N", "512", "--n1", "32"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "modeled total" in out
        assert "memory per rank" in out

    def test_model_scanstat(self, capsys):
        rc = main(["model", "--dataset", "miami", "-k", "8", "-N", "128",
                   "--n1", "16", "--problem", "scanstat"])
        assert rc == 0


class TestLiveArtifacts:
    def test_progress_profile_and_report(self, tmp_path, capsys):
        prog = tmp_path / "progress.jsonl"
        prof = tmp_path / "profile.speedscope.json"
        rep = tmp_path / "report.json"
        rc = main(["detect-path", "--er", "200", "-k", "4", "--seed", "11",
                   "--live-port", "0", "--progress-out", str(prog),
                   "--profile-out", str(prof), "--report-out", str(rep)])
        assert rc in (0, 1)
        out = capsys.readouterr().out
        assert "live telemetry: http://127.0.0.1:" in out

        events = [json.loads(l) for l in prog.read_text().splitlines()]
        kinds = [e["event"] for e in events]
        assert kinds[0] == "run_start" and kinds[-1] == "run_end"
        assert "round" in kinds
        assert events[-1]["status"]["state"] == "done"

        from repro.obs.profile import validate_speedscope

        validate_speedscope(json.loads(prof.read_text()))

        report = json.loads(rep.read_text())
        assert report["profile"]["wall_total"] > 0
        assert "rounds" in report["profile"]["phases"]

    def test_interrupt_flushes_partial_artifacts(self, tmp_path, capsys,
                                                 monkeypatch):
        import repro.core.midas as midas

        real = midas.detect_path

        def interrupted(g, k, **kw):
            # run one real detection to populate the runtime's telemetry,
            # then die the way Ctrl-C would
            real(g, k, **kw)
            raise KeyboardInterrupt()

        monkeypatch.setattr(midas, "detect_path", interrupted)
        rep = tmp_path / "report.json"
        store = tmp_path / "store.jsonl"
        rc = main(["detect-path", "--er", "150", "-k", "4", "--seed", "12",
                   "--report-out", str(rep), "--store", str(store)])
        assert rc == 130
        err = capsys.readouterr().err
        assert "interrupted" in err
        report = json.loads(rep.read_text())
        assert report["meta"]["truncated"] is True
        # a truncated run must never poison the perf-baseline store
        assert "not appending" in err
        assert not store.exists() or not store.read_text().strip()


class TestWatch:
    def _write_stream(self, path):
        from repro.obs.live import LiveRun

        live = LiveRun(progress_path=path)
        live.run_started("k-path", "threaded", graph_nodes=50, graph_edges=80)
        live.stage_started("k-path", 4, 2, 3, path_bound(4))
        live.round_done(0, False, 0.0)
        live.round_done(1, True, 0.0)
        live.note_result(True)
        live.run_ended("done")
        live.close()

    def test_watch_file(self, tmp_path, capsys):
        path = tmp_path / "progress.jsonl"
        self._write_stream(path)
        assert main(["watch", str(path)]) == 0
        out = capsys.readouterr().out
        assert "run 1: k-path [threaded] on 50 nodes / 80 edges" in out
        assert "stage k-path: k=4, 2 round(s) x 3 phase(s)" in out
        assert "HIT" in out
        assert "run ended: done" in out

    def test_watch_follow_joins_an_event_split_across_two_writes(
            self, tmp_path, capsys, monkeypatch):
        import time

        path = tmp_path / "progress.jsonl"
        self._write_stream(path)
        *head, end = path.read_text().splitlines(keepends=True)
        assert '"run_end"' in end
        path.write_text("".join(head) + end[:len(end) // 2])
        real_sleep, rest = time.sleep, [end[len(end) // 2:]]

        def sleep(seconds):  # the writer flushes the rest during a poll
            if rest:
                with path.open("a") as fh:
                    fh.write(rest.pop())
            real_sleep(seconds)

        monkeypatch.setattr(time, "sleep", sleep)
        assert main(["watch", str(path), "--follow", "--interval", "0.01",
                     "--timeout", "2"]) == 0
        assert "run ended: done" in capsys.readouterr().out

    def test_watch_missing_file(self, tmp_path, capsys):
        assert main(["watch", str(tmp_path / "nope.jsonl")]) == 1
        assert "no such progress stream" in capsys.readouterr().err

    def test_watch_url(self, capsys):
        from repro.obs.http import LiveServer

        srv = LiveServer(lambda: {"state": "done", "problem": "k-path",
                                  "mode": "sequential",
                                  "rounds_completed": 7, "rounds_planned": 7,
                                  "p_failure_bound": float((1 - path_bound(10)) ** 7),
                                  "found": True})
        srv.start(0)
        try:
            assert main(["watch", srv.url]) == 0
        finally:
            srv.stop()
        out = capsys.readouterr().out
        assert "[       done]" in out
        assert "rounds 7/7" in out
        assert "found=True" in out

    def test_watch_unreachable_url(self, capsys):
        # a port from the ephemeral range with nothing listening
        assert main(["watch", "http://127.0.0.1:1", "--interval", "0.01"]) == 1
        assert "cannot read" in capsys.readouterr().err


class TestWallTolerance:
    def _record_twice(self, tmp_path, capsys):
        # simulated mode: virtual-time metrics are bit-deterministic for
        # identical seeds, so only the noisy wall_* values can differ
        store = tmp_path / "store.jsonl"
        for seed in ("21", "21"):
            rc = main(["detect-path", "--er", "150", "-k", "4", "--seed", seed,
                       "--mode", "simulated", "-N", "8", "--n1", "4",
                       "--store", str(store), "--scenario", "s"])
            assert rc in (0, 1)
        capsys.readouterr()
        return store

    def test_wall_metrics_noted_by_default(self, tmp_path, capsys):
        store = self._record_twice(tmp_path, capsys)
        assert main(["compare", str(store), "--scenario", "s"]) == 0
        out = capsys.readouterr().out
        assert "noted" in out
        assert "wall_total" in out

    def test_explicit_wall_tolerance_gates(self, tmp_path, capsys):
        store = self._record_twice(tmp_path, capsys)
        # an absurdly loose gate still passes; the flag is accepted
        rc = main(["compare", str(store), "--scenario", "s",
                   "--wall-tolerance", "1000"])
        assert rc == 0


class TestCheckpointResumeCli:
    def _clique_list(self, tmp_path):
        # disjoint 4-cliques: witness-free for k=5, so every round runs
        p = tmp_path / "cliques.txt"
        lines = []
        for c in range(6):
            b = c * 4
            lines += [f"{b + i} {b + j}" for i in range(4)
                      for j in range(i + 1, 4)]
        p.write_text("\n".join(lines) + "\n")
        return p

    def _detect_args(self, edges, ckpt):
        return ["detect-path", "--edge-list", str(edges), "-k", "5",
                "--eps", "0.3", "--seed", "7", "--checkpoint-dir", str(ckpt)]

    def test_checkpoint_dir_writes_run_config(self, tmp_path, capsys):
        edges = self._clique_list(tmp_path)
        ckpt = tmp_path / "ckpt"
        assert main(self._detect_args(edges, ckpt)) == 1  # not found
        capsys.readouterr()
        cfg = json.loads((ckpt / "run.json").read_text())
        assert cfg["command"] == "detect-path" and cfg["k"] == 5
        assert (ckpt / "checkpoint.ckpt").exists()

    def test_resume_round_trip(self, tmp_path, capsys):
        edges = self._clique_list(tmp_path)
        ckpt = tmp_path / "ckpt"
        assert main(self._detect_args(edges, ckpt)) == 1
        summary0 = [l for l in capsys.readouterr().out.splitlines()
                    if "k-path" in l]
        # resume of the completed run restores everything, recomputes nothing
        assert main(["resume", str(ckpt)]) == 1
        out = capsys.readouterr().out
        assert f"resuming detect-path from {ckpt}" in out
        assert f"resumed from checkpoint: {ckpt}" in out
        summary1 = [l for l in out.splitlines() if "k-path" in l]
        assert summary0 and summary0[0].split("wall")[0] in summary1[0]

    def test_resume_unknown_dir(self, tmp_path, capsys):
        assert main(["resume", str(tmp_path / "nope")]) == 1
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_resume_corrupt_checkpoint_exits_2(self, tmp_path, capsys):
        edges = self._clique_list(tmp_path)
        ckpt = tmp_path / "ckpt"
        assert main(self._detect_args(edges, ckpt)) == 1
        capsys.readouterr()
        path = ckpt / "checkpoint.ckpt"
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0x20
        path.write_bytes(bytes(raw))
        assert main(["resume", str(ckpt)]) == 2
        err = capsys.readouterr().err
        assert "corrupt checkpoint" in err and "--allow-restart" in err
        # the fallback discards the corrupt state and reruns from scratch
        assert main(["resume", str(ckpt), "--allow-restart"]) == 1
        capsys.readouterr()

    def test_degraded_exit_code_and_message(self, tmp_path, capsys):
        edges = self._clique_list(tmp_path)
        rc = main(["detect-path", "--edge-list", str(edges), "-k", "5",
                   "--eps", "0.3", "--seed", "7", "--deadline", "1e-9"])
        captured = capsys.readouterr()
        assert rc == 4
        assert "DEGRADED (deadline)" in captured.err
        assert "miss probability" in captured.err

    def test_degraded_run_not_stored(self, tmp_path, capsys):
        edges = self._clique_list(tmp_path)
        store = tmp_path / "runs.jsonl"
        rc = main(["detect-path", "--edge-list", str(edges), "-k", "5",
                   "--eps", "0.3", "--seed", "7", "--deadline", "1e-9",
                   "--store", str(store), "--scenario", "s"])
        assert rc == 4
        assert "not appending" in capsys.readouterr().err
        from repro.obs.store import RunStore
        assert RunStore(store).load() == []

    def test_resumed_record_carries_provenance(self, tmp_path, capsys):
        edges = self._clique_list(tmp_path)
        ckpt = tmp_path / "ckpt"
        store = tmp_path / "runs.jsonl"
        assert main(self._detect_args(edges, ckpt)) == 1
        assert main(["resume", str(ckpt)]) == 1  # run.json has no --store
        capsys.readouterr()
        rc = main(self._detect_args(edges, ckpt)[:-2]
                  + ["--checkpoint-dir", str(ckpt), "--store", str(store),
                     "--scenario", "s"])
        assert rc == 1
        capsys.readouterr()


class TestWatchStallTimeout:
    def test_stalled_file_stream_exits_5(self, tmp_path, capsys):
        import os
        import time as _time

        from repro.obs.live import LiveRun

        path = tmp_path / "progress.jsonl"
        live = LiveRun(progress_path=path)
        live.run_started("k-path", "sequential")
        live.stage_started("k-path", 4, 3, 2, path_bound(4))
        live.round_done(0, False, 0.0)  # never ends: the run "hung" here
        live.close()
        old = _time.time() - 60.0
        os.utime(path, (old, old))
        assert main(["watch", str(path), "--stall-timeout", "5"]) == 5
        assert "stalled" in capsys.readouterr().err

    def test_live_file_stream_not_stalled(self, tmp_path, capsys):
        from repro.obs.live import LiveRun

        path = tmp_path / "progress.jsonl"
        live = LiveRun(progress_path=path)
        live.run_started("k-path", "sequential")
        live.run_ended("done")
        live.close()
        assert main(["watch", str(path), "--stall-timeout", "5"]) == 0

    def test_stalled_url_exits_5(self, tmp_path, capsys):
        from repro.obs.http import LiveServer

        srv = LiveServer(lambda: {"state": "running", "problem": "k-path",
                                  "mode": "sequential", "rounds_completed": 1,
                                  "rounds_planned": 4,
                                  "heartbeat_age_seconds": 120.0})
        srv.start(0)
        try:
            rc = main(["watch", srv.url, "--stall-timeout", "5",
                       "--interval", "0.01"])
        finally:
            srv.stop()
        assert rc == 5
        assert "stalled" in capsys.readouterr().err
