"""Tests for the live telemetry subsystem: RunStatus/LiveRun, the JSONL
progress stream, and the HTTP exporter (scraped during a live threaded
run)."""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core.midas import MidasRuntime, detect_path
from repro.ff.gf2m import field_degree_for_k, round_success_bound
from repro.graph.generators import erdos_renyi, plant_path
from repro.obs.http import PROMETHEUS_CONTENT_TYPE, LiveServer
from repro.obs.live import LiveRun, RunStatus
from repro.obs.metrics import MetricsRegistry
from repro.util.rng import RngStream


def path_bound(k):
    """A k-path stage's per-round success bound."""
    return round_success_bound(k, field_degree_for_k(k), k)


def _graph(n=200, m=600, k=5):
    g, _ = plant_path(erdos_renyi(n, m, rng=RngStream(1)), k,
                      rng=RngStream(2))
    return g


def _fetch(url):
    with urllib.request.urlopen(url, timeout=5) as resp:
        return resp.headers.get("Content-Type"), resp.read()


class TestRunStatus:
    def test_snapshot_shape(self):
        s = RunStatus().snapshot()
        for key in ("state", "rounds_completed", "rounds_planned",
                    "p_failure_bound", "faults", "last_heartbeat",
                    "heartbeat_age_seconds", "eta_seconds"):
            assert key in s
        assert s["state"] == "idle"
        assert s["p_failure_bound"] == 1.0

    def test_p_failure_bound_follows_amplification(self):
        live = LiveRun()
        live.run_started("k-path", "sequential")
        live.stage_started("k-path", 5, 10, 4, path_bound(5))
        for ell in range(3):
            live.round_done(ell, False, 0.0)
        assert live.status.snapshot()["p_failure_bound"] == \
            float((1 - path_bound(5)) ** 3)

    def test_snapshot_is_json_serializable(self):
        live = LiveRun()
        live.run_started("k-path", "threaded", graph_nodes=10, graph_edges=20)
        json.dumps(live.status.snapshot())


class TestLiveRunEvents:
    def test_event_sequence_and_monotonic_rounds(self):
        events = []
        live = LiveRun()
        live.subscribe(events.append)
        live.run_started("k-path", "sequential", 100, 300)
        live.stage_started("k-path", 5, 3, 4, path_bound(5))
        for ell in range(3):
            live.phase_done(ell, 0)
            live.round_done(ell, False, float(ell))
        live.note_result(False)
        live.run_ended("done")
        kinds = [e["event"] for e in events]
        assert kinds[0] == "run_start" and kinds[-1] == "run_end"
        rounds = [e["status"]["rounds_completed"]
                  for e in events if e["event"] == "round"]
        assert rounds == [1, 2, 3]
        assert events[-1]["status"]["state"] == "done"

    def test_early_exit_forfeits_remaining_rounds(self):
        live = LiveRun()
        live.run_started("k-path", "sequential")
        live.stage_started("k-path", 5, 10, 1, path_bound(5))
        live.round_done(0, True, 0.0)
        s = live.status.snapshot()
        assert s["rounds_planned"] == 1
        assert s["rounds_completed"] == 1
        assert s["witness_found"] is True

    def test_cumulative_across_stages(self):
        live = LiveRun()
        live.run_started("scanstat", "sequential")
        for stage in ("size1", "size2"):
            live.stage_started(stage, 3, 2, 1, path_bound(3))
            for ell in range(2):
                live.round_done(ell, False, 0.0)
        s = live.status.snapshot()
        assert s["rounds_completed"] == 4
        assert s["rounds_planned"] == 4
        assert s["stage"] == "size2"

    def test_degraded_is_a_terminal_state(self):
        live = LiveRun()
        live.run_started("k-path", "sequential")
        live.run_ended("degraded", error="deadline exhausted")
        snap = live.status.snapshot()
        assert snap["state"] == "degraded"
        assert snap["error"] == "deadline exhausted"

    def test_rounds_restored_jumps_counters(self):
        events = []
        live = LiveRun()
        live.subscribe(events.append)
        live.run_started("k-path", "sequential")
        live.stage_started("k-path", 5, 6, 4, path_bound(5))
        live.rounds_restored(4, 2.5)
        snap = live.status.snapshot()
        assert snap["rounds_completed"] == 4
        assert snap["stage_rounds_completed"] == 4
        assert snap["virtual_seconds"] == 2.5
        assert snap["p_failure_bound"] == float((1 - path_bound(5)) ** 4)
        restores = [e for e in events if e["event"] == "restore"]
        assert restores == [pytest.approx(
            {"t": restores[0]["t"], "event": "restore",
             "rounds": 4, "virtual_seconds": 2.5})]
        # the remaining rounds continue the same stage
        live.round_done(4, False, 3.0)
        assert live.status.snapshot()["rounds_completed"] == 5

    def test_bad_terminal_state_rejected(self):
        live = LiveRun()
        with pytest.raises(ValueError):
            live.run_ended("running")

    def test_failing_subscriber_does_not_break_the_run(self):
        live = LiveRun()
        live.subscribe(lambda e: 1 / 0)
        live.run_started("k-path", "sequential")  # must not raise

    def test_progress_stream_is_replayable_jsonl(self, tmp_path):
        path = tmp_path / "progress.jsonl"
        live = LiveRun(progress_path=path)
        live.run_started("k-path", "sequential")
        live.stage_started("k-path", 4, 2, 1, path_bound(4))
        live.round_done(0, False, 0.0)
        live.run_ended("done")
        live.close()
        events = [json.loads(line) for line in path.read_text().splitlines()]
        assert [e["event"] for e in events] == \
            ["run_start", "stage_start", "round", "run_end"]
        assert all("t" in e for e in events)

    def test_fault_updates_land_in_status(self):
        live = LiveRun()
        live.run_started("k-path", "simulated")
        live.fault_update(failures=2, retries=3, injected=4)
        f = live.status.snapshot()["faults"]
        assert f == {"injected": 4, "phase_failures": 2, "retries": 3}

    def test_live_gauges_published(self):
        reg = MetricsRegistry()
        live = LiveRun(metrics=reg)
        live.run_started("k-path", "sequential")
        live.stage_started("k-path", 5, 4, 1, path_bound(5))
        live.round_done(0, False, 0.0)
        assert reg.get("midas_live_rounds_completed").value == 1.0
        assert reg.get("midas_live_running").value == 1.0
        live.run_ended("done")
        assert reg.get("midas_live_running").value == 0.0


class TestEngineIntegration:
    def test_engine_reports_through_attached_live(self):
        events = []
        live = LiveRun(clock=time.time)
        live.subscribe(events.append)
        rt = MidasRuntime(mode="sequential", live=live, metrics=MetricsRegistry())
        res = detect_path(_graph(), 5, eps=0.1, rng=3, runtime=rt,
                          early_exit=False)
        s = live.status.snapshot()
        assert s["state"] == "done"
        assert s["rounds_completed"] == s["rounds_planned"] == res.rounds_run > 0
        assert s["p_failure_bound"] == float((1 - path_bound(5)) ** res.rounds_run)
        assert s["p_failure_bound"] <= 0.1 < float((1 - path_bound(5))
                                                   ** (res.rounds_run - 1))
        assert s["found"] == res.found
        kinds = {e["event"] for e in events}
        assert {"run_start", "stage_start", "phase", "round",
                "result", "run_end"} <= kinds

    def test_failed_run_marks_state(self):
        from repro.core.engine import DetectionEngine

        live = LiveRun()
        rt = MidasRuntime(live=live, metrics=MetricsRegistry())
        with pytest.raises(RuntimeError):
            with DetectionEngine(_graph(), rt, "k-path"):
                raise RuntimeError("boom")
        s = live.status.snapshot()
        assert s["state"] == "failed"
        assert "boom" in s["error"]

    def test_interrupted_run_marks_state(self):
        from repro.core.engine import DetectionEngine

        live = LiveRun()
        rt = MidasRuntime(live=live, metrics=MetricsRegistry())
        with pytest.raises(KeyboardInterrupt):
            with DetectionEngine(_graph(), rt, "k-path"):
                raise KeyboardInterrupt()
        assert live.status.snapshot()["state"] == "interrupted"

    def test_simulated_run_reports_faults_and_heartbeat(self):
        from repro.runtime.faults import FaultPlan

        live = LiveRun()
        plan = FaultPlan.from_dict({
            "seed": 7,
            "faults": [{"kind": "crash", "rank": 0, "after_ops": 2}],
        })
        rt = MidasRuntime(mode="simulated", n_processors=2, n1=2,
                          fault_plan=plan, live=live,
                          metrics=MetricsRegistry())
        res = detect_path(_graph(60, 150, 4), 4, eps=0.3, rng=5, runtime=rt)
        s = live.status.snapshot()
        assert s["state"] == "done"
        assert s["faults"]["retries"] > 0 or s["faults"]["phase_failures"] > 0
        assert res.details["resilience"]["retries"] == s["faults"]["retries"]


class TestLiveServer:
    def test_endpoints_serve_and_shut_down_cleanly(self):
        reg = MetricsRegistry()
        reg.counter("demo_total", "demo").inc(3)
        srv = LiveServer(lambda: {"state": "running", "rounds_completed": 2},
                         registry=reg)
        before = {t.name for t in threading.enumerate()}
        port = srv.start(0)
        assert port and port == srv.port
        try:
            ctype, body = _fetch(f"{srv.url}/metrics")
            assert ctype == PROMETHEUS_CONTENT_TYPE
            text = body.decode()
            assert "# TYPE demo_total counter" in text
            assert "demo_total 3" in text

            ctype, body = _fetch(f"{srv.url}/status")
            assert ctype == "application/json"
            status = json.loads(body)
            # the exporter splices its own address in, so an ephemeral
            # port-0 bind is discoverable from the endpoint itself
            assert status.pop("server") == {"host": "127.0.0.1", "port": port}
            assert status == {"state": "running", "rounds_completed": 2}

            _, body = _fetch(f"{srv.url}/healthz")
            assert body == b"ok\n"

            with pytest.raises(urllib.error.HTTPError) as exc_info:
                _fetch(f"{srv.url}/nope")
            assert exc_info.value.code == 404
        finally:
            srv.stop()
        # no leaked serving thread
        after = {t.name for t in threading.enumerate()}
        assert not {n for n in after - before if n.startswith("repro-live-http")}
        assert srv.port is None

    def test_stop_is_idempotent(self):
        srv = LiveServer(lambda: {})
        srv.start(0)
        srv.stop()
        srv.stop()  # must not raise

    def test_double_stop_and_restart_leak_no_threads(self):
        before = {t.name for t in threading.enumerate()}
        srv = LiveServer(lambda: {})
        srv.start(0)
        srv.stop()
        srv.stop()
        srv.start(0)  # a stopped server may be started again
        assert srv.port is not None
        srv.stop()
        srv.stop()
        after = {t.name for t in threading.enumerate()}
        assert not {n for n in after - before if n.startswith("repro-live-http")}

    def test_start_is_idempotent(self):
        srv = LiveServer(lambda: {})
        try:
            port = srv.start(0)
            assert srv.start(0) == port  # second start: same server, same port
            names = [t.name for t in threading.enumerate()
                     if t.name.startswith("repro-live-http")]
            assert len(names) == 1
        finally:
            srv.stop()

    def test_port_conflict_raises_typed_error_without_leaking(self):
        from repro.errors import ConfigurationError

        holder = LiveServer(lambda: {})
        before = {t.name for t in threading.enumerate()}
        port = holder.start(0)
        loser = LiveServer(lambda: {})
        with pytest.raises(ConfigurationError, match="cannot bind"):
            loser.start(port)
        assert loser.port is None
        # the failed bind left nothing behind: the loser can still start
        # elsewhere, and stopping everything restores the thread census
        other = loser.start(0)
        assert other and other != port
        loser.stop()
        holder.stop()
        after = {t.name for t in threading.enumerate()}
        assert not {n for n in after - before if n.startswith("repro-live-http")}

    def test_port_zero_reports_chosen_port_in_status(self):
        srv = LiveServer(lambda: {"state": "running"})
        try:
            port = srv.start(0)
            status = json.loads(_fetch(f"{srv.url}/status")[1])
            assert status["server"]["port"] == port
        finally:
            srv.stop()

    def test_mounted_routes_dispatch_and_misses_404(self):
        srv = LiveServer(lambda: {}, routes={
            "/api/echo": lambda m, p, q, b: (200, "application/json",
                                             json.dumps({"method": m,
                                                         "body": b.decode()}).encode()),
        })
        srv.add_route("/api/boom", lambda m, p, q, b: 1 / 0)
        try:
            srv.start(0)
            _, body = _fetch(f"{srv.url}/api/echo")
            assert json.loads(body) == {"method": "GET", "body": ""}
            req = urllib.request.Request(f"{srv.url}/api/echo",
                                         data=b"hi", method="POST")
            with urllib.request.urlopen(req, timeout=5) as resp:
                assert json.loads(resp.read())["body"] == "hi"
            # a broken route returns a JSON 500, not a dead server
            with pytest.raises(urllib.error.HTTPError) as exc_info:
                _fetch(f"{srv.url}/api/boom")
            assert exc_info.value.code == 500
            assert json.loads(exc_info.value.read())["ok"] is False
            with pytest.raises(urllib.error.HTTPError) as exc_info:
                _fetch(f"{srv.url}/api/nope")
            assert exc_info.value.code == 404
            # routes mounted after start are live immediately
            srv.add_route("/api/late", lambda m, p, q, b:
                          (200, "text/plain", b"late\n"))
            assert _fetch(f"{srv.url}/api/late")[1] == b"late\n"
            # built-ins cannot be shadowed
            srv.add_route("/status", lambda m, p, q, b: (200, "text/plain", b"x"))
            assert b"server" in _fetch(f"{srv.url}/status")[1]
        finally:
            srv.stop()

    def test_bad_route_path_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            LiveServer(lambda: {}).add_route("api/echo", lambda *a: None)

    def test_scrape_mid_run_shows_monotonic_progress(self):
        """The acceptance-criteria scenario: scrape /status while a
        threaded run executes and see rounds-completed increase."""
        reg = MetricsRegistry()
        live = LiveRun(metrics=reg)
        live.serve(0)
        # slow every round down enough for mid-run scrapes to land
        live.subscribe(lambda e: time.sleep(0.02)
                       if e["event"] == "round" else None)
        rt = MidasRuntime(mode="threaded", workers=2, live=live, metrics=reg)
        url = f"http://127.0.0.1:{live.port}"

        seen = []
        stop = threading.Event()

        def scrape():
            while not stop.is_set():
                status = json.loads(_fetch(f"{url}/status")[1])
                seen.append((status["state"], status["rounds_completed"]))
                time.sleep(0.01)

        scraper = threading.Thread(target=scrape, daemon=True)
        scraper.start()
        try:
            detect_path(_graph(), 5, eps=0.05, rng=3, runtime=rt,
                        early_exit=False)
        finally:
            stop.set()
            scraper.join(timeout=5)
        mid = [r for state, r in seen if state == "running"]
        assert len(mid) >= 2, f"no mid-run scrapes landed: {seen}"
        assert mid == sorted(mid)
        assert mid[-1] > mid[0]
        # prometheus text parses mid-run too (checked at least once above
        # via the registry); final scrape agrees with the run
        text = _fetch(f"{url}/metrics")[1].decode()
        assert "midas_live_rounds_completed" in text
        live.close()


class TestRuntimeWiring:
    def test_live_port_builds_and_serves(self):
        rt = MidasRuntime(live_port=0, metrics=MetricsRegistry())
        live = rt.get_live()
        assert live is not None and live.port
        _, body = _fetch(f"http://127.0.0.1:{live.port}/healthz")
        assert body == b"ok\n"
        rt.close_live()

    def test_progress_path_alone_builds_live(self, tmp_path):
        rt = MidasRuntime(progress_path=str(tmp_path / "p.jsonl"))
        assert rt.get_live() is not None
        assert rt.get_live() is rt.live  # cached
        rt.close_live()

    def test_no_live_config_means_none(self):
        assert MidasRuntime().get_live() is None

    def test_bad_live_port_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            MidasRuntime(live_port=70000)
