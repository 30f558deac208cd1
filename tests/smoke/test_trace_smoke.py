"""Span-log smoke: the artifacts of a real run validate, end to end.

What three steps of CI's ``telemetry`` job run (the traced detection, the
speedscope/progress step and the served queries), as pytest instead of
inline heredocs:
``PYTHONPATH=src python -m pytest -m smoke tests/smoke/test_trace_smoke.py``.
The served tests start ``repro serve --port 0`` (``--mode process``:
each query then runs sequentially on one of the service's fleet workers)
themselves, read the port it prints, and stop it with SIGINT.
"""

import json
import re
import signal
import subprocess
import threading
import urllib.request

import pytest

from repro.cli import main
from repro.core.engine import MidasRuntime
from repro.core.midas import detect_path
from repro.errors import WorkerCrashedError
from repro.graph.generators import erdos_renyi
from repro.obs.chrome_trace import trace_to_chrome, validate_chrome_trace
from repro.obs.profile import validate_speedscope
from repro.obs.qtrace import reset_flight_recorder
from repro.serialization import load_result
from repro.service import HttpClient, QuerySpec
from repro.util.rng import RngStream
from serving import repro_serve

pytestmark = pytest.mark.smoke


@pytest.fixture(scope="module")
def served():
    """Base URL of a ``repro serve`` subprocess (ER n=800, process mode)."""
    with repro_serve("--register", "er=er:800:3200:7",
                     "--mode", "process") as (proc, url):
        yield url
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            pytest.fail("server still running 60s after SIGINT")


@pytest.fixture(scope="module")
def traced(served):
    """Four concurrent queries from two tenants; tag -> QueryOutcome."""
    def spec(seed):
        return QuerySpec(kind="detect-path", graph="er", k=5,
                         eps=0.2, seed={"seed": seed},
                         early_exit=False)

    results, errors = {}, {}

    def run(tag, seed, tenant):
        try:
            results[tag] = HttpClient(served).query(spec(seed), tenant=tenant)
        except Exception as exc:  # noqa: BLE001 - reported below
            errors[tag] = exc

    plan = [("a1", 101, "tenant-a"), ("a2", 102, "tenant-a"),
            ("b1", 103, "tenant-b"), ("b2", 104, "tenant-b")]
    threads = [threading.Thread(target=run, args=p) for p in plan]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=600)
    assert not errors, errors
    return results


def test_concurrent_tenants_every_reply_traced_timelines_splice(served, traced):
    # every reply carries a trace id
    for tag, out in traced.items():
        assert out.trace_id, f"{tag} reply has no trace id"

    # each trace is one connected cross-process timeline whose
    # broker stage walls tile the traced total within 10%
    client = HttpClient(served)
    for tag, out in traced.items():
        doc = client.trace(out.trace_id)
        assert doc is not None, f"trace {out.trace_id} not stored"
        names = {s["name"] for s in doc["spans"]}
        assert {"client.request", "broker.total", "broker.execute",
                "engine.round", "engine.kernel"} <= names, names
        pids = {s["pid"] for s in doc["spans"]}
        # the engine ran whole on a fleet worker: its spans carry that pid
        worker_pids = {s["pid"] for s in doc["spans"]
                       if s["name"].startswith("engine.")}
        assert len(worker_pids) == 1 and doc["service_pid"] not in worker_pids
        w = doc["stage_walls"]
        tiled = sum(v for k, v in w.items() if k != "total")
        assert abs(tiled - w["total"]) <= 0.10 * w["total"], (
            f"{tag}: stages {tiled:.4f}s vs total "
            f"{w['total']:.4f}s drift > 10%"
        )
        chrome = trace_to_chrome(doc)
        assert validate_chrome_trace(chrome) > 0
        assert len({e["pid"] for e in chrome["traceEvents"]}) >= 2
        print(f"{tag}: {len(doc['spans'])} spans across "
              f"{len(pids)} pids, stages tile "
              f"{tiled / w['total']:.1%} of total")

    # per-tenant SLO exposition with exemplar trace ids
    text = urllib.request.urlopen(served + "/metrics",
                                  timeout=5).read().decode()
    for needle in ('midas_slo_stage_seconds_bucket{stage="total",tenant="tenant-a"',
                   'tenant="tenant-b"', "# {trace_id=",
                   "midas_traces_total"):
        assert needle in text, f"{needle!r} missing from /metrics"
    status = json.loads(urllib.request.urlopen(
        served + "/status", timeout=5).read())
    assert status["tenants"]["tenant-a"]["queries"] >= 2
    assert status["tenants"]["tenant-b"]["queries"] >= 2


def test_repro_trace_renders_the_timeline_and_a_valid_chrome_trace(
        served, traced, tmp_path, capsys):
    st = HttpClient(served).status()
    trace_id = st["tenants"]["tenant-a"]["last_trace_id"]
    out = tmp_path / "query.trace.json"
    assert main(["trace", trace_id, "--url", served,
                 "--chrome-out", str(out)]) == 0
    timeline = capsys.readouterr().out
    assert "engine.kernel" in timeline
    assert "stage walls" in timeline
    n = validate_chrome_trace(json.load(open(out)))
    print(f"chrome trace valid: {n} events")


def test_injected_worker_crash_dumps_the_flight_recorder(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TEST_CRASH_WORKER", "1")
    monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path))
    reset_flight_recorder()
    g = erdos_renyi(200, m=800, rng=RngStream(3))
    try:
        detect_path(g, 4, runtime=MidasRuntime(mode="process",
                                               workers=2))
    except WorkerCrashedError as exc:
        print(f"worker crashed as injected: {exc}")
    else:
        raise AssertionError("injected crash did not surface")

    dumps = list(tmp_path.glob("flight_worker_crash_*.json"))
    assert dumps, "no flight-recorder dump written"
    snap = json.loads(dumps[0].read_text())
    assert snap["reason"] == "worker_crash"
    assert any(e["kind"] == "worker_crash" for e in snap["events"])
    assert "open_spans" in snap
    # the run's own span log says where it was: inside round 0 of the stage
    still_open = {s["name"]: s["tags"] for s in snap["open_spans"]}
    assert still_open["engine.round"]["round"] == 0
    assert still_open["engine.stage"]["open"] is True


def test_traced_simulated_detection_writes_a_valid_trace(tmp_path, capsys):
    trace, metrics, report = (str(tmp_path / name) for name in
                              ("trace.json", "metrics.json", "report.json"))
    rc = main(["detect-path", "--er", "200", "-k", "4",
               "--mode", "simulated", "-N", "8", "--n1", "4", "--eps", "0.3",
               "--seed", "7", "--trace-out", trace, "--metrics-out", metrics,
               "--report-out", report])
    assert rc in (0, 1)  # 1 = a valid "not found"
    doc = json.loads(open(trace).read())
    n = validate_chrome_trace(doc)
    assert n > 0, "empty trace"
    snap = load_result(metrics)
    assert snap.get("midas_rounds_total",
                    problem="k-path", mode="simulated"), "no rounds metric"
    rendered = load_result(report).text()
    capsys.readouterr()
    assert main(["report", report]) == 0
    out = capsys.readouterr().out
    assert out.strip() == rendered.strip()
    # the analysis section, rendered by RunReport.text alone
    analysis = out[out.index("\nanalysis:\n"):]
    assert re.search(r"^  critical path: .* \(100\.0% of makespan\)$", analysis, re.M)
    assert re.search(r"^  imbalance \(busy t_max/t_avg\): \d+\.\d\d$", analysis, re.M)
    assert re.search(r"^  worst phases: round 0 phase 0 ", analysis, re.M)
    hot = re.search(r"^  communication: \d+ message\(s\), \d+ bytes; "
                    r"hottest pair (\d+)->(\d+) \(\d+ bytes, \d+ msgs\)$", analysis, re.M)
    assert hot, analysis
    src, dst = int(hot.group(1)), int(hot.group(2))
    assert src != dst and src // 4 == dst // 4  # messages stay in a group of N1 = 4


def test_progress_stream_replays_and_the_speedscope_profile_validates(
        tmp_path, capsys):
    # a graph whose longest path has 4 vertices: no 10-path exists, so
    # every planned amplification round runs (no early exit)
    cliques = tmp_path / "cliques.txt"
    with open(cliques, "w") as fh:
        for c in range(1000):
            base = 4 * c
            for i in range(4):
                for j in range(i + 1, 4):
                    fh.write(f"{base + i} {base + j}\n")
    progress, profile, report = (str(tmp_path / name) for name in (
        "progress.jsonl", "profile.speedscope.json", "live-report.json"))
    rc = main(["detect-path", "--edge-list", str(cliques), "-k", "10",
               "--mode", "threaded", "--workers", "2", "--eps", "0.1",
               "--seed", "7", "--progress-out", progress,
               "--profile-out", profile, "--report-out", report])
    assert rc == 1  # a valid "not found"

    events = [json.loads(line) for line in open(progress)]
    kinds = [e["event"] for e in events]
    assert kinds[0] == "run_start" and kinds[-1] == "run_end"
    rounds = [e["status"]["rounds_completed"]
              for e in events if e["event"] == "round"]
    assert rounds == sorted(rounds) and rounds, "rounds not monotonic"

    n = validate_speedscope(json.load(open(profile)))
    print(f"profile.speedscope.json: {n} events valid")

    # acceptance criterion: the profile's per-phase wall totals sum
    # to within 10% of the run's measured wall time (the run_end
    # status clocks the whole engine lifetime independently of the
    # profiler; the spans cover setup + the round loop inside it)
    prof = json.load(open(report))["profile"]
    covered = sum(prof["phases"].values())
    wall = events[-1]["status"]["wall_seconds"]
    assert abs(covered - wall) <= 0.10 * wall, (covered, wall)

    capsys.readouterr()
    assert main(["watch", progress]) == 0
