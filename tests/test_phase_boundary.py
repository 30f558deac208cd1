"""One phase boundary, every executor.

``DetectionEngine.phase_done`` is the only place a finished phase window
meets telemetry, so *who* ran the window must not change which side
effects it leaves: the same ``midas_phase_seconds`` samples, the same
digests, the same live ``phase`` events, one profile row per window and —
on the wall-clock executors — one recorder compute event per window.
The matrix below pins that for every mode on a one-stage and a two-stage
driver; the deadline tests pin the other thing written once in the round
loop, cancelling windows that have not started.
"""

import glob
import threading
import time

import pytest

from repro.core.midas import MidasRuntime, detect_path, scan_grid, stage_rounds
from repro.core.mld import MLDCircuit
from repro.core.process_backend import close_fleet
from repro.graph.generators import erdos_renyi
from repro.obs.live import LiveRun
from repro.obs.metrics import MetricsRegistry, get_default_registry
from repro.runtime.tracing import TraceRecorder
from repro.sanitize.replay import DigestLog
from repro.util.rng import RngStream

# one decomposition for every mode, so batch indices (and with them the
# DigestLog keys) agree: N/N1 = 1 phase per batch, N2 = 4 iterations each
SHAPE = dict(n_processors=2, n1=2, n2=4)
MODES = {
    "sequential": dict(mode="sequential"),
    "threaded": dict(mode="threaded", workers=2),
    "process": dict(mode="process", workers=2),
    "modeled": dict(mode="modeled"),
    "simulated": dict(mode="simulated"),
}
WALL = ("sequential", "threaded", "process", "modeled")
# lanes the kernel spans of each wall mode must sit on
LANE_PREFIX = {"sequential": "main", "modeled": "main",
               "threaded": "midas-phase", "process": "worker-"}
EPS = 0.4
G = erdos_renyi(16, 36, rng=RngStream(51, name="g"))
W = RngStream(53, name="w").integers(0, 3, size=G.n)

# driver -> (call, {stage label: (k, phases per round, rounds)})
DRIVERS = {
    "detect_path": (
        lambda rt: detect_path(G, 4, eps=EPS, rng=RngStream(52), runtime=rt,
                               early_exit=False),
        {"": (4, 4, stage_rounds(MLDCircuit.k_path(4), EPS))},
    ),
    "scan_grid": (
        lambda rt: scan_grid(G, W, k=3, eps=EPS, rng=RngStream(54), runtime=rt),
        {"": (3, 2, stage_rounds(MLDCircuit.scan_row(W, 3, 0), EPS))},
    ),
}


def _observe(driver: str, mode: str) -> dict:
    """Run ``driver`` in ``mode`` with every sink attached."""
    call, _stages = DRIVERS[driver]
    # forked process workers inherit the default registry: none of what it
    # held before the run may be shipped back into this run's registry
    get_default_registry().histogram("midas_phase_seconds", "").labels(
        problem="inherited", mode="-", k=4, n1=2, n2=4).observe(1.0)
    live, phase_events = LiveRun(), []
    live.subscribe(lambda evt: phase_events.append(evt)
                   if evt["event"] == "phase" else None)
    rt = MidasRuntime(metrics=MetricsRegistry(), digest_log=DigestLog(),
                      recorder=TraceRecorder(), live=live,
                      **SHAPE, **MODES[mode])
    call(rt)
    rt.close_live()
    return {
        "rt": rt,
        "hist": {(lab["problem"], int(lab["k"]), int(lab["n2"])): h.count
                 for lab, h in rt.metrics.get("midas_phase_seconds").children()},
        "phases": dict(rt.digest_log.phases),
        "rounds": dict(rt.digest_log.rounds),
        "live": len(phase_events),
        "ops": _calls_by_op(rt.profiler),
    }


def _calls_by_op(prof) -> dict:
    calls: dict = {}
    for row in prof.aggregates():  # one row per (phase, op, callsite)
        calls[row["op"]] = calls.get(row["op"], 0) + row["calls"]
    return calls


@pytest.fixture(scope="module")
def reference():
    return {d: _observe(d, "sequential") for d in DRIVERS}


@pytest.mark.parametrize("driver", list(DRIVERS))
@pytest.mark.parametrize("mode", list(MODES))
def test_every_mode_leaves_the_same_phase_effects(mode, driver, reference):
    stages = DRIVERS[driver][1]
    windows = sum(n * r for _k, n, r in stages.values())
    rounds = sum(r for _k, _n, r in stages.values())
    got = _observe(driver, mode)
    ref = reference[driver]

    # one histogram sample per window, per stage
    problem = {"detect_path": "k-path", "scan_grid": "scanstat"}[driver]
    assert got["hist"] == {(problem, k, min(4, 1 << k)): r * n
                           for k, n, r in stages.values()}
    # digests: every (stage, round, batch, phase) once, equal across modes
    assert len(got["phases"]) == windows
    assert got["phases"] == ref["phases"] and got["rounds"] == ref["rounds"]
    assert len(got["rounds"]) == rounds
    # live: one phase event per window
    assert got["live"] == windows
    # profile: one row entry per window, one per round
    per_window = "simulate" if mode == "simulated" else "kernel"
    assert got["ops"][per_window] == windows
    assert got["ops"]["round"] == rounds

    if mode not in WALL:
        return
    prof, rec = got["rt"].profiler, got["rt"].recorder
    kernels = [s for s in prof.spans if s.op == "kernel"]
    assert {s.lane.startswith(LANE_PREFIX[mode]) for s in kernels} == {True}
    # worker lanes never count towards the wall tiling: "rounds" is still
    # exactly the main thread's round spans
    round_seconds = sum(s.duration for s in prof.spans if s.op == "round")
    assert prof.by_phase()["rounds"] == pytest.approx(round_seconds)

    computes = [ev for ev in rec.events if ev.kind == "compute"]
    assert len(computes) == windows and {ev.kind for ev in rec.events} == {"compute"}
    for label, (k, n, r) in stages.items():
        for ell in range(r):
            tiles = sorted((ev.scope.q0, ev.scope.q1) for ev in computes
                           if ev.scope.label == label and ev.scope.round == ell)
            # every phase window of the round appears exactly once
            assert tiles == [(i * (1 << k) // n, (i + 1) * (1 << k) // n)
                             for i in range(n)]
    barriers = [e for e in rec.edges if e.kind == "barrier"]
    if LANE_PREFIX[mode] == "main":
        # inline windows: one lane, nothing to join
        assert {ev.rank for ev in computes} == {0} and not rec.edges
    else:
        # the accumulator join crosses threads once per round
        assert len(barriers) == len(rec.edges) == rounds
        assert all(e.t_src <= e.t_dst for e in barriers)


# ------------------------------------------------------------- deadlines
def _one_window_seconds(graph, k: int, n2: int) -> float:
    from repro.core.problems import compile

    spec = compile(MLDCircuit.k_path(k))
    fp = spec.draw_fingerprint(graph.n, RngStream(5))
    spec.phase_value(graph, fp, 0, n2)  # warm caches
    t0 = time.perf_counter()
    spec.phase_value(graph, fp, 0, n2)
    return time.perf_counter() - t0


@pytest.mark.parametrize("mode", ["sequential", "threaded", "process"])
def test_deadline_cancels_windows_that_have_not_started(mode):
    """A watchdog trip inside a round must not wait for the round's queued
    windows: 256 windows per round, a deadline of a few windows.  (The
    threaded backend used to drain the whole queue in ``close()`` — 3.6 s
    against a 0.05 s deadline here.)"""
    g = erdos_renyi(1500, 9000, rng=RngStream(1, name="g"))
    k, n2 = 12, 16  # 2^12 / 16 = 256 windows per round
    window = _one_window_seconds(g, k, n2)
    deadline = max(0.05, 2 * window)
    rt = MidasRuntime(mode=mode, workers=2, n2=n2, deadline=deadline,
                      metrics=MetricsRegistry())
    t0 = time.perf_counter()
    res = detect_path(g, k, eps=0.2, rng=RngStream(2), runtime=rt,
                      early_exit=False)
    elapsed = time.perf_counter() - t0
    rt.close_live()

    assert res.details["degraded"]["reason"] == "deadline"
    # the deadline, the windows already running (one per worker, plus the
    # process pool's prefetched call) and pool start/stop — not the ~250
    # windows still queued, which alone take 50x the deadline
    assert elapsed < 2 * deadline + 10 * window + 0.5, (elapsed, deadline, window)
    assert not [t.name for t in threading.enumerate()
                if t.name.startswith("midas-phase")]
    close_fleet()  # the warm fleet's fingerprint segment outlives the call
    assert not glob.glob("/dev/shm/psm_*")
