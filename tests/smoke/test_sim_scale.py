"""Simulated-mode smoke at the paper's scale: Fig 9-10 run to N = 1152.

A stage's communication is enacted once and reused for every later phase
window, whose values come from the whole-graph runs a sequential
detection of the same rounds makes (several rounds side by side in one
run), so a paper-sized machine is seconds of wall time; CI's
``perf-gate`` job runs this file (``pytest -m smoke
tests/smoke/test_sim_scale.py``).  The N = 64 cases keep the shortcut
honest against a run that enacts every window (``sanitize="warn"``) and
pin its whole-graph runs to the sequential call's.
"""

import time

import pytest

from _leveldp_drivers import log_layouts
from repro.core.midas import MidasRuntime, detect_path
from repro.graph.generators import erdos_renyi
from repro.util.rng import RngStream

pytestmark = pytest.mark.smoke


def _detect(graph, k, **runtime):
    return detect_path(graph, k, eps=0.2, rng=RngStream(2), early_exit=False,
                       runtime=MidasRuntime(mode="simulated", **runtime))


def test_paper_scale_machine_finishes_in_a_minute():
    g = erdos_renyi(4000, m=24000, rng=RngStream(1, name="g"))
    t0 = time.perf_counter()
    res = _detect(g, 10, n_processors=1152, n1=32)
    elapsed = time.perf_counter() - t0
    print(f"N=1152 N1=32 N2={res.n2}: {elapsed:.1f} s wall, "
          f"{res.virtual_seconds!r} virtual s")
    assert res.rounds_run == 6 and res.virtual_seconds > 0  # a 10-path's, eps 0.2
    # every round costs the same virtual time: 2 batches + the round reduce
    assert len({r.virtual_seconds for r in res.rounds}) == 1
    assert elapsed < 60, f"N=1152 took {elapsed:.1f} s"


def test_memoised_virtual_seconds_equal_the_fully_enacted_twin():
    g = erdos_renyi(800, m=3200, rng=RngStream(3, name="g"))
    memo = _detect(g, 8, n_processors=64, n1=16)
    full = _detect(g, 8, n_processors=64, n1=16, sanitize="warn")
    assert memo.virtual_seconds == full.virtual_seconds
    assert [(r.value, r.virtual_seconds) for r in memo.rounds] == [
        (r.value, r.virtual_seconds) for r in full.rounds]
    # every window enacted: an 8-path's 7 rounds at eps 0.2, 4 windows each
    assert full.details["sanitizer"]["runs"] == 7 * 4


def test_a_memoised_stage_makes_the_sequential_whole_graph_runs(monkeypatch, tmp_path):
    g = erdos_renyi(800, m=3200, rng=RngStream(3, name="g"))
    layouts = log_layouts(monkeypatch, tmp_path / "layouts")
    memo = _detect(g, 8, n_processors=64, n1=16)
    sim_runs = layouts()
    (tmp_path / "layouts").unlink()
    seq = detect_path(g, 8, eps=0.2, rng=RngStream(2), early_exit=False,
                      runtime=MidasRuntime())
    # an 8-path's 7 rounds at eps 0.2: the 4 windows of 64 lanes of every
    # round are valued by a sequential detection's runs, one window fusing
    # 4 rounds of 256 lanes, the next the other 3 — not a run a round
    assert sim_runs == layouts() == [("Lanes", 1024), ("Lanes", 768)]
    assert [r.value for r in memo.rounds] == [r.value for r in seq.rounds]
    full = _detect(g, 8, n_processors=64, n1=16, sanitize="warn")
    assert memo.virtual_seconds == full.virtual_seconds
    assert [r.value for r in memo.rounds] == [r.value for r in full.rounds]
