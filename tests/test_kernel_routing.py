"""Lane layouts: every whole-graph run is bit-planes, for every driver.

The level-DP driver picks the layout, not the field or the engine:
:func:`~repro.core.leveldp.run_whole_graph` builds ``PlaneLanes`` at any
width — a window on the whole-graph backends (sequential, threaded, the
process fleet's workers), modeled mode's windows, and the runs a
simulated stage's reused windows take their values from (the sequential
call's) — while simulated ranks stay element-wise.  The same
for k-path, k-tree, weighted path and every scan-grid row.  Whatever the
mode, every round value and round digest equals the sequential
``n2 = 32`` run's — round values do not depend on N2 — and at
``n2 = 32`` so does every window's phase digest.
"""

from pathlib import Path

import pytest

import repro
from repro.core.engine import EngineSession, MidasRuntime
from repro.core.midas import detect_path, detect_tree, max_weight_path, scan_grid
from repro.graph.generators import erdos_renyi, plant_path
from repro.graph.templates import TreeTemplate
from repro.sanitize import DigestLog
from repro.util.rng import RngStream

from _leveldp_drivers import log_whole_graph_layouts

WHOLE_GRAPH = ("sequential", "threaded", "process")
MODES = WHOLE_GRAPH + ("simulated", "modeled")
EPS = 0.7  # two rounds
K = 6  # 64 iterations a round: one window at n2 = 64, two at n2 = 32

DRIVERS = {
    "detect_path": lambda g, w, rt: [r.value for r in detect_path(
        g, K, eps=EPS, rng=RngStream(1), runtime=rt, early_exit=False).rounds],
    "detect_tree": lambda g, w, rt: [r.value for r in detect_tree(
        g, TreeTemplate.binary(K), eps=EPS, rng=RngStream(2), runtime=rt,
        early_exit=False).rounds],
    "max_weight_path": lambda g, w, rt: max_weight_path(
        g, K, w, eps=EPS, rng=RngStream(3), runtime=rt),
    "scan_grid": lambda g, w, rt: scan_grid(
        g, w, k=K, eps=EPS, rng=RngStream(4), runtime=rt).detected.tolist(),
}


@pytest.fixture(scope="module")
def inputs():
    g = erdos_renyi(40, 100, rng=RngStream(5, name="g"))
    g, _ = plant_path(g, 6, rng=RngStream(6, name="p"))
    return g, RngStream(7, name="w").integers(0, 2, size=g.n)


def _run(driver, g, w, mode, n2):
    """(answer, digest log)."""
    knobs = dict(mode=mode, n2=n2)
    if mode not in WHOLE_GRAPH:
        knobs.update(n_processors=4, n1=2)
    elif mode == "process":
        # forked workers carry a layout log installed before the fork
        knobs.update(workers=2, process_start="fork")
    elif mode != "sequential":
        knobs.update(workers=2)
    log = DigestLog()
    rt = MidasRuntime(session=EngineSession(g, n1=knobs.get("n1", 1)),
                      digest_log=log, **knobs)
    return DRIVERS[driver](g, w, rt), log


@pytest.fixture(scope="module")
def reference(inputs):
    """Each driver's sequential ``n2 = 32`` run."""
    g, w = inputs
    return {driver: _run(driver, g, w, "sequential", 32) for driver in DRIVERS}


@pytest.mark.parametrize("n2", [32, 64], ids=["n2=32", "n2=64"])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_auto_routes_planes_by_mode_and_width_only(driver, mode, n2, inputs,
                                                   reference, monkeypatch, tmp_path):
    """Every whole-graph run of every mode is ``PlaneLanes``, ``n2`` lanes
    wide (a scan-grid row of ``2^j < n2`` iterations: ``2^j``); the
    answers and digests are the sequential ``n2 = 32`` run's."""
    g, w = inputs
    layouts = log_whole_graph_layouts(monkeypatch, tmp_path / "layouts")
    answer, log = _run(driver, g, w, mode, n2)

    runs = layouts()
    assert runs and {name for name, _ in runs} == {"PlaneLanes"}
    sizes = range(1, K + 1) if driver == "scan_grid" else (K,)
    assert {lanes for _, lanes in runs} <= {min(n2, 1 << j) for j in sizes}
    assert max(lanes for _, lanes in runs) == n2

    ref_answer, ref_log = reference[driver]
    assert answer == ref_answer
    assert log.rounds == ref_log.rounds and len(log.rounds) >= 2
    if n2 == 32:
        # SPMD modes key a window by (batch, phase) where a whole-graph
        # mode keys it by phase alone: the digests are the same windows'
        assert sorted(log.phases.values()) == sorted(ref_log.phases.values())


def test_a_simulated_stage_makes_the_sequential_whole_graph_runs(monkeypatch, tmp_path):
    """Default ``n2``: a simulated k = 8 stage on 64 ranks in groups of 16
    has 64-lane windows, and its reused windows are valued by the plane
    runs the same call makes in sequential mode — its two rounds side by
    side in one 512-lane run; modeled mode runs its 64-lane windows on
    planes one at a time."""
    g = erdos_renyi(200, 800, rng=RngStream(8, name="g"))
    assert MidasRuntime().schedule_for(8, g.n).n2 == 256
    layouts = log_whole_graph_layouts(monkeypatch, tmp_path / "layouts")
    sim = detect_path(g, 8, eps=0.7, rng=RngStream(9), early_exit=False,
                      runtime=MidasRuntime(mode="simulated", n_processors=64, n1=16))
    assert sim.n2 == 64
    sim_runs = layouts()
    (tmp_path / "layouts").unlink()
    seq = detect_path(g, 8, eps=0.7, rng=RngStream(9), early_exit=False,
                      runtime=MidasRuntime())
    assert sim_runs == layouts() == [("PlaneLanes", 512)]
    assert [r.value for r in seq.rounds] == [r.value for r in sim.rounds]
    (tmp_path / "layouts").unlink()
    modeled = detect_path(g, 8, eps=0.7, rng=RngStream(9), early_exit=False,
                          runtime=MidasRuntime(mode="modeled", n_processors=64, n1=16))
    assert layouts() == [("PlaneLanes", 64)] * (4 * len(modeled.rounds))
    assert [r.value for r in modeled.rounds] == [r.value for r in sim.rounds]


def test_the_core_picks_no_kernel():
    """Nothing under ``repro/core`` names a field's kernel strategy, and
    ``resolve_kernel`` is only its own definition, which the benchmark
    ledger alone calls."""
    core = Path(repro.__file__).parent / "core"
    texts = {p.name: p.read_text() for p in core.glob("*.py")}
    assert not [name for name, text in texts.items() if "kernel_strategy" in text]
    assert {name: text.count("resolve_kernel") for name, text in texts.items()
            if "resolve_kernel" in text} == {"engine.py": 1}
