"""Kernel routing: the phase window picks the GF kernel, for every driver.

``MidasRuntime.resolve_kernel`` is the one rule, the same for k-path,
k-tree, weighted path and every scan-grid row: ``bitsliced`` once a full
lane word is in flight in a whole-graph run — a window on the
whole-graph backends, the run a simulated round's reused windows take
their values from (as wide as the sequential window) — and the dense
table otherwise, and always on modeled mode.  Simulated and modeled
ranks evaluate element-wise on the field's tables either way.  Whatever
it picks, every round value and round digest equals the sequential
``n2 = 32`` run's (element layout) — round values do not depend on N2 —
and at ``n2 = 32`` so does every window's phase digest.
"""

import pytest

from repro.core.engine import EngineSession, MidasRuntime
from repro.core.midas import detect_path, detect_tree, max_weight_path, scan_grid
from repro.core.mld import MLDCircuit
from repro.core.schedule import PhaseSchedule
from repro.ff.gf2m import field_degree_for_k
from repro.graph.generators import erdos_renyi, plant_path
from repro.graph.templates import TreeTemplate
from repro.sanitize import DigestLog
from repro.util.rng import RngStream

WHOLE_GRAPH = ("sequential", "threaded", "process")
MODES = WHOLE_GRAPH + ("simulated", "modeled")
PLANES = WHOLE_GRAPH + ("simulated",)  # the modes with a plane-resident run
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
    """(answer, digest log, the session's ``degree/strategy`` field keys,
    the runtime)."""
    knobs = dict(mode=mode, n2=n2)
    if mode not in WHOLE_GRAPH:
        knobs.update(n_processors=4, n1=2)
    elif mode != "sequential":
        knobs.update(workers=2)
    session = EngineSession(g, n1=knobs.get("n1", 1))
    log = DigestLog()
    rt = MidasRuntime(session=session, digest_log=log, **knobs)
    answer = DRIVERS[driver](g, w, rt)
    return answer, log, session.describe()["fields_cached"], rt


@pytest.fixture(scope="module")
def reference(inputs):
    """Each driver's sequential ``n2 = 32`` run: every field a table."""
    g, w = inputs
    refs = {}
    for driver in DRIVERS:
        answer, log, fields, _ = _run(driver, g, w, "sequential", 32)
        assert all(f.endswith("/table") for f in fields)
        refs[driver] = answer, log
    return refs


@pytest.mark.parametrize("n2", [32, 64], ids=["n2=32", "n2=64"])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_auto_routes_planes_by_mode_and_width_only(driver, mode, n2, inputs,
                                                   reference):
    g, w = inputs
    answer, log, fields, rt = _run(driver, g, w, mode, n2)

    # one stage per call, except the grid: one per size row, whose field
    # counts the row's join coefficients
    stages = ([(j, MLDCircuit.scan_row(w, j, 0).y_degree) for j in range(1, K + 1)]
              if driver == "scan_grid" else [(K, K)])
    expected = {
        "{}/{}".format(
            field_degree_for_k(d),
            "bitsliced" if mode in PLANES and rt.schedule_for(j).n2 >= 64
            else "table")
        for j, d in stages
    }
    assert set(fields) == expected
    assert any(f.endswith("/bitsliced") for f in fields) == (
        mode in PLANES and n2 == 64)

    ref_answer, ref_log = reference[driver]
    assert answer == ref_answer
    assert log.rounds == ref_log.rounds and len(log.rounds) >= 2
    if n2 == 32:
        # SPMD modes key a window by (batch, phase) where a whole-graph
        # mode keys it by phase alone: the digests are the same windows'
        assert sorted(log.phases.values()) == sorted(ref_log.phases.values())


def test_a_simulated_round_runs_as_wide_as_the_sequential_window():
    """Default ``n2``: a simulated k = 8 stage on 64 ranks in groups of 16
    has 64-lane windows, and its reused windows are valued by one 256-lane
    plane run a round — a sequential run's window; modeled mode stays on
    tables."""
    sched = PhaseSchedule(8, 64, 16, 64)
    sim = MidasRuntime(mode="simulated", n_processors=64, n1=16)
    lanes = sim.run_lanes(sched, 800, 5)
    assert lanes == MidasRuntime().schedule_for(8, 800, 5).n2 == 256
    assert sim.resolve_kernel(5, lanes) == "bitsliced"
    modeled = MidasRuntime(mode="modeled", n_processors=64, n1=16)
    assert modeled.resolve_kernel(5, modeled.run_lanes(sched, 800, 5)) == "table"
