"""Auto kernel routing: every whole-graph driver is offered bit-planes.

``kernel="auto"`` resolves one GF kernel per stage from the runtime's mode
and the stage's batch width alone — the same rule for k-path, k-tree,
weighted path and every scan-grid row: ``bitsliced`` on the whole-graph
backends once a full lane word is in flight (``n2 >= 64``), the dense
table otherwise, and never on simulated/modeled ranks, which evaluate
element-wise.  Whatever is resolved, every phase and round value equals
the ``kernel="table"`` run's.
"""

import pytest

from repro.core.engine import EngineSession, MidasRuntime
from repro.core.evaluator_scanstat import scan_y_degree
from repro.core.midas import detect_path, detect_tree, max_weight_path, scan_grid
from repro.ff.gf2m import field_degree_for_k
from repro.graph.generators import erdos_renyi, plant_path
from repro.graph.templates import TreeTemplate
from repro.runtime.costmodel import KernelCalibration
from repro.sanitize import DigestLog
from repro.util.rng import RngStream

WHOLE_GRAPH = ("sequential", "threaded", "process")
MODES = WHOLE_GRAPH + ("simulated", "modeled")
EPS = 0.7  # two rounds

DRIVERS = {
    "detect_path": lambda g, w, k, rt: [r.value for r in detect_path(
        g, k, eps=EPS, rng=RngStream(1), runtime=rt, early_exit=False).rounds],
    "detect_tree": lambda g, w, k, rt: [r.value for r in detect_tree(
        g, TreeTemplate.binary(k), eps=EPS, rng=RngStream(2), runtime=rt,
        early_exit=False).rounds],
    "max_weight_path": lambda g, w, k, rt: max_weight_path(
        g, k, w, eps=EPS, rng=RngStream(3), runtime=rt),
    "scan_grid": lambda g, w, k, rt: scan_grid(
        g, w, k=k, eps=EPS, rng=RngStream(4), runtime=rt).detected.tolist(),
}


@pytest.fixture(scope="module")
def inputs():
    g = erdos_renyi(40, 100, rng=RngStream(5, name="g"))
    g, _ = plant_path(g, 6, rng=RngStream(6, name="p"))
    return g, RngStream(7, name="w").integers(0, 2, size=g.n)


def _run(driver, g, w, k, mode, kernel):
    """(answer, digest log, the session's ``degree/strategy`` field keys,
    the runtime)."""
    knobs = dict(mode=mode, kernel=kernel)
    if mode not in WHOLE_GRAPH:
        # as wide as the whole-graph default, so only the mode differs
        knobs.update(n_processors=4, n1=2, n2=min(64, 1 << k))
    elif mode != "sequential":
        knobs.update(workers=2)
    calibration = KernelCalibration.synthetic()
    session = EngineSession(g, n1=knobs.get("n1", 1), kernel=kernel,
                            calibration=calibration)
    log = DigestLog()
    rt = MidasRuntime(session=session, digest_log=log, calibration=calibration, **knobs)
    answer = DRIVERS[driver](g, w, k, rt)
    return answer, log, session.describe()["fields_cached"], rt


@pytest.mark.parametrize("k", [5, 6], ids=["n2=32", "n2=64"])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_auto_routes_planes_by_mode_and_width_only(driver, mode, k, inputs):
    g, w = inputs
    answer, log, fields, rt = _run(driver, g, w, k, mode, "auto")

    # one stage per call, except the grid: one per size row, whose field
    # counts the row's join coefficients
    stages = ([(j, scan_y_degree(j)) for j in range(1, k + 1)]
              if driver == "scan_grid" else [(k, k)])
    expected = {
        "{}/{}".format(
            field_degree_for_k(d),
            "bitsliced" if mode in WHOLE_GRAPH and rt.schedule_for(j).n2 >= 64
            else "table")
        for j, d in stages
    }
    assert set(fields) == expected
    assert any(f.endswith("/bitsliced") for f in fields) == (
        mode in WHOLE_GRAPH and k == 6)

    ref_answer, ref_log, ref_fields, _ = _run(driver, g, w, k, mode, "table")
    assert all(f.endswith("/table") for f in ref_fields)
    assert answer == ref_answer
    assert log.rounds == ref_log.rounds and len(log.rounds) >= 2
    assert log.phases == ref_log.phases
