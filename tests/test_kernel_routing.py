"""Lane layouts: every level step is bit-planes, for every driver.

Nothing picks a layout: ``src`` has one lane class,
:class:`~repro.core.leveldp.Lanes`, and every level step builds it — a
whole-graph run at any width (a window on the whole-graph backends, the
process fleet's workers, modeled mode's windows, and the runs a
simulated stage's reused windows take their values from), a simulated
rank, the exchange-signature probe and the kernel calibration's step.
The same for k-path, k-tree, weighted path and every scan-grid row.
Whatever the mode, every round value and round digest equals the
sequential ``n2 = 32`` run's — round values do not depend on N2 — and at
``n2 = 32`` so does every window's phase digest.
"""

from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import leveldp
from repro.core.engine import EngineSession, MidasRuntime
from repro.core.midas import detect_path, detect_tree, max_weight_path, scan_grid
from repro.core.mld import MLDCircuit
from repro.ff.fingerprint import Fingerprint
from repro.ff.gf2m import default_field_for_k
from repro.graph.generators import erdos_renyi, plant_path
from repro.graph.templates import TreeTemplate
from repro.runtime.costmodel import KernelCalibration
from repro.sanitize import DigestLog
from repro.util.rng import RngStream

from _leveldp_drivers import element_lanes, log_layouts

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
    """Every whole-graph run of every mode is :class:`Lanes`, ``n2`` lanes
    wide (a scan-grid row of ``2^j < n2`` iterations: ``2^j``); the
    answers and digests are the sequential ``n2 = 32`` run's."""
    g, w = inputs
    layouts = log_layouts(monkeypatch, tmp_path / "layouts")
    answer, log = _run(driver, g, w, mode, n2)

    runs = layouts()
    assert runs and {name for name, _ in runs} == {"Lanes"}
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
    layouts = log_layouts(monkeypatch, tmp_path / "layouts")
    sim = detect_path(g, 8, eps=0.7, rng=RngStream(9), early_exit=False,
                      runtime=MidasRuntime(mode="simulated", n_processors=64, n1=16))
    assert sim.n2 == 64
    sim_runs = layouts()
    (tmp_path / "layouts").unlink()
    seq = detect_path(g, 8, eps=0.7, rng=RngStream(9), early_exit=False,
                      runtime=MidasRuntime())
    assert sim_runs == layouts() == [("Lanes", 512)]
    assert [r.value for r in seq.rounds] == [r.value for r in sim.rounds]
    (tmp_path / "layouts").unlink()
    modeled = detect_path(g, 8, eps=0.7, rng=RngStream(9), early_exit=False,
                          runtime=MidasRuntime(mode="modeled", n_processors=64, n1=16))
    assert layouts() == [("Lanes", 64)] * (4 * len(modeled.rounds))
    assert [r.value for r in modeled.rounds] == [r.value for r in sim.rounds]


def test_ranks_and_the_calibration_build_the_planes(monkeypatch, tmp_path):
    """Every rank of an enacted window and the calibration's level step
    build :class:`Lanes`, and what a rank sends is plane rows: ``(m, W)``
    uint64."""
    g = erdos_renyi(60, 150, rng=RngStream(10, name="g"))
    layouts = log_layouts(monkeypatch, tmp_path / "layouts")
    sent = []
    exchange = leveldp.Exchange

    def spy(sends, recv_from, row_bytes=None):
        sent.extend((rows.shape[1:], rows.dtype) for rows in sends.values())
        return exchange(sends, recv_from, row_bytes)

    monkeypatch.setattr(leveldp, "Exchange", spy)
    detect_path(g, 5, eps=EPS, rng=RngStream(11), early_exit=False, runtime=MidasRuntime(
        mode="simulated", n_processors=4, n1=2, n2=8))
    ranks = layouts("program")
    assert ranks and set(ranks) == {("Lanes", 8)}
    assert len(ranks) % 2 == 0  # each enacted window: its group's two ranks
    m = default_field_for_k(5).m
    assert sent and set(sent) == {((m, 1), np.dtype(np.uint64))}
    KernelCalibration.measure(sample_nodes=64, avg_degree=4, grid=(1, 64), k=5,
                              min_time=0.001)
    assert layouts("_level_step") == [("Lanes", 1), ("Lanes", 64)]
    assert not hasattr(leveldp, "ElementLanes")


def test_the_linear_map_runs_only_while_its_masks_fit(monkeypatch):
    """A one-word, one-block window multiplies by the linear map while its
    ``(rows, m, m)`` masks fit ``Lanes.MAP_BYTES`` and by the schoolbook
    past it — the map's temporary is ``m`` states wide — and both sides
    give the element reference's values.  The map is the numpy path's; the
    compiled level step scales every window in one call."""
    monkeypatch.setattr(leveldp.native, "LIB", None)
    field = default_field_for_k(K)
    most = leveldp.Lanes.MAP_BYTES // (8 * field.m ** 2)
    mapped = []
    mul_rows = type(field.bitsliced).mul_rows

    def spy(self, y, *args):
        mapped.append(len(y))
        return mul_rows(self, y, *args)

    monkeypatch.setattr(type(field.bitsliced), "mul_rows", spy)
    circuit = MLDCircuit.k_path(K)
    for n, maps in ((most, True), (most + 1, False)):
        g = erdos_renyi(n, 4 * n, rng=RngStream(12, name="g"))
        fp = Fingerprint.draw(g.n, K, RngStream(13), field=field)
        mapped.clear()
        got = leveldp.run_whole_graph(g, circuit.recurrence(), fp, 0, 64)
        assert set(mapped) == ({n} if maps else set())
        assert np.array_equal(got, element_lanes(g, circuit.recurrence(), fp, 0, 64))


def test_the_core_picks_no_kernel():
    """Nothing under ``repro/core`` names a field's kernel strategy, and
    ``resolve_kernel`` is only its own definition, which the benchmark
    ledger alone calls."""
    core = Path(repro.__file__).parent / "core"
    texts = {p.name: p.read_text() for p in core.glob("*.py")}
    assert not [name for name, text in texts.items() if "kernel_strategy" in text]
    assert {name: text.count("resolve_kernel") for name, text in texts.items()
            if "resolve_kernel" in text} == {"engine.py": 1}
