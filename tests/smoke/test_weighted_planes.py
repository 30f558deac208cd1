"""The scan grid's plane window must beat its table window.

A scan grid is its unweighted circuit evaluated at ``P = D + 1`` points
of its weight variable ``z``: the points are lane blocks beside the fused
rounds, so its states are ``(rows, P R n2)`` lanes and every product is
pointwise.  This times the window the benchmark's ``scan_grid`` runs on
its input — the k = 5 grid's one run, every size an output, 2 fused
rounds of 32 lanes at 6 points — on both layouts, and asks the planes
for at most 0.8x the table's median and for the same values.  CI's
``perf-gate`` job runs this file
(``pytest -m smoke tests/smoke/test_weighted_planes.py``).
"""

import statistics
import time

import numpy as np
import pytest

from _leveldp_drivers import ElementLanes
from repro.core.leveldp import Lanes, _advance, neighbour_sum
from repro.core.mld import MLDCircuit
from repro.core.problems import compile
from repro.ff.gf2m import default_field_for_k
from repro.graph.generators import erdos_renyi
from repro.util.rng import RngStream

pytestmark = pytest.mark.smoke

Z_MAX = 5
#: (grid size k, fused rounds, lanes a round)
WINDOWS = ((5, 2, 32),)


def _windows(g, w, lanes_cls, strategy):
    """Each window's lanes, built before the clock starts."""
    jagged = g.jagged()
    out = []
    for dim, rounds, n2 in WINDOWS:
        circuit = MLDCircuit.scan_row(w, dim, Z_MAX)
        spec = compile(circuit, default_field_for_k(circuit.y_degree,
                                                    kernel_strategy=strategy))
        fps = [spec.draw_fingerprint(g.n, RngStream(50 + r)) for r in range(rounds)]
        out.append((circuit.recurrence(), lanes_cls(fps, 0, n2, rows=jagged.order,
                                                    points=spec.points)))
    return jagged, out


def _run(jagged, windows):
    values = []
    for recurrence, lanes in windows:
        gen = recurrence(lanes)
        state, done = _advance(gen)
        while not done:
            state, done = _advance(gen, neighbour_sum(state, jagged))
        values.append(lanes.finish(state))
    return values


def test_the_scan_rows_run_faster_on_planes_than_on_tables():
    g = erdos_renyi(600, rng=RngStream(1, name="g"))
    w = RngStream(2, name="w").integers(0, 2, size=g.n)
    layouts = {"planes": _windows(g, w, Lanes, "bitsliced"),
               "table": _windows(g, w, ElementLanes, "table")}
    times = {name: [] for name in layouts}
    values = {}
    for _ in range(9):  # interleaved, so host drift hits both alike
        for name, (jagged, windows) in layouts.items():
            t0 = time.perf_counter()
            values[name] = _run(jagged, windows)
            times[name].append(time.perf_counter() - t0)
    for planes, table in zip(values["planes"], values["table"]):
        assert np.array_equal(planes, table)
    planes, table = (statistics.median(times[name]) for name in ("planes", "table"))
    print(f"scan grid k = 5 on ER(600), Z = {Z_MAX}: planes {planes * 1e3:.1f} ms, "
          f"table {table * 1e3:.1f} ms, ratio {planes / table:.2f}")
    assert planes <= 0.8 * table
