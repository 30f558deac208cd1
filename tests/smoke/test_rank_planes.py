"""A simulated rank's window on bit-planes costs at most 1.2x its element time.

Ranks run on the same :class:`~repro.core.leveldp.Lanes` bit-planes as a
whole-graph run.  A rank's few dozen rows x 64 lanes would not amortise
the numpy schoolbook multiply's fixed cost, so there, without a
compiled kernel, a level's per-row multiply is a linear map
(:meth:`~repro.ff.bitsliced.BitslicedGF2m.mul_rows`); the compiled level
step (:mod:`repro.ff.native`) pays one call per sum and per scaling.
This times the rank-sized k-path windows of the
benchmark's ``sim_scaling`` shape — ER(800), k = 8, one group of 16 ranks
of about 50 rows, 64 lanes — each rank's compute as
:func:`~repro.core.leveldp.phase_program`'s blocking rank does it (its
own rows in the own+ghost buffer, the local neighbour sum), with the
ghost rows left zero, on planes against the element-wise reference
(``tests/_leveldp_drivers.py``), interleaved, and asks the planes for at
most 1.2x the element median and for the same values.  CI's
``perf-gate`` job runs this file
(``pytest -m smoke tests/smoke/test_rank_planes.py``).
"""

import statistics
import time

import numpy as np
import pytest

from _leveldp_drivers import ElementLanes
from repro.core.engine import EngineSession
from repro.core.leveldp import Lanes, _advance, _own_order_sum
from repro.core.mld import MLDCircuit
from repro.ff.fingerprint import Fingerprint
from repro.ff.gf2m import default_field_for_k
from repro.graph.generators import erdos_renyi
from repro.util.rng import RngStream

pytestmark = pytest.mark.smoke

K, N2, RANKS = 8, 64, 16


def _ranks(views, recurrence, lanes):
    """Every rank's per-lane values: its window driven over its own rows,
    the neighbour sum over its own+ghost buffer."""
    values = []
    for view, rank_lanes in zip(views, lanes):
        gen = recurrence(rank_lanes)
        state, done = _advance(gen)
        buf = None
        while not done:
            if buf is None:
                buf = np.zeros((view.n_local,) + state.shape[1:], state.dtype)
            buf[:view.n_own] = state
            state, done = _advance(gen, _own_order_sum(buf, view.jagged()))
        values.append(rank_lanes.finish(state))
    return values


def test_a_rank_window_on_planes_is_within_1_2x_its_element_time():
    g = erdos_renyi(800, rng=RngStream(1, name="g"))
    views = EngineSession(g, n1=RANKS).ensure_views()
    circuit = MLDCircuit.k_path(K)
    fp = Fingerprint.draw(g.n, K, RngStream(2), field=default_field_for_k(K))
    rows = [view.n_own for view in views]
    assert 40 <= statistics.median(rows) <= 60
    layouts = {cls.__name__: [cls(fp, 0, N2, rows=view.own) for view in views]
               for cls in (Lanes, ElementLanes)}
    times = {name: [] for name in layouts}
    values = {}
    for _ in range(25):  # interleaved, so host drift hits both alike
        for name, lanes in layouts.items():
            t0 = time.perf_counter()
            values[name] = _ranks(views, circuit.recurrence(), lanes)
            times[name].append(time.perf_counter() - t0)
    for planes, elements in zip(values["Lanes"], values["ElementLanes"]):
        assert np.array_equal(planes, elements)
    planes, elements = (statistics.median(times[name]) for name in layouts)
    print(f"{RANKS} rank windows of k = {K}, {N2} lanes, ~{statistics.median(rows):.0f} "
          f"rows: planes {planes * 1e3:.2f} ms, elements {elements * 1e3:.2f} ms, "
          f"ratio {planes / elements:.2f}")
    assert planes <= 1.2 * elements
