"""Weighted kinds on bit-planes equal the element-wise layout, block for block.

A weighted recurrence (the weighted k-path, every scan row) is its
unweighted circuit evaluated at ``P`` points of ``z``: the window's lanes
are ``P R`` blocks of ``n2`` (point-major, then round), each variable
carrying ``p^{w(i)}`` on its point's blocks.  ``Lanes`` packs the
blocks into lane words — several to a word when ``n2 < 64``, with each
block's coefficient mask ORed over its own lanes — and these tests hold
it to ``ElementLanes`` value for value, whatever the fused round count,
the window width (a ragged last word included) and the number of points
(``z_max = 0`` and all-zero weights make ``P = 1``).
"""

import numpy as np
import pytest

from _leveldp_drivers import ElementLanes
from repro.core.leveldp import Lanes, _advance, neighbour_sum
from repro.core.mld import MLDCircuit
from repro.core.problems import compile
from repro.ff.gf2m import default_field_for_k
from repro.graph.generators import erdos_renyi
from repro.util.rng import RngStream

G = erdos_renyi(40, m=90, rng=RngStream(120, name="g"))
W = RngStream(121, name="w").integers(0, 3, size=G.n)


def _window(circuit, lanes_cls, strategy, rounds, n2):
    """One window of ``rounds`` fused rounds on ``lanes_cls``: the
    per-iteration values, block-major, and the lanes."""
    field = default_field_for_k(circuit.y_degree, kernel_strategy=strategy)
    spec = compile(circuit, field)
    fps = [spec.draw_fingerprint(G.n, RngStream(122 + r)) for r in range(rounds)]
    jagged = G.jagged()
    lanes = lanes_cls(fps, 0, n2, rows=jagged.order, points=spec.points)
    gen = circuit.recurrence()(lanes)
    state, done = _advance(gen)
    while not done:
        state, done = _advance(gen, neighbour_sum(state, jagged))
    return lanes.finish(state), lanes


def _circuit(dim, z_max, weights=W):
    """Scan row ``dim``, or the weighted 6-path for ``dim = None``."""
    return (MLDCircuit.weighted_path(weights, 6, z_max) if dim is None
            else MLDCircuit.scan_row(weights, dim, z_max))


#: (row, n2): windows of 16, 32 and 64 lanes, or the row's 2^k if fewer
WINDOWS = sorted({(dim, min(n2, 1 << (6 if dim is None else dim)))
                  for dim in (None, 1, 2, 3, 4, 5) for n2 in (16, 32, 64)},
                 key=lambda c: (c[0] or 0, c[1]))


@pytest.mark.parametrize("z_max", [0, 1, 5])
@pytest.mark.parametrize("rounds", [1, 2, 3, 7])
@pytest.mark.parametrize("dim,n2", WINDOWS,
                         ids=[f"{'wpath' if d is None else f'scan{d}'}-n{n}"
                              for d, n in WINDOWS])
def test_planes_equal_the_table_kernel(dim, n2, rounds, z_max):
    """Scan row 5 at ``R = 3``, ``n2 = 32``, ``z_max = 5`` is 6 points of
    3 rounds: 576 lanes, the last word half padding."""
    circuit = _circuit(dim, z_max)
    planes, lanes = _window(circuit, Lanes, "bitsliced", rounds, n2)
    table, _ = _window(circuit, ElementLanes, "table", rounds, n2)
    points = circuit.weight_degree + 1
    assert lanes.blocks == points * rounds
    assert planes.shape == table.shape == (len(circuit.outputs), points * rounds * n2)
    assert np.array_equal(planes, table)


@pytest.mark.parametrize("dim", [None, 3])
def test_zero_weights_are_one_point_and_the_unweighted_circuit(dim):
    """All-zero weights: ``P = 1``, and the lanes are the unweighted
    circuit's, value for value."""
    zeros = np.zeros(G.n, dtype=np.int64)
    circuit = _circuit(dim, 2, zeros)
    planes, lanes = _window(circuit, Lanes, "bitsliced", 2, 16)
    assert lanes.blocks == 2 and lanes.points.count == 1
    plain = MLDCircuit(k=circuit.k, n_slots=circuit.n_slots, leaves=circuit.leaves,
                       steps=circuit.steps, outputs=circuit.outputs,
                       levels=circuit.levels)
    unweighted, _ = _window(plain, Lanes, "bitsliced", 2, 16)
    assert np.array_equal(planes, unweighted)
