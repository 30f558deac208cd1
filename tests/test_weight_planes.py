"""Weight-axis states on bit-planes are weight-cell-major.

A weighted recurrence (the weighted k-path, every scan row) keeps states
of logical shape ``(rows, Z+1, m, W)``.  ``PlaneLanes`` lays them out as a
contiguous ``(m, Z+1, rows, W)`` block, so a weight cell's column is one
run of ``rows x W`` words per plane and a column broadcast along ``z``
multiplies without a copy.  These tests hold the planes to the table
kernel value for value, whatever the fused round count, the window width
(a ragged last word included) and the weight axis (``Z+1 = 1`` included,
where strides alone cannot tell the weight axis from the planes'), and
pin the layout each step hands on.
"""

import numpy as np
import pytest

from repro.core.leveldp import (
    ElementLanes,
    PlaneLanes,
    _advance,
    neighbour_sum,
    row_shift,
    shift_rows,
    weight_seed,
)
from repro.core.mld import MLDCircuit
from repro.core.problems import compile
from repro.ff.gf2m import default_field_for_k
from repro.graph.generators import erdos_renyi
from repro.util.layout import memory_order
from repro.util.rng import RngStream

G = erdos_renyi(40, m=90, rng=RngStream(120, name="g"))
W = RngStream(121, name="w").integers(0, 3, size=G.n)
#: the memory order of a weight-cell-major state's logical axes
Z_OUTER = [2, 1, 0, 3]


def _window(circuit, lanes_cls, strategy, rounds, n2):
    """One window of ``rounds`` fused rounds on ``lanes_cls``: the
    per-iteration values and the memory order of every state summed."""
    field = default_field_for_k(circuit.y_degree, kernel_strategy=strategy)
    spec = compile(circuit, field)
    fps = [spec.draw_fingerprint(G.n, RngStream(122 + r)) for r in range(rounds)]
    jagged = G.jagged()
    lanes = lanes_cls(fps, 0, n2, rows=jagged.order)
    gen = circuit.recurrence()(lanes)
    state, done = _advance(gen)
    orders = []
    while not done:
        orders.append(memory_order(state)[0])
        state, done = _advance(gen, neighbour_sum(state, jagged))
    return lanes.finish(state), orders


def _circuit(dim, z_max):
    """Scan row ``dim``, or the weighted 6-path for ``dim = None``."""
    return (MLDCircuit.weighted_path(W, 6, z_max) if dim is None
            else MLDCircuit.scan_row(W, dim, z_max))


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
    """Scan row 5 at ``R = 3``, ``n2 = 32`` is a ragged window: 96 lanes,
    the second word half padding."""
    circuit = _circuit(dim, z_max)
    planes, orders = _window(circuit, PlaneLanes, "bitsliced", rounds, n2)
    table, _ = _window(circuit, ElementLanes, "table", rounds, n2)
    assert planes.shape == table.shape == (z_max + 1, rounds * n2)
    assert np.array_equal(planes, table)
    assert all(order == Z_OUTER for order in orders), orders


@pytest.mark.parametrize("z_max", [0, 3])
def test_the_seed_is_built_weight_cell_major(z_max):
    field = default_field_for_k(7, kernel_strategy="bitsliced")
    fp = compile(MLDCircuit.k_path(7), field).draw_fingerprint(G.n, RngStream(123))
    lanes = PlaneLanes(fp, 0, 128)
    seed = weight_seed(lanes, W, z_max, 0)
    assert seed.shape == (G.n, z_max + 1, field.m, 2)
    assert seed.transpose(Z_OUTER).flags.c_contiguous
    assert memory_order(seed)[0] == Z_OUTER
    base = lanes.base(0)
    for i in range(G.n):
        for z in range(z_max + 1):
            assert np.array_equal(seed[i, z], base[i] if W[i] == z else 0 * base[i])
    # elements keep rows outer
    elements = weight_seed(ElementLanes(fp, 0, 128), W, z_max, 0)
    assert elements.flags.c_contiguous


#: logical (rows, Z+1, m, W) states in each memory order shift_rows meets
ORDERS = {"weight-cell-major": Z_OUTER, "rows-outer-planes": [2, 0, 1, 3],
          "c-order": [0, 1, 2, 3]}


@pytest.mark.parametrize("order", sorted(ORDERS))
@pytest.mark.parametrize("rows,z_max", [(9, 4), (9, 0), (1, 4), (1, 0)])
def test_shift_rows_is_the_same_in_every_memory_order(order, rows, z_max):
    rng = np.random.default_rng(rows * 10 + z_max)
    w = rng.integers(0, z_max + 2, size=rows)
    logical = rng.integers(0, 2**63, size=(rows, z_max + 1, 3, 2), dtype=np.uint64)
    axes = ORDERS[order]
    state = np.ascontiguousarray(logical.transpose(axes)).transpose(np.argsort(axes))
    expected = np.zeros_like(logical)
    for i in range(rows):
        for z in range(w[i], z_max + 1):
            expected[i, z] = logical[i, z - w[i]]
    got = shift_rows(state, row_shift(w, z_max))
    assert np.array_equal(got, expected)
    assert got.strides == state.strides
    # element states: (rows, Z+1, lanes), rows outer
    elements = logical[..., 0, 0].copy()[..., None]
    assert np.array_equal(shift_rows(elements, row_shift(w, z_max)), expected[..., 0, :1])
