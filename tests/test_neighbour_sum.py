"""The neighbour sum: jagged diagonals against a per-row Python XOR.

``leveldp.neighbour_sum`` is the one place a state is summed over
neighbourhoods — whole graphs, rank views and the calibration all go
through it — so it is checked here against the naive loop for every graph
shape that bends the layout (isolated vertices, no edges, a star, a power
law), every state shape the recurrences hand it, and a halo view's three
adjacencies — on whichever path runs (the compiled gather-XOR of
``repro.ff.native`` where it is built, for bit-planes).  The numpy
reference's slot walk is pinned here too, on that path explicitly
(``numpy_walk``): its call count follows the average degree, and both
its halves run.  The window's peak memory is bounded on the path that
runs, so neither the per-max-degree walk nor the ``(nnz, ...)`` gather can
come back unnoticed.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.evaluator_path import path_eval_phase
from repro.core.halo import build_halo_views
from repro.core.leveldp import neighbour_sum
from repro.ff import native
from repro.ff.fingerprint import Fingerprint
from repro.ff.gf2m import default_field_for_k
from repro.graph.csr import CSRGraph, JaggedDiagonals
from repro.graph.generators import barabasi_albert, erdos_renyi, plant_path
from repro.graph.partition import random_partition
from repro.util.rng import RngStream


def naive_sum(state, indptr, indices):
    out = np.zeros((len(indptr) - 1,) + state.shape[1:], dtype=state.dtype)
    for i in range(len(indptr) - 1):
        for j in indices[indptr[i]:indptr[i + 1]]:
            out[i] ^= state[j]
    return out


def star_and_path(n):
    """Vertex 0 joined to everyone, 1..n-1 chained: one row of degree
    n - 1 over rows of degree <= 3."""
    edges = [(0, i) for i in range(1, n)] + [(i, i + 1) for i in range(1, n - 1)]
    return CSRGraph.from_edges(n, np.array(edges, dtype=np.int64))


GRAPHS = {
    "empty": lambda: CSRGraph.from_edges(9, np.zeros((0, 2), dtype=np.int64)),
    "one-edge": lambda: CSRGraph.from_edges(6, [(1, 4)]),
    "isolated": lambda: erdos_renyi(300, m=260, rng=RngStream(3)),
    "dense": lambda: erdos_renyi(200, m=2400, rng=RngStream(4)),
    "star": lambda: star_and_path(400),
    "barabasi-albert": lambda: barabasi_albert(500, 6, rng=RngStream(5)),
}

#: every state shape a recurrence yields: ``(trailing shape, dtype, memory
#: order of the logical axes, outermost first; None: C order)``
STATES = {
    "elements-u8": ((24,), np.uint8, None),
    "elements-u16": ((5,), np.uint16, None),
    "planes": ((5, 3), np.uint64, (1, 0, 2)),
    "weights-elements": ((4, 16), np.uint8, None),
    # logical (rows, Z, m, W) over (m, rows, Z, W), and weight-cell-major
    # over (m, Z, rows, W) as PlaneLanes builds a weight-axis state
    "weights-planes": ((3, 5, 2), np.uint64, (2, 0, 1, 3)),
    "weights-planes-z-outer": ((3, 5, 2), np.uint64, (2, 1, 0, 3)),
}


def make_state(rng, rows, kind):
    """A random state with ``rows`` rows; a plane kind is a transposed view
    of a contiguous block, its axes in the kind's memory order."""
    trailing, dtype, order = STATES[kind]
    shape = (rows,) + trailing
    hi = int(np.iinfo(dtype).max)
    if order is None:
        return rng.integers(0, hi, size=shape, endpoint=True, dtype=dtype)
    block = rng.integers(0, hi, size=[shape[ax] for ax in order], endpoint=True,
                         dtype=dtype)
    return block.transpose(np.argsort(order))


@pytest.fixture
def numpy_walk(monkeypatch):
    """The numpy reference runs: the slot walk and jagged tail these tests
    pin, which the compiled gather-XOR does not use."""
    monkeypatch.setattr(native, "LIB", None)


@pytest.mark.usefixtures("numpy_walk")
class TestLayout:
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_rows_by_falling_degree_and_every_entry_once(self, name):
        g = GRAPHS[name]()
        jd = JaggedDiagonals(g.indptr, g.indices)
        deg = g.degrees()
        assert sorted(jd.order.tolist()) == list(range(g.n))
        assert np.array_equal(jd.rank[jd.order], np.arange(g.n))
        assert np.all(np.diff(deg[jd.order]) <= 0)
        lengths = [len(s) for s in jd.slots]
        assert lengths == sorted(lengths, reverse=True)
        assert sum(lengths) + len(jd.tail_indices) == len(g.indices)
        # a tail row always has a tail entry: the reducer needs no repair
        assert np.all(np.diff(jd.tail_indptr) > 0)
        # row p's slots then tail spell out CSR row order[p], in order
        for p in (0, g.n // 2, g.n - 1):
            row = [int(s[p]) for s in jd.slots if p < len(s)]
            if p < len(jd.tail_indptr) - 1:
                row += jd.tail_indices[jd.tail_indptr[p]:jd.tail_indptr[p + 1]].tolist()
            assert row == g.neighbors(int(jd.order[p])).tolist()

    def test_graph_layout_is_renumbered_and_cached(self):
        g = GRAPHS["barabasi-albert"]()
        jd = g.jagged()
        assert g.jagged() is jd
        plain = JaggedDiagonals(g.indptr, g.indices)
        assert np.array_equal(jd.order, plain.order)
        for a, b in zip(jd.slots, plain.slots):
            assert np.array_equal(a, jd.rank[b])
        assert np.array_equal(jd.tail_indices, jd.rank[plain.tail_indices])

    @pytest.mark.parametrize("name", ["star", "barabasi-albert"])
    def test_calls_follow_the_average_degree_not_the_maximum(self, name):
        g = GRAPHS[name]()
        jd = g.jagged()
        gathers = len(jd.slots) + 1  # every slot, and the tail
        average = len(g.indices) / g.n
        assert gathers <= 2 * average + 2
        assert g.degrees().max() > 8 * gathers

    def test_a_view_of_a_few_dozen_rows_is_one_gather(self):
        g = erdos_renyi(60, m=480, rng=RngStream(6))
        jd = JaggedDiagonals(g.indptr, g.indices)
        assert jd.slots == () and len(jd.tail_indices) == len(g.indices)


class TestAgainstTheNaiveLoop:
    @pytest.mark.parametrize("kind", sorted(STATES))
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_every_graph_and_state_shape(self, name, kind):
        g = GRAPHS[name]()
        state = make_state(np.random.default_rng(7), g.n, kind)
        expected = naive_sum(state, g.indptr, g.indices)
        plain = JaggedDiagonals(g.indptr, g.indices)
        got = neighbour_sum(state, plain)
        assert got.dtype == state.dtype and got.shape == state.shape
        assert np.array_equal(got, expected[plain.order])
        assert np.array_equal(np.take(got, plain.rank, axis=0), expected)
        # the numpy reference keeps the state's memory order; the compiled
        # gather, for rows of whole words, returns C-contiguous rows
        if native.LIB is not None and state.itemsize * np.prod(state.shape[1:]) % 8 == 0:
            assert got.flags.c_contiguous
        else:
            assert got.strides == state.strides or g.n == 0
        # renumbered: a state kept in the layout's order is summed in place
        jd = g.jagged()
        assert np.array_equal(neighbour_sum(state[jd.order], jd), expected[jd.order])

    @given(n=st.one_of(st.integers(1, 40), st.integers(129, 400)),
           n_cols=st.integers(1, 300), max_degree=st.integers(0, 9),
           kind=st.sampled_from(sorted(STATES)), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_random_csr_with_isolated_vertices(self, n, n_cols, max_degree, kind, seed):
        """Rectangular, unsorted, with repeats: any CSR, not only a graph's;
        past 128 rows the layout has a head to walk."""
        rng = np.random.default_rng(seed)
        lens = rng.integers(0, max_degree + 1, size=n)
        lens[rng.random(n) < 0.2] = 0
        indptr = np.concatenate([[0], np.cumsum(lens)]).astype(np.int64)
        indices = rng.integers(0, n_cols, size=int(indptr[-1]))
        state = make_state(rng, n_cols, kind)
        jd = JaggedDiagonals(indptr, indices)
        got = neighbour_sum(state, jd)
        assert np.array_equal(got, naive_sum(state, indptr, indices)[jd.order])

    @pytest.mark.usefixtures("numpy_walk")
    def test_the_walk_and_the_tail_both_ran(self):
        """The grid above is only a test of both halves if some layouts
        have a head and some a tail."""
        layouts = [GRAPHS[name]().jagged() for name in sorted(GRAPHS)]
        assert any(jd.slots and len(jd.tail_indices) for jd in layouts)
        assert any(not jd.slots and len(jd.tail_indices) for jd in layouts)
        assert any(not jd.slots and not len(jd.tail_indices) for jd in layouts)


class TestHaloViews:
    @pytest.mark.parametrize("kind", ["elements-u8", "weights-elements"])
    def test_buffer_and_both_halves(self, kind):
        g = erdos_renyi(400, m=2400, rng=RngStream(8))
        views = build_halo_views(g, random_partition(g, 2, rng=RngStream(9)))
        rng = np.random.default_rng(10)
        for view in views:
            buf = make_state(rng, view.n_local, kind)
            expected = naive_sum(buf, view.indptr, view.indices)
            jd = view.jagged()
            assert view.jagged() is jd
            assert np.array_equal(np.take(neighbour_sum(buf, jd), jd.rank, axis=0),
                                  expected)
            # overlapped: own columns from the state, ghost columns from the
            # ghost-only buffer, each half in its own row order
            own, ghost = view.split_jagged()
            assert view.split_jagged()[0] is own
            halves = (np.take(neighbour_sum(buf[:view.n_own], own), own.rank, axis=0)
                      ^ np.take(neighbour_sum(buf[view.n_own:], ghost), ghost.rank, axis=0))
            assert np.array_equal(halves, expected)
        # 200 rows of average degree 12: the blocking view walks, the
        # (sparser) halves may not — both are the one function
        assert any(v.jagged().slots for v in views)


def test_a_wide_window_stays_within_a_few_states_of_memory():
    """One k-path window, 1024 lanes wide, on the ledger's dense graph:
    the sum's largest temporary is one slot, and the recurrence frees a
    level once it is summed, so the peak is the multiply's operands and
    partial planes — not the ``average degree x state`` gathered block
    (16 states here) the reduceat pair needed.  Where the kernel is built
    the window runs compiled: its sums and products each allocate the
    one state they return."""
    k, n2 = 10, 1024
    g, _ = plant_path(erdos_renyi(800, m=6400, rng=RngStream(11)), k, rng=RngStream(12))
    field = default_field_for_k(k, kernel_strategy="bitsliced")
    fp = Fingerprint.draw(g.n, k, RngStream(13), levels=k, field=field)
    state_bytes = 8 * field.m * g.n * (n2 // 64)
    path_eval_phase(g, fp, 0, n2)  # the layout and the field's caches exist
    tracemalloc.start()
    try:
        path_eval_phase(g, fp, 0, n2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(g.indices) / g.n > 15
    assert peak < 6.5 * state_bytes, f"peak {peak / state_bytes:.1f} states"
