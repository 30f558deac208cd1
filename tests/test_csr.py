"""Tests for CSR graph storage and the XOR segment reduction kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graph.csr import CSRGraph, xor_segment_reduce


def random_edge_list(draw, max_n=12, max_m=30):
    n = draw(st.integers(min_value=2, max_value=max_n))
    m = draw(st.integers(min_value=0, max_value=max_m))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            min_size=m,
            max_size=m,
        )
    )
    return n, edges


class TestConstruction:
    def test_simple(self):
        g = CSRGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert g.n == 4
        assert g.num_edges == 3
        assert g.degrees().tolist() == [1, 2, 2, 1]
        assert g.neighbors(1).tolist() == [0, 2]

    def test_dedup_and_self_loops(self):
        g = CSRGraph.from_edges(3, [(0, 1), (1, 0), (0, 1), (2, 2)])
        assert g.num_edges == 1
        assert g.degrees().tolist() == [1, 1, 0]

    def test_empty(self):
        g = CSRGraph.from_edges(5, [])
        assert g.num_edges == 0
        assert g.degrees().tolist() == [0] * 5

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError):
            CSRGraph.from_edges(3, [(0, 3)])
        with pytest.raises(GraphError):
            CSRGraph.from_edges(3, [(-1, 0)])

    def test_bad_indptr_rejected(self):
        with pytest.raises(GraphError):
            CSRGraph(2, np.array([0, 1]), np.array([1]))  # wrong indptr length
        with pytest.raises(GraphError):
            CSRGraph(2, np.array([0, 2, 1]), np.array([1, 0]))  # decreasing

    @given(st.data())
    @settings(max_examples=40)
    def test_symmetry_property(self, data):
        n, edges = random_edge_list(data.draw)
        g = CSRGraph.from_edges(n, edges)
        for u in range(n):
            for v in g.neighbors(u):
                assert g.has_edge(int(v), u)
        # degrees sum to twice edge count
        assert int(g.degrees().sum()) == 2 * g.num_edges


class TestQueries:
    def test_edges_canonical(self):
        g = CSRGraph.from_edges(4, [(3, 1), (0, 2)])
        e = g.edges()
        assert np.all(e[:, 0] < e[:, 1])
        assert sorted(map(tuple, e.tolist())) == [(0, 2), (1, 3)]

    def test_has_edge(self):
        g = CSRGraph.from_edges(3, [(0, 1)])
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert not g.has_edge(0, 2)

    def test_neighbors_out_of_range(self):
        g = CSRGraph.from_edges(3, [(0, 1)])
        with pytest.raises(GraphError):
            g.neighbors(5)

    def test_connected_components(self):
        g = CSRGraph.from_edges(6, [(0, 1), (1, 2), (3, 4)])
        labels = g.connected_components()
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] == labels[4]
        assert labels[0] != labels[3]
        assert labels[5] not in (labels[0], labels[3])


class TestTransforms:
    def test_subgraph(self):
        g = CSRGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        sub, old = g.subgraph(np.array([1, 2, 3]))
        assert sub.n == 3
        assert sub.num_edges == 2
        assert old.tolist() == [1, 2, 3]

    def test_relabel_preserves_structure(self):
        g = CSRGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        perm = np.array([3, 2, 1, 0])
        h = g.relabel(perm)
        assert h.num_edges == g.num_edges
        assert h.has_edge(3, 2) and h.has_edge(1, 0)

    def test_relabel_rejects_non_permutation(self):
        g = CSRGraph.from_edges(3, [(0, 1)])
        with pytest.raises(GraphError):
            g.relabel(np.array([0, 0, 1]))

    def test_networkx_roundtrip(self):
        g = CSRGraph.from_edges(5, [(0, 1), (2, 3), (3, 4)])
        h = CSRGraph.from_networkx(g.to_networkx())
        assert h.n == g.n and h.num_edges == g.num_edges


class TestXorSegmentReduce:
    def test_basic(self):
        vals = np.array([[1, 2], [3, 4], [5, 6], [7, 8]], dtype=np.uint8)
        indptr = np.array([0, 2, 2, 4])
        out = xor_segment_reduce(vals, indptr)
        assert out.tolist() == [[1 ^ 3, 2 ^ 4], [0, 0], [5 ^ 7, 6 ^ 8]]

    def test_trailing_empty_segments(self):
        vals = np.array([[9]], dtype=np.uint8)
        indptr = np.array([0, 1, 1, 1])
        out = xor_segment_reduce(vals, indptr)
        assert out.tolist() == [[9], [0], [0]]

    def test_all_empty(self):
        out = xor_segment_reduce(np.zeros((0, 3), dtype=np.uint8), np.array([0, 0, 0]))
        assert out.shape == (2, 3)
        assert not out.any()

    def test_no_segments(self):
        out = xor_segment_reduce(np.zeros((0, 2), dtype=np.uint8), np.array([0]))
        assert out.shape == (0, 2)

    @pytest.mark.parametrize("nnz,indptr", [
        (0, [0, 2]),  # no values, a segment of two
        (2, [0, 0]),  # values, every segment empty
        (1, [0, 2]),  # fewer values than the segments span
        (4, [0]),  # values, no segment
    ])
    def test_indptr_and_values_must_agree(self, nnz, indptr):
        with pytest.raises(GraphError, match="must equal len"):
            xor_segment_reduce(np.zeros((nnz, 3), dtype=np.uint8), np.array(indptr))

    @given(st.data())
    @settings(max_examples=50)
    def test_matches_naive(self, data):
        n_seg = data.draw(st.integers(min_value=1, max_value=8))
        lens = data.draw(
            st.lists(st.integers(min_value=0, max_value=5), min_size=n_seg, max_size=n_seg)
        )
        indptr = np.concatenate([[0], np.cumsum(lens)]).astype(np.int64)
        nnz = int(indptr[-1])
        vals = np.arange(nnz * 2, dtype=np.uint8).reshape(nnz, 2) * 37 % 251
        out = xor_segment_reduce(vals, indptr)
        for i in range(n_seg):
            seg = vals[indptr[i] : indptr[i + 1]]
            expected = np.bitwise_xor.reduce(seg, axis=0) if len(seg) else np.zeros(2, np.uint8)
            assert np.array_equal(out[i], expected)

    def test_gather_then_reduce_equals_neighbour_xor(self):
        g = CSRGraph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
        vals = np.array([[1], [2], [4], [8]], dtype=np.uint8)
        out = xor_segment_reduce(vals[g.indices], g.indptr)
        assert out[:, 0].tolist() == [2 ^ 4, 1 ^ 4, 1 ^ 2 ^ 8, 4]


# ------------------------------------------------- layouts x widths x empties
LANES = (1, 2, 4, 8, 12, 64)
TRAILING = {
    "lanes": lambda n2: (n2,),  # element state
    "weight_lanes": lambda n2: (3, n2),  # element state with a weight axis
    "planes": lambda n2: (5, (n2 + 63) // 64),  # (m, W) bit-planes
}
LAYOUTS = ("contiguous", "sliced", "transposed")


def _values(rng, nnz, trailing, dtype, layout):
    """Random ``(nnz,) + trailing`` values of ``dtype`` in the given memory
    layout: C-contiguous, every other element of a wider last axis, or a
    transposed view whose row axis is innermost (plane-major style)."""
    hi = int(np.iinfo(dtype).max)
    if layout == "transposed":
        base = rng.integers(0, hi, size=trailing + (nnz,), endpoint=True, dtype=dtype)
        return np.moveaxis(base, -1, 0)
    shape = (nnz,) + trailing
    if layout == "sliced":
        wide = rng.integers(0, hi, size=shape[:-1] + (2 * shape[-1],),
                            endpoint=True, dtype=dtype)
        return wide[..., ::2]
    return rng.integers(0, hi, size=shape, endpoint=True, dtype=dtype)


def _whole_words(values):
    """The rule ``xor_segment_reduce`` widens by, restated from the array."""
    return (values.flags.c_contiguous and values.itemsize < 8
            and values[0].nbytes % 8 == 0)


class TestXorSegmentReduceLayouts:
    """The reduction against a per-row Python XOR loop, for every element
    width, trailing shape, lane count and memory layout the level step
    hands it — with empty rows in every position."""

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("trailing", sorted(TRAILING))
    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint64])
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_matches_python_loop(self, dtype, trailing, layout, data):
        n2 = data.draw(st.sampled_from(LANES), label="n2")
        lens = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=6), label="lens")
        # force empty rows where the repair can go wrong
        for where in data.draw(st.sets(st.sampled_from(["lead", "mid", "trail"])),
                               label="empty"):
            at = {"lead": 0, "mid": len(lens) // 2, "trail": len(lens)}[where]
            lens[at:at] = [0] * data.draw(st.integers(1, 2), label=f"n_{where}")
        indptr = np.concatenate([[0], np.cumsum(lens)]).astype(np.int64)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1), label="seed"))
        values = _values(rng, int(indptr[-1]), TRAILING[trailing](n2), dtype, layout)

        out = xor_segment_reduce(values, indptr)

        assert out.shape == (len(lens),) + values.shape[1:] and out.dtype == dtype
        for i in range(len(lens)):
            expected = np.zeros(values.shape[1:], dtype=dtype)
            for row in values[indptr[i]:indptr[i + 1]]:
                expected ^= row
            assert np.array_equal(out[i], expected), (i, lens)
        if layout == "transposed" and len(values) > 1:
            # the result keeps the input's memory order: rows innermost
            # (a single row has no order to keep)
            assert np.moveaxis(out, 0, -1).flags.c_contiguous

    def test_grid_reaches_both_reductions(self):
        """Which inputs go through the uint64 view is decided by the array
        alone; the grid above has plenty on each side of that rule."""
        rng = np.random.default_rng(0)
        widened = {
            (np.dtype(dtype).name, trailing, n2, layout)
            for dtype in (np.uint8, np.uint16, np.uint64)
            for trailing in TRAILING for n2 in LANES for layout in LAYOUTS
            if _whole_words(_values(rng, 3, TRAILING[trailing](n2), dtype, layout))
        }
        assert ("uint8", "lanes", 64, "contiguous") in widened  # the hot element state
        assert ("uint8", "weight_lanes", 8, "contiguous") in widened
        assert ("uint16", "lanes", 4, "contiguous") in widened
        assert ("uint8", "lanes", 12, "contiguous") not in widened  # 12-byte rows
        assert ("uint8", "lanes", 4, "contiguous") not in widened
        assert not any(layout != "contiguous" or dtype == "uint64"
                       for dtype, _, _, layout in widened)
        assert 10 <= len(widened) <= 3 * 3 * len(LANES) * 3 - 100
