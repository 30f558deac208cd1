"""Tests for per-rank halo views: structure, exchange lists, consistency."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _leveldp_drivers import partition_with_empty_rank
from repro.core.halo import build_halo_views
from repro.graph.csr import CSRGraph
from repro.graph.generators import erdos_renyi, grid2d
from repro.graph.partition import make_partition, random_partition
from repro.util.rng import RngStream


def check_views(graph, partition):
    views = build_halo_views(graph, partition)
    assert len(views) == partition.n_parts

    # 1. own sets partition the vertices
    all_own = np.concatenate([v.own for v in views])
    assert sorted(all_own.tolist()) == list(range(graph.n))

    # 2. local CSR reconstructs the global adjacency
    for v in views:
        local_ids = np.concatenate([v.own, v.ghost]) if v.n_ghost else v.own
        for li, g_id in enumerate(v.own):
            local_nbrs = v.indices[v.indptr[li] : v.indptr[li + 1]]
            global_nbrs = sorted(local_ids[local_nbrs].tolist())
            assert global_nbrs == sorted(graph.neighbors(int(g_id)).tolist())

    # 3. send/recv lists are symmetric and aligned: what rank a sends to b
    #    lands exactly on b's ghost slots for a, in the same global order
    for a in views:
        for peer, send_idx in a.send_lists.items():
            b = views[peer]
            recv_idx = b.recv_lists[a.rank]
            assert len(send_idx) == len(recv_idx)
            sent_globals = a.own[send_idx]
            landed_globals = b.ghost[recv_idx]
            assert np.array_equal(sent_globals, landed_globals)

    # 4. ghosts are exactly the off-part neighbours
    for v in views:
        expected = set()
        for g_id in v.own:
            for u in graph.neighbors(int(g_id)):
                if partition.owner[u] != v.rank:
                    expected.add(int(u))
        assert set(v.ghost.tolist()) == expected
    return views


class TestHaloStructure:
    @pytest.mark.parametrize("method", ["random", "block", "bfs", "greedy"])
    def test_er_graph_all_partitioners(self, method):
        g = erdos_renyi(80, m=200, rng=RngStream(0))
        p = make_partition(g, 5, method, rng=RngStream(1))
        check_views(g, p)

    def test_grid(self):
        g = grid2d(8, 8)
        p = make_partition(g, 4, "block")
        views = check_views(g, p)
        # a block partition of a grid has modest boundaries
        assert all(v.boundary_out_entries() <= v.n_own for v in views)

    def test_single_part_no_ghosts(self):
        g = erdos_renyi(40, m=80, rng=RngStream(2))
        p = make_partition(g, 1, "block")
        (v,) = build_halo_views(g, p)
        assert v.n_ghost == 0
        assert not v.send_lists and not v.recv_lists
        assert v.peers == []

    def test_disconnected_graph(self):
        g = CSRGraph.from_edges(6, [(0, 1), (2, 3)])  # vertices 4, 5 isolated
        p = random_partition(g, 3, rng=RngStream(3))
        check_views(g, p)

    @given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=20, deadline=None)
    def test_property_random_graphs(self, n_parts, seed):
        g = erdos_renyi(30, m=60, rng=RngStream(seed))
        p = random_partition(g, min(n_parts, g.n), rng=RngStream(seed + 1))
        check_views(g, p)


class TestHaloExchangeSemantics:
    def test_scatter_gather_reconstructs_global_state(self):
        """Simulate one halo exchange by hand and verify ghosts match."""
        g = erdos_renyi(50, m=120, rng=RngStream(7))
        p = random_partition(g, 4, rng=RngStream(8))
        views = build_halo_views(g, p)
        state = np.arange(g.n, dtype=np.int64) * 13 + 1  # global per-vertex value

        # each rank's outgoing buffers
        outboxes = {}
        for v in views:
            local = state[v.own]
            for peer, idxs in v.send_lists.items():
                outboxes[(v.rank, peer)] = local[idxs]
        # deliver and scatter
        for v in views:
            ghost_vals = np.zeros(v.n_ghost, dtype=np.int64)
            for peer, slots in v.recv_lists.items():
                ghost_vals[slots] = outboxes[(peer, v.rank)]
            assert np.array_equal(ghost_vals, state[v.ghost])


# ------------------------------------------- the per-rank/peer construction
def _looped_views(graph, partition):
    """The views built one rank and one peer at a time — the construction
    the array version replaced, kept as its reference."""
    p, owner = partition.n_parts, partition.owner
    e = graph.edges()
    ou, ov = owner[e[:, 0]], owner[e[:, 1]]
    cut = ou != ov
    send_v = np.concatenate([e[cut, 0], e[cut, 1]])
    send_to = np.concatenate([ov[cut], ou[cut]])
    if len(send_v):
        uniq = np.unique(send_v * p + send_to)
        send_v, send_to = uniq // p, uniq % p
    views = []
    for r in range(p):
        own = partition.part_nodes(r)
        pos = -np.ones(graph.n, dtype=np.int64)
        pos[own] = np.arange(len(own))
        ghost = np.sort(send_v[send_to == r])
        pos[ghost] = len(own) + np.arange(len(ghost))
        deg = graph.indptr[own + 1] - graph.indptr[own]
        indptr = np.zeros(len(own) + 1, dtype=np.int64)
        np.cumsum(deg, out=indptr[1:])
        cols = np.empty(indptr[-1], dtype=np.int64)
        for li, g_id in enumerate(own):
            cols[indptr[li]:indptr[li + 1]] = graph.indices[
                graph.indptr[g_id]:graph.indptr[g_id + 1]]
        mine = owner[send_v] == r
        sv, st_ = send_v[mine], send_to[mine]
        send = {int(q): pos[np.sort(sv[st_ == q])] for q in np.unique(st_)}
        gv = send_v[send_to == r]
        gfrom = owner[gv]
        recv = {int(q): pos[np.sort(gv[gfrom == q])] - len(own) for q in np.unique(gfrom)}
        views.append((own, ghost, indptr, pos[cols], send, recv))
    return views


@pytest.mark.parametrize("empty_rank", [None, 0, 3, 5])
def test_views_equal_the_looped_construction_array_for_array(empty_rank):
    g = erdos_renyi(120, m=300, rng=RngStream(11))
    p = (random_partition(g, 6, rng=RngStream(12)) if empty_rank is None
         else partition_with_empty_rank(g, 6, empty_rank, seed=13))
    for v, (own, ghost, indptr, indices, send, recv) in zip(
            build_halo_views(g, p), _looped_views(g, p), strict=True):
        for got, want in ((v.own, own), (v.ghost, ghost), (v.indptr, indptr),
                          (v.indices, indices)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        for got, want in ((v.send_lists, send), (v.recv_lists, recv)):
            assert list(got) == list(want)  # the same peers, in the same order
            for peer in want:
                assert got[peer].dtype == want[peer].dtype
                assert np.array_equal(got[peer], want[peer])
    if empty_rank is not None:
        assert build_halo_views(g, p)[empty_rank].n_own == 0
