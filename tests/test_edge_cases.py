"""Edge cases across modules: empty ranks, tiny graphs, degenerate inputs."""

import numpy as np
import pytest

from repro.core.evaluator_path import path_phase_value
from repro.core.halo import build_halo_views
from repro.core.leveldp import phase_program
from repro.core.midas import MidasRuntime, detect_path, detect_tree, scan_grid
from repro.core.mld import MLDCircuit
from repro.ff.fingerprint import Fingerprint
from repro.graph.csr import CSRGraph
from repro.graph.generators import erdos_renyi
from repro.graph.partition import Partition
from repro.graph.templates import TreeTemplate
from repro.runtime.scheduler import Simulator
from repro.util.rng import RngStream


class TestEmptyRank:
    def test_rank_with_no_vertices_participates(self):
        """A custom partition leaving rank 2 empty must still work: empty
        ranks exchange nothing but join the final all-reduce."""
        g = erdos_renyi(12, m=24, rng=RngStream(0))
        owner = np.array([0, 1] * 6, dtype=np.int64)  # ranks 0,1 only
        p = Partition(g, owner, 3)  # rank 2 is empty
        views = build_halo_views(g, p)
        assert views[2].n_own == 0
        fp = Fingerprint.draw(g.n, 4, RngStream(1))
        expected = path_phase_value(g, fp, 0, 4)
        res = Simulator(3, trace=False).run(
            phase_program(views, MLDCircuit.k_path(4).recurrence(), fp, 0, 4)
        )
        assert all(r == expected for r in res.results)


class TestTinyGraphs:
    def test_single_vertex_graph(self):
        g = CSRGraph.from_edges(1, [])
        res = detect_path(g, 1, eps=0.05, rng=RngStream(2))
        assert res.found  # a 1-path is a vertex

    def test_single_edge_k2(self):
        g = CSRGraph.from_edges(2, [(0, 1)])
        res = detect_path(g, 2, eps=0.01, rng=RngStream(3))
        assert res.found

    def test_edgeless_graph_k2(self):
        g = CSRGraph.from_edges(5, [])
        for s in range(5):
            assert not detect_path(g, 2, eps=0.2, rng=RngStream(s)).found

    def test_tree_template_single_node(self):
        g = CSRGraph.from_edges(3, [(0, 1)])
        res = detect_tree(g, TreeTemplate(1, []), eps=0.05, rng=RngStream(4))
        assert res.found

    def test_scan_grid_all_zero_weights(self):
        g = CSRGraph.from_edges(3, [(0, 1), (1, 2)])
        res = scan_grid(g, np.zeros(3, dtype=np.int64), k=2, eps=0.05,
                        rng=RngStream(5))
        # only weight-0 cells can appear
        for j, z in res.feasible_cells():
            assert z == 0


class TestExtremeDecompositions:
    def test_n1_equals_n_vertices(self):
        """One vertex per rank: the most fragmented decomposition."""
        g = erdos_renyi(6, m=9, rng=RngStream(6))
        seq = detect_path(g, 3, eps=0.3, rng=RngStream(7), early_exit=False)
        sim = detect_path(
            g, 3, eps=0.3, rng=RngStream(7), early_exit=False,
            runtime=MidasRuntime(n_processors=6, n1=6, n2=2, mode="simulated"),
        )
        assert [r.value for r in seq.rounds] == [r.value for r in sim.rounds]

    def test_n2_equals_full_iteration_space(self):
        g = erdos_renyi(10, m=20, rng=RngStream(8))
        rt = MidasRuntime(n_processors=2, n1=2, n2=16, mode="simulated")
        seq = detect_path(g, 4, eps=0.3, rng=RngStream(9), early_exit=False)
        sim = detect_path(g, 4, eps=0.3, rng=RngStream(9), early_exit=False, runtime=rt)
        assert [r.value for r in seq.rounds] == [r.value for r in sim.rounds]

    def test_n2_one(self):
        g = erdos_renyi(10, m=20, rng=RngStream(10))
        rt = MidasRuntime(n_processors=2, n1=2, n2=1, mode="simulated")
        seq = detect_path(g, 3, eps=0.3, rng=RngStream(11), early_exit=False)
        sim = detect_path(g, 3, eps=0.3, rng=RngStream(11), early_exit=False, runtime=rt)
        assert [r.value for r in seq.rounds] == [r.value for r in sim.rounds]


class TestSelfConsistency:
    def test_detection_unaffected_by_isolated_vertices(self):
        """Adding isolated vertices must not change what exists (the
        witness-peeling masking relies on this)."""
        g = erdos_renyi(15, m=30, rng=RngStream(12))
        padded = CSRGraph.from_edges(25, g.edges())
        a = detect_path(g, 4, eps=0.05, rng=RngStream(13)).found
        b = detect_path(padded, 4, eps=0.05, rng=RngStream(14)).found
        assert a == b

    def test_duplicate_edges_harmless(self):
        e = [(0, 1), (1, 2), (0, 1), (2, 3)]
        g = CSRGraph.from_edges(4, e)
        assert detect_path(g, 4, eps=0.01, rng=RngStream(15)).found
