"""Tests for the weighted k-path variant and single-cell scan detection."""

import itertools

import numpy as np
import pytest

from repro.core.evaluator_wpath import weighted_path_eval_phase
from repro.core.midas import detect_scan_cell, max_weight_path, scan_grid
from repro.errors import ConfigurationError
from repro.ff.fingerprint import Fingerprint
from repro.graph.csr import CSRGraph
from repro.graph.generators import erdos_renyi, grid2d, plant_path
from repro.util.rng import RngStream


def brute_force_max_weight_path(graph: CSRGraph, k: int, w: np.ndarray):
    """Exhaustive maximum node-weight of a simple k-path; None if absent."""
    best = None

    def dfs(path, total):
        nonlocal best
        if len(path) == k:
            best = total if best is None else max(best, total)
            return
        for u in graph.neighbors(path[-1]):
            u = int(u)
            if u not in path:
                dfs(path + [u], total + int(w[u]))

    for s in range(graph.n):
        dfs([s], int(w[s]))
    return best


class TestWeightedPathEvaluator:
    def test_output_shape(self):
        g = grid2d(3, 3)
        w = np.arange(9, dtype=np.int64) % 3
        fp = Fingerprint.draw(9, 3, RngStream(0))
        out = weighted_path_eval_phase(g, w, fp, z_max=6, q_start=0, n2=4)
        assert out.shape == (7, 4)

    def test_k1_reports_node_weights(self):
        g = CSRGraph.from_edges(3, [(0, 1), (1, 2)])
        w = np.array([2, 5, 2], dtype=np.int64)
        hit = set()
        for s in range(20):
            fp = Fingerprint.draw(3, 1, RngStream(s))
            vals = weighted_path_eval_phase(g, w, fp, z_max=7, q_start=0, n2=2)
            per_z = np.bitwise_xor.reduce(vals, axis=1)
            hit |= set(np.nonzero(per_z)[0].tolist())
        assert hit <= {2, 5}
        assert {2, 5} <= hit

    def test_validation(self):
        g = grid2d(2, 2)
        fp = Fingerprint.draw(4, 2, RngStream(1))
        with pytest.raises(ConfigurationError):
            weighted_path_eval_phase(g, np.array([-1, 0, 0, 0]), fp, 3, 0, 2)
        with pytest.raises(ConfigurationError):
            weighted_path_eval_phase(g, np.ones(3, dtype=np.int64), fp, 3, 0, 2)
        with pytest.raises(ConfigurationError):
            weighted_path_eval_phase(g, np.ones(4, dtype=np.int64), fp, -1, 0, 2)


class TestMaxWeightPath:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force(self, seed):
        g = erdos_renyi(14, m=20, rng=RngStream(seed))
        w = RngStream(seed + 100).integers(0, 4, size=g.n)
        k = 4
        truth = brute_force_max_weight_path(g, k, w)
        got = max_weight_path(g, k, w, eps=0.02, rng=RngStream(seed + 200))
        if truth is None:
            assert got is None
        else:
            # one-sided per cell: got <= truth always; equality w.h.p.
            assert got is not None
            assert got <= truth
            assert got == truth  # eps=0.02 across 6 seeds: misses are rare

    def test_planted_heavy_path(self):
        g = erdos_renyi(40, m=45, rng=RngStream(10))
        g2, nodes = plant_path(g, 5, rng=RngStream(11))
        w = np.zeros(g2.n, dtype=np.int64)
        w[nodes] = 3  # the planted path is the heaviest possible
        got = max_weight_path(g2, 5, w, eps=0.02, rng=RngStream(12))
        assert got == 15

    def test_no_path_returns_none(self):
        star = CSRGraph.from_edges(8, [(0, i) for i in range(1, 8)])
        assert max_weight_path(star, 4, np.ones(8, dtype=np.int64),
                               eps=0.05, rng=RngStream(13)) is None

    def test_k_too_large(self):
        g = grid2d(2, 2)
        assert max_weight_path(g, 9, np.ones(4, dtype=np.int64)) is None

    def test_validation(self):
        g = grid2d(2, 2)
        with pytest.raises(ConfigurationError):
            max_weight_path(g, 2, np.ones(3, dtype=np.int64))
        with pytest.raises(ConfigurationError):
            max_weight_path(g, 2, -np.ones(4, dtype=np.int64))


class TestWeightedPathParallel:
    @pytest.mark.parametrize("n_parts", [1, 2, 4])
    def test_spmd_program_bit_identical(self, n_parts):
        from _leveldp_drivers import assert_drivers_agree, circuit_value
        from repro.core.mld import MLDCircuit
        from repro.graph.partition import random_partition

        g = erdos_renyi(18, m=35, rng=RngStream(70))
        w = RngStream(71).integers(0, 4, size=g.n)
        fp = Fingerprint.draw(g.n, 4, RngStream(72))
        p = random_partition(g, n_parts, rng=RngStream(73))
        circuit = MLDCircuit.weighted_path(w, 4, 8)
        assert_drivers_agree(g, circuit.recurrence(), fp, 0, 4, p,
                             expected=circuit_value(g, circuit, fp, 0, 4),
                             points=circuit.points(fp.field))

    def test_simulated_mode_matches_sequential(self):
        from repro.core.midas import MidasRuntime

        g = erdos_renyi(20, m=40, rng=RngStream(80))
        w = RngStream(81).integers(0, 3, size=g.n)
        seq = max_weight_path(g, 3, w, eps=0.2, rng=RngStream(82))
        par = max_weight_path(
            g, 3, w, eps=0.2, rng=RngStream(82),
            runtime=MidasRuntime(n_processors=4, n1=2, n2=2, mode="simulated"),
        )
        assert seq == par


class TestDetectScanCell:
    def test_agrees_with_grid(self):
        g = grid2d(3, 3)
        w = np.array([1, 0, 2, 0, 1, 0, 3, 0, 1], dtype=np.int64)
        grid = scan_grid(g, w, k=3, eps=0.02, rng=RngStream(20))
        for j, z in itertools.product(range(1, 4), range(0, 5)):
            cell = detect_scan_cell(g, w, j, z, eps=0.02, rng=RngStream(21 + j * 10 + z))
            if cell:
                assert grid.detected[j, z], f"cell ({j},{z}) claimed but grid disagrees"

    def test_true_cell_found(self):
        g = CSRGraph.from_edges(2, [(0, 1)])
        w = np.array([2, 3], dtype=np.int64)
        assert detect_scan_cell(g, w, 2, 5, eps=0.02, rng=RngStream(30))

    def test_impossible_cell_never_found(self):
        g = CSRGraph.from_edges(2, [(0, 1)])
        w = np.array([2, 3], dtype=np.int64)
        for s in range(8):
            assert not detect_scan_cell(g, w, 2, 4, eps=0.3, rng=RngStream(40 + s))

    def test_degenerate_args(self):
        g = grid2d(2, 2)
        w = np.ones(4, dtype=np.int64)
        assert not detect_scan_cell(g, w, 0, 1)
        assert not detect_scan_cell(g, w, 9, 1)
        assert not detect_scan_cell(g, w, 2, -1)


class TestScanGridOneRun:
    def test_every_row_from_one_run(self):
        """Unit weights: row ``j`` of the one run holds weight ``j`` alone."""
        g = grid2d(3, 3)
        w = np.ones(9, dtype=np.int64)
        res = scan_grid(g, w, k=3, eps=0.05, rng=RngStream(50))
        assert res.detected.tolist() == [[j == z > 0 for z in range(4)]
                                         for j in range(4)]
