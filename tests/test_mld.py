"""Tests for the generic k-MLD circuit and the verbatim Algorithm 1."""

import numpy as np
import pytest

from repro.core.evaluator_path import path_eval_phase
from repro.core.evaluator_tree import tree_eval_phase
from repro.core.mld import (
    CircuitStep,
    MLDCircuit,
    algorithm1_reference,
    detect_multilinear,
)
from repro.errors import ConfigurationError
from repro.ff.fingerprint import Fingerprint
from repro.graph.csr import CSRGraph
from repro.graph.generators import erdos_renyi, plant_path, plant_tree
from repro.graph.templates import TreeTemplate
from repro.util.rng import RngStream


class TestCircuitConstruction:
    def test_path_circuit_shape(self):
        c = MLDCircuit.k_path(5)
        assert c.k == 5 and c.n_slots == 5 and c.output == 4
        assert len(c.steps) == 4
        assert c.leaves == [(0, 0)]

    def test_tree_circuit_shape(self):
        tmpl = TreeTemplate.binary(7)
        c = MLDCircuit.k_tree(tmpl)
        assert c.k == 7
        # leaves: one per template node; steps: one per composite subtree
        assert len(c.leaves) == 7
        assert len(c.steps) == 6

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MLDCircuit(k=0, n_slots=1, leaves=[(0, 0)], steps=[], output=0, levels=1)
        with pytest.raises(ConfigurationError):
            MLDCircuit(k=2, n_slots=1, leaves=[(5, 0)], steps=[], output=0, levels=2)
        with pytest.raises(ConfigurationError):
            MLDCircuit(k=2, n_slots=2, leaves=[(0, 0)], output=5, levels=2,
                       steps=[CircuitStep(1, None, 0, 1)])
        with pytest.raises(ConfigurationError):
            MLDCircuit(k=2, n_slots=2, leaves=[(0, 0)], output=1, levels=2,
                       steps=[CircuitStep(1, None, 9, 1)])
        # read-before-write and a never-written output are construction errors
        with pytest.raises(ConfigurationError, match="before it is set"):
            MLDCircuit(k=2, n_slots=3, leaves=[(0, 0)], output=2, levels=2,
                       steps=[CircuitStep(2, 1, 0, 1)])
        with pytest.raises(ConfigurationError, match="never written"):
            MLDCircuit(k=2, n_slots=2, leaves=[(0, 0)], output=1, levels=2, steps=[])


class TestCircuitMatchesSpecializedEvaluators:
    def test_path_circuit_bit_identical(self):
        g = erdos_renyi(30, m=70, rng=RngStream(0))
        k = 5
        c = MLDCircuit.k_path(k)
        for seed in range(5):
            fp = Fingerprint.draw(g.n, k, RngStream(seed))
            a = c.eval_phase(g, fp, 0, 8)
            b = path_eval_phase(g, fp, 0, 8)
            assert np.array_equal(a, b)

    def test_tree_circuit_bit_identical(self):
        g = erdos_renyi(25, m=55, rng=RngStream(1))
        tmpl = TreeTemplate.caterpillar(6)
        c = MLDCircuit.k_tree(tmpl)
        for seed in range(5):
            fp = Fingerprint.draw(g.n, 6, RngStream(seed + 10))
            a = c.eval_phase(g, fp, 0, 16)
            b = tree_eval_phase(g, tmpl, fp, 0, 16)
            assert np.array_equal(a, b)


class TestCircuitSPMD:
    @pytest.mark.parametrize("n_parts", [1, 2, 4])
    def test_path_circuit_parallel_bit_identical(self, n_parts):
        from _leveldp_drivers import assert_drivers_agree
        from repro.graph.partition import random_partition

        g = erdos_renyi(22, m=45, rng=RngStream(30))
        k = 4
        c = MLDCircuit.k_path(k)
        fp = Fingerprint.draw(g.n, k, RngStream(31))
        expected = np.bitwise_xor.reduce(c.eval_phase(g, fp, 0, 8))
        p = random_partition(g, n_parts, rng=RngStream(32))
        assert_drivers_agree(g, c.recurrence(), fp, 0, 8, p, expected=expected)

    def test_tree_circuit_parallel_bit_identical(self):
        from _leveldp_drivers import assert_drivers_agree
        from repro.graph.partition import random_partition

        g = erdos_renyi(18, m=40, rng=RngStream(33))
        tmpl = TreeTemplate.star(4)
        c = MLDCircuit.k_tree(tmpl)
        fp = Fingerprint.draw(g.n, 4, RngStream(34))
        expected = np.bitwise_xor.reduce(c.eval_phase(g, fp, 0, 4))
        p = random_partition(g, 3, rng=RngStream(35))
        assert_drivers_agree(g, c.recurrence(), fp, 0, 4, p, expected=expected)


class TestDetectMultilinear:
    def test_planted_path_found(self):
        g, _ = plant_path(erdos_renyi(40, m=45, rng=RngStream(2)), 6, rng=RngStream(3))
        assert detect_multilinear(g, MLDCircuit.k_path(6), eps=0.02, rng=RngStream(4))

    def test_absent_structure_never_found(self):
        star = CSRGraph.from_edges(10, [(0, i) for i in range(1, 10)])
        for s in range(6):
            assert not detect_multilinear(
                star, MLDCircuit.k_path(4), eps=0.3, rng=RngStream(s)
            )

    def test_tree_circuit_detection(self):
        tmpl = TreeTemplate.star(5)
        g, _ = plant_tree(erdos_renyi(30, m=35, rng=RngStream(5)), tmpl, rng=RngStream(6))
        assert detect_multilinear(g, MLDCircuit.k_tree(tmpl), eps=0.02, rng=RngStream(7))

    def test_bad_n2_rejected(self):
        g = erdos_renyi(10, m=15, rng=RngStream(8))
        with pytest.raises(ConfigurationError):
            detect_multilinear(g, MLDCircuit.k_path(3), n2=3)


class TestAlgorithm1Reference:
    def test_path_graph_single_witness(self):
        """A bare k-path graph has exactly one k-path ending at vertex 0;
        Algorithm 1 (directed at 0) returns 2^k when the drawn vectors are
        independent — with probability > 0.288 per round."""
        k = 4
        g = CSRGraph.from_edges(k, [(i, i + 1) for i in range(k - 1)])
        hits = 0
        for s in range(30):
            val = algorithm1_reference(g, k, rng=RngStream(s), directed_from=0)
            assert val in (0, 1 << k)  # single witness: all or nothing
            hits += val != 0
        assert hits >= 4  # ~0.289 * 30 ~ 8.7 expected; huge slack

    def test_no_instance_always_zero(self):
        star = CSRGraph.from_edges(6, [(0, i) for i in range(1, 6)])
        for s in range(10):
            assert algorithm1_reference(star, 4, rng=RngStream(s)) == 0

    def test_undirected_reversal_cancellation(self):
        """The documented gap: undirected totals cancel path + reverse, so
        the bare-path graph sums to 0 mod 2^(k+1) despite the witness —
        the reason the production code carries GF(2^l) coefficients."""
        k = 4
        g = CSRGraph.from_edges(k, [(i, i + 1) for i in range(k - 1)])
        for s in range(10):
            assert algorithm1_reference(g, k, rng=RngStream(s)) == 0

    def test_k_bounds(self):
        g = CSRGraph.from_edges(2, [(0, 1)])
        with pytest.raises(ConfigurationError):
            algorithm1_reference(g, 0)
        with pytest.raises(ConfigurationError):
            algorithm1_reference(g, 25)
