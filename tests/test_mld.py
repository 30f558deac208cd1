"""Tests for the k-MLD circuit — the one problem abstraction — and the
verbatim Algorithm 1."""

import numpy as np
import pytest

from _leveldp_drivers import ElementLanes, element_lanes
from _reference_recurrences import (
    path_recurrence,
    scan_row_cells,
    tree_recurrence,
    weighted_path_cells,
)
from repro.core.leveldp import Lanes, run_whole_graph
from repro.core.problems import compile
from repro.core.mld import (
    CircuitStep,
    MLDCircuit,
    algorithm1_reference,
    detect_multilinear,
)
from repro.errors import ConfigurationError
from repro.ff.fingerprint import Fingerprint
from repro.ff.gf2m import default_field_for_k
from repro.graph.csr import CSRGraph
from repro.graph.generators import erdos_renyi, plant_path, plant_tree
from repro.graph.templates import TreeTemplate
from repro.util.rng import RngStream


class TestCircuitConstruction:
    def test_path_circuit_shape(self):
        c = MLDCircuit.k_path(5)
        assert c.k == 5 and c.n_slots == 5 and c.outputs == (4,)
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
            MLDCircuit(k=0, n_slots=1, leaves=[(0, 0)], steps=[], outputs=(0,), levels=1)
        with pytest.raises(ConfigurationError):
            MLDCircuit(k=2, n_slots=1, leaves=[(5, 0)], steps=[], outputs=(0,), levels=2)
        with pytest.raises(ConfigurationError):
            MLDCircuit(k=2, n_slots=2, leaves=[(0, 0)], outputs=(5,), levels=2,
                       steps=[CircuitStep(1, None, 0, 1)])
        with pytest.raises(ConfigurationError):
            MLDCircuit(k=2, n_slots=2, leaves=[(0, 0)], outputs=(1,), levels=2,
                       steps=[CircuitStep(1, None, 9, 1)])
        # read-before-write and a never-written output are construction errors
        with pytest.raises(ConfigurationError, match="before it is set"):
            MLDCircuit(k=2, n_slots=3, leaves=[(0, 0)], outputs=(2,), levels=2,
                       steps=[CircuitStep(2, 1, 0, 1)])
        with pytest.raises(ConfigurationError, match="never written"):
            MLDCircuit(k=2, n_slots=2, leaves=[(0, 0)], outputs=(1,), levels=2, steps=[])
        # an output of more vertex variables than the run has dimensions
        with pytest.raises(ConfigurationError, match="more than k"):
            MLDCircuit(k=1, n_slots=2, leaves=[(0, 0)], outputs=(0, 1), levels=2,
                       steps=[CircuitStep(1, None, 0, 1)])


class TestCircuitMatchesSpecializedEvaluators:
    def test_path_circuit_bit_identical(self):
        g = erdos_renyi(30, m=70, rng=RngStream(0))
        k = 5
        c = MLDCircuit.k_path(k)
        for seed in range(5):
            fp = Fingerprint.draw(g.n, k, RngStream(seed))
            a = run_whole_graph(g, c.recurrence(), fp, 0, 8)
            b = run_whole_graph(g, path_recurrence(k), fp, 0, 8)
            assert np.array_equal(a, b)

    def test_tree_circuit_bit_identical(self):
        g = erdos_renyi(25, m=55, rng=RngStream(1))
        tmpl = TreeTemplate.caterpillar(6)
        c = MLDCircuit.k_tree(tmpl)
        for seed in range(5):
            fp = Fingerprint.draw(g.n, 6, RngStream(seed + 10))
            a = run_whole_graph(g, c.recurrence(), fp, 0, 16)
            b = run_whole_graph(g, tree_recurrence(tmpl), fp, 0, 16)
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
        expected = np.bitwise_xor.reduce(run_whole_graph(g, c.recurrence(), fp, 0, 8)[0])
        p = random_partition(g, n_parts, rng=RngStream(32))
        assert_drivers_agree(g, c.recurrence(), fp, 0, 8, p, expected=expected)

    def test_tree_circuit_parallel_bit_identical(self):
        from _leveldp_drivers import assert_drivers_agree
        from repro.graph.partition import random_partition

        g = erdos_renyi(18, m=40, rng=RngStream(33))
        tmpl = TreeTemplate.star(4)
        c = MLDCircuit.k_tree(tmpl)
        fp = Fingerprint.draw(g.n, 4, RngStream(34))
        expected = np.bitwise_xor.reduce(run_whole_graph(g, c.recurrence(), fp, 0, 4)[0])
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


class _Recording:
    """A lane layout that writes down every operation asked of it."""

    def __init__(self, lanes, log):
        self._lanes, self._log = lanes, log

    def __getattr__(self, name):
        op = getattr(self._lanes, name)

        def call(*args, **kw):
            self._log.append((name, *[np.shape(a) if isinstance(a, np.ndarray) else a
                                      for a in args], *sorted(kw.items())))
            return op(*args, **kw)

        return call


def _transcript(recurrence, lanes):
    """Drive ``recurrence`` with a stand-in neighbour sum (each row XOR the
    one before it); returns every lane op and yielded state, in order, and
    the result."""
    log, states = [], []
    gen = recurrence(_Recording(lanes, log))
    acc = None
    try:
        while True:
            state = gen.send(acc)
            log.append(("yield", state.shape))
            states.append(state.copy())
            acc = state ^ np.roll(state, 1, axis=0)
    except StopIteration as stop:
        return log, states, stop.value


class TestInterpreterMatchesTheReplacedRecurrences:
    """The unweighted builders' circuits issue the lane operations the
    hand-written recurrence of their kind issued and yield the same states
    in the same order — so values, halo messages and virtual clocks cannot
    move; the weighted builders' circuits give the paper's weight-axis
    DPs' values."""

    W = RngStream(40).integers(0, 3, size=14)

    @pytest.mark.parametrize("layout", ["elements", "planes"])
    @pytest.mark.parametrize("kind", ["k-path", "k-tree"])
    def test_same_ops_same_yields(self, kind, layout):
        circuit, reference = {
            "k-path": (MLDCircuit.k_path(5), path_recurrence(5)),
            "k-tree": (MLDCircuit.k_tree(TreeTemplate.binary(6)),
                       tree_recurrence(TreeTemplate.binary(6))),
        }[kind]
        planes = layout == "planes"
        field = default_field_for_k(circuit.y_degree,
                                    kernel_strategy="bitsliced" if planes else None)
        fp = Fingerprint.draw(len(self.W), circuit.k, RngStream(41),
                              levels=circuit.levels, field=field)
        lanes = (Lanes if planes else ElementLanes)(fp, 8, 64)
        got_log, got_states, got = _transcript(circuit.recurrence(), lanes)
        ref_log, ref_states, ref = _transcript(reference, lanes)
        assert got_log == ref_log
        assert len(got_states) == len(ref_states) == circuit.k - 1
        for a, b in zip(got_states, ref_states):
            assert np.array_equal(a, b)
        # one output each, of k variables
        ((got_state, got_vars),), ((ref_state, ref_vars),) = got, ref
        assert got_vars == ref_vars == circuit.k
        assert np.array_equal(got_state, ref_state)


    @pytest.mark.parametrize("layout", ["elements", "planes"])
    @pytest.mark.parametrize("kind", ["weighted-path", "scan-row"])
    def test_oracle_values(self, kind, layout):
        """On a path graph every window is exact (``k w_max <= D``), so each
        window's cells, and each lane's, are the truncated-convolution DP's."""
        g = CSRGraph.from_edges(len(self.W), [(i, i + 1) for i in range(len(self.W) - 1)])
        circuit, oracle = {
            "weighted-path": (MLDCircuit.weighted_path(self.W, 4, 5),
                              lambda fp, q0, n2: weighted_path_cells(
                                  g, self.W, fp, 5, q0, n2)),
            "scan-row": (MLDCircuit.scan_row(self.W, 4, 5),
                         lambda fp, q0, n2: scan_row_cells(g, self.W, fp, 4, 5, q0, n2)),
        }[kind]
        assert circuit.k * self.W.max() <= circuit.weight_degree
        spec = compile(circuit, default_field_for_k(circuit.y_degree))
        fp = spec.draw_fingerprint(len(self.W), RngStream(41))
        for q0, n2 in ((0, 16), (3, 5)):
            if layout == "planes":
                per_lane = run_whole_graph(g, spec.recurrence, fp, q0, n2, spec.points)
            else:
                per_lane = element_lanes(g, spec.recurrence, fp, q0, n2, spec.points)
            # the last output: the weighted path's one, the scan's row 4
            got = spec.points.cells(per_lane[-1].reshape(spec.points.count, n2).T).T
            assert np.array_equal(got, oracle(fp, q0, n2))


class TestCircuitOnEveryBackend:
    def test_a_stated_circuit_runs_identically_on_every_backend(self):
        """A circuit no builder makes (``SPIDER``) compiles and runs on the
        sequential, threaded, process and simulated backends alike."""
        from _leveldp_drivers import SPIDER
        from repro.core.engine import DetectionEngine, MidasRuntime
        from repro.core.problems import compile
        from repro.obs.metrics import MetricsRegistry

        g = erdos_renyi(30, m=60, rng=RngStream(42))
        values = {}
        for mode, extra in [("sequential", {}), ("threaded", {"workers": 2}),
                            ("process", {"workers": 2}),
                            ("simulated", {"n_processors": 4, "n1": 4})]:
            rt = MidasRuntime(mode=mode, metrics=MetricsRegistry(), **extra)
            with DetectionEngine(g, rt, SPIDER.name) as engine:
                out = engine.run_stage(compile(SPIDER), 3, RngStream(43))
            values[mode] = out.values
        assert any(values["sequential"])  # ER(30, 60) has 5-node spiders
        assert all(v == values["sequential"] for v in values.values()), values
