"""Tests for the analytic performance model and witness extraction."""

import numpy as np
import pytest

from repro.core.halo import build_halo_views
from repro.core.leveldp import phase_program
from repro.core.midas import detect_path
from repro.core.mld import MLDCircuit
from repro.core.model import PartitionStats, PerformanceEstimate, estimate_runtime
from repro.core.schedule import PhaseSchedule
from repro.core.witness import extract_witness
from repro.errors import ConfigurationError, DetectionError
from repro.ff.fingerprint import Fingerprint
from repro.graph.generators import erdos_renyi, grid2d, miami_like, plant_path
from repro.graph.partition import make_partition, random_partition
from repro.runtime.cluster import juliet
from repro.runtime.costmodel import KernelCalibration
from repro.runtime.scheduler import Simulator
from repro.util.rng import RngStream


@pytest.fixture(scope="module")
def calib():
    return KernelCalibration.synthetic()


@pytest.fixture(scope="module")
def cm():
    return juliet().cost_model(512)


class TestPartitionStats:
    def test_from_partition(self):
        g = erdos_renyi(60, m=150, rng=RngStream(0))
        p = random_partition(g, 4, rng=RngStream(1))
        s = PartitionStats.from_partition(p)
        assert s.n == 60 and s.m == 150 and s.n1 == 4
        assert s.max_load == p.max_load
        assert s.max_deg == p.max_degree

    def test_random_model_close_to_actual(self):
        g = erdos_renyi(2000, m=20000, rng=RngStream(2))
        p = random_partition(g, 8, rng=RngStream(3))
        model = PartitionStats.random_model(2000, 20000, 8)
        actual = PartitionStats.from_partition(p)
        assert abs(model.max_load - actual.max_load) / actual.max_load < 0.15
        assert abs(model.max_deg - actual.max_deg) / actual.max_deg < 0.15

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            PartitionStats.random_model(4, 10, 8)
        with pytest.raises(ConfigurationError):
            PartitionStats(0, 1, 1, 1, 1, 1)


class TestEstimateRuntime:
    def _estimate(self, calib, cm, n=100_000, m=1_400_000, k=10, N=512, n1=32, n2=None):
        if n2 is None:
            n2 = PhaseSchedule.bs_max(k, N, n1)
        sched = PhaseSchedule(k, N, n1, n2)
        stats = PartitionStats.random_model(n, m, n1)
        return estimate_runtime(stats, sched, calib, cm)

    def test_positive_and_decomposed(self, calib, cm):
        est = self._estimate(calib, cm)
        assert est.total_seconds > 0
        assert est.total_seconds == pytest.approx(
            est.compute_seconds + est.comm_seconds, rel=1e-9
        )
        assert 0 <= est.comm_fraction <= 1
        assert est.memory_bytes_per_rank > 0

    def test_runtime_doubles_with_k_increment(self, calib, cm):
        """Section VI: running time grows as 2^k (at a fixed batch width —
        BSMax grows with k and its amortization would mask the doubling)."""
        t = [self._estimate(calib, cm, k=k, n2=16).total_seconds for k in (8, 9, 10)]
        assert 1.6 < t[1] / t[0] < 2.8
        assert 1.6 < t[2] / t[1] < 2.8

    def test_runtime_linear_in_graph_size(self, calib, cm):
        t1 = self._estimate(calib, cm, n=50_000, m=700_000).total_seconds
        t2 = self._estimate(calib, cm, n=100_000, m=1_400_000).total_seconds
        assert 1.5 < t2 / t1 < 2.6

    def test_interior_optimal_n1_exists(self, calib, cm):
        """The paper's central observation (Figs 3-8): the best N1 is
        strictly between pure iteration parallelism (N1=1) and pure vertex
        parallelism (N1=N).  The regime is 2^k < N — the paper's worked
        example is k=6 with N=128..512 — where N1=1 cannot engage all
        processors (too few iterations) and N1=N drowns in communication."""
        k, N = 6, 512
        times = {}
        for n1 in (1, 2, 4, 8, 16, 32, 64, 128, 256, 512):
            times[n1] = self._estimate(calib, cm, k=k, N=N, n1=n1, n2=1).total_seconds
        best = min(times, key=times.get)
        assert 1 < best < 512, f"optimum at boundary: {times}"
        # and the curve actually dips: the optimum clearly beats both ends
        assert times[best] < 0.8 * times[1]
        assert times[best] < 0.8 * times[512]

    def test_batching_reduces_time(self, calib, cm):
        """BSMax vs BS1 (Figs 6-8): larger N2 must help."""
        t_bs1 = self._estimate(calib, cm, n1=32, n2=1).total_seconds
        t_bsmax = self._estimate(calib, cm, n1=32).total_seconds
        assert t_bsmax < t_bs1

    def test_more_eps_means_more_rounds(self, calib, cm):
        sched = PhaseSchedule(8, 64, 8, 8)
        stats = PartitionStats.random_model(10_000, 140_000, 8)
        loose = estimate_runtime(stats, sched, calib, cm, eps=0.2)
        tight = estimate_runtime(stats, sched, calib, cm, eps=0.01)
        assert tight.total_seconds > 2 * loose.total_seconds

    def test_scanstat_costlier_than_path(self, calib, cm):
        sched = PhaseSchedule(8, 64, 8, 8)
        stats = PartitionStats.random_model(10_000, 140_000, 8)
        p = estimate_runtime(stats, sched, calib, cm, problem="path")
        s = estimate_runtime(stats, sched, calib, cm, problem="scanstat", z_axis=16)
        assert s.total_seconds > 10 * p.total_seconds

    def test_mismatched_n1_rejected(self, calib, cm):
        sched = PhaseSchedule(8, 64, 8, 8)
        stats = PartitionStats.random_model(10_000, 140_000, 16)
        with pytest.raises(ConfigurationError):
            estimate_runtime(stats, sched, calib, cm)

    def test_unknown_problem_rejected(self, calib, cm):
        sched = PhaseSchedule(8, 64, 8, 8)
        stats = PartitionStats.random_model(10_000, 140_000, 8)
        with pytest.raises(ConfigurationError):
            estimate_runtime(stats, sched, calib, cm, problem="clique")

    def test_halving_maxdeg_halves_the_bandwidth_term(self, calib):
        """Theorem 2: MAXDEG is the communication metric.  At a batched N2,
        where bandwidth dominates latency, half the boundary is half the
        exchange and the compute term does not move."""
        k, N, n1 = 8, 256, 16
        sched = PhaseSchedule(k, N, n1, PhaseSchedule.bs_max(k, N, n1))
        cm = juliet().cost_model(N)
        e1, e2 = (
            estimate_runtime(
                PartitionStats(n=100_000, m=1_000_000, n1=n1, max_load=6_300,
                               max_deg=max_deg, n_peers_max=15),
                sched, calib, cm)
            for max_deg in (120_000, 60_000)
        )
        assert e1.compute_seconds == e2.compute_seconds
        assert e2.comm_seconds < e1.comm_seconds
        exchange1 = e1.comm_seconds - e1.reduce_seconds * e1.rounds
        exchange2 = e2.comm_seconds - e2.reduce_seconds * e2.rounds
        assert 1.6 < exchange1 / exchange2 < 2.2

    @pytest.mark.parametrize("graph_name", ["miami_like", "grid"])
    def test_locality_partitioners_do_not_lose_to_random(self, calib, graph_name):
        """The paper partitions at random; on a spatial graph a partitioner
        that cuts MAXDEG must not model slower."""
        g = (grid2d(64, 64) if graph_name == "grid"
             else miami_like(4000, avg_degree=20, rng=RngStream(1)))
        k, N, n1 = 8, 256, 16
        sched = PhaseSchedule(k, N, n1, PhaseSchedule.bs_max(k, N, n1))
        cm = juliet().cost_model(N)
        times = {
            method: estimate_runtime(
                PartitionStats.from_partition(
                    make_partition(g, n1, method, rng=RngStream(2))),
                sched, calib, cm).total_seconds
            for method in ("random", "bfs", "greedy")
        }
        assert times["greedy"] <= times["random"] * 1.02
        assert times["bfs"] <= times["random"] * 1.05

    def test_paper_k12_scan_of_a_sensor_network_is_cluster_feasible(self, calib):
        """Fig 13's setting costed on the model: a full k=12 scan (every
        size j <= 12, binary weights) of an LA-mainline-sized network on
        N=128 fits in one analysis session."""
        n, m, N, n1 = 4_000, 6_000, 128, 8
        total = sum(
            estimate_runtime(
                PartitionStats.random_model(n, m, n1),
                PhaseSchedule(j, N, n1, PhaseSchedule.bs_max(j, N, n1)),
                calib, juliet().cost_model(N), eps=0.1,
                problem="scanstat", z_axis=13).total_seconds
            for j in range(1, 13)
        )
        assert total < 3 * 3600


class TestModelAgainstSimulator:
    """The figures extrapolate the closed-form model; the simulator enacts
    the same decomposition message by message.  Communication is virtual
    time on both sides, from the same alpha-beta parameters, so the two
    must agree within a small factor and on the trend that creates the
    interior-optimal N1.  (Compute is left out: the simulator does not
    charge it by default.)"""

    K, N2 = 8, 8

    def _phase_comm(self, g, n1, fp, calib):
        part = random_partition(g, n1, rng=RngStream(3))
        cm = juliet().cost_model(n1)
        sim = Simulator(n1, cost_model=cm, measure_compute=False, trace=False)
        simulated = sim.run(phase_program(
            build_halo_views(g, part), MLDCircuit.k_path(self.K).recurrence(), fp, 0,
            self.N2)).makespan
        sched = PhaseSchedule(self.K, n1, n1, self.N2)
        est = estimate_runtime(PartitionStats.from_partition(part), sched,
                               calib, cm)
        modeled = est.phase_seconds - (
            est.compute_seconds / (est.rounds * sched.n_batches))
        return simulated, modeled

    @pytest.mark.parametrize("n1", [2, 4, 8])
    def test_phase_comm_agreement(self, calib, n1):
        g = erdos_renyi(2000, m=14000, rng=RngStream(1))
        fp = Fingerprint.draw(g.n, self.K, RngStream(2))
        simulated, modeled = self._phase_comm(g, n1, fp, calib)
        # per-peer messages and wait times vs a closed form
        assert 0.2 < simulated / modeled < 6.0

    def test_comm_grows_with_partitioning(self, calib):
        g = erdos_renyi(2000, m=14000, rng=RngStream(4))
        fp = Fingerprint.draw(g.n, self.K, RngStream(5))
        curve = [self._phase_comm(g, n1, fp, calib) for n1 in (2, 4, 8, 16)]
        for (sim_a, model_a), (sim_b, model_b) in zip(curve, curve[1:]):
            assert sim_b > 0.8 * sim_a
            assert model_b > 0.8 * model_a


class TestWitnessExtraction:
    def test_extracts_planted_path(self):
        g = erdos_renyi(40, m=30, rng=RngStream(10))
        g2, planted = plant_path(g, 5, rng=RngStream(11))

        def detect(masked):
            return detect_path(masked, 5, eps=0.02, rng=RngStream(12)).found

        witness = extract_witness(g2, detect, 5, rng=RngStream(13))
        assert len(witness) == 5
        # the witness must itself contain a 5-path
        sub, _ = g2.subgraph(witness)
        from _test_oracles import has_k_path

        assert has_k_path(sub, 5)

    def test_raises_when_absent(self):
        g = erdos_renyi(20, m=10, rng=RngStream(14))

        def never(masked):
            return False

        with pytest.raises(DetectionError):
            extract_witness(g, never, 4, rng=RngStream(15))

    def test_query_budget_enforced(self):
        g = erdos_renyi(30, m=60, rng=RngStream(16))

        def always(masked):
            return True

        # with max_queries=1 the peeling cannot finish
        with pytest.raises(DetectionError):
            extract_witness(g, always, 2, rng=RngStream(17), max_queries=1)
