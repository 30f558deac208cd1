"""Tests for the FASCIA and Giraph cost/memory models (Fig 11, Section I)."""

import math

import pytest

from repro.baselines.fascia import FasciaModel, FasciaRunResult
from repro.baselines.giraph_model import GiraphModel
from repro.errors import ConfigurationError, ResourceExhaustedError
from repro.runtime.cluster import juliet


RANDOM_1E6 = dict(n=1_000_000, m=13_800_000)


class TestFasciaModel:
    def test_memory_wall_at_paper_location(self):
        """Section VI-E: 'FASCIA fails to support beyond subgraphs of size
        12 on this random-1e6 dataset'."""
        fm = FasciaModel()
        assert fm.run(k=12, n_processors=512, **RANDOM_1E6).feasible
        assert not fm.run(k=13, n_processors=512, **RANDOM_1E6).feasible

    def test_strict_mode_raises(self):
        fm = FasciaModel()
        with pytest.raises(ResourceExhaustedError):
            fm.run(k=15, n_processors=512, strict=True, **RANDOM_1E6)

    def test_time_superexponential_in_k(self):
        """Color coding pays 2^k (DP) x e^k-ish (iterations): consecutive
        k ratios must exceed MIDAS's factor-2."""
        fm = FasciaModel()
        t = {k: fm.run(k=k, n_processors=512, **RANDOM_1E6).seconds for k in (8, 9, 10)}
        assert t[9] / t[8] > 3.0
        assert t[10] / t[9] > 3.0

    def test_iterations_track_colorful_probability(self):
        fm = FasciaModel()
        k = 8
        p = math.factorial(k) / k**k
        assert fm.iterations_for(k, eps=0.2) == math.ceil(math.log(5.0) / p)

    def test_more_processors_faster(self):
        fm = FasciaModel()
        t128 = fm.run(k=10, n_processors=128, **RANDOM_1E6).seconds
        t512 = fm.run(k=10, n_processors=512, **RANDOM_1E6).seconds
        assert t512 == pytest.approx(t128 / 4)

    def test_failure_reason_populated(self):
        fm = FasciaModel()
        r = fm.run(k=14, n_processors=512, **RANDOM_1E6)
        assert not r.feasible
        assert "GiB" in r.reason

    def test_invalid_args(self):
        fm = FasciaModel()
        with pytest.raises(ConfigurationError):
            fm.run(n=0, m=1, k=5, n_processors=4)
        with pytest.raises(ConfigurationError):
            fm.iterations_for(8, eps=0.0)

    def test_live_calibration(self):
        fm = FasciaModel.measure(sample_nodes=200, k=5)
        assert fm.c_cc > 0
        r = fm.run(k=8, n_processors=64, **RANDOM_1E6)
        assert isinstance(r, FasciaRunResult)
        assert r.seconds > 0


class TestGiraphModel:
    def test_edge_cap_in_paper_band(self):
        """Section I: prior implementations did not scale beyond ~40M
        edges.  At the scan-stat sizes used there (k ~ 8-10), the modeled
        cap must sit in the tens of millions."""
        gm = GiraphModel()
        cap8 = gm.max_edges(8)
        cap10 = gm.max_edges(10)
        assert 2e7 < cap8 < 4e8
        assert 1e7 < cap10 < cap8

    def test_infeasible_returns_inf(self):
        gm = GiraphModel()
        assert gm.run_seconds(50_000_000, 400_000_000, 10) == float("inf")

    def test_strict_raises(self):
        gm = GiraphModel()
        with pytest.raises(ResourceExhaustedError):
            gm.run_seconds(50_000_000, 400_000_000, 10, strict=True)

    def test_midas_order_of_magnitude_faster(self):
        """Section I: MIDAS improves on Giraph by over an order of magnitude."""
        from repro.core.model import PartitionStats, estimate_runtime
        from repro.core.schedule import PhaseSchedule
        from repro.runtime.costmodel import KernelCalibration

        n, m, k, N = 1_000_000, 13_800_000, 8, 256
        giraph = GiraphModel().run_seconds(n, m, k, z_axis=13)
        sched = PhaseSchedule(k, N, 32, PhaseSchedule.bs_max(k, N, 32))
        est = estimate_runtime(
            PartitionStats.random_model(n, m, 32), sched,
            KernelCalibration.synthetic(), juliet().cost_model(N),
            problem="scanstat", z_axis=13,
        )
        assert giraph > 10 * est.total_seconds

    def test_invalid_args(self):
        with pytest.raises(ConfigurationError):
            GiraphModel().run_seconds(-1, 5, 3)
