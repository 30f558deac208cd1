"""Tests for machine specs, the cost model, calibration, and clusters."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.runtime.cluster import VirtualCluster, juliet, laptop, shadowfax
from repro.runtime.costmodel import (
    CostModel,
    JULIET_NODE,
    KernelCalibration,
    LAPTOP_NODE,
    MachineSpec,
)


class TestMachineSpec:
    def test_paper_clusters(self):
        assert JULIET_NODE.cores_per_node == 36
        assert JULIET_NODE.mem_bytes_per_node == 128 * 2**30
        # 56 Gb/s link: ~7 GB/s payload
        assert JULIET_NODE.beta == pytest.approx(1 / 7e9)

    def test_negative_rates_rejected(self):
        with pytest.raises(ConfigurationError):
            MachineSpec("bad", 4, 1, alpha=-1, beta=0, intra_alpha=0, intra_beta=0)


class TestCostModel:
    def test_pt2pt_linear_in_bytes(self):
        cm = CostModel(LAPTOP_NODE)
        t1 = cm.send_cost(0, 1, 1000)[0]
        t2 = cm.send_cost(0, 1, 2000)[0]
        assert t2 > t1
        assert t2 - t1 == pytest.approx(1000 * LAPTOP_NODE.beta)

    def test_intra_node_cheaper(self):
        placement = np.array([0, 0, 1, 1])
        cm = CostModel(JULIET_NODE, rank_node=placement)
        assert cm.send_cost(0, 1, 10**6)[0] < cm.send_cost(0, 2, 10**6)[0]

    def test_collective_log_scaling(self):
        cm = CostModel(LAPTOP_NODE)
        t4 = cm.allreduce_cost(4, 100)
        t64 = cm.allreduce_cost(64, 100)
        assert t64 == pytest.approx(3 * t4)  # log2 64 / log2 4
        assert cm.allreduce_cost(1, 0) == 0.0


class TestKernelCalibration:
    def test_synthetic_monotone_decreasing(self):
        cal = KernelCalibration.synthetic()
        c_vals = [cal.c1(n2) for n2 in (1, 4, 16, 64, 256)]
        assert all(a > b for a, b in zip(c_vals, c_vals[1:]))

    def test_interpolation_between_grid_points(self):
        cal = KernelCalibration([1, 4], [4e-8, 1e-8])
        assert 1e-8 < cal.c1(2) < 4e-8

    def test_invalid_args(self):
        with pytest.raises(ConfigurationError):
            KernelCalibration([1, 2], [1e-9])
        with pytest.raises(ConfigurationError):
            KernelCalibration([1], [-1.0])
        cal = KernelCalibration.synthetic()
        with pytest.raises(ConfigurationError):
            cal.c1(0)

    def test_measured_calibration_runs(self):
        # small live measurement: must be positive and finite on every point
        cal = KernelCalibration.measure(
            sample_nodes=256, avg_degree=6, grid=(1, 8, 32), k=6, min_time=0.005
        )
        table = cal.as_table()
        assert set(table) == {1, 8, 32}
        assert all(v > 0 and np.isfinite(v) for v in table.values())

    def test_measured_batching_helps(self):
        # the cache/batching effect of the paper's Figs 6-8: per-iteration
        # cost at N2=64 must beat N2=1 on the real kernel
        cal = KernelCalibration.measure(
            sample_nodes=1024, avg_degree=8, grid=(1, 64), k=8, min_time=0.01
        )
        assert cal.c1(64) < cal.c1(1)


class TestVirtualCluster:
    def test_presets(self):
        j = juliet()
        assert j.nodes == 32 and j.total_cores == 1152
        s = shadowfax()
        assert s.total_cores == 1024
        assert laptop().total_cores == 8

    def test_placement_block_vs_cyclic(self):
        j = juliet(2)
        blk = j.placement(72, "block")
        assert blk[0] == 0 and blk[71] == 1
        cyc = j.placement(4, "cyclic")
        assert cyc.tolist() == [0, 1, 0, 1]

    def test_capacity_enforced(self):
        with pytest.raises(ConfigurationError):
            laptop(1).placement(9)

    def test_unknown_strategy(self):
        with pytest.raises(ConfigurationError):
            juliet().placement(4, "striped")

    def test_memory_per_rank(self):
        j = juliet(1)
        assert j.memory_per_rank(36) == JULIET_NODE.mem_bytes_per_node // 36
        assert j.memory_per_rank(1) == JULIET_NODE.mem_bytes_per_node

    def test_cost_model_uses_placement(self):
        j = juliet(2)
        cm = j.cost_model(72)
        assert cm.send_cost(0, 1, 10**6)[0] < cm.send_cost(0, 40, 10**6)[0]
