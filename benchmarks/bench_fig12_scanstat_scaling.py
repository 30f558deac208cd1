"""Figure 12: strong scaling of the scan-statistics problem, N1 = N.

Same regime as Fig 10 but for PAREVALUATEPOLYNOMIALSCANSTAT: the per-level
work and message volume carry the weight axis, yet the scaling shape
matches k-path, as the paper reports ("they show considerable strong
scalability similar to k-Path").
"""

import numpy as np
import pytest

from _bench_utils import print_series
from repro.core.model import PartitionStats, estimate_runtime
from repro.core.schedule import PhaseSchedule
from repro.graph.datasets import DATASETS
from repro.runtime.cluster import juliet

K = 8
Z_AXIS = K + 1  # binary weights: z in [0, k]
N_SWEEP = (32, 64, 128, 256, 512)


def modeled_time(n, m, N, calibration):
    sched = PhaseSchedule(K, N, N, PhaseSchedule.bs_max(K, N, N))
    est = estimate_runtime(
        PartitionStats.random_model(n, m, N), sched, calibration,
        juliet().cost_model(N), problem="scanstat", z_axis=Z_AXIS,
    )
    return est.total_seconds


def test_fig12_series(calibration):
    datasets = ("random-1e6", "com-Orkut", "miami")
    curves = {
        name: {
            N: modeled_time(DATASETS[name].paper_nodes, DATASETS[name].paper_edges,
                            N, calibration)
            for N in N_SWEEP
        }
        for name in datasets
    }
    header = ["N"] + [f"{d} [s]" for d in datasets] + [f"{d} spdup" for d in datasets]
    rows = []
    for N in N_SWEEP:
        row = [N]
        row += [f"{curves[d][N]:.2f}" for d in datasets]
        row += [f"{curves[d][min(N_SWEEP)] / curves[d][N]:.2f}x" for d in datasets]
        rows.append(row)
    print_series(
        f"Fig 12: scan-statistics strong scaling, N1=N, k={K}, binary weights",
        header,
        rows,
    )

    for d in datasets:
        series = [curves[d][N] for N in N_SWEEP]
        assert all(b < a for a, b in zip(series, series[1:])), f"{d}: not monotone"
        speedup = series[0] / series[-1]
        assert 2.0 < speedup <= 16.0, f"{d}: {speedup:.1f}x out of band"


def test_fig12_shape_matches_fig10(calibration):
    """'considerable strong scalability similar to k-Path': the scan-stat
    speedup curve must track the k-path curve within a modest factor."""
    spec = DATASETS["random-1e6"]
    n, m = spec.paper_nodes, spec.paper_edges

    def path_time(N):
        sched = PhaseSchedule(K, N, N, PhaseSchedule.bs_max(K, N, N))
        return estimate_runtime(
            PartitionStats.random_model(n, m, N), sched, calibration,
            juliet().cost_model(N), problem="path",
        ).total_seconds

    for N in (64, 256):
        s_scan = modeled_time(n, m, 32, calibration) / modeled_time(n, m, N, calibration)
        s_path = path_time(32) / path_time(N)
        assert 0.4 < s_scan / s_path < 2.5


@pytest.mark.benchmark(group="fig12-scan-kernel")
@pytest.mark.parametrize("n1", [1, 4])
def test_scan_phase_kernel(benchmark, bench_datasets, n1):
    """Real scan-stat phase on the miami stand-in (sequential vs SPMD)."""
    from repro.core.evaluator_scanstat import scanstat_phase_value, scanstat_recurrence
    from repro.core.halo import build_halo_views
    from repro.core.leveldp import phase_program
    from repro.ff.fingerprint import Fingerprint
    from repro.graph.partition import random_partition
    from repro.runtime.scheduler import Simulator
    from repro.util.rng import RngStream

    g = bench_datasets["miami"]
    w = RngStream(1).integers(0, 2, size=g.n)
    dim, z_max = 4, 4
    fp = Fingerprint.draw(g.n, dim, RngStream(2), levels=dim + 1)
    if n1 == 1:
        benchmark(lambda: scanstat_phase_value(g, w, fp, z_max, 0, 4))
    else:
        part = random_partition(g, n1, rng=RngStream(3))
        views = build_halo_views(g, part)

        def run():
            prog = phase_program(views, scanstat_recurrence(w, dim, z_max), fp, 0, 4)
            return Simulator(n1, trace=False).run(prog).results[0]

        benchmark(run)
