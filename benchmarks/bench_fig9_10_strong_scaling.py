"""Figures 9 and 10: MIDAS strong scaling for k-path.

Fig 9: fix N1 and grow N — more concurrent phases split the 2^k
iterations; speedup = t(N_min)/t(N) per N1 series, plus the "N1 = Best"
series tracking the per-N optimum.  Scaling is good but sublinear once
per-phase communication dominates, as the paper reports.

Fig 10: the classic regime N1 = N (single phase, pure vertex
parallelism), for several datasets.
"""

import pytest

from _bench_utils import fmt, print_series
from repro.core.model import PartitionStats, estimate_runtime
from repro.core.schedule import PhaseSchedule
from repro.graph.datasets import DATASETS
from repro.runtime.cluster import juliet

K = 10
N_SWEEP = (32, 64, 128, 256, 512)


def modeled_time(n, m, k, N, n1, calibration, n2=None):
    if n2 is None:
        n2 = PhaseSchedule.bs_max(k, N, n1)
    sched = PhaseSchedule(k, N, n1, n2)
    est = estimate_runtime(
        PartitionStats.random_model(n, m, n1), sched, calibration, juliet().cost_model(N)
    )
    return est.total_seconds


def test_fig9_fixed_n1_speedup(calibration):
    spec = DATASETS["random-1e6"]
    n, m = spec.paper_nodes, spec.paper_edges
    n1_series = (32, 64, 128)
    times = {n1: {} for n1 in n1_series}
    best = {}
    for N in N_SWEEP:
        for n1 in n1_series:
            if n1 <= N and N % n1 == 0:
                times[n1][N] = modeled_time(n, m, K, N, n1, calibration)
        candidates = [
            modeled_time(n, m, K, N, c, calibration)
            for c in (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)
            if c <= N and N % c == 0
        ]
        best[N] = min(candidates)

    header = ["N"] + [f"N1={n1}" for n1 in n1_series] + ["N1=Best"]
    rows = []
    for N in N_SWEEP:
        row = [N]
        for n1 in n1_series:
            if N in times[n1]:
                base_n = min(times[n1])
                row.append(f"{times[n1][base_n] / times[n1][N]:.2f}x")
            else:
                row.append("-")
        row.append(f"{best[min(N_SWEEP)] / best[N]:.2f}x")
        rows.append(row)
    print_series(
        "Fig 9: k-path strong-scaling speedup vs N (N1 fixed), random-1e6",
        header,
        rows,
    )

    for n1 in n1_series:
        series = [times[n1][N] for N in N_SWEEP if N in times[n1]]
        # monotone improvement with N...
        assert all(b <= a * 1.001 for a, b in zip(series, series[1:]))
        # ...within sanity bounds of ideal scaling.  Mild superlinearity is
        # possible and real: growing N shrinks BSMax = 2^k N1/N, and the
        # *measured* c1(N2) curve improves when N2 drops back into cache
        # (the same effect behind the paper's N2 < 1024 cap).
        span = series[0] / series[-1]
        ideal = (max(N for N in N_SWEEP if N in times[n1])
                 / min(N for N in N_SWEEP if N in times[n1]))
        assert 1.0 < span <= ideal * 4.0
    # best-N1 series scales at least as well as any fixed series
    assert best[512] <= min(times[n1].get(512, float("inf")) for n1 in n1_series)


def test_fig10_classic_strong_scaling(calibration):
    datasets = ("random-1e6", "com-Orkut", "miami")
    curves = {}
    for name in datasets:
        spec = DATASETS[name]
        curves[name] = {
            N: modeled_time(spec.paper_nodes, spec.paper_edges, K, N, N, calibration)
            for N in N_SWEEP
        }
    header = ["N"] + [f"{name} speedup" for name in datasets]
    rows = []
    for N in N_SWEEP:
        rows.append(
            [N]
            + [f"{curves[name][min(N_SWEEP)] / curves[name][N]:.2f}x" for name in datasets]
        )
    print_series("Fig 10: k-path strong scaling with N1 = N (single phase)", header, rows)

    for name in datasets:
        series = [curves[name][N] for N in N_SWEEP]
        speedup = series[0] / series[-1]
        # "less than ideal but still scale well up to a considerable number
        # of processes": between 2x and 16x over a 16x processor range
        assert 2.0 < speedup <= 16.0, f"{name}: speedup {speedup:.1f} out of band"


@pytest.mark.benchmark(group="fig9-10-simulated-phase")
@pytest.mark.parametrize("n1", [2, 4, 8])
def test_simulated_phase_makespan(benchmark, bench_datasets, n1):
    """Real SPMD execution of one phase at several N1 (small instance)."""
    from repro.core.evaluator_path import path_recurrence
    from repro.core.halo import build_halo_views
    from repro.core.leveldp import phase_program
    from repro.ff.fingerprint import Fingerprint
    from repro.graph.partition import random_partition
    from repro.runtime.scheduler import Simulator
    from repro.util.rng import RngStream

    g = bench_datasets["random-1e6"]
    fp = Fingerprint.draw(g.n, 8, RngStream(9))
    part = random_partition(g, n1, rng=RngStream(10))
    views = build_halo_views(g, part)

    def run_phase():
        prog = phase_program(views, path_recurrence(fp.k), fp, 0, 8)
        return Simulator(n1, trace=False).run(prog).results[0]

    result = benchmark(run_phase)
    assert isinstance(result, int)
