"""Ablation: communication/computation overlap in the halo exchange.

The paper's Algorithm 3 exchanges synchronously (send, receive, compute).
This ablation measures the headroom of the standard MPI overlap pattern
(post receives, compute the local-column half of the neighbour reduction
while boundary messages fly, then fold in ghosts): results are
bit-identical; the makespan saving equals the hidden flight time on
latency-bound configurations.
"""

import numpy as np
import pytest

from _bench_utils import print_series
from repro.core.evaluator_path import path_recurrence
from repro.core.halo import build_halo_views
from repro.core.leveldp import phase_program
from repro.ff.fingerprint import Fingerprint
from repro.graph.generators import erdos_renyi
from repro.graph.partition import random_partition
from repro.runtime.cluster import juliet
from repro.runtime.comm import Charge, Irecv, Recv, Send, Wait
from repro.runtime.scheduler import Simulator
from repro.util.rng import RngStream

K, N2 = 8, 8


def test_overlap_virtual_time_model():
    """Modeled superstep: with compute charged explicitly, the overlapped
    schedule hides min(compute, flight) per level — exactly the textbook
    saving."""
    flight_bytes = 50_000_000  # ~7ms on the modeled 7 GB/s link
    compute_s = 0.004

    def sync(ctx):
        peer = 1 - ctx.rank
        for lvl in range(4):
            yield Send(peer, lvl, None, nbytes=flight_bytes)
            yield Recv(peer, lvl)
            yield Charge(compute_s)
        return None

    def overlapped(ctx):
        peer = 1 - ctx.rank
        for lvl in range(4):
            yield Send(peer, lvl, None, nbytes=flight_bytes)
            req = yield Irecv(peer, lvl)
            yield Charge(compute_s)  # local half while the message flies
            yield Wait(req)
        return None

    cm = juliet().cost_model(2)
    t_sync = Simulator(2, cost_model=cm, measure_compute=False, trace=False).run(sync).makespan
    t_over = Simulator(2, cost_model=cm, measure_compute=False, trace=False).run(
        overlapped
    ).makespan
    saving = t_sync - t_over
    # closed form: per level, sync = flight + compute while overlapped =
    # max(send_overhead + compute, flight); saving = sync - overlapped
    flight = cm.pt2pt(0, 1, flight_bytes)
    ovh = cm.send_overhead(0, 1, flight_bytes)
    expected = 4 * (flight + compute_s - max(ovh + compute_s, flight))
    print_series(
        "Ablation: overlap saving per 4-level superstep (modeled)",
        ["schedule", "makespan [ms]"],
        [["synchronous", f"{t_sync * 1e3:.2f}"], ["overlapped", f"{t_over * 1e3:.2f}"],
         ["saving", f"{saving * 1e3:.2f}"],
         ["closed-form saving", f"{expected * 1e3:.2f}"]],
    )
    assert t_over < t_sync
    assert saving == pytest.approx(expected, rel=0.05)


def test_overlap_results_identical_real_kernel():
    g = erdos_renyi(2000, m=14000, rng=RngStream(1))
    fp = Fingerprint.draw(g.n, K, RngStream(2))
    part = random_partition(g, 4, rng=RngStream(3))
    views = build_halo_views(g, part)
    rec = path_recurrence(K)
    a = Simulator(4, trace=False).run(phase_program(views, rec, fp, 0, N2))
    b = Simulator(4, trace=False).run(
        phase_program(views, rec, fp, 0, N2, overlapped=True)
    )
    assert a.results == b.results


def test_overlap_headroom_at_paper_scale(calibration):
    """Modeled overlap headroom across N1 on random-1e6 @ paper scale:
    negligible where compute dominates (small N1), growing as the exchange
    becomes flight-bound (large N1) — the regime where a production MIDAS
    would adopt the overlapped exchange."""
    from repro.core.model import PartitionStats, estimate_runtime
    from repro.core.schedule import PhaseSchedule

    n, m, k, N = 1_000_000, 13_800_000, 6, 512
    rows = []
    savings = {}
    for n1 in (2, 8, 32, 128, 512):
        sched = PhaseSchedule(k, N, n1, 1)
        stats = PartitionStats.random_model(n, m, n1)
        cm = juliet().cost_model(N)
        sync_t = estimate_runtime(stats, sched, calibration, cm).total_seconds
        over_t = estimate_runtime(stats, sched, calibration, cm,
                                  overlap=True).total_seconds
        savings[n1] = 1.0 - over_t / sync_t
        rows.append([n1, f"{sync_t:.4f}", f"{over_t:.4f}", f"{savings[n1]:.1%}"])
    print_series(
        "Ablation: modeled overlap headroom vs N1 (random-1e6, k=6, N=512, BS1)",
        ["N1", "sync [s]", "overlapped [s]", "saving"],
        rows,
    )
    assert all(0.0 <= s < 0.6 for s in savings.values())
    # headroom grows toward the communication-bound end
    assert savings[512] > savings[2]


@pytest.mark.benchmark(group="ablation-overlap")
@pytest.mark.parametrize("variant", ["synchronous", "overlapped"])
def test_phase_wall_time(benchmark, variant, bench_datasets):
    """Wall time of the real phase programs (overlap costs nothing extra)."""
    g = bench_datasets["random-1e6"]
    fp = Fingerprint.draw(g.n, K, RngStream(4))
    part = random_partition(g, 4, rng=RngStream(5))
    views = build_halo_views(g, part)
    prog = phase_program(views, path_recurrence(K), fp, 0, N2,
                         overlapped=(variant != "synchronous"))

    def run():
        return Simulator(4, trace=False).run(prog).results[0]

    benchmark(run)
