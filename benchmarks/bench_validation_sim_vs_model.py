"""Validation: the analytic model vs the message-level simulator.

The scaling figures come from the Theorem-2 analytic model; the simulator
executes the same decomposition message by message.  This bench runs both
on identical small configurations and checks the *communication* virtual
times agree within a small factor — the evidence that modeled curves are
trustworthy extrapolations of the simulated mechanics.

(Compute time is excluded from the comparison: the simulator charges
measured wall time only when asked, while the model charges calibrated
kernel time; their ratio is machine-dependent.  Communication is fully
modeled on both sides, from the same alpha-beta parameters.)
"""

import numpy as np
import pytest

from _bench_utils import print_series
from repro.core.evaluator_path import path_recurrence
from repro.core.halo import build_halo_views
from repro.core.leveldp import phase_program
from repro.core.model import PartitionStats, estimate_runtime
from repro.core.schedule import PhaseSchedule
from repro.ff.fingerprint import Fingerprint
from repro.graph.generators import erdos_renyi
from repro.graph.partition import random_partition
from repro.runtime.cluster import juliet
from repro.runtime.costmodel import KernelCalibration
from repro.runtime.scheduler import Simulator
from repro.util.rng import RngStream

K = 8
N2 = 8


def simulated_phase_comm_seconds(g, n1, fp):
    part = random_partition(g, n1, rng=RngStream(3))
    views = build_halo_views(g, part)
    cm = juliet().cost_model(n1)
    sim = Simulator(n1, cost_model=cm, measure_compute=False, trace=True)
    res = sim.run(phase_program(views, path_recurrence(K), fp, 0, N2))
    return res.makespan, part


def modeled_phase_comm_seconds(part, calibration):
    sched = PhaseSchedule(K, part.n_parts, part.n_parts, N2)
    est = estimate_runtime(
        PartitionStats.from_partition(part), sched, calibration,
        juliet().cost_model(part.n_parts),
    )
    # one phase's communication share
    return est.phase_seconds - (est.compute_seconds / (est.rounds * sched.n_batches))


@pytest.mark.parametrize("n1", [2, 4, 8])
def test_phase_comm_agreement(n1, calibration):
    g = erdos_renyi(2000, m=14000, rng=RngStream(1))
    fp = Fingerprint.draw(g.n, K, RngStream(2))
    sim_t, part = simulated_phase_comm_seconds(g, n1, fp)
    model_t = modeled_phase_comm_seconds(part, calibration)
    ratio = sim_t / model_t if model_t > 0 else float("inf")
    print(f"\nn1={n1}: simulated comm {sim_t * 1e6:.1f}us, "
          f"modeled comm {model_t * 1e6:.1f}us, ratio {ratio:.2f}")
    # same alpha-beta parameters, different accounting details (per-peer
    # messages and wait times vs closed form): agree within a small factor
    assert 0.2 < ratio < 6.0


def test_comm_grows_with_partitioning(calibration):
    """Both accountings must agree on the *trend* that drives the optimal
    N1: more parts, more boundary, more communication."""
    g = erdos_renyi(2000, m=14000, rng=RngStream(4))
    fp = Fingerprint.draw(g.n, K, RngStream(5))
    rows = []
    sim_prev = model_prev = None
    ok_sim = ok_model = True
    for n1 in (2, 4, 8, 16):
        sim_t, part = simulated_phase_comm_seconds(g, n1, fp)
        model_t = modeled_phase_comm_seconds(part, calibration)
        rows.append([n1, f"{sim_t * 1e6:.1f}", f"{model_t * 1e6:.1f}"])
        if sim_prev is not None:
            ok_sim &= sim_t > sim_prev * 0.8
            ok_model &= model_t > model_prev * 0.8
        sim_prev, model_prev = sim_t, model_t
    print_series(
        "Validation: per-phase communication vs N1 (simulated vs modeled)",
        ["N1", "simulated [us]", "modeled [us]"],
        rows,
    )
    assert ok_sim and ok_model
