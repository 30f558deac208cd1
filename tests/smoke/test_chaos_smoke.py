"""Chaos smoke: a seeded crash + drop + straggler plan recovers to the
fault-free answer, deterministically.

CI's ``chaos-smoke`` job runs ``pytest -m smoke tests/smoke -k chaos``.
A simulated 8-rank run (N1 = 4) of ``detect_path`` under the plan must
give the fault-free run's round values, and two runs under the same plan
the same virtual time and the same resilience accounting: one crash
injected, at least one retry.
"""

import pytest

from repro.core.midas import MidasRuntime, detect_path
from repro.graph.generators import erdos_renyi, plant_path
from repro.runtime.faults import FaultPlan, crash, drop, straggler
from repro.util.rng import RngStream

pytestmark = pytest.mark.smoke


def _run(graph, fault_plan=None):
    rt = MidasRuntime(mode="simulated", n_processors=8, n1=4, fault_plan=fault_plan)
    return detect_path(graph, 5, eps=0.3, rng=RngStream(1, name="d"), runtime=rt)


def test_chaos_plan_is_bit_identical_to_fault_free():
    g = erdos_renyi(300, 1800, rng=RngStream(7, name="g"))
    g, _ = plant_path(g, 5, rng=RngStream(8, name="p"))
    plan = FaultPlan(
        [crash(rank=1, after_ops=10), drop(src=0, p=0.5), straggler(rank=2, factor=2.0)],
        seed=2024,
    )
    clean = _run(g)
    a, b = _run(g, plan), _run(g, plan)
    for faulty in (a, b):
        assert faulty.found == clean.found
        assert [r.value for r in faulty.rounds] == [r.value for r in clean.rounds]
    assert a.virtual_seconds == b.virtual_seconds, "nondeterministic timing"
    assert a.details["resilience"] == b.details["resilience"]
    r = a.details["resilience"]
    assert r["faults_injected"].get("crash") == 1
    assert r["retries"] >= 1
