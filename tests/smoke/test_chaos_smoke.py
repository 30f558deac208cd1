"""Chaos smoke: a seeded crash + drop + straggler plan recovers to the
fault-free answer, deterministically.

CI's ``chaos`` job runs ``pytest -m smoke tests/smoke -k chaos``.
A simulated 8-rank run (N1 = 4) of ``detect_path`` under the plan must
give the fault-free run's round values, and two runs under the same plan
the same virtual time and the same resilience accounting: one crash
injected, at least one retry.  A faulted CLI detection writes a valid
trace with its fault instants and failed-attempt scopes, and a report
that renders.
"""

import json

import pytest

from repro.cli import main
from repro.core.midas import MidasRuntime, detect_path
from repro.graph.generators import erdos_renyi, plant_path
from repro.obs.chrome_trace import validate_chrome_trace
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


def test_faulted_cli_detection_writes_a_valid_trace(tmp_path, capsys):
    trace, report = tmp_path / "chaos-trace.json", tmp_path / "chaos-report.json"
    rc = main(["detect-path", "--er", "200", "-k", "4", "--mode", "simulated",
               "-N", "8", "--n1", "4", "--eps", "0.3", "--seed", "7",
               "--fault-plan", '{"seed": 5, "faults": '
                               '[{"kind": "crash", "rank": 0, "after_ops": 8}]}',
               "--trace-out", str(trace), "--report-out", str(report)])
    assert rc in (0, 1)
    doc = json.loads(trace.read_text())
    assert validate_chrome_trace(doc) > 0, "empty trace"
    events = doc["traceEvents"]
    assert [e for e in events if e.get("cat") == "fault"], "no fault events in trace"
    assert [e for e in events
            if "failed-attempt" in str(e.get("args", {}).get("label", ""))], \
        "no failed-attempt scopes in trace"
    capsys.readouterr()
    assert main(["report", str(report)]) == 0
    assert capsys.readouterr().out.strip()
