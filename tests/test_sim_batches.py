"""A simulated stage's round batches: the rounds a sequential window fuses.

Without an early exit, with the default ``n2`` and with timeline reuse,
``DetectionEngine._round_batch`` hands ``SimulatedBackend`` the rounds one
sequential window would carry side by side, and one
``ProblemSpec.window_values`` call values every window of all of them.
Nothing a simulated run reports may tell the fused batches from the same
rounds run one a batch; every other case keeps one round a batch.
"""

from __future__ import annotations

import numpy as np
import pytest

from _sim_observe import EPS, GRAPH, identity, observe
from repro.core.engine import DetectionEngine, MidasRuntime
from repro.core.midas import detect_path
from repro.graph.csr import CSRGraph
from repro.obs.metrics import MetricsRegistry
from repro.runtime.faults import FaultPlan, FaultSpec
from repro.util.rng import RngStream

SHAPE = dict(n_processors=64, n1=16)


def _spans(seen_or_rt, name: str) -> list:
    rt = seen_or_rt["_rt"] if isinstance(seen_or_rt, dict) else seen_or_rt
    return [sp for sp in rt.get_profiler().spans if sp.name == name]


def _rounds(seen: dict) -> int:
    return len(seen["values"])


@pytest.mark.parametrize("driver", ["max_weight_path", "scan_grid"])
def test_fused_batches_equal_one_round_a_batch(driver, monkeypatch):
    """The weighted path (evaluation points) and the scan grid (every
    size in one stage): fused batches and one round a batch agree in round values,
    per-round virtual seconds, phase and round digests, and traced send,
    event and edge counts."""
    fused = observe(driver, trace=True, **SHAPE)
    real = DetectionEngine._round_batch
    monkeypatch.setattr(DetectionEngine, "_round_batch",
                        lambda self, ell, want, *rest: real(self, ell, 1, *rest))
    single = observe(driver, trace=True, **SHAPE)

    assert identity(fused) == identity(single)
    assert fused["_rec"].events == single["_rec"].events
    assert fused["_rec"].edges == single["_rec"].edges
    rounds = _rounds(fused)
    # the stage's rounds fit one sequential window: one batch, one valuing
    assert len(_spans(fused, "engine.values")) == 1 < rounds
    assert [sp.tags["rounds"] for sp in _spans(fused, "engine.round")] == [rounds]
    assert len(_spans(single, "engine.values")) == rounds
    assert {sp.tags["rounds"] for sp in _spans(single, "engine.round")} == {1}


def _cliques(size: int, copies: int) -> CSRGraph:
    """Disjoint ``size``-cliques: no path longer than ``size`` vertices."""
    edges = [(c * size + a, c * size + b)
             for c in range(copies) for a in range(size) for b in range(a + 1, size)]
    return CSRGraph.from_edges(size * copies, np.array(edges, dtype=np.int64))


QUIET_PLAN = FaultPlan(specs=(FaultSpec(kind="delay", src=0, dst=1, delay=1e-6,
                                        p=0.0),), seed=3)


@pytest.mark.parametrize("early_exit,forcing,valued", [
    (True, {}, True),
    (False, dict(n2=4), True),
    (False, dict(fault_plan=QUIET_PLAN), False),
    (False, dict(sanitize="warn"), False),
    (False, dict(measure_compute=True), False),
], ids=["early-exit", "explicit-n2", "fault-plan", "sanitize-warn", "measured-compute"])
def test_other_cases_run_one_round_a_batch(early_exit, forcing, valued):
    """An early exit, an explicit ``n2``, a fault plan, a sanitizer and
    measured compute keep one round a batch: one ``engine.round`` span a
    round, and where windows are valued by whole-graph runs (the first
    two) one ``engine.values`` span a round; the others enact every
    window and value none."""
    g = _cliques(4, 18)  # no 6-path: an early exit runs every round too
    rt = MidasRuntime(mode="simulated", metrics=MetricsRegistry(), **SHAPE, **forcing)
    res = detect_path(g, 6, eps=EPS, rng=RngStream(11), runtime=rt,
                      early_exit=early_exit)
    assert not res.found and res.rounds_run >= 2
    batches = _spans(rt, "engine.round")
    assert [sp.tags["rounds"] for sp in batches] == [1] * res.rounds_run
    assert len(_spans(rt, "engine.values")) == (res.rounds_run if valued else 0)


def test_the_fused_batch_is_the_sequential_window():
    """The batch is exactly the rounds a sequential window carries: the
    same call in sequential mode stamps the same ``engine.round`` batches."""
    batches = {}
    for mode, shape in (("simulated", SHAPE), ("sequential", {})):
        rt = MidasRuntime(mode=mode, metrics=MetricsRegistry(), **shape)
        detect_path(GRAPH, 5, eps=0.05, rng=RngStream(5), runtime=rt, early_exit=False)
        batches[mode] = [sp.tags["rounds"] for sp in _spans(rt, "engine.round")]
    assert batches["simulated"] == batches["sequential"]
    assert len(batches["simulated"]) < sum(batches["simulated"])
