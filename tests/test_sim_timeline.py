"""One enacted window per stage, and nobody can tell.

``SimulatedBackend`` enacts a stage's communication once — its first
window runs on the coroutine simulator, later windows take their value
from the round's whole-graph level-DP run and everything else from the
stored timeline.  ``sanitize="warn"`` still enacts every window, so it is
the reference: a memoised run must equal its fully enacted twin in
everything a simulated run reports.  The rest pins *when* windows are
enacted (``Simulator.run`` calls), that every window of a stage sends the
same rows, and the value check on the enacted window.
"""

from __future__ import annotations

import gc
import types

import numpy as np
import pytest

from _leveldp_drivers import partition_with_empty_rank
from _sim_observe import DRIVERS, EPS, GRAPH, WEIGHTS, identity, observe
from repro.core import engine as engine_module
from repro.core.engine import DetectionEngine, EngineSession, MidasRuntime
from repro.core.midas import stage_rounds
from repro.core.mld import MLDCircuit
from repro.core.problems import ProblemSpec, compile
from repro.errors import ReplayMismatchError
from repro.ff.gf2m import default_field_for_k
from repro.obs.analyze import extract_critical_path
from repro.obs.metrics import MetricsRegistry
from repro.runtime.comm import Exchange
from repro.runtime.faults import FaultPlan, FaultSpec
from repro.runtime.scheduler import Simulator
from repro.runtime.tracing import TraceSummary
from repro.util.rng import RngStream

ROUNDS = stage_rounds(MLDCircuit.k_path(5), EPS)  # detect_path's


def _shape(n1: int, **extra) -> dict:
    """Two processor groups of ``n1`` ranks, 4 iterations per phase; the
    4-rank layout leaves rank 2 without a vertex."""
    shape = dict(n_processors=2 * n1, n1=n1, n2=4, **extra)
    if n1 == 4:
        session = EngineSession(GRAPH, n1=4)
        session._partition = partition_with_empty_rank(GRAPH, 4, empty_rank=2, seed=6)
        shape["session"] = session
    return shape


@pytest.fixture
def sim_runs(monkeypatch):
    """Counts ``Simulator.run`` calls while the test runs."""
    calls = []
    real = Simulator.run

    def counted(self, program):
        calls.append(self.nranks)
        return real(self, program)

    monkeypatch.setattr(Simulator, "run", counted)
    return calls


# ------------------------------------------------- memoised == fully enacted
@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("n1", [1, 3, 4])
@pytest.mark.parametrize("overlap", [False, True], ids=["blocking", "overlap"])
@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_memoised_run_equals_fully_enacted_run(driver, overlap, n1, trace, sim_runs):
    memo = observe(driver, trace=trace, **_shape(n1, overlap=overlap))
    n_memo = len(sim_runs)
    full = observe(driver, trace=trace, **_shape(n1, overlap=overlap, sanitize="warn"))
    n_full = len(sim_runs) - n_memo

    # round values, phase and round digests, virtual seconds per round and
    # in total, comm bytes; traced: send counts/bytes, event and edge counts
    assert identity(memo) == identity(full)
    assert n_memo == 1 < n_full  # the stage's one enacted window
    assert n_full == len(memo["phase_digests"])  # one per window
    if n1 == 4:
        assert memo["_rt"].session.ensure_partition().part_nodes(2).size == 0
    if not trace:
        return
    nranks = 2 * n1
    a, b = memo["_rec"], full["_rec"]
    sa, sb = (TraceSummary.from_events(r.events, nranks) for r in (a, b))
    assert np.array_equal(sa.bytes_sent, sb.bytes_sent)
    assert np.array_equal(sa.comm, sb.comm) and np.array_equal(sa.idle, sb.idle)
    assert sa.makespan == sb.makespan
    # the spliced timelines are the same lists, event for event
    assert a.events == b.events and a.edges == b.edges
    pa, pb = (extract_critical_path(r.events, r.edges) for r in (a, b))
    assert pa.to_dict() == pb.to_dict()
    assert pa.length == pytest.approx(pa.makespan, rel=1e-9)


# ------------------------------------------------------- when windows are enacted
def _windows(seen: dict) -> int:
    return len(seen["phase_digests"])


def test_fault_free_enacts_once_per_stage(sim_runs):
    seen = observe("detect_path", trace=False, **_shape(3))
    assert _windows(seen) == ROUNDS * 8 and len(sim_runs) == 1
    del sim_runs[:]
    seen = observe("scan_grid", trace=False, **_shape(3))
    # the grid is one stage, every size in its one run
    assert len(sim_runs) == 1 < _windows(seen)


QUIET_PLAN = FaultPlan(specs=(FaultSpec(kind="delay", src=0, dst=1, delay=1e-6,
                                        p=0.0),), seed=3)


@pytest.mark.parametrize("forcing", [
    dict(fault_plan=QUIET_PLAN),
    dict(sanitize="warn"),
    dict(sanitize="strict"),
    dict(measure_compute=True),
], ids=["fault-plan", "sanitize-warn", "sanitize-strict", "measured-compute"])
def test_faults_sanitizer_and_measured_compute_enact_every_window(forcing, sim_runs):
    seen = observe("detect_path", trace=False, **_shape(3, **forcing))
    assert len(sim_runs) == _windows(seen) == ROUNDS * 8
    assert set(sim_runs) == {3}


def test_stored_timeline_is_plain_data(monkeypatch):
    """Nothing reachable from a stored timeline is a Simulator, a rank
    generator or a rank's result: those keep each other alive in cycles."""
    backends = {}
    real = DetectionEngine.phase_done

    def spy(self, *args, **kw):
        backends[id(self.backend)] = self.backend
        return real(self, *args, **kw)

    monkeypatch.setattr(DetectionEngine, "phase_done", spy)
    observe("max_weight_path", trace=True, **_shape(3))
    (backend,) = backends.values()
    timeline = backend.timeline
    assert len(timeline.events) > 0 and len(timeline.edges) > 0
    seen, todo = set(), [timeline]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        assert not isinstance(obj, (Simulator, types.GeneratorType, types.FunctionType)), obj
        todo.extend(gc.get_referents(obj))
    assert len(seen) > len(timeline.events)  # the walk went through the lists


# ------------------------------------------------ one exchange pattern a stage
@pytest.mark.parametrize("driver", ["detect_path", "detect_tree", "max_weight_path",
                                    "scan_grid"])
def test_every_window_of_a_stage_sends_the_same_rows(driver, monkeypatch):
    """In every enacted window (all of them, sanitized), exchange ``i``'s
    payloads have one ``(row shape, dtype)``, the same in every window of
    the stage: what lets the backend enact one window and reuse its
    timeline."""
    windows = []  # per window: [{(row shape, dtype) sent}, one per exchange]
    program = engine_module.phase_program

    def spied_program(views, recurrence, fp, q0, n2, **kw):
        sent = []
        windows.append(sent)
        inner = program(views, recurrence, fp, q0, n2, **kw)

        def spied(ctx):  # records each rank's i-th Exchange under i
            gen, value, posted = inner(ctx), None, 0
            while True:
                try:
                    op = gen.send(value)
                except StopIteration as stop:
                    return stop.value
                if isinstance(op, Exchange):
                    if posted == len(sent):
                        sent.append(set())
                    sent[posted].update((rows.shape[1:], rows.dtype)
                                        for rows in op.sends.values())
                    posted += 1
                value = yield op

        return spied

    monkeypatch.setattr(engine_module, "phase_program", spied_program)
    seen = observe(driver, trace=False, **_shape(3, sanitize="warn"))
    assert len(windows) == _windows(seen) > 1
    first = windows[0]
    assert len(first) >= 2 and all(len(payloads) == 1 for payloads in first)
    assert all(sent == first for sent in windows)


# ------------------------------------------------- value check on enactment
@pytest.mark.parametrize("kind", ["path", "weighted"])
@pytest.mark.parametrize("n2", [2, 8, 32])
@pytest.mark.parametrize("width", [4, 8, 32])
def test_window_values_are_each_windows_phase_value(kind, n2, width):
    """A run spanning several windows, one window per run, and a window
    spanning several runs all give each window its own value."""
    circuit = (MLDCircuit.k_path(5) if kind == "path"
               else MLDCircuit.weighted_path(WEIGHTS, 5, 4))
    spec = compile(circuit, default_field_for_k(circuit.y_degree,
                                                kernel_strategy="bitsliced"))
    fp = spec.draw_fingerprint(GRAPH.n, RngStream(43))
    got = spec.window_values(GRAPH, fp, n2, width)
    want = [spec.phase_value(GRAPH, fp, q0, n2) for q0 in range(0, 1 << spec.k, n2)]
    assert len(got) == len(want) == (1 << spec.k) // n2
    for g, w in zip(got, want):
        assert np.array_equal(g, w) and type(g) is type(w)


def _run_spec(spec, **shape):
    rt = MidasRuntime(mode="simulated", metrics=MetricsRegistry(), **shape)
    with DetectionEngine(GRAPH, rt, spec.name) as engine:
        return engine.run_stage(spec, 2, RngStream(41))


@pytest.mark.parametrize("bad_call,where", [(1, (0, 0, 0))])
def test_corrupted_whole_graph_value_is_caught_where_it_is_enacted(
        bad_call, where, monkeypatch):
    """The stage's one enacted window is checked against its whole-graph
    value: a wrong bit there stops the run, naming the window."""
    real = ProblemSpec.window_values
    calls = {"n": 0}

    def crooked(self, *args, **kw):
        # round 0's whole-graph values, the bad_call-th (from 1, in phase
        # order) off by one bit
        calls["n"] += 1
        values = real(self, *args, **kw)
        if calls["n"] == 1:
            values[bad_call - 1] ^= 1
        return values

    monkeypatch.setattr(ProblemSpec, "window_values", crooked)
    with pytest.raises(ReplayMismatchError) as ei:
        _run_spec(compile(MLDCircuit.k_path(3)), n_processors=3, n1=3, n2=2)
    err = ei.value
    assert (err.round_index, err.batch, err.phase) == where
    assert f"r{where[0]}/b{where[1]}/p{where[2]}" in str(err)
