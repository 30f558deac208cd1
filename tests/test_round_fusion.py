"""Round fusion: a window carries several amplification rounds.

Rounds are independent — each draws its own fingerprint — so when one
phase covers a whole round, ``MidasRuntime.schedule_for(..., rounds=)``
lets a window carry ``R = rounds_per_window`` of them side by side.  What
that must not change is pinned in ``test_round_identity.py`` (the
answers, round values and digests of the code before it).  Here: the
rule that picks ``R``; a fused plane window folding to the one-round and
the element-wise values, at every width;
the live-state counts the rule budgets with, measured; the stage stream
left where a one-round-at-a-time run leaves it; a checkpoint resumed
under a different ``R``; the reported schedules; and the spans.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.engine import DetectionEngine, MidasRuntime
from repro.core.midas import (
    detect_path,
    detect_tree,
    max_weight_path,
    scan_grid,
    stage_rounds,
)
from repro.core.mld import MLDCircuit
from repro.core.problems import compile
from repro.core.schedule import PhaseSchedule, rounds_for_bound, rounds_for_epsilon
from repro.errors import ConfigurationError
from repro.ff.gf2m import default_field_for_k, round_success_bound
from repro.graph.csr import CSRGraph
from repro.graph.generators import erdos_renyi
from repro.graph.templates import TreeTemplate
from repro.runtime.durable import Watchdog
from repro.scanstat.baseline_grid import baseline_scan_grid
from repro.util.rng import RngStream

from _leveldp_drivers import element_value, log_layouts

# the golden's sparse graph: a k = 5 path stage with seed 54 and four
# rounds misses round 0 and hits in round 1
from test_round_identity import GRAPH as SPARSE

G = erdos_renyi(60, m=150, rng=RngStream(91, name="g"))
W = RngStream(92, name="w").integers(0, 3, size=G.n)


# ------------------------------------------------------------------ the rule
@pytest.mark.parametrize("k, rounds, rpw", [
    (6, 8, 8),  # 512 lanes
    (5, 8, 8),  # 256 lanes
    (6, 11, 11),  # every round left: any count, not only a power of two
    (6, 3, 3),
    (8, 8, 4),  # the 1024-lane cap
    (10, 8, 1),  # a round fills the cap already
    (11, 8, 1),  # a round is several windows
])
def test_sequential_rule(k, rounds, rpw):
    sched = MidasRuntime().schedule_for(k, 60, rounds=rounds)
    assert sched.rounds_per_window == rpw
    assert sched.lanes == rpw * sched.n2


def test_without_rounds_the_schedule_is_unfused():
    rt = MidasRuntime()
    for k in (4, 6, 10):
        assert rt.schedule_for(k).rounds_per_window == 1
        assert rt.schedule_for(k, 1500).rounds_per_window == 1
        assert rt.schedule_for(k, 1500, rounds=8).n2 == rt.schedule_for(k, 1500).n2


@pytest.mark.parametrize("knobs", [
    dict(mode="simulated", n_processors=4, n1=2),
    dict(mode="modeled", n_processors=4, n1=2),
    dict(n2=64),  # an explicit window is the window
    dict(n2=32),
])
def test_no_fusion_outside_the_default_whole_graph_window(knobs):
    assert MidasRuntime(**knobs).schedule_for(6, 60, rounds=8).rounds_per_window == 1


def test_pool_modes_keep_a_window_per_worker():
    for mode in ("threaded", "process"):
        rt = MidasRuntime(mode=mode, workers=2)
        assert rt.schedule_for(6, 60, rounds=8).rounds_per_window == 4
        assert rt.schedule_for(6, 60, rounds=3).rounds_per_window == 1
        assert MidasRuntime(mode=mode, workers=4).schedule_for(
            5, 60, rounds=8).rounds_per_window == 2


def test_the_live_states_bound_the_window():
    """``live_states`` states of ``8 l n payload`` bytes a word fit in
    three times the state budget: heavier kinds fuse fewer rounds."""
    rt = MidasRuntime()
    # 1500 vertices, l = 5: 60 000 B a word; path k = 6, R = 8 is 8 words
    assert rt.schedule_for(6, 1500, 5, rounds=8, live_states=3).rounds_per_window == 8
    assert rt.schedule_for(6, 1500, 5, rounds=8, live_states=9).rounds_per_window == 4
    assert rt.schedule_for(6, 1500, 5, payload=7, rounds=8,
                           live_states=4).rounds_per_window == 1


def test_a_fused_schedule_covers_whole_rounds():
    assert PhaseSchedule(6, 1, 1, 64, 4).lanes == 256
    with pytest.raises(ConfigurationError):
        PhaseSchedule(6, 1, 1, 32, 2)
    with pytest.raises(ConfigurationError):
        PhaseSchedule(6, 1, 1, 64, 0)


# ------------------------------------------------------------- the count
#: kind -> call(runtime) at eps = 0.2, every round run
PREFIX_DRIVERS = {
    "path": lambda rt: detect_path(G, 6, eps=0.2, rng=RngStream(61), runtime=rt,
                                   early_exit=False),
    "tree": lambda rt: detect_tree(G, TreeTemplate.binary(5), eps=0.2,
                                   rng=RngStream(62), runtime=rt, early_exit=False),
    "wpath": lambda rt: max_weight_path(G, 4, W, eps=0.2, rng=RngStream(63),
                                        runtime=rt),
    "scan": lambda rt: scan_grid(G, W, 3, eps=0.2, rng=RngStream(64), runtime=rt),
}


@pytest.mark.parametrize("mode", ["sequential", "process"])
@pytest.mark.parametrize("kind", sorted(PREFIX_DRIVERS))
def test_each_stage_runs_the_first_rounds_of_the_kind_free_count(monkeypatch,
                                                                 kind, mode):
    """Every stage a driver runs is its circuit's ``stage_rounds``, and its
    values are the first of what ``run_stage`` answers for the same spec
    and stream at the kind-free ``rounds_for_epsilon(eps)``: the shorter
    count cuts the same run short, nothing else."""
    rt = MidasRuntime(mode=mode, workers=2)
    stages, real = [], DetectionEngine.run_stage

    def spy(self, spec, rounds, rng, **kw):
        stream = RngStream.from_state(rng.state())
        out = real(self, spec, rounds, rng, **kw)
        stages.append((spec, rounds, stream, kw, out.values))
        return out

    monkeypatch.setattr(DetectionEngine, "run_stage", spy)
    PREFIX_DRIVERS[kind](rt)
    monkeypatch.undo()
    assert stages
    for spec, rounds, stream, kw, values in stages:
        assert rounds == len(values) == stage_rounds(spec.circuit, 0.2)
        assert rounds < rounds_for_epsilon(0.2) == 8
        with DetectionEngine(G, MidasRuntime(mode=mode, workers=2), spec.name) as engine:
            full = engine.run_stage(spec, rounds_for_epsilon(0.2), stream, **kw)
        assert len(full.values) == 8
        assert all(np.array_equal(a, b) for a, b in zip(values, full.values[:rounds]))


def test_secondary_drivers_count_the_rounds_that_run():
    """The Theorem-2 estimate charges a stage's own rounds (the modeled
    clock is that estimate), and a grid runs its top row's rounds, which
    in the top row's field are as many as any row's bound needs."""
    rt = MidasRuntime(mode="modeled", n_processors=4, n1=2)
    res = detect_path(G, 10, eps=0.2, rng=RngStream(65), runtime=rt, early_exit=False)
    est = res.details["estimate"]
    assert res.rounds_run == est.rounds == stage_rounds(MLDCircuit.k_path(10), 0.2) == 6
    assert res.virtual_seconds == pytest.approx(est.total_seconds)

    top = MLDCircuit.scan_row(W, 3, 0)
    m = default_field_for_k(top.y_degree).m
    rows = {j: rounds_for_bound(0.2, round_success_bound(j, m, 2 * j - 1))
            for j in (1, 2, 3)}
    assert rows == {1: 3, 2: 4, 3: 6} and stage_rounds(top, 0.2) == 6
    assert scan_grid(G, W, 3, eps=0.2, rng=RngStream(66)).rounds_run == 6
    assert baseline_scan_grid(G, W, np.ones(G.n, dtype=np.int64), 3, b_max=2,
                              eps=0.2, rng=RngStream(67)).rounds_run == 6


# ----------------------------------------------------------------- layouts
def _spec(circuit, field_for):
    return compile(circuit, field_for(circuit.y_degree))


def _specs(field_for):
    return {
        "path": _spec(MLDCircuit.k_path(6), field_for),
        "tree": _spec(MLDCircuit.k_tree(TreeTemplate.binary(5)), field_for),
        "wpath": _spec(MLDCircuit.weighted_path(W, 4, 8), field_for),
        "scan": _spec(MLDCircuit.scan_row(W, 3, 6), field_for),
    }


@pytest.mark.parametrize("kernel", ["table", "bitsliced"])
@pytest.mark.parametrize("rounds", [2, 4, 16])
def test_a_fused_window_is_each_rounds_window(kernel, rounds):
    """Round-major lanes, per-lane ``y``, per-round XOR: every round's
    value is its one-round window's and the element-wise reference's —
    on whole words per round, and with several rounds in one word, on
    either kernel's field."""
    specs = _specs(lambda d: default_field_for_k(d, kernel_strategy=kernel))
    for name, spec in specs.items():
        n2 = 1 << spec.k
        fps = [spec.draw_fingerprint(G.n, RngStream(93 + r)) for r in range(rounds)]
        fused = spec.phase_values(G, fps, 0, n2)
        assert len(fused) == rounds
        for fp, value in zip(fps, fused):
            assert np.array_equal(value, spec.phase_value(G, fp, 0, n2)), name
            assert np.array_equal(value, element_value(G, spec.recurrence, fp, 0, n2,
                                                       spec.points)), name


@pytest.mark.parametrize("k", [2, 3, 4, 5])
@pytest.mark.parametrize("rounds", [3, 5, 6, 7])
def test_a_ragged_last_word_is_each_rounds_window(k, rounds, monkeypatch, tmp_path):
    """A round count that does not fill whole words (``R 2^k`` lanes, a
    ``64 / 2^k``-round word): the last word's missing rounds are zero
    lanes, and every round's value is its one-round window's — in one
    plane run, whether or not ``R 2^k`` reaches a word."""
    spec = _spec(MLDCircuit.k_path(k), default_field_for_k)
    n2 = 1 << k
    fps = [spec.draw_fingerprint(G.n, RngStream(97 + r)) for r in range(rounds)]
    layouts = log_layouts(monkeypatch, tmp_path / "layouts")
    fused = spec.phase_values(G, fps, 0, n2)
    assert layouts() == [("Lanes", rounds * n2)]
    assert fused == [spec.phase_value(G, fp, 0, n2) for fp in fps]


def test_the_layout_is_planes_at_every_width(monkeypatch, tmp_path):
    """Whatever the field's kernel and however few lanes — one, a
    one-round 32-lane window, two rounds in one word — a whole-graph run
    is bit-planes."""
    layouts = log_layouts(monkeypatch, tmp_path / "layouts")
    for kernel in ("table", "logexp", "bitsliced"):
        spec = _spec(MLDCircuit.k_path(5),
                     lambda d: default_field_for_k(d, kernel_strategy=kernel))
        fps = [spec.draw_fingerprint(G.n, RngStream(r)) for r in range(2)]
        spec.phase_values(G, fps[:1], 7, 1)
        spec.phase_values(G, fps[:1], 0, 32)
        spec.phase_values(G, fps, 0, 32)
    assert layouts() == [("Lanes", 1), ("Lanes", 32), ("Lanes", 64)] * 3


def test_live_states_are_what_the_recurrences_keep(monkeypatch):
    """Measured with ``tracemalloc`` on one fused window of each kind: on
    the numpy reference a spec's ``live_states`` never overstates its
    peak, and the peak stays within ``2 live + 2`` states (a product kept
    between levels holds its ``2m - 1``-plane buffer, and a multiply adds
    its partial planes).  The compiled level step allocates only the
    states it returns, so where it is built its peak stays within the
    same ``2 live + 2``, and the window budget errs on the safe side."""
    from repro.ff import native
    g = erdos_renyi(1500, m=6000, rng=RngStream(94, name="g"))
    w = RngStream(95, name="w").integers(0, 2, size=g.n)

    def bitsliced(d):
        return default_field_for_k(d, kernel_strategy="bitsliced")

    specs = [_spec(circuit, bitsliced) for circuit in (
        MLDCircuit.k_path(6),
        MLDCircuit.k_tree(TreeTemplate.binary(5)),
        MLDCircuit.k_tree(TreeTemplate.star(6)),
        MLDCircuit.weighted_path(w, 6, 6),
        MLDCircuit.scan_row(w, 5, 5),
    )]
    for lib in {native.LIB, None}:
        monkeypatch.setattr(native, "LIB", lib)
        for spec in specs:
            rounds, n2 = 4, 1 << spec.k
            fps = [spec.draw_fingerprint(g.n, RngStream(96 + r)) for r in range(rounds)]
            spec.phase_values(g, fps, 0, n2)  # the layout's caches exist
            tracemalloc.start()
            try:
                spec.phase_values(g, fps, 0, n2)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            state = 8 * spec.field.m * g.n * spec.payload * (rounds * n2 // 64)
            states = peak / state
            floor = spec.live_states if lib is None else 0
            assert floor <= states <= 2 * spec.live_states + 2, (
                spec.name, lib is None, spec.live_states, round(states, 2))


# ------------------------------------------------------------- the stream
@pytest.mark.parametrize("mode", ["sequential", "process"])
def test_an_early_exit_leaves_the_stream_where_one_round_at_a_time_does(mode):
    """Round 1 hits inside the batch of rounds 1 and 2 (one window
    sequentially, one per worker on the fleet): the stage stream has
    spawned two children, not three, and hands out the next one a
    one-round-at-a-time run would."""
    rt = MidasRuntime(mode=mode, workers=2)
    rng = RngStream(54)
    res = detect_path(SPARSE, 5, eps=0.5, rng=rng, runtime=rt)
    assert res.found and res.rounds_run == 2
    assert rng.state()["n_children_spawned"] == res.rounds_run
    assert res.details["wall"]["rounds"] == res.rounds_run
    batches = [s.tags["rounds"] for s in rt.profiler.spans
               if s.name == "engine.round"]
    assert batches == [1, 2], "the hit was not in a batch of rounds"
    reference = RngStream(54)
    for ell in range(res.rounds_run):
        reference.child(f"round{ell}")
    assert (rng.child("next").integers(0, 1 << 62)
            == reference.child("next").integers(0, 1 << 62))


# ----------------------------------------------------------------- resume
ISLANDS = CSRGraph.from_edges(24, [(4 * c + i, 4 * c + j) for c in range(6)
                                   for i in range(4) for j in range(i + 1, 4)])


class _Clock:
    """A watchdog clock past the deadline once ``after`` rounds are in."""

    def __init__(self, after: int) -> None:
        self.after, self.rounds = after, 0

    def __call__(self) -> float:
        return 100.0 if self.rounds >= self.after else 0.0


@pytest.mark.parametrize("resume_knobs", [
    dict(mode="process", workers=2),
    dict(n2=64),  # 2^(k-1): two windows a round, one round at a time
], ids=["process-workers=2", "n2=2^(k-1)"])
def test_a_checkpoint_resumes_under_another_fusion_factor(tmp_path, monkeypatch,
                                                         resume_knobs):
    """10 rounds of a witness-free k = 7 path: a sequential run fuses the
    first eight into one window (the 1024-lane cap) and is cut by its
    deadline there; the resume runs the last two under another ``R`` —
    a one-round window per worker, or one round over two windows — and
    answers exactly like the uninterrupted run.  The stage identity names
    neither N2 nor R, so the checkpoint is accepted."""
    def run(rt):
        return detect_path(ISLANDS, 7, eps=0.1, rng=RngStream(7), runtime=rt,
                           early_exit=False)

    control = run(MidasRuntime())
    assert control.rounds_run == 10 and not control.found

    clock = _Clock(after=1)
    real = DetectionEngine.note_round

    def counting(self, ell, value):
        clock.rounds += 1
        return real(self, ell, value)

    monkeypatch.setattr(DetectionEngine, "note_round", counting)
    rt = MidasRuntime(checkpoint_dir=str(tmp_path),
                      watchdog=Watchdog(deadline=10.0, clock=clock))
    cut = run(rt)
    rt.close_live()
    monkeypatch.undo()
    assert cut.details["degraded"]["reason"] == "deadline"
    assert cut.rounds_run == 8  # the whole first batch, one window

    rt = MidasRuntime(checkpoint_dir=str(tmp_path), resume=True, **resume_knobs)
    resumed = run(rt)
    rt.close_live()
    assert [r.value for r in resumed.rounds] == [r.value for r in control.rounds]
    assert resumed.details["resumed_from"]


# ---------------------------------------------------- schedules and spans
def test_every_result_reports_the_schedule_it_ran():
    """A default-schedule scan grid reports the N2 of its one run, like
    detect_path reports its own, and so does a trivially absent query."""
    grid = scan_grid(G, W, 4, eps=0.5, rng=RngStream(1))
    assert grid.n2 == MidasRuntime().schedule_for(4, G.n).n2 == 16
    assert detect_path(G, 6, eps=0.5, rng=RngStream(1)).n2 == 64
    tiny = erdos_renyi(5, m=4, rng=RngStream(2))
    assert detect_path(tiny, 6, rng=RngStream(3)).n2 == 64
    assert detect_tree(tiny, TreeTemplate.binary(6), rng=RngStream(3)).n2 == 64
    assert detect_path(tiny, 6, rng=RngStream(3),
                       runtime=MidasRuntime(n2=16)).n2 == 16


def test_a_small_query_is_one_kernel_span_tagged_with_its_rounds():
    rt = MidasRuntime()
    res = detect_path(G, 6, eps=0.2, rng=RngStream(4), runtime=rt, early_exit=False)
    kernels = [s for s in rt.profiler.spans if s.name == "engine.kernel"]
    batches = [s for s in rt.profiler.spans if s.name == "engine.round"]
    assert res.rounds_run == 6 and len(kernels) == 1 and len(batches) == 1
    assert kernels[0].tags["round"] == 0 and kernels[0].tags["rounds"] == 6
    assert batches[0].tags["rounds"] == 6
    assert res.details["wall"]["rounds"] == 6


def test_early_exit_batches_grow_one_two_four():
    rt = MidasRuntime()
    res = detect_path(ISLANDS, 6, eps=0.1, rng=RngStream(7), runtime=rt)
    assert res.rounds_run == 9
    assert [s.tags["rounds"] for s in rt.profiler.spans
            if s.name == "engine.round"] == [1, 2, 4, 2]
