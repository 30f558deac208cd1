"""End-to-end tests for the MIDAS driver (Algorithm 2).

Correctness contract (one-sided Monte Carlo):

* "found" answers are always backed by the brute-force oracle — tested on
  many random graphs, never a single false positive allowed;
* "not found" answers may be wrong with probability <= eps — tested
  statistically with planted instances at small eps;
* all three execution modes produce identical round transcripts for the
  same seed (parallelization changes nothing);
* the (N, N1, N2) decomposition never changes answers.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.midas import (
    MidasRuntime, detect_path, detect_scan_cell, detect_tree, max_weight_path,
    scan_grid,
)
from repro.core.schedule import MAX_K
from repro.errors import ConfigurationError
from repro.graph.csr import CSRGraph
from repro.graph.generators import erdos_renyi, grid2d, plant_path, plant_tree
from repro.graph.templates import TreeTemplate
from repro.util.rng import RngStream

from _test_oracles import connected_subgraph_cells, has_k_path


class TestDetectPathCorrectness:
    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=15, deadline=None)
    def test_no_false_positives(self, seed):
        """found=True must always be confirmed by exhaustive search."""
        g = erdos_renyi(18, m=22, rng=RngStream(seed))
        k = 5
        res = detect_path(g, k, eps=0.3, rng=RngStream(seed + 1))
        if res.found:
            assert has_k_path(g, k), f"false positive at seed {seed}"

    def test_planted_paths_found(self):
        """With eps=0.02, misses should be ~2%; across 25 plants allow 3."""
        misses = 0
        for seed in range(25):
            g = erdos_renyi(40, m=50, rng=RngStream(seed))
            g2, _ = plant_path(g, 7, rng=RngStream(seed + 1000))
            res = detect_path(g2, 7, eps=0.02, rng=RngStream(seed + 2000))
            misses += not res.found
        assert misses <= 3

    def test_star_never_has_long_path(self, star_graph):
        for seed in range(8):
            res = detect_path(star_graph, 4, eps=0.1, rng=RngStream(seed))
            assert not res.found

    def test_k_larger_than_graph(self):
        g = grid2d(2, 2)
        res = detect_path(g, 10, rng=RngStream(0))
        assert not res.found
        assert res.details.get("reason") == "k exceeds |V|"

    def test_k_past_the_schedule_limit_reports_no_schedule(self):
        """k = MAX_K + 1 > n is trivially absent, with no window reported
        (none exists past the limit); at k = MAX_K > n the window reported
        is the one a run would take."""
        g = grid2d(2, 2)
        past = detect_path(g, MAX_K + 1, rng=RngStream(0))
        assert not past.found and past.n2 == 0
        assert past.details.get("reason") == "k exceeds |V|"
        at = detect_path(g, MAX_K, rng=RngStream(0))
        assert at.n2 == MidasRuntime().schedule_for(MAX_K, g.n).n2 > 0

    def test_k_below_one_is_a_configuration_error_naming_k(self):
        with pytest.raises(ConfigurationError, match="k must be >= 1, got 0"):
            detect_path(grid2d(2, 2), 0)

    def test_k1_any_vertex(self):
        g = CSRGraph.from_edges(3, [])
        # a 1-path is a vertex; success probability per round is ~1 for n=3
        res = detect_path(g, 1, eps=0.01, rng=RngStream(1))
        assert res.found

    def test_early_exit_stops_rounds(self):
        g, _ = plant_path(erdos_renyi(30, m=40, rng=RngStream(2)), 5, rng=RngStream(3))
        res = detect_path(g, 5, eps=0.001, rng=RngStream(4), early_exit=True)
        if res.found:
            assert res.rounds_run <= res.first_hit_round + 1

    def test_result_metadata(self):
        g = erdos_renyi(20, m=30, rng=RngStream(5))
        res = detect_path(g, 4, eps=0.2, rng=RngStream(6))
        assert res.problem == "k-path"
        assert res.k == 4
        assert res.eps == 0.2
        assert res.mode == "sequential"
        assert res.wall_seconds > 0
        assert "k-path" in res.summary()


class TestDetectTreeCorrectness:
    @pytest.mark.parametrize(
        "template",
        [TreeTemplate.star(5), TreeTemplate.binary(6), TreeTemplate.caterpillar(6)],
        ids=lambda t: t.name,
    )
    def test_planted_templates_found(self, template):
        misses = 0
        for seed in range(10):
            g = erdos_renyi(40, m=45, rng=RngStream(seed))
            g2, _ = plant_tree(g, template, rng=RngStream(seed + 100))
            res = detect_tree(g2, template, eps=0.02, rng=RngStream(seed + 200))
            misses += not res.found
        assert misses <= 2

    def test_star_cannot_embed_in_path(self):
        g = CSRGraph.from_edges(10, [(i, i + 1) for i in range(9)])
        for seed in range(6):
            res = detect_tree(g, TreeTemplate.star(4), eps=0.1, rng=RngStream(seed))
            assert not res.found

    def test_details_carry_template(self):
        g = erdos_renyi(20, m=40, rng=RngStream(7))
        res = detect_tree(g, TreeTemplate.binary(4), rng=RngStream(8))
        assert res.details["template"] == "binary4"
        assert res.details["n_subtrees"] >= 4


class TestModesAgree:
    @pytest.mark.parametrize(
        "n, n1, n2",
        [(4, 2, 4), (8, 4, 8), (8, 8, 2), (2, 1, 16), (16, 4, 1)],
    )
    def test_simulated_equals_sequential_path(self, n, n1, n2):
        g = erdos_renyi(30, m=70, rng=RngStream(11))
        k = 5
        kwargs = dict(eps=0.3, early_exit=False)
        seq = detect_path(g, k, rng=RngStream(99), runtime=MidasRuntime(
            n_processors=n, n1=n1, n2=n2, mode="sequential"), **kwargs)
        sim = detect_path(g, k, rng=RngStream(99), runtime=MidasRuntime(
            n_processors=n, n1=n1, n2=n2, mode="simulated"), **kwargs)
        assert [r.value for r in seq.rounds] == [r.value for r in sim.rounds]
        assert sim.virtual_seconds > 0

    def test_modeled_equals_sequential_answers(self):
        g = erdos_renyi(30, m=70, rng=RngStream(12))
        seq = detect_path(g, 5, rng=RngStream(99), early_exit=False,
                          runtime=MidasRuntime(n_processors=8, n1=4, n2=4))
        mod = detect_path(g, 5, rng=RngStream(99), early_exit=False,
                          runtime=MidasRuntime(n_processors=8, n1=4, n2=4, mode="modeled"))
        assert [r.value for r in seq.rounds] == [r.value for r in mod.rounds]
        assert mod.virtual_seconds > 0
        assert "estimate" in mod.details

    def test_simulated_equals_sequential_tree(self):
        g = erdos_renyi(25, m=55, rng=RngStream(13))
        tmpl = TreeTemplate.binary(5)
        seq = detect_tree(g, tmpl, rng=RngStream(77), early_exit=False,
                          runtime=MidasRuntime(n_processors=3, n1=3, n2=8,
                                               mode="sequential"))
        sim = detect_tree(g, tmpl, rng=RngStream(77), early_exit=False,
                          runtime=MidasRuntime(n_processors=3, n1=3, n2=8,
                                               mode="simulated"))
        assert [r.value for r in seq.rounds] == [r.value for r in sim.rounds]

    def test_answer_independent_of_decomposition(self):
        """Same seed, different (N, N1, N2): identical transcripts."""
        g = erdos_renyi(30, m=60, rng=RngStream(14))
        transcripts = []
        for n, n1, n2 in [(1, 1, 8), (4, 2, 16), (8, 2, 4)]:
            rt = MidasRuntime(n_processors=n, n1=n1, n2=n2, mode="sequential")
            res = detect_path(g, 5, rng=RngStream(55), runtime=rt, early_exit=False)
            transcripts.append([r.value for r in res.rounds])
        assert transcripts[0] == transcripts[1] == transcripts[2]

    def test_observability_does_not_change_results(self):
        """Recorder + metrics attached or absent: identical transcripts."""
        from repro.obs.metrics import MetricsRegistry
        from repro.runtime.tracing import TraceRecorder

        g = erdos_renyi(30, m=70, rng=RngStream(11))
        kwargs = dict(eps=0.3, early_exit=False)

        def run(**extra):
            rt = MidasRuntime(n_processors=8, n1=4, n2=8, mode="simulated",
                              **extra)
            res = detect_path(g, 5, rng=RngStream(99), runtime=rt, **kwargs)
            return [r.value for r in res.rounds]

        rec = TraceRecorder(enabled=True)
        reg = MetricsRegistry()
        plain = run()
        observed = run(recorder=rec, metrics=reg)
        disabled = run(recorder=TraceRecorder(enabled=False),
                       metrics=MetricsRegistry())
        assert plain == observed == disabled
        assert len(rec.events) > 0
        snap = reg.snapshot()
        assert snap.get("midas_rounds_total", problem="k-path",
                        mode="simulated") == len(plain)

    def test_observability_does_not_change_scan_grid(self):
        from repro.obs.metrics import MetricsRegistry
        from repro.runtime.tracing import TraceRecorder

        g = grid2d(3, 3)
        w = np.array([1, 0, 1, 0, 2, 0, 1, 0, 1], dtype=np.int64)
        rec = TraceRecorder(enabled=True)
        a = scan_grid(g, w, k=3, eps=0.1, rng=RngStream(30),
                      runtime=MidasRuntime(n_processors=2, n1=2, n2=2,
                                           mode="simulated"))
        b = scan_grid(g, w, k=3, eps=0.1, rng=RngStream(30),
                      runtime=MidasRuntime(n_processors=2, n1=2, n2=2,
                                           mode="simulated", recorder=rec,
                                           metrics=MetricsRegistry()))
        assert np.array_equal(a.detected, b.detected)
        assert a.virtual_seconds == pytest.approx(b.virtual_seconds)
        assert any(e.scope is not None and e.scope.label.startswith("size")
                   for e in rec.events)


class TestScanGrid:
    def test_exact_against_enumeration(self, tiny_grid):
        w = np.array([1, 0, 2, 0, 1, 0, 3, 0, 1, 2, 0, 1], dtype=np.int64)
        res = scan_grid(tiny_grid, w, k=3, eps=0.02, rng=RngStream(20))
        truth = connected_subgraph_cells(tiny_grid, w, 3)
        got = set(res.feasible_cells())
        assert got <= truth  # one-sided: never a false cell
        assert len(truth - got) <= 1  # tiny miss budget at eps=0.02

    def test_simulated_equals_sequential(self):
        g = grid2d(3, 3)
        w = np.array([1, 0, 1, 0, 2, 0, 1, 0, 1], dtype=np.int64)
        a = scan_grid(g, w, k=3, eps=0.1, rng=RngStream(30),
                      runtime=MidasRuntime(n_processors=2, n1=2, n2=2, mode="sequential"))
        b = scan_grid(g, w, k=3, eps=0.1, rng=RngStream(30),
                      runtime=MidasRuntime(n_processors=2, n1=2, n2=2, mode="simulated"))
        assert np.array_equal(a.detected, b.detected)
        assert b.virtual_seconds > 0

    def test_zmax_default_caps_at_topk(self):
        g = grid2d(2, 3)
        w = np.array([5, 1, 1, 1, 1, 1], dtype=np.int64)
        res = scan_grid(g, w, k=2, rng=RngStream(31))
        assert res.z_max == 6  # top-2 weights: 5 + 1

    def test_best_cell(self):
        g = grid2d(2, 2)
        w = np.array([1, 1, 0, 0], dtype=np.int64)
        res = scan_grid(g, w, k=2, eps=0.05, rng=RngStream(32))
        score, j, z = res.best_cell(lambda z, j: z - 0.01 * j)
        assert (j, z) == (2, 2)

    def test_invalid_args(self):
        g = grid2d(2, 2)
        with pytest.raises(ConfigurationError):
            scan_grid(g, np.ones(3, dtype=np.int64), k=2)
        with pytest.raises(ConfigurationError):
            scan_grid(g, -np.ones(4, dtype=np.int64), k=2)
        with pytest.raises(ConfigurationError):
            scan_grid(g, np.ones(4, dtype=np.int64), k=0)
        # the single-cell driver validates the same vector the same way,
        # whatever cell is asked for
        for bad in (np.ones(3, dtype=np.int64), -np.ones(4, dtype=np.int64)):
            for size in (2, 9):
                with pytest.raises(ConfigurationError):
                    detect_scan_cell(g, bad, size, 1)


class TestTracing:
    def test_simulated_run_carries_trace_summary(self):
        g = erdos_renyi(25, m=60, rng=RngStream(44))
        rt = MidasRuntime(n_processors=4, n1=4, n2=8, mode="simulated", trace=True)
        res = detect_path(g, 4, eps=0.3, rng=RngStream(45), runtime=rt,
                          early_exit=False)
        assert res.details["trace_comm_seconds"] > 0
        assert 0.0 <= res.details["trace_comm_fraction"] <= 1.0

    def test_no_trace_keys_without_flag(self):
        g = erdos_renyi(20, m=40, rng=RngStream(46))
        rt = MidasRuntime(n_processors=2, n1=2, n2=4, mode="simulated")
        res = detect_path(g, 3, eps=0.3, rng=RngStream(47), runtime=rt)
        assert "trace_comm_seconds" not in res.details


class TestEstimatePolicy:
    """One policy for every driver, owned by the engine: a Theorem-2
    estimate in modeled mode (it is the virtual clock) and in simulated
    mode with a recorder attached."""

    G = erdos_renyi(30, m=60, rng=RngStream(7))
    W = np.ones(30, dtype=np.int64)

    def _virtual(self, run, **kw):
        from unittest import mock

        from repro.core.engine import DetectionEngine

        totals = []
        enter = DetectionEngine.__exit__

        def spy(engine, *exc):
            totals.append(engine.virtual_total)
            return enter(engine, *exc)

        with mock.patch.object(DetectionEngine, "__exit__", spy):
            run(MidasRuntime(mode="modeled", **kw))
        return totals[-1]

    def test_a_modeled_scan_cell_charges_virtual_time(self):
        cell = self._virtual(lambda rt: detect_scan_cell(
            self.G, self.W, 3, 3, eps=0.5, rng=RngStream(8), runtime=rt))
        grid = self._virtual(lambda rt: scan_grid(
            self.G, self.W, 3, eps=0.5, rng=RngStream(8), runtime=rt, sizes=[3]))
        assert cell > 0 and grid > 0

    def test_every_modeled_driver_charges_virtual_time(self):
        for run in (
            lambda rt: detect_path(self.G, 4, rng=RngStream(9), runtime=rt),
            lambda rt: detect_tree(self.G, TreeTemplate.star(4), rng=RngStream(9),
                                   runtime=rt),
            lambda rt: max_weight_path(self.G, 4, self.W, rng=RngStream(9), runtime=rt),
        ):
            assert self._virtual(run) > 0


class TestMaxWeightPathBound:
    def test_z_max_below_every_path_weight_finds_nothing(self):
        """k-paths exist, but none weighs <= z_max: the answer is None."""
        g = CSRGraph.from_edges(6, [(i, i + 1) for i in range(5)])
        assert max_weight_path(g, 4, np.ones(6, dtype=np.int64), z_max=2,
                               rng=RngStream(10)) is None


class TestRuntimeConfig:
    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            MidasRuntime(mode="distributed")

    def test_default_n2_sequential(self):
        # one window per round until the paper's "keep N2 < 1024" caps it
        rt = MidasRuntime()
        for k in (3, 8, 10, 13):
            assert rt.schedule_for(k).n2 == min(1 << k, 1024)

    def test_default_n2_parallel_is_bsmax(self):
        rt = MidasRuntime(n_processors=16, n1=4, mode="modeled")
        sched = rt.schedule_for(6)
        assert sched.n2 == 16  # 2^6 * 4 / 16
        assert sched.n_batches == 1
