"""Property-based tests of the whole detection stack against exact oracles.

The central soundness property (one-sided error) is universally
quantified: for *any* graph and any seed, a positive answer must be
confirmed by the exact reference.  Hypothesis explores the graph space.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import exact
from repro.core.midas import detect_path, detect_tree, max_weight_path, scan_grid
from repro.graph.csr import CSRGraph
from repro.graph.generators import erdos_renyi
from repro.graph.templates import TreeTemplate
from repro.util.rng import RngStream

COMMON = dict(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.data_too_large],
)


def small_graph(seed: int, n_max: int = 16, density: float = 1.4) -> CSRGraph:
    rng = RngStream(seed, name="prop")
    n = 4 + seed % (n_max - 4)
    m = int(n * density)
    return erdos_renyi(n, m=min(m, n * (n - 1) // 2), rng=rng)


class TestPathSoundness:
    @given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=2, max_value=6))
    @settings(**COMMON)
    def test_found_implies_exists(self, seed, k):
        g = small_graph(seed)
        res = detect_path(g, k, eps=0.4, rng=RngStream(seed ^ 0xABCD))
        if res.found:
            assert exact.has_path(g, k)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(**COMMON)
    def test_monotone_in_k(self, seed):
        """If a k-path is found, a (k-1)-path must exist (substructure)."""
        g = small_graph(seed)
        res = detect_path(g, 5, eps=0.4, rng=RngStream(seed + 7))
        if res.found:
            assert exact.has_path(g, 4)


class TestTreeSoundness:
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.sampled_from(["path", "star", "binary"]),
        st.integers(min_value=2, max_value=5),
    )
    @settings(**COMMON)
    def test_found_implies_embeds(self, seed, kind, k):
        g = small_graph(seed)
        tmpl = getattr(TreeTemplate, kind)(k)
        res = detect_tree(g, tmpl, eps=0.4, rng=RngStream(seed ^ 0x1234))
        if res.found:
            assert exact.has_tree(g, tmpl)


class TestScanSoundness:
    @given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=5))
    @settings(**dict(COMMON, max_examples=200))
    def test_cells_subset_of_truth(self, seed, k):
        """Every row of the one run, on 200 graphs: no cell is a false
        positive."""
        g = small_graph(seed, n_max=10)
        w = RngStream(seed + 99).integers(0, 3, size=g.n)
        k = min(k, g.n)
        res = scan_grid(g, w, k, eps=0.3, rng=RngStream(seed ^ 0x777))
        truth = exact.scan_cells(g, w, k)
        assert set(res.feasible_cells()) <= truth


class TestTheorem1SuccessRate:
    def test_per_round_hit_rate_at_least_one_fifth(self):
        """Empirical check of Theorem 1's 1/5 bound: on single-witness
        instances (a bare k-path graph), the fraction of rounds whose
        evaluation is nonzero must be at least ~0.288 (vector-independence
        probability; the y-coefficients almost never cancel a single
        term).  Tested with a generous margin at 200 trials."""
        from repro.core.evaluator_path import path_phase_value
        from repro.ff.fingerprint import Fingerprint

        k = 5
        g = CSRGraph.from_edges(k, [(i, i + 1) for i in range(k - 1)])
        hits = sum(
            path_phase_value(g, Fingerprint.draw(g.n, k, RngStream(s)), 0, 1 << k) != 0
            for s in range(200)
        )
        rate = hits / 200
        # binomial(200, 0.288): P[rate < 0.2] < 0.3%; assert with margin
        assert rate > 0.20, f"per-round hit rate {rate:.2f} below Theorem 1 bound"


class TestMaxWeightSoundness:
    @given(st.integers(min_value=0, max_value=10**6))
    @settings(**COMMON)
    def test_never_exceeds_optimum(self, seed):
        g = small_graph(seed, n_max=12)
        w = RngStream(seed + 5).integers(0, 4, size=g.n)
        k = 3
        got = max_weight_path(g, k, w, eps=0.3, rng=RngStream(seed ^ 0x555))
        truth = exact.max_weight_path(g, k, w)
        if got is not None:
            assert truth is not None
            assert got <= truth
