"""Statistical guarantees of the one-sided Monte Carlo detector.

The Koutis/Williams argument gives each detection round a success
probability of at least 1/5 on a yes-instance — each kind's field is the
smallest that keeps it there (``repro.ff.gf2m.field_degree_for_k``) —
and *zero* false-positive probability on a no-instance.  Both sides are
checked empirically over 400 seeded single-round runs, for every problem
kind:

* yes side: the hit count must clear the one-in-a-million binomial
  lower bound ``scipy.stats.binom.ppf(1e-6, 400, 0.2)`` (= 44), i.e. the
  test only fails with probability ~1e-6 if the true per-round success
  rate really is >= 0.2 — flakiness is engineered out by choosing the
  bound, not by retrying;
* no side: positives are certificates, so 400 runs on graphs with no
  k-path must produce exactly zero "found" answers.

``eps = 0.8`` makes :func:`repro.core.schedule.rounds_for_epsilon`
schedule exactly one round, so each run is one independent Bernoulli
trial of the per-round detector.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.stats import binom

from _test_oracles import has_k_path
from repro import exact
from repro.core.midas import detect_path, detect_tree, max_weight_path, scan_grid
from repro.core.schedule import rounds_for_epsilon
from repro.graph.csr import CSRGraph
from repro.graph.generators import erdos_renyi, plant_path
from repro.graph.templates import TreeTemplate
from repro.util.rng import RngStream

N_RUNS = 400
P_LOWER = 0.2  # the contract's per-round success bound
ALPHA = 1e-6  # chance of a false test failure when p == P_LOWER
SINGLE_ROUND_EPS = 0.8  # rounds_for_epsilon(0.8) == 1


def single_round_hits(graph: CSRGraph, k: int, n_runs: int = N_RUNS) -> int:
    hits = 0
    for i in range(n_runs):
        res = detect_path(graph, k, eps=SINGLE_ROUND_EPS, rng=RngStream(i))
        assert len(res.rounds) == 1  # one Bernoulli trial per run
        hits += bool(res.found)
    return hits


def test_eps_choice_gives_exactly_one_round():
    assert rounds_for_epsilon(SINGLE_ROUND_EPS) == 1


def test_single_round_detection_rate_clears_binomial_bound():
    base = erdos_renyi(24, m=40, rng=RngStream(90))
    g, _ = plant_path(base, 5, rng=RngStream(91))
    assert has_k_path(g, 5)
    threshold = int(binom.ppf(ALPHA, N_RUNS, P_LOWER))
    assert threshold == 44  # pin the bound so a scipy change is visible
    hits = single_round_hits(g, 5)
    assert hits >= threshold, (
        f"{hits}/{N_RUNS} single-round detections — below the "
        f"p>={P_LOWER} binomial {ALPHA:g}-quantile ({threshold})"
    )


def test_detection_rate_on_dense_yes_instance():
    # many disjoint k-paths push the per-round rate well above the bound
    g = erdos_renyi(30, m=90, rng=RngStream(92))
    assert has_k_path(g, 4)
    threshold = int(binom.ppf(ALPHA, N_RUNS, P_LOWER))
    assert single_round_hits(g, 4) >= threshold


@pytest.mark.parametrize(
    "make_graph,k",
    [
        # a star: longest simple path has 3 vertices
        (lambda: CSRGraph.from_edges(
            12, [(0, i) for i in range(1, 12)], name="star12"), 4),
        # disjoint edges: longest simple path has 2 vertices
        (lambda: CSRGraph.from_edges(
            10, [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)], name="matching"), 3),
    ],
)
def test_no_instance_never_reports_found(make_graph, k):
    g = make_graph()
    assert not has_k_path(g, k)
    for i in range(N_RUNS):
        res = detect_path(g, k, eps=SINGLE_ROUND_EPS, rng=RngStream(10_000 + i))
        assert not res.found, f"false positive at seed {10_000 + i}"


# ------------------------------------------------------------ every kind
# Each kind's field is the smallest that keeps a round's success >= 1/5 for
# its polynomial's degree in the y's (repro.ff.gf2m.field_degree_for_k), so
# these single-witness instances sit on that bound: a k = 9 path and its
# weighted variant (y-degree 9 in GF(2^5), the tightest below k = 10), a
# binary(8) tree (8 in GF(2^5)) and scan row 5 (9 = 5 base y's + 4 join
# coefficients, in GF(2^5)).  The top weight cell is the one only the
# witness reaches.
W9 = np.array([2, 0, 3, 1, 2, 3, 0, 1, 2])
BINARY8 = TreeTemplate.binary(8)


def _bare_path(k: int) -> CSRGraph:
    return CSRGraph.from_edges(k, [(i, i + 1) for i in range(k - 1)], name=f"path{k}")


def _triangles(n: int) -> CSRGraph:
    """Disjoint triangles: no connected subgraph on more than 3 vertices."""
    return CSRGraph.from_edges(
        3 * n, [(3 * t + a, 3 * t + b) for t in range(n) for a, b in ((0, 1), (1, 2), (0, 2))],
        name=f"triangles{n}")


# each run returns (anything reported, the witness's cell reported)
def _kpath9(g, w, rng):
    found = detect_path(g, 9, eps=SINGLE_ROUND_EPS, rng=rng).found
    return found, found


def _tree8(g, w, rng):
    found = detect_tree(g, BINARY8, eps=SINGLE_ROUND_EPS, rng=rng).found
    return found, found


def _wpath9(g, w, rng):
    best = max_weight_path(g, 9, w, eps=SINGLE_ROUND_EPS, rng=rng)
    return best is not None, best == int(np.sort(w)[-9:].sum())


def _scan5(g, w, rng):
    row = scan_grid(g, w, 5, eps=SINGLE_ROUND_EPS, rng=rng, sizes=[5]).detected[5]
    return bool(row.any()), bool(row[-1])  # the last cell is z_max, the top


KINDS = {
    # kind: (run, yes-instance, no-instance), each instance (graph, weights)
    "k-path-9": (_kpath9, (_bare_path(9), None),
                 (CSRGraph.from_edges(12, [(0, i) for i in range(1, 12)]), None)),
    "k-tree-binary8": (_tree8, (CSRGraph.from_edges(8, BINARY8.edges), None),
                       (_bare_path(20), None)),
    "weighted-path-9": (_wpath9, (_bare_path(9), W9), (_triangles(4), np.ones(12, int))),
    "scan-row-5": (_scan5, (_bare_path(5), W9[:5]), (_triangles(4), np.ones(12, int))),
}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_every_kind_clears_the_binomial_bound_at_its_field(kind):
    run, (g, w), _ = KINDS[kind]
    threshold = int(binom.ppf(ALPHA, N_RUNS, P_LOWER))
    hits = sum(run(g, w, RngStream(30_000 + i))[1] for i in range(N_RUNS))
    assert hits >= threshold, f"{kind}: {hits}/{N_RUNS} single-round hits"


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_every_kind_never_reports_on_a_no_instance(kind):
    run, _, (g, w) = KINDS[kind]
    for i in range(N_RUNS):
        assert not run(g, w, RngStream(40_000 + i))[0], f"{kind}: false positive, run {i}"


def test_the_kinds_instances_are_what_they_claim():
    (p9, _), (b8, _) = KINDS["k-path-9"][1], KINDS["k-tree-binary8"][1]
    assert has_k_path(p9, 9) and not has_k_path(KINDS["k-path-9"][2][0], 9)
    assert exact.has_tree(b8, BINARY8) and not exact.has_tree(_bare_path(20), BINARY8)
    assert not has_k_path(_triangles(4), 4)  # so no 9-path, no connected 5-set


def test_multi_round_miss_rate_within_eps():
    """With eps = 0.2 (4 rounds at p >= 0.2 per round) the miss rate over
    100 runs stays under the binomial upper bound for miss prob 0.8^4."""
    base = erdos_renyi(24, m=40, rng=RngStream(93))
    g, _ = plant_path(base, 5, rng=RngStream(94))
    n = 100
    misses = sum(
        not detect_path(g, 5, eps=0.2, rng=RngStream(20_000 + i)).found
        for i in range(n)
    )
    p_miss = (1 - P_LOWER) ** rounds_for_epsilon(0.2)
    bound = int(binom.ppf(1 - ALPHA, n, p_miss))
    assert misses <= bound
