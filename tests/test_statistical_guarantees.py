"""Statistical guarantees of the one-sided Monte Carlo detector.

The Koutis/Williams argument gives each detection round a success
probability of at least ``p = round_success_bound(k, l, d)`` on a
yes-instance — its witness's vectors independent, its ``y``-polynomial
nonvanishing (``repro.ff.gf2m.round_success_bound``), above 1/5 in each
kind's field — and *zero* false-positive probability on a no-instance.
Each stage runs the rounds that bound needs for ``eps``
(``repro.core.midas.stage_rounds``).  Both sides are checked
empirically over 400 seeded single-round runs, for every problem kind:

* yes side: the hit count must clear the one-in-a-million binomial
  lower bound ``scipy.stats.binom.ppf(1e-6, 400, p)`` for the kind's own
  ``p`` (44 at 1/5), i.e. the test only fails with probability ~1e-6 if
  the true per-round success rate really is >= ``p`` — flakiness is
  engineered out by choosing the bound, not by retrying;
* no side: positives are certificates, so 400 runs on graphs with no
  k-path must produce exactly zero "found" answers.

``eps = 0.8`` schedules exactly one round for every kind (each clears
``p >= 0.2``), so each run is one independent Bernoulli trial of the
per-round detector.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.stats import binom

from _test_oracles import has_k_path
from repro import exact
from repro.core.midas import (
    detect_path,
    detect_tree,
    max_weight_path,
    scan_grid,
    stage_rounds,
)
from repro.core.mld import MLDCircuit
from repro.core.schedule import rounds_for_epsilon
from repro.ff.gf2m import field_degree_for_k, round_success_bound
from repro.graph.csr import CSRGraph
from repro.graph.generators import erdos_renyi, plant_path
from repro.graph.templates import TreeTemplate
from repro.util.rng import RngStream

N_RUNS = 400
ALPHA = 1e-6  # chance of a false test failure when p is the kind's bound
SINGLE_ROUND_EPS = 0.8  # one round for every kind


def bound(circuit: MLDCircuit, row: int = 0) -> float:
    """The circuit's exact per-round success bound in its field — or, for
    a scan grid's prefix ``row``, that row's (``row`` variables, y-degree
    ``2 row - 1``) in the grid's field."""
    d = circuit.y_degree
    if row:
        return float(round_success_bound(row, field_degree_for_k(d), 2 * row - 1))
    return float(round_success_bound(circuit.k, field_degree_for_k(d), d))


def threshold(circuit: MLDCircuit, row: int = 0) -> int:
    """The ALPHA-quantile of N_RUNS single rounds at the circuit's bound."""
    return int(binom.ppf(ALPHA, N_RUNS, bound(circuit, row)))


def single_round_hits(graph: CSRGraph, k: int, n_runs: int = N_RUNS) -> int:
    hits = 0
    for i in range(n_runs):
        res = detect_path(graph, k, eps=SINGLE_ROUND_EPS, rng=RngStream(i))
        assert len(res.rounds) == 1  # one Bernoulli trial per run
        hits += bool(res.found)
    return hits


def test_eps_choice_gives_exactly_one_round():
    assert rounds_for_epsilon(SINGLE_ROUND_EPS) == 1
    for circuit in CIRCUITS.values():
        assert stage_rounds(circuit, SINGLE_ROUND_EPS) == 1, circuit.name


def test_single_round_detection_rate_clears_binomial_bound():
    base = erdos_renyi(24, m=40, rng=RngStream(90))
    g, _ = plant_path(base, 5, rng=RngStream(91))
    assert has_k_path(g, 5)
    # pin the bounds so a scipy change is visible: 44 at 1/5, and the
    # 5-path's own, p = 0.2499 in GF(2^5)
    assert int(binom.ppf(ALPHA, N_RUNS, 0.2)) == 44
    assert threshold(MLDCircuit.k_path(5)) == 61
    hits = single_round_hits(g, 5)
    assert hits >= threshold(MLDCircuit.k_path(5)), (
        f"{hits}/{N_RUNS} single-round detections — below the "
        f"p>={bound(MLDCircuit.k_path(5)):.4f} binomial {ALPHA:g}-quantile"
    )


def test_detection_rate_on_dense_yes_instance():
    # many disjoint k-paths push the per-round rate well above the bound
    g = erdos_renyi(30, m=90, rng=RngStream(92))
    assert has_k_path(g, 4)
    assert single_round_hits(g, 4) >= threshold(MLDCircuit.k_path(4))


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
# witness reaches.  Row 3 of a k = 5 grid is its run's first 8 iterations,
# in row 5's field: its bound is a 3-vertex term's of y-degree 5 there.
W9 = np.array([2, 0, 3, 1, 2, 3, 0, 1, 2])
BINARY8 = TreeTemplate.binary(8)
# a 3-path of weight 5 beside two isolated vertices: its one connected 3-set
# is the path, alone in cell (3, 5)
W3, W3_TOP = np.array([2, 0, 3, 0, 0]), 5


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
    row = scan_grid(g, w, 5, eps=SINGLE_ROUND_EPS, rng=rng).detected[5]
    return bool(row.any()), bool(row[-1])  # the last cell is z_max, the top


def _scan5_row3(g, w, rng):
    row = scan_grid(g, w, 5, eps=SINGLE_ROUND_EPS, rng=rng).detected[3]
    return bool(row.any()), bool(row[W3_TOP])



#: kind -> its circuit, whose exact bound its single-round rate must clear
CIRCUITS = {
    "k-path-9": MLDCircuit.k_path(9),
    "k-tree-binary8": MLDCircuit.k_tree(BINARY8),
    "weighted-path-9": MLDCircuit.weighted_path(W9, 9, int(W9.sum())),
    "scan-row-5": MLDCircuit.scan_row(W9[:5], 5, int(W9[:5].sum())),
    "scan-row-3-of-5": MLDCircuit.scan_row(W3, 5, int(W3.sum())),
}
#: kind -> the prefix row of a grid whose bound it is held to
ROWS = {"scan-row-3-of-5": 3}
KINDS = {
    # kind: (run, yes-instance, no-instance), each instance (graph, weights)
    "k-path-9": (_kpath9, (_bare_path(9), None),
                 (CSRGraph.from_edges(12, [(0, i) for i in range(1, 12)]), None)),
    "k-tree-binary8": (_tree8, (CSRGraph.from_edges(8, BINARY8.edges), None),
                       (_bare_path(20), None)),
    "weighted-path-9": (_wpath9, (_bare_path(9), W9), (_triangles(4), np.ones(12, int))),
    "scan-row-5": (_scan5, (_bare_path(5), W9[:5]), (_triangles(4), np.ones(12, int))),
    "scan-row-3-of-5": (_scan5_row3, (CSRGraph.from_edges(5, [(0, 1), (1, 2)]), W3),
                        (CSRGraph.from_edges(6, [(0, 1), (2, 3), (4, 5)]),
                         np.ones(6, int))),
}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_every_kind_clears_the_binomial_bound_at_its_field(kind):
    """A tighter gate than 1/5: each kind's exact ``p`` in its field."""
    run, (g, w), _ = KINDS[kind]
    need = threshold(CIRCUITS[kind], ROWS.get(kind, 0))
    assert need > int(binom.ppf(ALPHA, N_RUNS, 0.2))
    hits = sum(run(g, w, RngStream(30_000 + i))[1] for i in range(N_RUNS))
    assert hits >= need, f"{kind}: {hits}/{N_RUNS} single-round hits, need {need}"


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
    (g3, w3), (none3, ones) = KINDS["scan-row-3-of-5"][1:]
    assert {z for j, z in exact.scan_cells(g3, w3, 5) if j == 3} == {W3_TOP}
    assert not {j for j, _ in exact.scan_cells(none3, ones, 5)} & {3, 4, 5}


def test_multi_round_miss_rate_within_eps():
    """With eps = 0.2 a 5-path runs r = 6 rounds (p = 0.2499 each); the miss
    rate over 100 runs stays under the binomial upper bound for a miss
    probability of (1 - p)^r, with the r the missed runs ran."""
    base = erdos_renyi(24, m=40, rng=RngStream(93))
    g, _ = plant_path(base, 5, rng=RngStream(94))
    n, circuit = 100, MLDCircuit.k_path(5)
    r = stage_rounds(circuit, 0.2)
    runs = [detect_path(g, 5, eps=0.2, rng=RngStream(20_000 + i)) for i in range(n)]
    missed = [res for res in runs if not res.found]
    assert all(res.rounds_run == r for res in missed)
    p_miss = (1 - bound(circuit)) ** r
    assert len(missed) <= int(binom.ppf(1 - ALPHA, n, p_miss))
