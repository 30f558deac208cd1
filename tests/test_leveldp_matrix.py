"""One equivalence matrix for the level-DP core.

{problem kind} x {driver} x {GF kernel} x {rank layout}: every cell must
produce the *same phase value* as the whole-graph reference driven
element-wise on dense tables (:func:`element_value`) — the whole-graph
driver itself runs bit-planes in every field, the ranks field elements.
The kinds are the four :class:`MLDCircuit` builders plus two circuits
stated step by step (``circuit/``); the rank layouts include one rank, a
rank that owns no vertex, and a graph with isolated vertices.  Because
the drivers know nothing about problem kinds and the circuits know
nothing about graphs or ranks, a new kind is one more entry in ``CASES``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import exact
from _leveldp_drivers import (
    DRIVERS,
    SPIDER,
    assert_drivers_agree,
    element_value,
    partition_with_empty_rank,
    phase_value,
)
from _reference_recurrences import (
    path_recurrence,
    scanstat_recurrence,
    tree_recurrence,
    weighted_path_recurrence,
)
from repro.core.halo import build_halo_views
from repro.core.leveldp import phase_program
from repro.core.mld import CircuitStep, MLDCircuit
from repro.core.problems import compile
from repro.ff.fingerprint import Fingerprint
from repro.ff.gf2m import GF2m
from repro.graph.csr import CSRGraph
from repro.graph.generators import erdos_renyi
from repro.graph.partition import Partition, random_partition
from repro.graph.templates import TreeTemplate, decompose_template
from repro.runtime.scheduler import Simulator
from repro.util.rng import RngStream

KERNELS = ("table", "logexp", "bitsliced")
Z_MAX = 5


def _graph() -> CSRGraph:
    """ER(24, 52) plus three isolated vertices (empty CSR rows)."""
    core = erdos_renyi(24, m=52, rng=RngStream(3))
    return CSRGraph.from_edges(core.n + 3, core.edges())


GRAPH = _graph()
WEIGHTS = RngStream(4).integers(0, 3, size=GRAPH.n)


def _tree(template):
    return MLDCircuit.k_tree(template).recurrence(), template.k, template.k


# name -> (recurrence, k, fingerprint levels)
CASES = {
    "k-path": (MLDCircuit.k_path(4).recurrence(), 4, 4),
    "k-tree/path": _tree(TreeTemplate.path(4)),
    "k-tree/star": _tree(TreeTemplate.star(4)),
    "k-tree/binary": _tree(TreeTemplate.binary(5)),
    "weighted-path": (MLDCircuit.weighted_path(WEIGHTS, 3, Z_MAX).recurrence(), 3, 3),
    "scan-stat": (MLDCircuit.scan_row(WEIGHTS, 3, Z_MAX).recurrence(), 3, 4),
    # circuits stated step by step: a path whose levels run backwards, and
    # a 5-node spider — leaves, sums and products in orders no builder emits
    "circuit/k-path": (MLDCircuit(
        k=4, n_slots=4, leaves=[(0, 3)], output=3, levels=4,
        steps=[CircuitStep(j, None, j - 1, 3 - j) for j in range(1, 4)]).recurrence(),
        4, 4),
    "circuit/k-tree": (SPIDER.recurrence(), 5, 5),
}

# ranks -> partition of GRAPH; the 4-rank layout leaves rank 2 empty
PARTITIONS = {
    1: Partition(GRAPH, np.zeros(GRAPH.n, dtype=np.int64), 1),
    3: random_partition(GRAPH, 3, rng=RngStream(5)),
    4: partition_with_empty_rank(GRAPH, 4, empty_rank=2, seed=6),
}

# sub-word windows of 1, 8 and 32 lanes (one plane word, mostly padding),
# and one spanning two words with padding in the last; none starting at
# iteration 0
WINDOWS = ((5, 1), (8, 8), (32, 32), (64, 72))


def _fingerprint(k, levels, kernel):
    # same (m, seed) => same v, y whatever the kernel: only the arithmetic differs
    field = GF2m(6, kernel_strategy=kernel)
    return Fingerprint.draw(GRAPH.n, k, RngStream(7), levels=levels, field=field)


def test_layouts_are_what_the_matrix_claims():
    assert PARTITIONS[4].part_nodes(2).size == 0
    assert (np.diff(GRAPH.indptr) == 0).sum() >= 3


# the whole-graph driver has no ranks; each SPMD driver runs every layout
LAYOUTS = [(DRIVERS[0], 1)] + [(d, r) for d in DRIVERS[1:] for r in sorted(PARTITIONS)]


@pytest.mark.parametrize("driver,ranks", LAYOUTS)
@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_phase_values_identical(case, kernel, driver, ranks):
    recurrence, k, levels = CASES[case]
    for q0, n2 in WINDOWS:
        ref = element_value(GRAPH, recurrence, _fingerprint(k, levels, "table"), q0, n2)
        fp = _fingerprint(k, levels, kernel)
        got = phase_value(GRAPH, recurrence, fp, q0, n2, driver, PARTITIONS[ranks])
        if np.ndim(got):
            assert got.dtype == fp.field.dtype
        assert np.array_equal(got, ref)


def test_circuits_equal_the_specialised_recurrences():
    """The circuits define the same polynomials, bit for bit, as the
    hand-written recurrences they replaced."""
    tmpl = TreeTemplate.caterpillar(5)
    pairs = [
        (MLDCircuit.k_path(4), path_recurrence(4), 4, 4),
        (MLDCircuit.k_tree(tmpl), tree_recurrence(tmpl), 5, 5),
        (MLDCircuit.weighted_path(WEIGHTS, 3, Z_MAX),
         weighted_path_recurrence(WEIGHTS, 3, Z_MAX), 3, 3),
        (MLDCircuit.scan_row(WEIGHTS, 3, Z_MAX),
         scanstat_recurrence(WEIGHTS, 3, Z_MAX), 3, 4),
    ]
    for kernel in KERNELS:
        for circuit, reference, k, levels in pairs:
            fp = _fingerprint(k, levels, kernel)
            for q0, n2 in WINDOWS:
                assert np.array_equal(
                    phase_value(GRAPH, circuit.recurrence(), fp, q0, n2),
                    phase_value(GRAPH, reference, fp, q0, n2))


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=7),
       st.sampled_from(KERNELS))
@settings(max_examples=25, deadline=None)
def test_random_template(seed, k, kernel):
    """Random tree templates: all drivers agree with the element-wise
    reference on a table field."""
    tmpl = TreeTemplate.random(k, rng=RngStream(seed))
    recurrence = MLDCircuit.k_tree(tmpl).recurrence()
    ref = element_value(GRAPH, recurrence, _fingerprint(k, k, "table"), 0, 8)
    assert_drivers_agree(GRAPH, recurrence, _fingerprint(k, k, kernel), 0, 8,
                         PARTITIONS[3], expected=ref)


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=12))
@settings(max_examples=200, deadline=None)
def test_every_subtree_has_exactly_one_consumer(seed, k):
    """The fact the k-tree circuit relies on to free children on use."""
    specs = decompose_template(TreeTemplate.random(k, rng=RngStream(seed)))
    consumers = [c for s in specs if not s.is_leaf for c in (s.child_same, s.child_branch)]
    assert sorted(consumers) == [s.sid for s in specs[:-1]]
    assert specs[-1].size == k


# ------------------------------------------------- brute-force oracles
def _round_value(recurrence, k, levels, kernel, seed):
    """The full-round accumulator (all 2^k iterations), whole-graph driver."""
    field = GF2m(6, kernel_strategy=kernel)
    fp = Fingerprint.draw(SMALL.n, k, RngStream(seed), levels=levels, field=field)
    return phase_value(SMALL, recurrence, fp, 0, 1 << k)


SMALL = erdos_renyi(11, m=9, rng=RngStream(12))  # has 6-paths, no 7-path
SMALL_W = RngStream(10).integers(0, 3, size=SMALL.n)
ROUNDS = range(16)  # miss probability per realizable cell <= 0.8^16


@pytest.mark.parametrize("kernel", KERNELS)
def test_oracle_path_and_tree(kernel):
    """One-sided: a round value is nonzero only if the structure exists
    (exactly), and some round finds every structure that does (whp)."""
    for k in (3, 5, 6, 7):
        hit = any(_round_value(MLDCircuit.k_path(k).recurrence(), k, k, kernel, s)
                  for s in ROUNDS)
        assert hit == exact.has_path(SMALL, k)
    templates = (TreeTemplate.star(4), TreeTemplate.star(6), TreeTemplate.binary(5),
                 TreeTemplate.caterpillar(6))
    assert {exact.has_tree(SMALL, t) for t in templates} == {True, False}
    for tmpl in templates:
        rec = MLDCircuit.k_tree(tmpl).recurrence()
        hit = any(_round_value(rec, tmpl.k, tmpl.k, kernel, s) for s in ROUNDS)
        assert hit == exact.has_tree(SMALL, tmpl)


@pytest.mark.parametrize("kernel", KERNELS)
def test_oracle_weight_axis(kernel):
    """Weight-resolved kinds: the set of nonzero weight cells over the
    rounds is exactly the set of realizable weights."""
    k, z_max = 4, 8
    cells = np.zeros(z_max + 1, dtype=bool)
    rec = MLDCircuit.weighted_path(SMALL_W, k, z_max).recurrence()
    for s in ROUNDS:
        cells |= _round_value(rec, k, k, kernel, s) != 0
    assert int(np.nonzero(cells)[0].max()) == exact.max_weight_path(SMALL, k, SMALL_W)
    cells[:] = False
    rec = MLDCircuit.scan_row(SMALL_W, 3, z_max).recurrence()
    for s in ROUNDS:
        cells |= _round_value(rec, 3, 4, kernel, s) != 0
    truth = {z for size, z in exact.scan_cells(SMALL, SMALL_W, 3) if size == 3}
    assert set(np.nonzero(cells)[0].tolist()) == truth


# ------------------------------------------------------- all-reduce width
@pytest.mark.parametrize("driver", DRIVERS[1:])
@pytest.mark.parametrize("make", [MLDCircuit.weighted_path, MLDCircuit.scan_row],
                         ids=["weighted_path_problem", "scanstat_problem"])
def test_weight_axis_allreduce_keeps_wide_field_elements(make, driver):
    """GF(2^10) elements need 16 bits: the weight-axis all-reduce must not
    truncate them to a byte (it did, on simulated ranks only)."""
    spec = compile(make(WEIGHTS, 3, Z_MAX), GF2m(10))
    fp = spec.draw_fingerprint(GRAPH.n, RngStream(8))
    expected = spec.phase_value(GRAPH, fp, 0, 8)
    assert expected.max() > 255  # else the test cannot see a truncation
    got = phase_value(GRAPH, spec.recurrence, fp, 0, 8, driver, PARTITIONS[4])
    assert got.dtype == fp.field.dtype
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("case,nbytes", [("k-path", 8), ("k-tree/binary", 8),
                                          ("weighted-path", Z_MAX + 1),
                                          ("scan-stat", Z_MAX + 1)])
def test_allreduce_wire_bytes_for_byte_fields(case, nbytes):
    """Fields of degree <= 8: one 8-byte word for a scalar accumulator,
    one byte per weight cell for a weight axis."""
    recurrence, k, levels = CASES[case]
    views = build_halo_views(GRAPH, PARTITIONS[3])
    sim = Simulator(3, trace=True)
    sim.run(phase_program(views, recurrence, _fingerprint(k, levels, "table"), 0, 8))
    collectives = [e for e in sim.trace.events if e.kind == "collective"]
    assert len(collectives) == 3  # one all-reduce, seen by each rank
    assert {e.nbytes for e in collectives} == {nbytes}
