"""Tests for the two-axis (weight, baseline) scan grid."""

import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.midas import MidasRuntime
from repro.errors import ConfigurationError
from repro.graph.csr import CSRGraph
from repro.graph.generators import erdos_renyi, grid2d
from repro.scanstat.baseline_grid import BaselineGridResult, baseline_scan_grid
from repro.runtime.tracing import TraceRecorder
from repro.scanstat.statistics import Kulldorff
from repro.util.rng import RngStream


def brute_cells(graph, w, b, k):
    import networkx as nx

    nxg = graph.to_networkx()
    cells = set()
    for size in range(1, k + 1):
        for combo in itertools.combinations(range(graph.n), size):
            if nx.is_connected(nxg.subgraph(combo)):
                cells.add(
                    (size, int(w[list(combo)].sum()), int(b[list(combo)].sum()))
                )
    return cells


class TestBaselineGridExactness:
    def test_matches_enumeration(self):
        g = grid2d(2, 3)
        w = np.array([1, 0, 2, 0, 1, 0], dtype=np.int64)
        b = np.array([1, 2, 1, 1, 2, 1], dtype=np.int64)
        res = baseline_scan_grid(g, w, b, k=3, eps=0.02, rng=RngStream(0))
        truth = brute_cells(g, w, b, 3)
        got = {
            (j, zw, zb)
            for (j, zw, zb) in res.feasible_cells()
        }
        assert got <= truth  # one-sided
        missing = truth - got
        assert len(missing) <= 1  # eps=0.02 slack

    def test_single_node_cells(self):
        g = CSRGraph.from_edges(3, [(0, 1), (1, 2)])
        w = np.array([4, 0, 2], dtype=np.int64)
        b = np.array([1, 3, 2], dtype=np.int64)
        res = baseline_scan_grid(g, w, b, k=1, eps=0.02, rng=RngStream(1))
        got = set(res.feasible_cells())
        assert got == {(1, 4, 1), (1, 0, 3), (1, 2, 2)}


class TestBudgetConstraint:
    def test_b_max_truncates(self):
        """Cells whose baseline exceeds b_max never appear (Problem 2's
        B(S) <= k budget)."""
        g = CSRGraph.from_edges(2, [(0, 1)])
        w = np.array([1, 1], dtype=np.int64)
        b = np.array([3, 3], dtype=np.int64)
        res = baseline_scan_grid(g, w, b, k=2, b_max=4, eps=0.05, rng=RngStream(2))
        # the pair has baseline 6 > 4: only singles (baseline 3) fit
        for j, zw, zb in res.feasible_cells():
            assert zb <= 4
            assert j == 1


class TestKulldorffOnGrid:
    def test_heterogeneous_baselines_change_the_winner(self):
        """With uniform baselines the heaviest-weight cluster wins; with a
        big baseline under it, a lighter low-baseline cluster should win
        Kulldorff — the case the 1-axis grid cannot express."""
        # two disjoint edges: {0,1} heavy weight, heavy baseline;
        #                     {2,3} lighter weight, tiny baseline
        g = CSRGraph.from_edges(4, [(0, 1), (2, 3)])
        w = np.array([5, 5, 3, 3], dtype=np.int64)
        b = np.array([8, 8, 1, 1], dtype=np.int64)
        res = baseline_scan_grid(g, w, b, k=2, eps=0.02, rng=RngStream(3))
        from repro.scanstat.statistics import KulldorffTwoAxis

        score = KulldorffTwoAxis(total_weight=float(w.sum()),
                                 total_baseline=float(b.sum()))
        _, j, zw, zb = res.best_cell(score)
        # the low-baseline pair (weight 6, baseline 2) must beat the
        # heavy pair (weight 10, baseline 16)
        assert (zw, zb) == (6, 2)


class TestValidation:
    def test_bad_axes(self):
        g = grid2d(2, 2)
        with pytest.raises(ConfigurationError):
            baseline_scan_grid(g, np.ones(3, dtype=np.int64),
                               np.ones(4, dtype=np.int64), k=2)
        with pytest.raises(ConfigurationError):
            baseline_scan_grid(g, -np.ones(4, dtype=np.int64),
                               np.ones(4, dtype=np.int64), k=2)
        with pytest.raises(ConfigurationError):
            baseline_scan_grid(g, np.ones(4, dtype=np.int64),
                               np.ones(4, dtype=np.int64), k=0)


# ------------------------------------------------------------------ golden

GOLDEN = Path(__file__).parent / "golden" / "baseline_grid.json"
GOLDEN_CASES = [(k, b_max, zw_max) for k in (1, 2, 3, 4)
                for b_max in (None, 0, 3, 40) for zw_max in (None, 2)]


def _golden_name(k, b_max, zw_max) -> str:
    return f"k{k}/b_max={b_max}/zw_max={zw_max}"


def _golden_inputs(k, b_max, zw_max):
    """Graph, weights, baselines and call options of one golden case: ER
    graphs on 8 to 25 vertices, weights in [0, 3], baselines in [0, 5]
    (all zero in every seventh case), eps 0.5 or 0.2, an int seed or a
    stream."""
    i = GOLDEN_CASES.index((k, b_max, zw_max))
    n = (8, 12, 17, 25)[i % 4]
    g = erdos_renyi(n, m=3 * n // 2, rng=RngStream(500 + i, name="g"))
    w = RngStream(600 + i, name="w").integers(0, 4, size=n).astype(np.int64)
    b = (np.zeros(n, dtype=np.int64) if i % 7 == 0 else
         RngStream(700 + i, name="b").integers(0, 6, size=n).astype(np.int64))
    seed = 800 + i if i % 3 == 0 else RngStream(800 + i)
    return g, w, b, dict(k=k, b_max=b_max, zw_max=zw_max, eps=(0.5, 0.2)[i // 3 % 2],
                         rng=seed)


def _golden_observe(res) -> dict:
    return {"shape": list(res.detected.shape),
            "bits": np.packbits(res.detected.ravel()).tobytes().hex(),
            "rounds_run": res.rounds_run}


def _golden_run(case, runtime=None) -> dict:
    g, w, b, kw = _golden_inputs(*case)
    if runtime is not None:
        kw["runtime"] = runtime
    return _golden_observe(baseline_scan_grid(g, w, b, **kw))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", GOLDEN_CASES,
                         ids=[_golden_name(*case) for case in GOLDEN_CASES])
def test_grid_matches_golden(golden, case):
    """``tests/golden/baseline_grid.json`` pins every cell of 32 two-axis grids.

    It was generated by the code that still ran its own two-axis level DP
    (commit b77ec27), with this file:

        git archive b77ec27 src | tar -x -C /tmp/parent
        PYTHONPATH=/tmp/parent/src python tests/test_baseline_grid.py --regen

    so it pinned that folding the two axes into one mixed-radix weight on
    :func:`repro.core.midas.scan_grid` changes no cell and no round count.
    It was regenerated (``PYTHONPATH=src python tests/test_baseline_grid.py
    --regen``) when the scan grid became one run in its top row's field
    (docs/THEORY.md §5): ``rounds_run`` is the top row's count, and the
    cells a round finds moved (82 gained, 54 lost over the 32 grids,
    every one inside ``brute_cells``).  Each entry stores the grid's
    shape, its cells as packed bits (hex) and ``rounds_run``.
    """
    assert _golden_run(case) == golden[_golden_name(*case)]


def test_golden_covers_the_edge_cases(golden):
    assert sorted(golden) == sorted(_golden_name(*case) for case in GOLDEN_CASES)
    seen = set()
    for case in GOLDEN_CASES:
        g, w, b, kw = _golden_inputs(*case)
        default = int(np.sort(b)[-kw["k"]:].sum())
        seen.add("zero baselines" if not b.any() else "baselines")
        if kw["b_max"] is not None:
            seen.add("b_max below default" if kw["b_max"] < default
                     else "b_max above default" if kw["b_max"] > default else "")
        seen.add("int seed" if isinstance(kw["rng"], int) else "stream seed")
        seen.add("zw_max" if kw["zw_max"] is not None else "default zw_max")
    assert seen >= {"zero baselines", "baselines", "b_max below default",
                    "b_max above default", "int seed", "stream seed", "zw_max",
                    "default zw_max"}
    cells = [bytes.fromhex(e["bits"]) for e in golden.values()]
    assert any(any(c) for c in cells)


MODES = {
    "sequential": dict(mode="sequential"),
    "threaded": dict(mode="threaded", workers=2),
    "process": dict(mode="process", workers=2),
    "simulated": dict(mode="simulated", n_processors=4, n1=2),
}
MODE_CASES = [(3, 40, None), (4, None, None), (4, 3, 2)]


@pytest.mark.parametrize("mode", MODES)
def test_every_mode_runs_the_grid(mode):
    """The runtime's mode runs the grid, bit-identical to sequential; a
    simulated runtime shows simulator activity (ranks past 0 and the
    per-round collective)."""
    rec = TraceRecorder()
    for case in MODE_CASES:
        expected = _golden_run(case, MidasRuntime())
        assert _golden_run(case, MidasRuntime(recorder=rec, **MODES[mode])) == expected
    if mode == "simulated":
        assert "collective" in {ev.kind for ev in rec.events}
        assert any(ev.rank > 0 for ev in rec.events)


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit(f"usage: {sys.argv[0]} --regen")
    GOLDEN.write_text(json.dumps(
        {_golden_name(*case): _golden_run(case) for case in GOLDEN_CASES},
        indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
