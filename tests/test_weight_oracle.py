"""Weighted kinds at evaluation points against the paper's weight-axis DP.

A weighted k-path or scan grid runs as its unweighted circuit at ``P = D + 1``
points of ``z`` and interpolates; the scan grid's every row is held to
its own dimension's oracle.  Here 210 random cases (ER graphs of at
most 30 vertices, weights in ``[0, 6]``, rows heavier than ``z_max``,
``z_max`` below, at and above ``D``, all-zero weights for ``P = 1``, and
point counts beyond ``2^l`` that evaluate in an extension field) are held
to ``tests/_reference_recurrences.py``'s truncated-convolution DPs:

* every round value, from the sequential engine with fused rounds, the
  process engine on 2 workers and the simulated engine on 4 ranks, is
  bit-identical to the oracle's;
* where ``k w_max <= D`` every window's value is too (elsewhere a window
  may differ from the truncated partial sum; the windows still XOR to the
  round value, which the first check covers).
"""

import numpy as np
import pytest

from _reference_recurrences import scan_grid_cells, weighted_path_cells
from repro.core.engine import DetectionEngine, MidasRuntime
from repro.core.mld import MLDCircuit
from repro.core.problems import compile
from repro.graph.generators import erdos_renyi
from repro.obs.metrics import MetricsRegistry
from repro.util.rng import RngStream

N_CASES = 210
ROUNDS = 2


def _case(i):
    """Case ``i``: ``(graph, weights, kind, k, z_max)``."""
    rng = np.random.default_rng(1000 + i)
    n = int(rng.integers(4, 31))
    m = int(rng.integers(n, 3 * n + 1))
    g = erdos_renyi(n, m=min(m, n * (n - 1) // 2), rng=RngStream(2000 + i))
    kind = "wpath" if i % 2 else "scan"
    k = int(rng.integers(2 if kind == "wpath" else 1, min(5, n) + 1))
    if i % 10 == 0:
        w = np.zeros(n, dtype=np.int64)  # P = 1
    else:
        # weights in [0, 6] a third of the time (often more points than
        # GF(2^l) holds), else in [0, 2]
        w = rng.integers(0, 7 if i % 3 == 0 else 3, size=n)
    top = int(np.sort(w)[-k:].sum())
    # z_max below the heaviest row (which drops out), below D, at D, above it
    z_max = [max(0, int(w.max()) - 1), top // 2, top, top + 3][i % 4]
    return g, w, kind, k, z_max


def _circuit(w, kind, k, z_max):
    return (MLDCircuit.weighted_path(w, k, z_max) if kind == "wpath"
            else MLDCircuit.scan_row(w, k, z_max))


def _oracle(g, w, kind, k, z_max, fp, q0, n2):
    """Per-iteration cells ``(outputs, z_max + 1, n2)``."""
    if kind == "wpath":
        return weighted_path_cells(g, w, fp, z_max, q0, n2)[None]
    return scan_grid_cells(g, w, fp, z_max, q0, n2)


def _fold(cells):
    """A window's value: each output's cells XORed over the window."""
    return np.bitwise_xor.reduce(cells, axis=-1).ravel()


def _fingerprints(spec, n, seed):
    rng = RngStream(seed)
    return [spec.draw_fingerprint(n, rng.child(f"round{r}")) for r in range(ROUNDS)]


CASES = [_case(i) for i in range(N_CASES)]


def test_the_cases_cover_what_they_claim():
    circuits = [_circuit(w, kind, k, z_max) for _g, w, kind, k, z_max in CASES]
    specs = [compile(c) for c in circuits]
    extension = [s.points.field.m > s.field.m for s in specs]
    assert sum(s.points.count == 1 for s in specs) >= 20
    assert sum(extension) >= 20
    assert sum(s.points.count > 1 and not ext for s, ext in zip(specs, extension)) >= 50
    assert sum(c.z_max < c.weight_degree for c in circuits) >= 50
    assert sum(c.z_max > c.weight_degree for c in circuits) >= 50
    assert sum(bool((w > z_max).any()) for _g, w, _kind, _k, z_max in CASES) >= 40
    assert sum(c.k * int(c.weights.max()) <= c.weight_degree for c in circuits) >= 50


MODES = {
    "sequential": {},
    "process": {"workers": 2},
    "simulated": {"n_processors": 4, "n1": 4},
}


@pytest.mark.parametrize("mode", sorted(MODES))
def test_round_values_are_the_oracles(mode):
    """Every case in every mode (the sequential one fuses its two rounds
    into one window)."""
    for i, (g, w, kind, k, z_max) in enumerate(CASES):
        spec = compile(_circuit(w, kind, k, z_max))
        rt = MidasRuntime(mode=mode, metrics=MetricsRegistry(), **MODES[mode])
        with DetectionEngine(g, rt, spec.name) as engine:
            out = engine.run_stage(spec, ROUNDS, RngStream(3000 + i))
        if mode == "sequential":
            fused = rt.schedule_for(spec.k, g.n, spec.field.m, spec.schedule_payload,
                                    rounds=ROUNDS, live_states=spec.live_states)
            assert fused.rounds_per_window == ROUNDS
        for fp, value in zip(_fingerprints(spec, g.n, 3000 + i), out.values):
            want = _fold(_oracle(g, w, kind, k, z_max, fp, 0, 1 << k))
            assert value.dtype == want.dtype
            assert np.array_equal(value, want), (i, mode)


def test_exact_windows_are_the_oracles():
    """Windows of ``2^k / 4`` iterations (one where ``k`` < 2) from runs
    of two windows each, and the fused rounds' values, where every window
    is exact."""
    checked = 0
    for i, (g, w, kind, k, z_max) in enumerate(CASES):
        circuit = _circuit(w, kind, k, z_max)
        if circuit.k * int(w.max()) > circuit.weight_degree:
            continue
        spec = compile(circuit)
        fps = _fingerprints(spec, g.n, 4000 + i)
        n2 = max(1, (1 << k) // 4)
        for fp in fps:
            want = _oracle(g, w, kind, k, z_max, fp, 0, 1 << k)
            got = spec.window_values(g, fp, n2, min(2 * n2, 1 << k))
            for t, value in enumerate(got):
                assert np.array_equal(value, _fold(want[..., t * n2:(t + 1) * n2])), (i, t)
        fused = spec.phase_values(g, fps, 0, 1 << k)
        for fp, value in zip(fps, fused):
            want = _fold(_oracle(g, w, kind, k, z_max, fp, 0, 1 << k))
            assert np.array_equal(value, want), i
        checked += 1
    assert checked >= 50
