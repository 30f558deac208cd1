"""Ablation: plane-resident bit-sliced evaluation vs element-wise kernels.

The bit-sliced substrate transposes each node's N2 coefficients into m
uint64 bit-planes, turning a GF(2^m) multiply into m block ANDs and m
block XORs over whole planes (the m^2 64-way-parallel word-ANDs of the
carry-less product, issued 2m ufunc calls at a time) plus a chunked fold
by the modulus — and, crucially, the level-DP core keeps its state *in
plane space*, plane-major in memory, across all k levels, so the
slice/unslice transposes happen once per phase instead of once per
multiply and the gather and XOR-reduce run along contiguous words.  This
bench measures one full phase evaluation (gather + XOR-reduce + level
multiply, k levels) per kernel and asserts the bit-sliced path both
matches the table kernel bit-for-bit and clears the floor the routing
rule needs: planes at ``n2 >= 64`` is only sound if planes are no slower
than the table phase at one lane word (> 1.0x) and clearly ahead at four
(> 2x).  Both sides share the 64-bit gather and XOR-reduce, and at m = 7
planes move about as many bytes as elements do, so the gap is the
multiply alone: ~1.3x at one lane word, ~3x at four (the table side is
itself one flat gather per multiply).  The win is per-word data
parallelism, not threading, so it is asserted unconditionally — core
count does not matter; each side is the best of three interleaved passes
so that one noisy pass on a shared runner does not decide the one-word
floor.
"""

import numpy as np

from _bench_utils import print_series
from repro.core.evaluator_path import path_eval_phase
from repro.ff.fingerprint import Fingerprint
from repro.ff.gf2m import GF2m
from repro.graph.generators import erdos_renyi
from repro.util.rng import RngStream
from repro.util.timing import time_call

K = 12
M = 7


def _phase_fn(graph, field, n2, seed=5):
    fp = Fingerprint.draw(graph.n, K, RngStream(seed, name="bench"),
                          field=field)
    return lambda: path_eval_phase(graph, fp, 0, n2)


def test_bitsliced_phase_vs_elementwise():
    g = erdos_renyi(3000, m=12000, rng=RngStream(1, name="g"))
    table = GF2m(M, kernel_strategy="table")
    bits = GF2m(M, kernel_strategy="bitsliced")
    rows = []
    speedups = {}
    for n2 in (64, 256):
        fn_t = _phase_fn(g, table, n2)
        fn_b = _phase_fn(g, bits, n2)
        # same (k, v, y) draw on both fields -> the outputs must be equal
        assert np.array_equal(fn_t(), fn_b())
        passes = [(time_call(fn_t, min_time=0.05), time_call(fn_b, min_time=0.05))
                  for _ in range(3)]
        wall_t, wall_b = (min(side) for side in zip(*passes))
        speedups[n2] = wall_t / wall_b
        rows.append([f"N2={n2}", f"{wall_t * 1e3:.1f}", f"{wall_b * 1e3:.1f}",
                     f"{speedups[n2]:.2f}x"])
    print_series(
        f"Ablation: plane-resident bitsliced phase eval (k={K}, GF(2^{M}), "
        "n=3000, m=12000)",
        ["window", "table [ms]", "bitsliced [ms]", "speedup"],
        rows,
    )
    # the calibration model routes plane-resident windows >= 64 lanes to
    # the bitsliced kernel; that routing is only sound if the kernel is no
    # slower at the threshold and wins clearly on wider windows
    assert speedups[64] > 1.0 and speedups[256] > 2.0, speedups


def test_bitsliced_detection_end_to_end_identical():
    """Whole-driver check: kernel="bitsliced" changes wall-clock only."""
    from repro.core.midas import MidasRuntime, detect_path

    g = erdos_renyi(600, m=2400, rng=RngStream(2, name="g"))
    ref = detect_path(g, 8, eps=0.4, rng=RngStream(3), early_exit=False,
                      runtime=MidasRuntime(n2=64))
    out = detect_path(g, 8, eps=0.4, rng=RngStream(3), early_exit=False,
                      runtime=MidasRuntime(n2=64, kernel="bitsliced"))
    assert [r.value for r in out.rounds] == [r.value for r in ref.rounds]
