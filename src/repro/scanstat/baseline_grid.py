"""Two-axis scan grids: tracking event weight AND baseline per subgraph.

The paper's Problem 2 constrains the *baseline* count — find connected
``S`` maximizing ``F(W(S), B(S), theta)`` with ``B(S) <= k`` — while
Algorithm 5 tracks a single integer axis.  With uniform baselines the
single axis suffices (``B(S)`` is proportional to ``|S|``); with
heterogeneous baselines (e.g. county populations), Kulldorff's statistic
needs both totals.  This module generalizes the DP to a joint
``(size, weight, baseline)`` grid:

    ``P(i, 1, zw, zb) = x_i``  at ``zw = w(i), zb = b(i)``
    ``P(i, j, zw, zb) = sum_u sum_{j'} sum_{zw'} sum_{zb'}``
    ``                  P(i, j', zw', zb') * P(u, j-j', zw-zw', zb-zb')``

The z-convolution is now 2D; cost grows by the extra axis exactly as
Lemma 3's ``W(V)^2`` term suggests (both axes should be pre-rounded with
:func:`repro.scanstat.weights.round_weights`).  Sequential evaluation
only — this is the analysis-scale extension; the one-axis grid remains
the scaling workhorse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.core.mld import MLDCircuit
from repro.core.schedule import rounds_for_bound
from repro.ff.fingerprint import Fingerprint
from repro.ff.gf2m import default_field_for_k, round_success_bound
from repro.graph.csr import CSRGraph, xor_segment_reduce
from repro.util.rng import as_stream


def _check_axis(graph: CSRGraph, values, name: str) -> np.ndarray:
    v = np.asarray(values, dtype=np.int64)
    if v.shape != (graph.n,):
        raise ConfigurationError(f"{name} must have shape ({graph.n},), got {v.shape}")
    if np.any(v < 0):
        raise ConfigurationError(f"{name} must be non-negative integers")
    return v


def _base_2d(fp: Fingerprint, w: np.ndarray, b: np.ndarray, zw_max: int, zb_max: int,
             q_start: int, n2: int) -> np.ndarray:
    base = fp.level_base_block(0, q_start, n2)  # (n, n2)
    n = base.shape[0]
    out = np.zeros((n, zw_max + 1, zb_max + 1, n2), dtype=fp.field.dtype)
    ok = (w <= zw_max) & (b <= zb_max)
    idx = np.nonzero(ok)[0]
    out[idx, w[idx], b[idx], :] = base[idx]
    return out


def baseline_scan_eval_phase(
    graph: CSRGraph,
    weights: np.ndarray,
    baselines: np.ndarray,
    fp: Fingerprint,
    zw_max: int,
    zb_max: int,
    q_start: int,
    n2: int,
) -> np.ndarray:
    """Evaluate ``P(dim, zw, zb)`` over one iteration window.

    Returns ``(zw_max + 1, zb_max + 1, n2)``.
    """
    field = fp.field
    dim = fp.k
    if fp.levels < dim + 1:
        raise ConfigurationError(
            f"needs {dim + 1} fingerprint levels, fingerprint has {fp.levels}"
        )
    w = _check_axis(graph, weights, "weights")
    b = _check_axis(graph, baselines, "baselines")
    p: Dict[int, np.ndarray] = {1: _base_2d(fp, w, b, zw_max, zb_max, q_start, n2)}
    s: Dict[int, np.ndarray] = {}
    for j in range(2, dim + 1):
        jp = j - 1
        gathered = p[jp][graph.indices]
        s[jp] = xor_segment_reduce(gathered, graph.indptr)
        acc = np.zeros_like(p[1])
        for j1 in range(1, j):
            a = p[j1]
            t = s[j - j1]
            for zw1 in range(zw_max + 1):
                for zb1 in range(zb_max + 1):
                    col = a[:, zw1, zb1, :]  # (n, n2)
                    if not col.any():
                        continue
                    acc[:, zw1:, zb1:, :] ^= field.mul(
                        col[:, None, None, :],
                        t[:, : zw_max + 1 - zw1, : zb_max + 1 - zb1, :],
                    )
        p[j] = field.mul(fp.y[:, j][:, None, None, None], acc)
    return field.xor_sum(p[dim], axis=0)


@dataclass
class BaselineGridResult:
    """Feasible (size, weight, baseline) cells and the best statistic cell."""

    k: int
    zw_max: int
    zb_max: int
    detected: np.ndarray  # (k+1, zw_max+1, zb_max+1) bool
    rounds_run: int
    eps: float

    def feasible_cells(self):
        js, zws, zbs = np.nonzero(self.detected)
        return list(zip(js.tolist(), zws.tolist(), zbs.tolist()))

    def best_cell(self, score_fn):
        """Maximize ``score_fn(weight, baseline, size)`` over feasible cells."""
        best = (-np.inf, None, None, None)
        for j, zw, zb in self.feasible_cells():
            val = float(score_fn(zw, zb, j))
            if val > best[0]:
                best = (val, j, zw, zb)
        return best


def baseline_scan_grid(
    graph: CSRGraph,
    weights: np.ndarray,
    baselines: np.ndarray,
    k: int,
    b_max: Optional[int] = None,
    eps: float = 0.2,
    rng=None,
    zw_max: Optional[int] = None,
    n2: Optional[int] = None,
) -> BaselineGridResult:
    """Detect all (size <= k, weight, baseline <= b_max) connected subgraphs.

    ``b_max`` is the paper's Problem 2 budget ``B(S) <= k`` generalized to
    any integer bound (default: the size bound's worth of the largest
    baselines).  Sizes are evaluated per dimension as in
    :func:`repro.core.midas.scan_grid`.
    """
    w = _check_axis(graph, weights, "weights")
    b = _check_axis(graph, baselines, "baselines")
    if k < 1 or k > graph.n:
        raise ConfigurationError(f"k must be in [1, {graph.n}], got {k}")
    if zw_max is None:
        zw_max = int(np.sort(w)[-k:].sum())
    if b_max is None:
        b_max = int(np.sort(b)[-k:].sum())
    rng = as_stream(rng, "baseline-grid")
    detected = np.zeros((k + 1, zw_max + 1, b_max + 1), dtype=bool)
    rounds_run = 0
    for j in range(1, k + 1):
        # the one-axis row's y's: one per base variable and join coefficient;
        # they size the row's field and, with it, bound its rounds
        d = MLDCircuit.scan_row(w, j, zw_max).y_degree
        fld = default_field_for_k(d)
        rounds = rounds_for_bound(eps, round_success_bound(j, fld.m, d))
        rounds_run = max(rounds_run, rounds)
        total = 1 << j
        nn2 = min(n2 or 16, total)
        while total % nn2:
            nn2 -= 1
        size_rng = rng.child(f"size{j}")
        for ell in range(rounds):
            fp = Fingerprint.draw(graph.n, j, size_rng.child(f"round{ell}"),
                                  levels=j + 1, field=fld)
            acc = np.zeros((zw_max + 1, b_max + 1), dtype=fld.dtype)
            for t in range(total // nn2):
                vals = baseline_scan_eval_phase(
                    graph, w, b, fp, zw_max, b_max, t * nn2, nn2
                )
                acc ^= np.bitwise_xor.reduce(vals, axis=2)
            detected[j] |= acc != 0
    return BaselineGridResult(
        k=k, zw_max=zw_max, zb_max=b_max, detected=detected,
        rounds_run=rounds_run, eps=eps,
    )
