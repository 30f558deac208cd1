"""Two-axis scan grids: tracking event weight AND baseline per subgraph.

The paper's Problem 2 constrains the *baseline* count — find connected
``S`` maximizing ``F(W(S), B(S), theta)`` with ``B(S) <= k`` — while
Algorithm 5 tracks a single integer axis.  With uniform baselines the
single axis suffices (``B(S)`` is proportional to ``|S|``); with
heterogeneous baselines (e.g. county populations), Kulldorff's statistic
needs both totals.

Both fit on Algorithm 5's one axis as a mixed-radix weight.  With ``R``
one more than the largest baseline total ``k`` kept vertices can have,
vertex ``i`` weighs ``w(i) R + b(i)``; a set's total ``W(S) R + B(S)``
then decodes uniquely, since ``B(S) < R``, and
:func:`repro.core.midas.scan_grid` decides every ``(size, W R + B)``
cell on the engine, in any mode.  Truncating the flat axis at ``zw_max R
+ R - 1`` loses no set of weight ``<= zw_max``: partial sums only grow.
A vertex over the baseline budget weighs past the axis, so it is never
seeded (docs/THEORY.md §5).  Both axes should be pre-rounded with
:func:`repro.scanstat.weights.round_weights`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.midas import MidasRuntime, scan_grid
from repro.graph.csr import CSRGraph
from repro.util.rng import as_stream
from repro.util.validation import check_weights


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


def baseline_scan_grid(graph: CSRGraph, weights: np.ndarray, baselines: np.ndarray,
                       k: int, b_max: Optional[int] = None, eps: float = 0.2, rng=None,
                       zw_max: Optional[int] = None,
                       runtime: Optional[MidasRuntime] = None) -> BaselineGridResult:
    """Detect all (size <= k, weight, baseline <= b_max) connected subgraphs.

    ``b_max`` is the paper's Problem 2 budget ``B(S) <= k`` generalized to
    any integer bound (default: the size bound's worth of the largest
    baselines).  One :func:`repro.core.midas.scan_grid` over the
    mixed-radix weight decides the grid, in the runtime's mode.
    """
    w = check_weights(graph.n, weights)
    b = check_weights(graph.n, baselines)
    if zw_max is None:
        zw_max = int(np.sort(w)[-k:].sum())
    if b_max is None:
        b_max = int(np.sort(b)[-k:].sum())
    keep = b <= b_max
    radix = 1 + int(np.sort(b[keep])[-k:].sum())
    z_max = zw_max * radix + radix - 1
    flat = np.where(keep, w * radix + b, z_max + 1)
    grid = scan_grid(graph, flat, k, eps=eps, rng=as_stream(rng, "baseline-grid"),
                     runtime=runtime, z_max=z_max)
    detected = np.zeros((k + 1, zw_max + 1, b_max + 1), dtype=bool)
    zb = min(b_max + 1, radix)
    detected[:, :, :zb] = grid.detected.reshape(k + 1, zw_max + 1, radix)[:, :, :zb]
    return BaselineGridResult(k=k, zw_max=zw_max, zb_max=b_max, detected=detected,
                              rounds_run=grid.rounds_run, eps=eps)
