"""Performance model: network costs and calibrated compute rates.

Two ingredients drive all modeled timings:

* **Network:** the classic alpha–beta model.  A point-to-point message of
  ``B`` bytes costs ``alpha + B * beta``; tree-based collectives over ``P``
  ranks cost ``ceil(log2 P)`` such steps.  Machine presets encode the
  paper's clusters (56 Gb/s FDR InfiniBand).
* **Compute:** the per-(vertex, iteration) cost ``c1`` of the DP inner loop
  and the per-byte cost of message packing.  These are *measured* from the
  repository's real vectorized kernels by :class:`KernelCalibration`, as a
  function of the batching factor ``N_2`` — so the paper's Section IV-B
  cache/batching effect (larger ``N_2`` lowers per-iteration cost, with
  diminishing returns) is reproduced from an actual measurement, not
  assumed.  A ``c_scale`` knob maps measured Python-kernel rates onto the
  paper's C rates for figure-scale extrapolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.util.timing import time_call


@dataclass(frozen=True)
class MachineSpec:
    """Per-node hardware description of a (virtual) cluster node.

    ``alpha``/``beta`` describe the inter-node network; ``intra_alpha`` /
    ``intra_beta`` the on-node (shared-memory) path.
    """

    name: str
    cores_per_node: int
    mem_bytes_per_node: int
    alpha: float  # inter-node latency, seconds
    beta: float  # inter-node seconds per byte
    intra_alpha: float  # on-node latency
    intra_beta: float  # on-node seconds per byte
    c_scale: float = 1.0  # measured-kernel seconds -> modeled seconds

    def __post_init__(self) -> None:
        for f in ("alpha", "beta", "intra_alpha", "intra_beta", "c_scale"):
            if getattr(self, f) < 0:
                raise ConfigurationError(f"{f} must be non-negative")
        if self.cores_per_node < 1:
            raise ConfigurationError("cores_per_node must be >= 1")


#: 56 Gb/s FDR InfiniBand ~ 7 GB/s payload bandwidth, ~1.5 us latency.
JULIET_NODE = MachineSpec(
    name="juliet-haswell",
    cores_per_node=36,
    mem_bytes_per_node=128 * 2**30,
    alpha=1.5e-6,
    beta=1.0 / 7.0e9,
    intra_alpha=4.0e-7,
    intra_beta=1.0 / 2.5e10,
    # Our numpy kernels are within a small factor of C on this workload;
    # c_scale maps measured rates to Haswell-core rates for extrapolation.
    c_scale=0.25,
)

SHADOWFAX_NODE = MachineSpec(
    name="shadowfax-haswell",
    cores_per_node=32,
    mem_bytes_per_node=128 * 2**30,
    alpha=1.5e-6,
    beta=1.0 / 7.0e9,
    intra_alpha=4.0e-7,
    intra_beta=1.0 / 2.5e10,
    c_scale=0.25,
)

LAPTOP_NODE = MachineSpec(
    name="laptop",
    cores_per_node=8,
    mem_bytes_per_node=16 * 2**30,
    alpha=5.0e-6,
    beta=1.0 / 2.0e9,
    intra_alpha=1.0e-6,
    intra_beta=1.0 / 1.0e10,
    c_scale=1.0,
)


class CostModel:
    """Network timing for a set of ranks mapped onto cluster nodes."""

    def __init__(self, spec: MachineSpec, rank_node: Optional[np.ndarray] = None) -> None:
        self.spec = spec
        self.rank_node = None if rank_node is None else np.asarray(rank_node, dtype=np.int64)

    def send_cost(self, src: int, dst: int, nbytes: int):
        """``(arrival delay, sender occupancy)`` of one eager point-to-point
        message of ``nbytes``: the alpha–beta flight time and the injection
        cost the sender pays, from one tier lookup (the simulator asks for
        both on every message)."""
        spec, node = self.spec, self.rank_node
        if node is not None and node[src] == node[dst]:
            a, b = spec.intra_alpha, spec.intra_beta
        else:
            a, b = spec.alpha, spec.beta
        return a + nbytes * b, a + 0.25 * nbytes * b

    def pt2pt(self, src: int, dst: int, nbytes: int) -> float:
        """Seconds for one point-to-point message of ``nbytes``."""
        return self.send_cost(src, dst, nbytes)[0]

    def send_overhead(self, src: int, dst: int, nbytes: int) -> float:
        """Sender-side occupancy of an eager send (injection cost)."""
        return self.send_cost(src, dst, nbytes)[1]

    def allreduce_cost(self, nranks: int, nbytes: int) -> float:
        """Seconds for a tree all-reduce of ``nbytes`` over ``nranks``
        ranks: ``ceil(log2 P)`` alpha–beta steps."""
        if nranks <= 1:
            return 0.0
        return math.ceil(math.log2(nranks)) * (self.spec.alpha + nbytes * self.spec.beta)


def _level_step(graph, fp, n2: int):
    """One DP level as a simulated rank runs it, as a callable.

    The layout is the ranks' :class:`~repro.core.leveldp.ElementLanes`
    (the calibration prices a rank's compute), over the graph's
    jagged-diagonal row order; the incoming state is one that layout
    built itself, and the step is what a path recurrence does per level:
    the level's base block, the neighbour sum, the multiply.  The
    per-phase indicator is outside, amortized over the levels in real
    runs.
    """
    from repro.core.leveldp import ElementLanes, neighbour_sum

    jagged = graph.jagged()
    lanes = ElementLanes(fp, 0, n2, rows=jagged.order)
    prev = lanes.base(0)
    return lambda: lanes.mul(lanes.base(1), neighbour_sum(prev, jagged))


class KernelCalibration:
    """Measured compute rates of the real DP kernels, as a function of N2.

    ``c1(n2)`` is the seconds per (vertex, iteration) of the path-DP inner
    step when iterations are batched ``n2`` wide.  It is measured once on a
    sample graph and interpolated log-linearly between grid points — this is
    where the paper's "increasing N2 reduces compute time via cache
    affinity" effect (their Figures 6–8) enters every modeled runtime.
    """

    DEFAULT_GRID = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)

    def __init__(self, grid: Sequence[int], c1_seconds: Sequence[float]) -> None:
        if len(grid) != len(c1_seconds) or len(grid) < 1:
            raise ConfigurationError("calibration grid and rates must align and be non-empty")
        order = np.argsort(grid)
        self.grid = np.asarray(grid, dtype=np.int64)[order]
        self.c1_grid = np.asarray(c1_seconds, dtype=np.float64)[order]
        if np.any(self.c1_grid <= 0):
            raise ConfigurationError("calibrated rates must be positive")

    def c1(self, n2: int) -> float:
        """Interpolated seconds per (vertex, iteration) at batch width n2."""
        if n2 < 1:
            raise ConfigurationError(f"n2 must be >= 1, got {n2}")
        lg = np.log2(self.grid.astype(np.float64))
        return float(np.interp(math.log2(n2), lg, self.c1_grid))

    @staticmethod
    def measure(sample_nodes: int = 4096, avg_degree: int = 16,
                grid: Sequence[int] = DEFAULT_GRID, k: int = 8,
                min_time: float = 0.02, rng_seed: int = 12345) -> "KernelCalibration":
        """Time one path-DP level at each N2 on a synthetic sample.

        The level is the :mod:`repro.core.leveldp` step every evaluator
        runs (:func:`_level_step`) on the element layout.
        """
        from repro.ff.fingerprint import Fingerprint
        from repro.ff.gf2m import default_field_for_k
        from repro.graph.generators import erdos_renyi
        from repro.obs.metrics import get_default_registry
        from repro.util.rng import RngStream

        # measured-kernel runs land in the same process-wide registry as
        # simulated-run driver metrics, so one snapshot covers both
        reg = get_default_registry()
        rep_hist = reg.histogram(
            "midas_calibration_kernel_seconds",
            "Individual calibration reps of the path-DP kernel",
        )
        c1_gauge = reg.gauge(
            "midas_calibration_c1_seconds",
            "Calibrated per-(vertex, iteration) DP cost",
        )

        rng = RngStream(rng_seed, name="calibration")
        g = erdos_renyi(sample_nodes, m=sample_nodes * avg_degree // 2, rng=rng)
        field = default_field_for_k(k)
        fp = Fingerprint.draw(g.n, k, rng, field=field)
        rates = []
        for n2 in grid:
            step = _level_step(g, fp, int(n2))
            step()  # warm caches and numpy dispatch before timing
            # min over independent passes: the standard noise-robust timing
            # estimator (transient machine load only ever inflates a pass)
            observe = rep_hist.labels(n2=int(n2)).observe
            per_call = min(
                time_call(step, min_time=min_time, on_measure=observe)
                for _ in range(3)
            )
            rates.append(per_call / (g.n * int(n2)))
            c1_gauge.labels(n2=int(n2)).set(rates[-1])
        return KernelCalibration(list(grid), rates)

    @staticmethod
    def synthetic(c1_inf: float = 2.0e-9, dispatch_overhead: float = 1.2e-7,
                  grid: Sequence[int] = DEFAULT_GRID) -> "KernelCalibration":
        """A deterministic stand-in calibration (for tests / CI stability).

        Shape: ``c1(n2) = c1_inf + overhead / n2`` — per-iteration cost
        falls toward an asymptote as batching amortizes fixed per-step cost,
        the same qualitative curve the measured calibration produces.
        """
        rates = [c1_inf + dispatch_overhead / n2 for n2 in grid]
        return KernelCalibration(list(grid), rates)

    def as_table(self) -> Dict[int, float]:
        return {int(n2): float(c) for n2, c in zip(self.grid, self.c1_grid)}
