"""Analytic performance model — Theorem 2 / Lemmas 1-3 with real constants.

The paper bounds MIDAS's compute and communication by

    T_comp = O( c1 * (2^k N1 / N) * L * MAXLOAD * log(1/eps) )
    T_comm = O( c2 * (2^k N1 / (N N2)) * L * MAXDEG * log(1/eps) )

with ``L`` the number of DP levels (``k`` for paths, ``|T|`` for trees,
``W^2 k^2``-ish for scan statistics).  This module instantiates those
bounds with *measured* constants:

* ``c1(N2)`` comes from :class:`~repro.runtime.costmodel.KernelCalibration`
  (per-(vertex, iteration) DP cost at batching factor ``N2`` — the curve
  that produces the paper's Figures 6-8 batching gain);
* per-message ``alpha``/``beta`` come from the cluster's
  :class:`~repro.runtime.costmodel.CostModel`.

Used by the ``modeled`` MIDAS mode and by every scaling benchmark: the
model evaluates in microseconds, so 512-processor sweeps over
250M-edge-scale inputs are instant, while the *same* decomposition runs for
real (small scale) in the simulator to validate correctness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.core.schedule import PhaseSchedule, rounds_for_epsilon
from repro.graph.partition import Partition
from repro.runtime.costmodel import CostModel, KernelCalibration


@dataclass(frozen=True)
class PartitionStats:
    """The partition-level quantities the model depends on.

    Build from a real partition (:meth:`from_partition`) or analytically
    for a random partition of a given graph size (:meth:`random_model`,
    the paper's Lemma 1 regime) — the latter lets benchmarks model paper-
    scale datasets without materializing them.

    ``boundary_max`` is the per-level message *volume*: the largest, over
    parts, count of unique (vertex, peer-part) send slots — what the halo
    exchange actually transmits.  It is at most ``max_deg`` (a vertex with
    several cut edges to one peer is sent once) and is the quantity the
    communication model multiplies by ``beta``.
    """

    n: int
    m: int
    n1: int
    max_load: int
    max_deg: int
    n_peers_max: int
    boundary_max: int = 0

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < 0 or self.n1 < 1:
            raise ConfigurationError("invalid partition stats")
        if self.boundary_max == 0:
            object.__setattr__(self, "boundary_max", self.max_deg)

    @staticmethod
    def from_partition(p: Partition) -> "PartitionStats":
        views_peers = min(p.n_parts - 1, p.max_degree)
        # exact unique (vertex, peer) send slots per part
        e = p.graph.edges()
        ou, ov = p.owner[e[:, 0]], p.owner[e[:, 1]]
        cut = ou != ov
        send_v = np.concatenate([e[cut, 0], e[cut, 1]])
        send_to = np.concatenate([ov[cut], ou[cut]])
        boundary_max = 0
        if len(send_v):
            key = send_v.astype(np.int64) * p.n_parts + send_to
            uniq = np.unique(key)
            owners = p.owner[uniq // p.n_parts]
            counts = np.bincount(owners, minlength=p.n_parts)
            boundary_max = int(counts.max())
        return PartitionStats(
            n=p.graph.n,
            m=p.graph.num_edges,
            n1=p.n_parts,
            max_load=p.max_load,
            max_deg=p.max_degree,
            n_peers_max=views_peers,
            boundary_max=boundary_max,
        )

    @staticmethod
    def random_model(n: int, m: int, n1: int) -> "PartitionStats":
        """Expected stats of a uniform random partition (Lemma 1).

        ``MAXLOAD ~ n/N1`` (plus a small concentration term) and
        ``MAXDEG ~ (2m/N1)(1 - 1/N1)`` — each part touches ``2m/N1`` edge
        endpoints, of which a ``(1 - 1/N1)`` fraction cross parts.  The
        unique boundary volume deduplicates multiple cut edges from one
        vertex to one peer: with ``c`` expected cross edges per vertex
        spread over ``n1 - 1`` peers, each vertex occupies
        ``(n1-1)(1 - (1 - 1/(n1-1))^c)`` send slots.
        """
        if n1 > n:
            raise ConfigurationError(f"more parts ({n1}) than vertices ({n})")
        load = n / n1
        max_load = int(math.ceil(load + 3.0 * math.sqrt(max(load, 1.0))))
        max_deg = int(math.ceil((2.0 * m / n1) * (1.0 - 1.0 / n1)))
        if n1 == 1:
            boundary = 0
        else:
            c = (2.0 * m / n) * (1.0 - 1.0 / n1)  # cross edges per vertex
            peers = n1 - 1
            slots_per_vertex = peers * (1.0 - (1.0 - 1.0 / peers) ** c)
            boundary = int(math.ceil(load * slots_per_vertex))
        return PartitionStats(
            n=n,
            m=m,
            n1=n1,
            max_load=max_load,
            max_deg=max_deg,
            n_peers_max=min(n1 - 1, max_deg),
            boundary_max=max(boundary, 1) if n1 > 1 else 0,
        )


@dataclass(frozen=True)
class PerformanceEstimate:
    """Modeled virtual time of a full MIDAS run."""

    total_seconds: float
    compute_seconds: float
    comm_seconds: float
    phase_seconds: float
    reduce_seconds: float
    rounds: int
    schedule: PhaseSchedule
    memory_bytes_per_rank: int

    @property
    def comm_fraction(self) -> float:
        busy = self.compute_seconds + self.comm_seconds
        return self.comm_seconds / busy if busy > 0 else 0.0


def _problem_levels(problem: str, k: int, levels: Optional[int]) -> int:
    """Number of DP levels with a halo exchange before them."""
    if levels is not None:
        return max(1, levels)
    if problem == "path":
        return max(1, k - 1)
    if problem == "tree":
        # a k-node template decomposes into k-1 composite subtrees
        return max(1, k - 1)
    if problem == "scanstat":
        return max(1, k - 1)
    raise ConfigurationError(f"unknown problem {problem!r}")


def estimate_runtime(
    stats: PartitionStats,
    schedule: PhaseSchedule,
    calibration: KernelCalibration,
    cost_model: CostModel,
    eps: float = 0.2,
    problem: str = "path",
    levels: Optional[int] = None,
    z_axis: int = 1,
    elem_bytes: int = 1,
    overlap: bool = False,
    rounds: Optional[int] = None,
) -> PerformanceEstimate:
    """Model the virtual runtime of one full MIDAS detection.

    Parameters mirror the driver's: ``z_axis`` is the weight-axis width of
    scan statistics (1 for path/tree); for scan statistics the per-level
    compute also carries the z-convolution factor ``z_axis * (j-1)/2``,
    folded in through an average multiplier.

    ``overlap=True`` models the overlapped exchange (the own-column half
    of the sum between ``Exchange`` and ``Collect``): per level the cost is ``max(compute, comm)`` instead of
    ``compute + comm`` — the flight time hides behind the own-column
    reduction (and vice versa).  In the returned estimate the hidden part
    is removed from the communication share.

    ``rounds`` is the round count the run takes; by default the paper's
    ``rounds_for_epsilon(eps)``, a round that succeeds with 1/5 (what the
    paper-figure series model).
    """
    if schedule.n1 != stats.n1:
        raise ConfigurationError(
            f"schedule N1={schedule.n1} does not match partition stats n1={stats.n1}"
        )
    n2 = schedule.n2
    nlev = _problem_levels(problem, schedule.k, levels)
    c1 = calibration.c1(n2)

    # --- compute per phase -------------------------------------------------
    conv_factor = 1.0
    if problem == "scanstat":
        # z-convolution: ~ (j-1)/2 partial products over z_axis shifts each
        conv_factor = z_axis * max(1.0, (schedule.k - 1) / 2.0)
    compute_phase = c1 * stats.max_load * n2 * nlev * z_axis * conv_factor

    # --- communication per phase ------------------------------------------
    spec = cost_model.spec
    msg_bytes = stats.boundary_max * n2 * elem_bytes * z_axis
    comm_level = spec.alpha * max(1, stats.n_peers_max) + spec.beta * msg_bytes
    comm_phase = comm_level * nlev

    if overlap:
        compute_level = compute_phase / nlev
        level_seconds = max(compute_level, comm_level)
        phase_seconds = level_seconds * nlev
        # attribute the visible (non-hidden) remainder to communication
        comm_phase = max(0.0, phase_seconds - compute_phase)
    else:
        phase_seconds = compute_phase + comm_phase
    if rounds is None:
        rounds = rounds_for_epsilon(eps)

    # --- final reduce (across all N processors, once per round) ------------
    reduce_seconds = cost_model.allreduce_cost(schedule.n_processors, 8 * z_axis)

    round_seconds = schedule.n_batches * phase_seconds + reduce_seconds
    total = rounds * round_seconds

    # --- memory ------------------------------------------------------------
    ghosts = min(stats.boundary_max, stats.n)
    arrays = nlev + 1 if problem != "scanstat" else 2 * (schedule.k + 1)
    mem = (stats.max_load + ghosts) * n2 * elem_bytes * z_axis * max(2, arrays // 2)
    mem += 16 * (stats.max_load + stats.max_deg)  # local CSR + lists

    return PerformanceEstimate(
        total_seconds=total,
        compute_seconds=rounds * schedule.n_batches * compute_phase,
        comm_seconds=rounds * (schedule.n_batches * comm_phase + reduce_seconds),
        phase_seconds=phase_seconds,
        reduce_seconds=reduce_seconds,
        rounds=rounds,
        schedule=schedule,
        memory_bytes_per_rank=int(mem),
    )
