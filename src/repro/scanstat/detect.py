"""End-to-end anomaly detection (paper Problem 2).

:class:`AnomalyDetector` chains the full pipeline:

1. map node observations to integer weights,
2. run the MIDAS scan grid (:func:`repro.core.midas.scan_grid`) to learn
   which (size, weight) cells are realizable by a connected subgraph,
3. maximize the chosen scan statistic over feasible cells,
4. optionally extract the maximizing cluster by deletion peeling, and
5. optionally assess significance with a permutation test.

Like the decision algorithms, the detector's errors are one-sided on the
feasibility side: it never scores an infeasible cell; with probability at
most ``eps`` per cell it can miss a feasible one (and then returns the best
of the remaining cells).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.core.midas import MidasRuntime, scan_grid
from repro.core.result import ScanGridResult
from repro.graph.csr import CSRGraph
from repro.scanstat.statistics import ScanStatistic
from repro.util.rng import as_stream
from repro.util.validation import integral_weights


@dataclass
class AnomalyResult:
    """Outcome of an anomaly-detection run."""

    best_score: float
    best_size: Optional[int]
    best_weight: Optional[int]
    grid: ScanGridResult
    cluster: Optional[np.ndarray] = None
    p_value: Optional[float] = None
    wall_seconds: float = 0.0
    details: Dict[str, object] = field(default_factory=dict)

    @property
    def significant(self) -> bool:
        """True when a permutation test was run and came back < 0.05."""
        return self.p_value is not None and self.p_value < 0.05

    def summary(self) -> str:
        cell = (
            f"size={self.best_size}, weight={self.best_weight}"
            if self.best_size is not None
            else "none"
        )
        pv = f", p={self.p_value:.3f}" if self.p_value is not None else ""
        cl = f", cluster={len(self.cluster)} nodes" if self.cluster is not None else ""
        return f"anomaly: score={self.best_score:.4f} at [{cell}]{pv}{cl}"


def extract_cluster(
    graph: CSRGraph,
    weights: np.ndarray,
    size: int,
    weight: int,
    eps: float = 0.1,
    rng=None,
    runtime: Optional[MidasRuntime] = None,
    max_queries: Optional[int] = None,
) -> np.ndarray:
    """Recover a connected subgraph of exactly (``size``, ``weight``).

    Deletion peeling: repeatedly drop vertex chunks whose removal keeps the
    (size, weight) cell feasible.  Each feasibility query is a single-cell
    detection (:func:`repro.core.midas.detect_scan_cell`), so this is meant
    for analysis-sized graphs (the paper's Fig 13 use case), not the
    scaling benchmarks.

    When the runtime has ``sanitize != "off"``, the returned cluster is
    independently certified against the graph — exact size, exact total
    weight, connectivity — and a bogus one raises
    :class:`~repro.errors.CertificationError` instead of being returned.
    """
    from repro.core.midas import detect_scan_cell
    from repro.core.witness import extract_witness

    rng = as_stream(rng, "cluster-extract")
    w = integral_weights(weights)
    query_rng = rng.child("queries")

    def feasible(masked: CSRGraph) -> bool:
        return detect_scan_cell(
            masked, w, size, weight, eps=eps,
            rng=query_rng.child(f"q{masked.num_edges}"), runtime=runtime,
        )

    cluster = extract_witness(graph, feasible, size, rng=rng,
                              max_queries=max_queries)
    if runtime is not None and runtime.sanitize != "off":
        from repro.sanitize.certify import certify_cluster

        certify_cluster(graph, w, cluster, size, weight)
    return cluster


class AnomalyDetector:
    """Connected-subgraph anomaly detection with a pluggable statistic."""

    def __init__(
        self,
        graph: CSRGraph,
        statistic: ScanStatistic,
        k: int,
        runtime: Optional[MidasRuntime] = None,
        eps: float = 0.1,
    ) -> None:
        if k < 1 or k > graph.n:
            raise ConfigurationError(f"k must be in [1, {graph.n}], got {k}")
        self.graph = graph
        self.statistic = statistic
        self.k = k
        self.runtime = runtime
        self.eps = eps

    # ------------------------------------------------------------------ api
    def detect(
        self,
        weights: np.ndarray,
        rng=None,
        extract: bool = False,
        z_max: Optional[int] = None,
    ) -> AnomalyResult:
        """Find the highest-scoring connected subgraph of size <= k."""
        rng = as_stream(rng, "anomaly")
        w = integral_weights(weights)
        t0 = time.perf_counter()
        grid = scan_grid(
            self.graph, w, self.k, eps=self.eps, rng=rng.child("grid"),
            runtime=self.runtime, z_max=z_max,
        )
        best_score, best_j, best_z = grid.best_cell(self.statistic.score)
        cluster = None
        if extract and best_j is not None and best_score > 0:
            cluster = extract_cluster(
                self.graph, w, best_j, best_z, eps=self.eps,
                rng=rng.child("extract"), runtime=self.runtime,
            )
        return AnomalyResult(
            best_score=float(best_score) if best_j is not None else 0.0,
            best_size=best_j,
            best_weight=best_z,
            grid=grid,
            cluster=cluster,
            wall_seconds=time.perf_counter() - t0,
            details={"statistic": self.statistic.name},
        )

    def significance(
        self,
        weights: np.ndarray,
        observed_score: float,
        n_null: int = 20,
        rng=None,
    ) -> float:
        """Permutation-test p-value of ``observed_score``.

        Node weights are randomly permuted ``n_null`` times; the p-value is
        the fraction of permutations whose best score reaches the observed
        one (add-one smoothed).
        """
        rng = as_stream(rng, "significance")
        w = integral_weights(weights)
        hits = 0
        for i in range(n_null):
            perm = rng.permutation(w)
            grid = scan_grid(
                self.graph, perm, self.k, eps=self.eps,
                rng=rng.child(f"null{i}"), runtime=self.runtime,
            )
            score, _, _ = grid.best_cell(self.statistic.score)
            if score >= observed_score:
                hits += 1
        return (hits + 1) / (n_null + 1)
