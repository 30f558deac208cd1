"""Independent certification of engine outputs.

MIDAS is one-sided Monte Carlo: a *positive* answer is supposed to be a
certificate, so it had better be independently checkable — against the
:class:`~repro.graph.csr.CSRGraph` itself, not against the detector that
produced it.  This module re-validates every kind of output the drivers
return:

* **k-path / k-tree witnesses** (vertex sets from
  :func:`~repro.core.witness.extract_witness`): vertices in range and
  distinct, exactly ``k`` of them, and the *induced* subgraph actually
  contains the claimed structure (a Hamiltonian ordering for paths, an
  injective embedding for trees, found by exhaustive search — witnesses
  are small, that is the point of them);
* **scan-stat clusters** (:func:`~repro.scanstat.detect.extract_cluster`):
  exact size, exact total weight, connectivity by BFS over the graph;
* **reported max-weight values** and **scan-grid cells**: one-sided
  soundness against :mod:`repro.exact` on small instances — a reported
  weight above the exact maximum, or a detected cell outside the exact
  feasible set, is a hard error (a *lower* reported value is a
  permissible Monte Carlo miss, never an error);
* **negative answers**: spot-checked against the exact oracles; a
  contradiction is reported as a (statistically permitted) miss, not a
  certification failure, unless the caller opts into treating it as one.

Failures raise :class:`~repro.errors.CertificationError` naming the
exact offending element (the duplicated vertex, the missing edge, the
disconnected component), or accumulate into a :class:`CertificationReport`
in warn mode.
"""

from __future__ import annotations

from itertools import permutations
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro import exact
from repro.errors import CertificationError, ConfigurationError
from repro.graph.csr import CSRGraph
from repro.graph.templates import TreeTemplate
from repro.sanitize.comm import is_strict

#: exhaustive checks refuse witnesses larger than this (they are k-sized)
_MAX_WITNESS = 16


def _as_vertices(graph: CSRGraph, vertices: Iterable[int],
                 what: str) -> List[int]:
    """Range/distinctness checks shared by every witness kind."""
    vs = [int(v) for v in vertices]
    for v in vs:
        if not (0 <= v < graph.n):
            raise CertificationError(
                f"{what}: vertex {v} is out of range [0, {graph.n})"
            )
    seen = set()
    for v in vs:
        if v in seen:
            raise CertificationError(f"{what}: vertex {v} appears more than once")
        seen.add(v)
    return vs


def _induced_adjacency(graph: CSRGraph, vs: Sequence[int]) -> List[set]:
    index = {v: i for i, v in enumerate(vs)}
    adj: List[set] = [set() for _ in vs]
    for i, v in enumerate(vs):
        for u in graph.neighbors(v):
            j = index.get(int(u))
            if j is not None and j != i:
                adj[i].add(j)
    return adj


def _connected_components(adj: Sequence[set]) -> List[List[int]]:
    seen = [False] * len(adj)
    comps = []
    for s in range(len(adj)):
        if seen[s]:
            continue
        comp, stack = [], [s]
        seen[s] = True
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in adj[i]:
                if not seen[j]:
                    seen[j] = True
                    stack.append(j)
        comps.append(comp)
    return comps


def certify_path_witness(graph: CSRGraph, vertices: Iterable[int],
                         k: int) -> List[int]:
    """Certify a k-path witness *vertex set*; returns a valid ordering.

    The witness extractor returns the vertices, not their order, so
    certification searches the induced subgraph for a Hamiltonian path
    ordering (DFS over at most ``k! / 2`` prefixes, fine for witness-sized
    ``k``).  Diagnostics distinguish the failure modes: wrong size,
    duplicate/out-of-range vertices, an isolated vertex, a disconnected
    witness, or simply no consistent ordering.
    """
    vs = _as_vertices(graph, vertices, "k-path witness")
    if len(vs) != k:
        raise CertificationError(
            f"k-path witness: expected {k} vertices, got {len(vs)}"
        )
    if k > _MAX_WITNESS:
        raise ConfigurationError(
            f"witness certification is exhaustive; k={k} exceeds {_MAX_WITNESS}"
        )
    if k == 1:
        return vs
    adj = _induced_adjacency(graph, vs)
    for i, nbrs in enumerate(adj):
        if not nbrs:
            raise CertificationError(
                f"k-path witness: vertex {vs[i]} is isolated within the witness"
            )
    comps = _connected_components(adj)
    if len(comps) > 1:
        parts = " | ".join(
            "{" + ", ".join(str(vs[i]) for i in sorted(c)) + "}" for c in comps
        )
        raise CertificationError(
            f"k-path witness: induced subgraph is disconnected: {parts}"
        )

    order = _hamiltonian_path(adj)
    if order is None:
        raise CertificationError(
            "k-path witness: induced subgraph is connected but admits no "
            f"simple path through all of {sorted(vs)}"
        )
    return [vs[i] for i in order]


def _hamiltonian_path(adj: Sequence[set]) -> Optional[List[int]]:
    n = len(adj)

    def extend(path: List[int], used: int) -> Optional[List[int]]:
        if len(path) == n:
            return path
        for j in sorted(adj[path[-1]]):
            if not (used >> j) & 1:
                out = extend(path + [j], used | (1 << j))
                if out is not None:
                    return out
        return None

    for s in range(n):
        out = extend([s], 1 << s)
        if out is not None:
            return out
    return None


def certify_ordered_path(graph: CSRGraph, path: Sequence[int]) -> None:
    """Certify an explicitly ordered path: every consecutive edge exists."""
    vs = _as_vertices(graph, path, "ordered path")
    for u, v in zip(vs, vs[1:]):
        if not graph.has_edge(u, v):
            raise CertificationError(
                f"ordered path: ({u}, {v}) is not an edge of {graph.name!r}"
            )


def certify_tree_witness(graph: CSRGraph, vertices: Iterable[int],
                         template: TreeTemplate) -> None:
    """Certify a tree witness: the induced subgraph embeds ``template``."""
    k = template.k
    vs = _as_vertices(graph, vertices, "k-tree witness")
    if len(vs) != k:
        raise CertificationError(
            f"k-tree witness: expected {k} vertices, got {len(vs)}"
        )
    if k > _MAX_WITNESS:
        raise ConfigurationError(
            f"witness certification is exhaustive; k={k} exceeds {_MAX_WITNESS}"
        )
    sub, _ = graph.subgraph(np.array(sorted(vs), dtype=np.int64))
    if not exact.has_tree(sub, template):
        raise CertificationError(
            f"k-tree witness: template {template.name!r} has no embedding "
            f"into the subgraph induced by {sorted(vs)}"
        )


def certify_cluster(graph: CSRGraph, weights: np.ndarray,
                    vertices: Iterable[int], size: int, weight: int) -> None:
    """Certify a scan-stat cluster: size, total weight, connectivity."""
    w = np.asarray(weights, dtype=np.int64)
    vs = _as_vertices(graph, vertices, "cluster")
    if len(vs) != size:
        raise CertificationError(
            f"cluster: expected {size} vertices, got {len(vs)}"
        )
    total = int(w[np.array(vs, dtype=np.int64)].sum())
    if total != weight:
        raise CertificationError(
            f"cluster: recomputed weight {total} != reported weight {weight} "
            f"over vertices {sorted(vs)}"
        )
    if size > 1:
        adj = _induced_adjacency(graph, vs)
        comps = _connected_components(adj)
        if len(comps) > 1:
            parts = " | ".join(
                "{" + ", ".join(str(vs[i]) for i in sorted(c)) + "}"
                for c in comps
            )
            raise CertificationError(f"cluster: not connected: {parts}")


def certify_scan_score(statistic, score: float, weight: int,
                       size: int, tol: float = 1e-9) -> None:
    """Recompute a scan-statistic score from its raw (weight, size) cell."""
    expected = float(statistic.score(weight, size))
    if abs(expected - float(score)) > tol:
        raise CertificationError(
            f"scan score: {statistic.name} recomputed to {expected!r} at "
            f"(size={size}, weight={weight}), reported {float(score)!r}"
        )


def certify_max_weight(graph: CSRGraph, weights: np.ndarray, k: int,
                       reported: Optional[int]) -> None:
    """One-sided soundness of a reported max path weight (small graphs).

    The reported value must be achievable, so it can never *exceed* the
    exact maximum; falling short is a permissible Monte Carlo miss.
    """
    true_max = exact.max_weight_path(graph, k, weights)
    if reported is None:
        return
    if true_max is None:
        raise CertificationError(
            f"max-weight: reported weight {reported} but no simple "
            f"{k}-path exists at all"
        )
    if reported > true_max:
        raise CertificationError(
            f"max-weight: reported weight {reported} exceeds the exact "
            f"maximum {true_max} — the certificate is unsound"
        )


def certify_scan_grid(graph: CSRGraph, weights: np.ndarray, grid) -> int:
    """One-sided soundness of a scan grid (small graphs): every detected
    cell must be exactly realizable.  Returns the number of cells checked.
    """
    feasible = exact.scan_cells(graph, weights, grid.k)
    checked = 0
    det = np.asarray(grid.detected)
    for j in range(det.shape[0]):
        for z in range(det.shape[1]):
            if det[j, z]:
                checked += 1
                if (j, z) not in feasible:
                    raise CertificationError(
                        f"scan grid: detected cell (size={j}, weight={z}) is "
                        "not realizable by any connected subgraph"
                    )
    return checked


class CertificationReport:
    """Accumulated certification outcomes (warn mode / CLI `verify`)."""

    def __init__(self) -> None:
        self.passed: List[str] = []
        self.failures: List[str] = []
        self.misses: List[str] = []  # negatives contradicted by exact (allowed)

    @property
    def clean(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "passed": list(self.passed),
            "failures": list(self.failures),
            "permitted_misses": list(self.misses),
            "clean": self.clean,
        }

    def text(self) -> str:
        lines = [f"certifier: {len(self.passed)} check(s) passed, "
                 f"{len(self.failures)} failure(s), "
                 f"{len(self.misses)} permitted miss(es)"]
        lines += [f"  PASS {p}" for p in self.passed]
        lines += [f"  MISS {m}" for m in self.misses]
        lines += [f"  FAIL {f}" for f in self.failures]
        return "\n".join(lines)


class ResultCertifier:
    """Stateful wrapper over the ``certify_*`` functions.

    ``strict`` re-raises the first :class:`CertificationError`; warn mode
    collects failures into :attr:`report` and keeps going, so a CLI
    `verify` pass can show everything wrong at once.
    """

    def __init__(self, graph: CSRGraph, mode: str = "strict",
                 report: Optional[CertificationReport] = None) -> None:
        self.strict = is_strict(mode, "certifier")
        self.graph = graph
        self.mode = mode
        self.report = report if report is not None else CertificationReport()

    def _run(self, label: str, fn, *args, **kwargs):
        try:
            out = fn(self.graph, *args, **kwargs)
        except CertificationError as exc:
            self.report.failures.append(f"{label}: {exc}")
            if self.strict:
                raise
            return None
        self.report.passed.append(label)
        return out

    def path_witness(self, vertices, k: int):
        return self._run(f"path-witness(k={k})", certify_path_witness,
                         vertices, k)

    def ordered_path(self, path):
        return self._run(f"ordered-path(len={len(list(path))})",
                         certify_ordered_path, list(path))

    def tree_witness(self, vertices, template: TreeTemplate):
        return self._run(f"tree-witness({template.name})",
                         certify_tree_witness, vertices, template)

    def cluster(self, weights, vertices, size: int, weight: int):
        return self._run(f"cluster(size={size}, weight={weight})",
                         certify_cluster, weights, vertices, size, weight)

    def max_weight(self, weights, k: int, reported):
        return self._run(f"max-weight(k={k})", certify_max_weight,
                         weights, k, reported)

    def scan_grid(self, weights, grid):
        return self._run(f"scan-grid(k={grid.k})", certify_scan_grid,
                         weights, grid)

    def negative_path(self, k: int) -> bool:
        """Spot-check a negative k-path answer against the exact oracle.

        Returns True when exact agrees nothing is there.  A contradiction
        is recorded as a permitted one-sided miss, never a failure.
        """
        present = exact.has_path(self.graph, k)
        if present:
            self.report.misses.append(
                f"negative-path(k={k}): exact oracle finds a {k}-path "
                "(one-sided miss, within the eps budget)"
            )
            return False
        self.report.passed.append(f"negative-path(k={k})")
        return True


__all__ = [
    "CertificationReport",
    "ResultCertifier",
    "certify_cluster",
    "certify_max_weight",
    "certify_ordered_path",
    "certify_path_witness",
    "certify_scan_grid",
    "certify_scan_score",
    "certify_tree_witness",
]
