"""The MIDAS drivers (paper Algorithm 2), as thin wrappers over the
unified detection engine.

One entry point per application:

* :func:`detect_path` — is there a simple path on ``k`` vertices?
* :func:`detect_tree` — does the template tree embed (non-induced)?
* :func:`max_weight_path` — maximum node weight of any simple k-path;
* :func:`detect_scan_cell` — one (size, weight) scan-statistics cell;
* :func:`scan_grid` — which (size ``j <= k``, weight ``z``) connected
  subgraphs exist? (feeds :mod:`repro.scanstat.detect`)

Each validates its inputs, builds the application's
:class:`~repro.core.mld.MLDCircuit`, opens one
:class:`~repro.core.engine.DetectionEngine` and runs the circuit as its
one stage through :func:`_detect`, the one engine entry (as does
:func:`repro.core.mld.detect_multilinear`).  The engine owns the round →
batch → phase loop once for all problems — and publishes the stage's
answer to the live bus — with the execution modes as its backends (see
:mod:`repro.core.engine` and :class:`MidasRuntime`).  So every driver honors
``overlap``, ``fault_plan``, ``recorder`` and ``metrics`` uniformly, and
durability: ``MidasRuntime(checkpoint_dir=...)`` commits a
crash-consistent checkpoint at every round boundary and ``resume=True``
restores it bit-identically, while ``deadline`` / ``hang_timeout`` arm a
watchdog that degrades the run to a partial result (annotated with the
stage's ``(1 - p)^rounds`` miss bound) instead of overrunning — see
:mod:`repro.runtime.durable`.

Randomness is *round-scoped*: all modes draw identical fingerprints from
the caller's stream, so answers never depend on ``(N, N1, N2)``, the
backend, or (for the threaded and process backends) completion order.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Optional

import numpy as np

from repro.core.engine import DetectionEngine, EngineSession, MidasRuntime, StageResult
from repro.core.mld import MLDCircuit
from repro.core.problems import compile
from repro.core.result import DetectionResult, RoundRecord, ScanGridResult
from repro.core.schedule import MAX_K, rounds_for_bound
from repro.errors import ConfigurationError
from repro.ff.gf2m import field_degree_for_k, round_success_bound
from repro.graph.csr import CSRGraph
from repro.graph.templates import TreeTemplate
from repro.util.rng import as_stream
from repro.util.validation import check_weights


def stage_rounds(circuit: MLDCircuit, eps: float) -> int:
    """The amplification rounds a stage of ``circuit`` runs at ``eps``:
    the fewest that miss a witness with probability at most ``eps`` under
    the circuit's exact per-round bound in its field
    (:func:`~repro.core.schedule.rounds_for_bound` of
    :func:`~repro.ff.gf2m.round_success_bound` for its ``k`` and
    ``y``-degree) — never more than ``rounds_for_epsilon(eps)``."""
    d = circuit.y_degree
    return rounds_for_bound(eps, round_success_bound(circuit.k, field_degree_for_k(d), d))


def _detect(engine: DetectionEngine, circuit: MLDCircuit, eps: float, rng, *,
            early_exit: bool = False, stop=None) -> StageResult:
    """The :func:`stage_rounds` amplification rounds of ``circuit`` on
    ``engine``, drawn from ``rng``: every driver's one way onto the
    engine.  ``stop`` ends the stage at the first round it accepts
    (``early_exit``: any witness).  The rounds are the first of the
    kind-free ``rounds_for_epsilon(eps)``: the same stream, cut shorter.

    The circuit is compiled over the session's cached GF(2^l) tables,
    one set per field degree; which layout a run takes is the level-DP
    driver's (:mod:`repro.core.leveldp`), not the field's.
    """
    rounds = stage_rounds(circuit, eps)
    spec = compile(circuit, engine.session.field_for_k(circuit.y_degree,
                                                        prof=engine.prof))
    if early_exit:
        stop = spec.hit
    return engine.run_stage(spec, rounds, rng, eps=eps, stop=stop)


def _decide(graph: CSRGraph, circuit: MLDCircuit, eps: float, rng,
            rt: MidasRuntime, early_exit: bool, **details) -> DetectionResult:
    """k-path / k-tree: one stage, its rounds as a DetectionResult."""
    if graph.n < 1:
        raise ConfigurationError("graph must have at least one vertex")
    k = circuit.k
    if k > graph.n:
        # more template vertices than graph vertices: trivially absent.  The
        # schedule reported is the one a run would have taken (none past
        # the schedule's limit)
        n2 = rt.schedule_for(k, graph.n).n2 if k <= MAX_K else 0
        return DetectionResult(circuit.name, k, False, [], eps, mode=rt.mode,
                               n_processors=rt.n_processors, n1=rt.n1, n2=n2,
                               details=dict(details, reason="k exceeds |V|"))
    wall0 = time.perf_counter()
    with DetectionEngine(graph, rt, circuit.name) as engine:
        out = _detect(engine, circuit, eps, as_stream(rng, f"{circuit.name}-detect"),
                      early_exit=early_exit)
        records = [RoundRecord(i, v, rv)
                   for i, (v, rv) in enumerate(zip(out.values, out.virtuals))]
        details = engine.fill_details(details, estimate=out.estimate)
    return DetectionResult(
        problem=circuit.name, k=k, found=any(r.hit for r in records), rounds=records, eps=eps,
        mode=rt.mode, n_processors=rt.n_processors, n1=rt.n1, n2=out.schedule.n2,
        virtual_seconds=engine.virtual_total,
        wall_seconds=time.perf_counter() - wall0, details=details,
    )


def detect_path(
    graph: CSRGraph,
    k: int,
    eps: float = 0.2,
    rng=None,
    runtime: Optional[MidasRuntime] = None,
    early_exit: bool = True,
) -> DetectionResult:
    """Decide whether ``graph`` contains a simple path on ``k`` vertices.

    One-sided Monte Carlo: "yes" answers are certificates; "no" answers are
    wrong with probability at most ``eps``.
    """
    return _decide(graph, MLDCircuit.k_path(k), eps, rng,
                   runtime or MidasRuntime(), early_exit)


def detect_tree(
    graph: CSRGraph,
    template: TreeTemplate,
    eps: float = 0.2,
    rng=None,
    runtime: Optional[MidasRuntime] = None,
    early_exit: bool = True,
) -> DetectionResult:
    """Decide whether the template tree has a non-induced embedding."""
    circuit = MLDCircuit.k_tree(template)  # a slot per decomposition subtree
    return _decide(graph, circuit, eps, rng, runtime or MidasRuntime(), early_exit,
                   template=template.name, n_subtrees=circuit.n_slots)


def sequential_detect_path(graph: CSRGraph, k: int, eps: float = 0.2, rng=None) -> bool:
    """Paper Algorithm 1 as a convenience boolean (sequential mode)."""
    return detect_path(graph, k, eps=eps, rng=rng).found


def max_weight_path(
    graph: CSRGraph,
    k: int,
    weights: np.ndarray,
    eps: float = 0.2,
    rng=None,
    runtime: Optional[MidasRuntime] = None,
    z_max: Optional[int] = None,
) -> Optional[int]:
    """Maximum total node weight of any simple k-path of weight at most
    ``z_max`` (Problem 1 variant; default: the ``k`` largest weights'
    sum, which bounds every k-path).

    ``weights`` are non-negative integers (use
    :func:`repro.scanstat.weights.round_weights` for real weights).
    Returns ``None`` when no k-path of weight ``<= z_max`` is detected —
    with an explicit ``z_max`` below every path's weight, also when
    k-paths exist.  One-sided per weight cell: a returned value is
    certified achievable; the true maximum exceeds it with probability at
    most ``eps``.
    """
    rt = runtime or MidasRuntime()
    w = check_weights(graph.n, weights)
    if k < 1 or k > graph.n:
        return None
    if z_max is None:
        z_max = int(np.sort(w)[-k:].sum())
    with DetectionEngine(graph, rt, "weighted-path") as engine:
        out = _detect(engine, MLDCircuit.weighted_path(w, k, z_max), eps,
                      as_stream(rng, "max-weight-path"))
        hit = np.zeros(z_max + 1, dtype=bool)
        for acc in out.values:
            hit |= acc != 0
    zs = np.nonzero(hit)[0]
    return int(zs.max()) if len(zs) else None


def detect_scan_cell(
    graph: CSRGraph,
    weights: np.ndarray,
    size: int,
    weight: int,
    eps: float = 0.2,
    rng=None,
    runtime: Optional[MidasRuntime] = None,
) -> bool:
    """Decide one (size, weight) cell: is there a connected subgraph of
    exactly ``size`` vertices and total weight ``weight``?

    This is the cheap single-cell query used by cluster extraction — it
    runs only the ``dim = size`` evaluation (``2^size`` iterations) instead
    of the whole grid, and exits on the first hitting round.  Its circuit
    is the grid's with row ``size`` its only output, so (for ``size >= 2``)
    a whole-graph run leaves out the vertices without neighbours
    (:attr:`MLDCircuit.needs_edges`) — most of a graph that extraction has
    peeled.
    """
    rt = runtime or MidasRuntime()
    w = check_weights(graph.n, weights)
    if not (1 <= size <= graph.n) or weight < 0:
        return False
    grid = MLDCircuit.scan_row(w, size, weight)
    with DetectionEngine(graph, rt, "scanstat") as engine:
        out = _detect(engine, replace(grid, outputs=grid.outputs[-1:]), eps,
                      as_stream(rng, "scan-cell"), stop=lambda acc: acc[weight] != 0)
    return bool(out.values and out.values[-1][weight] != 0)


def scan_grid(
    graph: CSRGraph,
    weights: np.ndarray,
    k: int,
    eps: float = 0.2,
    rng=None,
    runtime: Optional[MidasRuntime] = None,
    z_max: Optional[int] = None,
) -> ScanGridResult:
    """Detect all (size ``j <= k``, weight ``z``) connected subgraphs.

    ``weights`` are non-negative integers (round real weights first with
    :mod:`repro.scanstat.weights`).  One stage of
    :meth:`MLDCircuit.scan_row`'s ``2^k`` iterations decides every row —
    the paper's ``2^k`` complexity: row ``j`` is the size-``j`` output over
    the first ``2^j`` iterations, in row ``k``'s field and at row ``k``'s
    rounds, whose per-round bound is the lowest of any row there.
    """
    rt = runtime or MidasRuntime()
    w = check_weights(graph.n, weights)
    if k < 1 or k > graph.n:
        raise ConfigurationError(f"k must be in [1, {graph.n}], got {k}")
    if z_max is None:
        z_max = int(np.sort(w)[-k:].sum())
    wall0 = time.perf_counter()
    detected = np.zeros((k + 1, z_max + 1), dtype=bool)
    with DetectionEngine(graph, rt, "scanstat") as engine:
        out = _detect(engine, MLDCircuit.scan_row(w, k, z_max), eps,
                      as_stream(rng, "scan-grid"))
        for acc in out.values:
            detected[1:] |= acc.reshape(k, z_max + 1) != 0
        grid_details = engine.fill_details({"weights_total": int(w.sum())})
    return ScanGridResult(
        k=k, z_max=z_max, detected=detected, rounds_run=out.rounds_run,
        eps=eps, mode=rt.mode, n_processors=rt.n_processors, n1=rt.n1,
        n2=out.schedule.n2, virtual_seconds=engine.virtual_total,
        wall_seconds=time.perf_counter() - wall0, details=grid_details,
    )


__all__ = [
    "MidasRuntime",
    "EngineSession",
    "detect_path",
    "detect_tree",
    "sequential_detect_path",
    "stage_rounds",
    "max_weight_path",
    "detect_scan_cell",
    "scan_grid",
]
