"""The MIDAS drivers (paper Algorithm 2), as thin wrappers over the
unified detection engine.

One entry point per application:

* :func:`detect_path` — is there a simple path on ``k`` vertices?
* :func:`detect_tree` — does the template tree embed (non-induced)?
* :func:`max_weight_path` — maximum node weight of any simple k-path;
* :func:`detect_scan_cell` — one (size, weight) scan-statistics cell;
* :func:`scan_grid` — which (size ``j <= k``, weight ``z``) connected
  subgraphs exist? (feeds :mod:`repro.scanstat.detect`)

Each builds a :class:`~repro.core.problems.ProblemSpec` and hands it to
the :class:`~repro.core.engine.DetectionEngine`, which owns the
round → batch → phase loop once for all problems; execution modes
(``sequential`` / ``simulated`` / ``modeled`` / ``threaded`` /
``process``) are pluggable backends of the engine — see
:mod:`repro.core.engine` for the mode semantics and
:class:`MidasRuntime` knobs.  Because every driver
routes through the same engine, all of them honor ``overlap``,
``fault_plan``, ``recorder``, and ``metrics`` uniformly — as well as
durability: ``MidasRuntime(checkpoint_dir=...)`` commits a
crash-consistent checkpoint at every round boundary and
``resume=True`` restores it bit-identically, while ``deadline`` /
``hang_timeout`` arm a watchdog that degrades the run to a partial
result (annotated with the live ``0.8^rounds`` miss bound) instead of
overrunning — see :mod:`repro.runtime.durable`.

Randomness is *round-scoped*: all modes draw identical fingerprints from
the caller's stream, so answers never depend on ``(N, N1, N2)``, the
backend, or (for the threaded and process backends) completion order.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional

import numpy as np

from repro.core.engine import DetectionEngine, EngineSession, MidasRuntime
from repro.core.evaluator_scanstat import scan_y_degree
from repro.core.evaluator_wpath import check_weights
from repro.core.problems import (
    PATH_LIVE_STATES,
    WPATH_LIVE_STATES,
    ProblemSpec,
    path_problem,
    scan_live_states,
    scanstat_problem,
    tree_live_states,
    tree_problem,
    weighted_path_problem,
)
from repro.core.result import DetectionResult, RoundRecord, ScanGridResult
from repro.core.schedule import rounds_for_epsilon
from repro.errors import ConfigurationError
from repro.ff.gf2m import field_degree_for_k
from repro.graph.csr import CSRGraph
from repro.graph.templates import TreeTemplate, decompose_template
from repro.util.log import get_logger
from repro.util.rng import as_stream

_LOG = get_logger(__name__)


def _field_for(engine: DetectionEngine, k: int, y_degree: Optional[int] = None,
               *, payload: int = 1, live_states: int = PATH_LIVE_STATES,
               rounds: Optional[int] = None):
    """The GF(2^l) tables of a ``2^k``-iteration stage whose polynomial has
    degree ``y_degree`` (default ``k``) in the ``y``s, with the kernel the
    runtime resolves for the stage's widest window, from the engine's
    session cache (per ``(degree, strategy)``).

    The window is the one :meth:`DetectionEngine.run_stage` runs for
    ``rounds`` rounds of a spec with that ``payload`` and ``live_states``:
    ``R`` fused rounds of ``n2`` lanes.  Every driver resolves the same
    way: the level-DP core keeps any problem kind plane-resident once a
    bit-sliced field is handed a full word of lanes.  (``field=None``
    would make the problem factory build a default-kernel field, losing
    the resolution.)
    """
    d = k if y_degree is None else y_degree
    rt = engine.rt
    m = field_degree_for_k(d)
    sched = rt.schedule_for(k, engine.graph.n, m, payload, rounds=rounds,
                            live_states=live_states)
    strategy = rt.resolve_kernel(m, sched.lanes)
    return engine.session.field_for_k(d, strategy=strategy, prof=engine.prof)


def _run_scalar_detection(
    graph: CSRGraph,
    problem: str,
    make_spec: Callable[[object], ProblemSpec],
    k: int,
    eps: float,
    rng,
    rt: MidasRuntime,
    early_exit: bool,
    live_states: int,
) -> DetectionResult:
    """Shared k-path / k-tree wrapper: engine run -> DetectionResult.

    ``make_spec(field)`` builds the problem over a GF(2^l) table set; its
    recurrence keeps ``live_states`` states alive.
    """
    if graph.n < 1:
        raise ConfigurationError("graph must have at least one vertex")
    if k > graph.n:
        # more template vertices than graph vertices: trivially absent.  The
        # schedule reported is the one a run would have taken (none past
        # the schedule's k <= 30)
        det = dict(make_spec(None).details, reason="k exceeds |V|")
        n2 = rt.schedule_for(k, graph.n).n2 if k <= 30 else 0
        return DetectionResult(problem, k, False, [], eps, mode=rt.mode,
                               n_processors=rt.n_processors, n1=rt.n1, n2=n2,
                               details=det)
    rounds = rounds_for_epsilon(eps)
    rng = as_stream(rng, f"{problem}-detect")
    wall0 = time.perf_counter()
    with DetectionEngine(graph, rt, problem) as engine:
        spec = make_spec(_field_for(engine, k, live_states=live_states,
                                    rounds=rounds))
        out = engine.run_stage(
            spec, rounds, rng, eps=eps,
            stop=spec.hit if early_exit else None,
            want_estimate=engine.want_estimate_default(),
        )
        records: List[RoundRecord] = [
            RoundRecord(i, v, rv)
            for i, (v, rv) in enumerate(zip(out.values, out.virtuals))
        ]
        det = engine.fill_details(dict(spec.details), estimate=out.estimate)
        engine.note_result(any(r.hit for r in records))
    return DetectionResult(
        problem=problem,
        k=k,
        found=any(r.hit for r in records),
        rounds=records,
        eps=eps,
        mode=rt.mode,
        n_processors=rt.n_processors,
        n1=rt.n1,
        n2=out.schedule.n2,
        virtual_seconds=engine.virtual_total,
        wall_seconds=time.perf_counter() - wall0,
        details=det,
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
    return _run_scalar_detection(
        graph, "k-path", lambda field: path_problem(graph, k, field=field),
        k, eps, rng, runtime or MidasRuntime(), early_exit, PATH_LIVE_STATES
    )


def detect_tree(
    graph: CSRGraph,
    template: TreeTemplate,
    eps: float = 0.2,
    rng=None,
    runtime: Optional[MidasRuntime] = None,
    early_exit: bool = True,
) -> DetectionResult:
    """Decide whether the template tree has a non-induced embedding."""
    return _run_scalar_detection(
        graph, "k-tree",
        lambda field: tree_problem(graph, template, field=field),
        template.k, eps, rng, runtime or MidasRuntime(), early_exit,
        tree_live_states(decompose_template(template))
    )


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
    """Maximum total node weight of any simple k-path (Problem 1 variant).

    ``weights`` are non-negative integers (use
    :func:`repro.scanstat.weights.round_weights` for real weights).
    Returns ``None`` when no k-path is detected at all.  One-sided per
    weight cell: a returned value is certified achievable; the true
    maximum exceeds it with probability at most ``eps``.
    """
    rt = runtime or MidasRuntime()
    w = check_weights(graph.n, weights)
    if k < 1 or k > graph.n:
        return None
    if z_max is None:
        z_max = int(np.sort(w)[-k:].sum())
    rounds = rounds_for_epsilon(eps)
    rng = as_stream(rng, "max-weight-path")
    with DetectionEngine(graph, rt, "weighted-path") as engine:
        spec = weighted_path_problem(graph, w, k, z_max, field=_field_for(
            engine, k, payload=z_max + 1, live_states=WPATH_LIVE_STATES,
            rounds=rounds))
        out = engine.run_stage(spec, rounds, rng, eps=eps,
                               want_estimate=engine.want_estimate_default())
        hit = np.zeros(z_max + 1, dtype=bool)
        for acc in out.values:
            hit |= acc != 0
        engine.note_result(bool(hit.any()))
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
    of the whole grid, and exits on the first hitting round.
    """
    rt = runtime or MidasRuntime()
    w = check_weights(graph.n, weights)
    if not (1 <= size <= graph.n) or weight < 0:
        return False
    rounds = rounds_for_epsilon(eps)
    rng = as_stream(rng, "scan-cell")
    with DetectionEngine(graph, rt, "scanstat") as engine:
        spec = scanstat_problem(graph, w, size, z_max=weight, field=_field_for(
            engine, size, scan_y_degree(size), payload=weight + 1,
            live_states=scan_live_states(size), rounds=rounds))
        out = engine.run_stage(spec, rounds, rng, eps=eps,
                               stop=lambda acc: acc[weight] != 0)
        hit = bool(out.values and out.values[-1][weight] != 0)
        engine.note_result(hit)
    return hit


def scan_grid(
    graph: CSRGraph,
    weights: np.ndarray,
    k: int,
    eps: float = 0.2,
    rng=None,
    runtime: Optional[MidasRuntime] = None,
    z_max: Optional[int] = None,
    sizes=None,
) -> ScanGridResult:
    """Detect all (size ``j <= k``, weight ``z``) connected subgraphs.

    ``weights`` are non-negative integers (round real weights first with
    :mod:`repro.scanstat.weights`).  Size row ``j`` is decided by its own
    ``2^j``-iteration evaluation (see the note in
    :mod:`repro.core.evaluator_scanstat`): the total work is dominated by
    the ``j = k`` row, matching the paper's ``2^k`` complexity.

    ``sizes`` optionally restricts which size rows are evaluated (default
    ``1..k``); rows outside it stay undetected in the returned grid.
    """
    rt = runtime or MidasRuntime()
    w = check_weights(graph.n, weights)
    if k < 1 or k > graph.n:
        raise ConfigurationError(f"k must be in [1, {graph.n}], got {k}")
    if z_max is None:
        top = np.sort(w)[-k:]
        z_max = int(top.sum())
    rounds = rounds_for_epsilon(eps)
    rng = as_stream(rng, "scan-grid")
    wall0 = time.perf_counter()

    if sizes is None:
        sizes = range(1, k + 1)
    sizes = sorted({int(j) for j in sizes})
    if sizes and (sizes[0] < 1 or sizes[-1] > k):
        raise ConfigurationError(f"sizes must lie in [1, {k}], got {sizes}")

    detected = np.zeros((k + 1, z_max + 1), dtype=bool)
    # the schedule reported is the top row's: the one run, or — no row
    # asked for — the one size k would run
    n2 = rt.schedule_for(k, graph.n, field_degree_for_k(scan_y_degree(k)),
                         z_max + 1).n2
    with DetectionEngine(graph, rt, "scanstat") as engine:
        for j in sizes:
            field = _field_for(engine, j, scan_y_degree(j), payload=z_max + 1,
                               live_states=scan_live_states(j), rounds=rounds)
            out = engine.run_stage(
                scanstat_problem(graph, w, j, z_max, field=field), rounds,
                rng.child(f"size{j}"), eps=eps,
                key_prefix=f"size{j}/", label=f"size{j}",
                want_estimate=(rt.mode == "modeled"),
            )
            n2 = out.schedule.n2
            for acc in out.values:
                detected[j] |= acc != 0
        engine.note_result(bool(detected.any()))
        grid_details = engine.fill_details({"weights_total": int(w.sum())})
        # the grid result keeps only run-wide keys, not per-size partition stats
        grid_details.pop("max_load", None)
        grid_details.pop("max_deg", None)
    return ScanGridResult(
        k=k,
        z_max=z_max,
        detected=detected,
        rounds_run=rounds,
        eps=eps,
        mode=rt.mode,
        n_processors=rt.n_processors,
        n1=rt.n1,
        n2=n2,
        virtual_seconds=engine.virtual_total,
        wall_seconds=time.perf_counter() - wall0,
        details=grid_details,
    )


__all__ = [
    "MidasRuntime",
    "EngineSession",
    "detect_path",
    "detect_tree",
    "sequential_detect_path",
    "max_weight_path",
    "detect_scan_cell",
    "scan_grid",
]
