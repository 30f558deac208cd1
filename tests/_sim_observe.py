"""Run one driver in ``mode="simulated"`` and write down everything the
simulated cluster said: its one stage's ``n2``, per-round values and
virtual seconds, every DigestLog entry, the comm-bytes counter and —
when tracing — the recorder's send counts/bytes, event and edge counts
and the summed compute/comm split.

Shared by ``test_sim_identity.py`` (the golden file) and
``test_sim_timeline.py`` (memoised vs fully enacted); imports only names
that exist on both sides of the timeline-memoisation change, so the
golden can be regenerated from the parent commit's code.
"""

from __future__ import annotations

from collections import Counter
from unittest import mock

import numpy as np

from repro.core.engine import DetectionEngine, MidasRuntime
from repro.core.midas import (
    detect_path,
    detect_scan_cell,
    detect_tree,
    max_weight_path,
    scan_grid,
)
from repro.graph.generators import erdos_renyi
from repro.graph.templates import TreeTemplate
from repro.obs.metrics import MetricsRegistry
from repro.runtime.tracing import TraceRecorder
from repro.sanitize.replay import DigestLog
from repro.util.rng import RngStream

GRAPH = erdos_renyi(72, m=180, rng=RngStream(181, name="g"))
WEIGHTS = RngStream(182, name="w").integers(0, 3, size=GRAPH.n).astype(np.int64)
STAR = TreeTemplate(4, [(0, 1), (0, 2), (0, 3)])
EPS = 0.5  # 3 rounds a stage

#: driver name -> call(runtime) on GRAPH; fixed seeds, no early exit where
#: the driver has the switch, so every run does the same work
DRIVERS = {
    "detect_path": lambda rt: detect_path(
        GRAPH, 5, eps=EPS, rng=RngStream(5), runtime=rt, early_exit=False),
    "detect_tree": lambda rt: detect_tree(
        GRAPH, STAR, eps=EPS, rng=RngStream(6), runtime=rt, early_exit=False),
    "max_weight_path": lambda rt: max_weight_path(
        GRAPH, 4, WEIGHTS, eps=EPS, rng=RngStream(7), runtime=rt),
    "detect_scan_cell": lambda rt: detect_scan_cell(
        GRAPH, WEIGHTS, 3, 2, eps=EPS, rng=RngStream(8), runtime=rt),
    "scan_grid": lambda rt: scan_grid(
        GRAPH, WEIGHTS, 3, eps=EPS, rng=RngStream(9), runtime=rt),
}


def _plain(value):
    return value.tolist() if isinstance(value, np.ndarray) else int(value)


def observe(driver: str, *, trace: bool, **shape) -> dict:
    """Everything observable of one simulated run, as JSON-able data.

    ``rt`` and the recorder ride along under ``"_rt"`` / ``"_rec"`` for
    callers that look further (they are not part of the identity).
    """
    rec = TraceRecorder() if trace else None
    rt = MidasRuntime(mode="simulated", metrics=MetricsRegistry(),
                      digest_log=DigestLog(), recorder=rec, trace=trace, **shape)
    stage, engines = {}, []
    run_stage = DetectionEngine.run_stage

    def spy(self, spec, rounds, rng, **kw):
        out = run_stage(self, spec, rounds, rng, **kw)
        assert not stage, "a run is one stage"
        engines.append(self)
        stage.update(n2=out.schedule.n2, values=[_plain(v) for v in out.values],
                     virtuals=list(out.virtuals))
        return out

    with mock.patch.object(DetectionEngine, "run_stage", spy):
        DRIVERS[driver](rt)
    (engine,) = engines
    comm = rt.metrics.get("midas_comm_bytes_total")
    seen = {
        **stage,
        "virtual_total": engine.virtual_total,
        "phase_digests": sorted([*key, d] for key, d in rt.digest_log.phases.items()),
        "round_digests": sorted([*key, d] for key, d in rt.digest_log.rounds.items()),
        "comm_bytes": sum(c.value for _lab, c in comm.children()) if comm else 0,
        "_rt": rt, "_rec": rec,
    }
    if trace:
        sends = [ev for ev in rec.events if ev.kind == "send"]
        seen.update(
            sends=len(sends), send_bytes=sum(ev.nbytes for ev in sends),
            events=len(rec.events), edges=len(rec.edges),
            events_by_kind=dict(sorted(Counter(ev.kind for ev in rec.events).items())),
            edges_by_kind=dict(sorted(Counter(d.kind for d in rec.edges).items())),
            trace_compute_seconds=engine.trace_compute,
            trace_comm_seconds=engine.trace_comm,
            timeline_end=engine.cursor,
        )
    return seen


def identity(seen: dict) -> dict:
    """The part of :func:`observe`'s result that must never change."""
    return {k: v for k, v in seen.items() if not k.startswith("_")}
