"""Live run telemetry: a thread-safe RunStatus and progress event bus.

Everything else in :mod:`repro.obs` is post-mortem — traces, reports,
and RunRecords materialize after a run ends.  This module is the
in-flight view: the :class:`~repro.core.engine.DetectionEngine` updates
a :class:`LiveRun` at round/batch/phase boundaries and the state is
observable three ways *while the run executes*:

* :class:`RunStatus` — a locked, always-consistent snapshot (rounds
  completed, the amplification schedule's current failure-probability
  bound, ETA, fault/retry counts, last heartbeat) served as JSON by the
  HTTP exporter's ``/status`` (see :mod:`repro.obs.http`);
* a **progress stream** — an append-only JSONL file next to the run
  (``MidasRuntime(progress_path=...)`` / CLI ``--progress-out``), one
  event per line, flushed eagerly so a crashed or interrupted run keeps
  everything emitted so far; ``repro watch`` tails it;
* **subscribers** — in-process callbacks receiving every event dict (the
  service coordinator's sweep hook).

Live gauges (``midas_live_*``) are also published into the metrics
registry, so the Prometheus ``/metrics`` endpoint shows progress too.

Event kinds on the stream: ``run_start``, ``stage_start``, ``phase``,
``round`` (carries a full status snapshot), ``restore`` (rounds
recovered from a durable checkpoint on resume), ``fault``, ``result``,
``run_end`` (carries a final snapshot).
"""

from __future__ import annotations

import json
import threading
import time
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from repro.util.log import get_logger

_LOG = get_logger(__name__)

_TERMINAL = ("done", "failed", "interrupted", "degraded")


class RunStatus:
    """Mutable, lock-protected status of one (or more) engine runs.

    ``rounds_completed`` / ``rounds_planned`` are cumulative across every
    stage and engine run sharing this status (so the value is monotone —
    the property a polling coordinator needs); the ``stage_*`` fields
    describe the stage currently executing.  All reads go through
    :meth:`snapshot`, which is consistent under concurrent updates from
    the threaded backend's workers.
    """

    def __init__(self, clock: Callable[[], float] = time.time) -> None:
        self._lock = threading.Lock()
        self._clock = clock
        self.state = "idle"
        self.error = ""
        self.problem = ""
        self.mode = ""
        self.graph: Dict[str, int] = {}
        self.runs = 0
        self.stage = ""
        self.k = 0
        self.target_eps: Optional[float] = None
        self.stage_rounds_planned = 0
        self.stage_rounds_completed = 0
        self.stage_round_miss = Fraction(1)  # 1 - the stage's round bound
        self.rounds_planned = 0
        self.rounds_completed = 0
        self.phases_per_round = 0
        self.phases_completed = 0
        self.witness_found: Optional[bool] = None
        self.found: Optional[bool] = None
        self.virtual_seconds = 0.0
        self.eta_seconds: Optional[float] = None
        self.eta_virtual_seconds: Optional[float] = None
        self.fault_failures = 0
        self.fault_retries = 0
        self.faults_injected = 0
        self.started_at = self._clock()
        self.last_heartbeat = self.started_at

    # every mutator below is called with self._lock held by LiveRun
    def heartbeat(self) -> None:
        self.last_heartbeat = self._clock()

    @property
    def p_failure_bound(self) -> float:
        """Upper bound on a miss after the current stage's completed
        rounds: ``(1 - p)^rounds`` for the stage's per-round success
        bound ``p`` (1.0 before any round finishes)."""
        return float(self.stage_round_miss ** self.stage_rounds_completed)

    def snapshot(self) -> dict:
        """A consistent plain-dict copy (what ``/status`` serves)."""
        with self._lock:
            now = self._clock()
            return {
                "state": self.state,
                "error": self.error,
                "problem": self.problem,
                "mode": self.mode,
                "graph": dict(self.graph),
                "runs": self.runs,
                "stage": self.stage,
                "k": self.k,
                "target_eps": self.target_eps,
                "rounds_planned": self.rounds_planned,
                "rounds_completed": self.rounds_completed,
                "stage_rounds_planned": self.stage_rounds_planned,
                "stage_rounds_completed": self.stage_rounds_completed,
                "phases_per_round": self.phases_per_round,
                "phases_completed": self.phases_completed,
                "p_failure_bound": self.p_failure_bound,
                "witness_found": self.witness_found,
                "found": self.found,
                "virtual_seconds": self.virtual_seconds,
                "eta_seconds": self.eta_seconds,
                "eta_virtual_seconds": self.eta_virtual_seconds,
                "faults": {
                    "injected": self.faults_injected,
                    "phase_failures": self.fault_failures,
                    "retries": self.fault_retries,
                },
                "started_at": self.started_at,
                "wall_seconds": now - self.started_at,
                "last_heartbeat": self.last_heartbeat,
                "heartbeat_age_seconds": now - self.last_heartbeat,
            }


class ProgressStream:
    """Append-only JSONL event stream, flushed per event."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = self.path.open("a")

    def write(self, event: dict) -> None:
        self._fh.write(json.dumps(event) + "\n")
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


class LiveRun:
    """The event bus the engine publishes into (see module docs).

    Attach one to a runtime (``MidasRuntime(live=...)``, or implicitly
    via ``live_port=`` / ``progress_path=``) and every engine run on
    that runtime reports through it.  ``serve(port)`` starts the HTTP
    exporter; :meth:`close` stops the exporter and closes the stream.
    """

    def __init__(
        self,
        progress_path: Optional[Union[str, Path]] = None,
        metrics=None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.status = RunStatus(clock=clock)
        self._clock = clock
        self._metrics = metrics
        self._stream = ProgressStream(progress_path) if progress_path else None
        self._subs: List[Callable[[dict], None]] = []
        self._server = None
        # when set (the service's per-query runs), every emitted event
        # carries the query's trace id so the progress stream joins the
        # qtrace/RunStore records
        self.trace_id: Optional[str] = None
        if metrics is not None:
            g = metrics.gauge
            self._g_rounds = g("midas_live_rounds_completed",
                               "Rounds completed by the in-flight run")
            self._g_planned = g("midas_live_rounds_planned",
                                "Rounds planned by the in-flight run")
            self._g_pbound = g("midas_live_p_failure_bound",
                               "Current amplification failure-probability bound")
            self._g_eta = g("midas_live_eta_seconds",
                            "Estimated wall seconds to stage completion")
            self._g_running = g("midas_live_running",
                                "1 while an engine run is executing")
            self._g_beat = g("midas_live_last_heartbeat_unixtime",
                             "Unix time of the last engine heartbeat")
        else:
            self._g_rounds = self._g_planned = self._g_pbound = None
            self._g_eta = self._g_running = self._g_beat = None

    # ------------------------------------------------------------- plumbing
    def subscribe(self, fn: Callable[[dict], None]) -> None:
        """Register a callback receiving every event dict."""
        self._subs.append(fn)

    def serve(self, port: int = 0, host: str = "127.0.0.1", routes=None):
        """Start the HTTP exporter on ``port`` (0 = ephemeral); idempotent.

        ``routes`` optionally mounts extra endpoints beside ``/metrics``
        ``/status`` ``/healthz`` — this is how the detection service
        shares one exporter with live telemetry instead of binding a
        second port.  On an already-running server new routes are merged
        in (existing paths are preserved, not shadowed).
        """
        if self._server is None:
            from repro.obs.http import LiveServer  # local: optional layer

            self._server = LiveServer(self.status.snapshot,
                                      registry=self._metrics, host=host,
                                      routes=routes)
            self._server.start(port)
        elif routes:
            for path, handler in routes.items():
                if path not in self._server._routes:
                    self._server.add_route(path, handler)
        return self._server

    @property
    def server(self):
        return self._server

    @property
    def port(self) -> Optional[int]:
        return self._server.port if self._server is not None else None

    def close(self) -> None:
        """Stop the HTTP exporter (joining its thread) and close the stream."""
        if self._server is not None:
            self._server.stop()
            self._server = None
        if self._stream is not None:
            self._stream.close()
            self._stream = None

    def _emit(self, event: str, **payload) -> None:
        evt = {"t": self._clock(), "event": event, **payload}
        if self.trace_id:
            evt["trace_id"] = self.trace_id
        if self._stream is not None:
            self._stream.write(evt)
        for fn in self._subs:
            try:
                fn(evt)
            except Exception:  # a bad subscriber must not kill the run
                _LOG.exception("live-run subscriber failed on %r", event)

    def _sync_gauges(self, s: RunStatus) -> None:
        if self._g_rounds is None:
            return
        self._g_rounds.set(s.rounds_completed)
        self._g_planned.set(s.rounds_planned)
        self._g_pbound.set(s.p_failure_bound)
        self._g_eta.set(s.eta_seconds if s.eta_seconds is not None else -1.0)
        self._g_running.set(1.0 if s.state == "running" else 0.0)
        self._g_beat.set(s.last_heartbeat)

    # ------------------------------------------------------- engine-facing
    def run_started(self, problem: str, mode: str,
                    graph_nodes: int = 0, graph_edges: int = 0) -> None:
        s = self.status
        with s._lock:
            s.state = "running"
            s.error = ""
            s.problem = problem
            s.mode = mode
            s.graph = {"nodes": int(graph_nodes), "edges": int(graph_edges)}
            s.runs += 1
            s.witness_found = None
            s.found = None
            s.heartbeat()
            self._sync_gauges(s)
        self._emit("run_start", problem=problem, mode=mode,
                   graph=dict(s.graph), run=s.runs)

    def stage_started(self, stage: str, k: int, rounds: int,
                      phases_per_round: int, round_success,
                      eps: Optional[float] = None) -> None:
        """A stage of ``rounds`` rounds begins; each succeeds with
        probability at least ``round_success``
        (:attr:`repro.core.problems.ProblemSpec.round_success`)."""
        s = self.status
        with s._lock:
            s.stage = stage
            s.k = int(k)
            s.target_eps = eps
            s.stage_rounds_planned = int(rounds)
            s.stage_rounds_completed = 0
            s.stage_round_miss = 1 - Fraction(round_success)
            s.rounds_planned += int(rounds)
            s.phases_per_round = int(phases_per_round)
            s.phases_completed = 0
            s.eta_seconds = None
            s.eta_virtual_seconds = None
            s.heartbeat()
            self._sync_gauges(s)
        self._emit("stage_start", stage=stage, k=int(k), rounds=int(rounds),
                   phases_per_round=int(phases_per_round), eps=eps)

    def phase_done(self, round_index: int, phase_index: int) -> None:
        s = self.status
        with s._lock:
            s.phases_completed += 1
            s.heartbeat()
        self._emit("phase", round=int(round_index), phase=int(phase_index))

    def round_done(self, round_index: int, hit: bool,
                   virtual_seconds: float,
                   eta_seconds: Optional[float] = None,
                   eta_virtual_seconds: Optional[float] = None) -> None:
        s = self.status
        with s._lock:
            s.stage_rounds_completed += 1
            s.rounds_completed += 1
            s.phases_completed = 0
            s.virtual_seconds = float(virtual_seconds)
            s.eta_seconds = eta_seconds
            s.eta_virtual_seconds = eta_virtual_seconds
            if hit:
                s.witness_found = True
                # an early exit forfeits the stage's remaining rounds
                skipped = s.stage_rounds_planned - s.stage_rounds_completed
                s.rounds_planned -= max(0, skipped)
                s.stage_rounds_planned = s.stage_rounds_completed
            s.heartbeat()
            self._sync_gauges(s)
        self._emit("round", round=int(round_index), hit=bool(hit),
                   status=self.status.snapshot())

    def rounds_restored(self, n: int, virtual_seconds: float) -> None:
        """``n`` rounds of the current stage were recovered from a durable
        checkpoint (no new work was done — the counters jump so the
        failure bound and ETA stay honest on a resumed run)."""
        s = self.status
        with s._lock:
            s.stage_rounds_completed += int(n)
            s.rounds_completed += int(n)
            s.virtual_seconds = float(virtual_seconds)
            s.heartbeat()
            self._sync_gauges(s)
        self._emit("restore", rounds=int(n),
                   virtual_seconds=float(virtual_seconds))

    def fault_update(self, failures: int, retries: int, injected: int) -> None:
        s = self.status
        with s._lock:
            s.fault_failures = int(failures)
            s.fault_retries = int(retries)
            s.faults_injected = int(injected)
            s.heartbeat()
        self._emit("fault", failures=int(failures), retries=int(retries),
                   injected=int(injected))

    def heartbeat(self) -> None:
        """Cheap liveness tick (no event emitted) — safe to call often."""
        s = self.status
        with s._lock:
            s.heartbeat()
            if self._g_beat is not None:
                self._g_beat.set(s.last_heartbeat)

    def note_result(self, found: bool) -> None:
        s = self.status
        with s._lock:
            s.found = bool(found)
            if found:
                s.witness_found = True
        self._emit("result", found=bool(found))

    def run_ended(self, state: str = "done", error: str = "") -> None:
        if state not in _TERMINAL:
            raise ValueError(f"terminal state must be one of {_TERMINAL}, got {state!r}")
        s = self.status
        with s._lock:
            s.state = state
            s.error = error
            s.eta_seconds = 0.0 if state == "done" else s.eta_seconds
            s.heartbeat()
            self._sync_gauges(s)
        self._emit("run_end", state=state, error=error,
                   status=self.status.snapshot())


__all__ = ["LiveRun", "ProgressStream", "RunStatus"]
