"""The wall-clock span log: one record, one collector, every view of it.

Virtual time (the simulator's clocks, the Theorem-2 model) answers *what
the algorithm costs on the modeled machine*; it cannot see where real
seconds go in this process — the GIL, numpy dispatch, pool overhead.
Every wall-clock interval worth timing (a session build step, a round, a
phase window, a broker stage) is recorded **once**, as one :class:`Span`
in one :class:`WallProfiler`, and everything a user can hold is a view of
that list: the per-``(phase, op, callsite)`` aggregates and the
RunReport ``profile`` section, the speedscope export
(https://www.speedscope.app), and — on the
:class:`~repro.obs.qtrace.QueryTrace` subclass the service hands the
engine as ``MidasRuntime(profiler=...)`` — the ``/api/trace`` document,
its Chrome trace and the ``repro trace`` timeline.

Stamps are ``time.perf_counter()`` seconds.  On Linux that is
CLOCK_MONOTONIC, shared by every process on the machine, so spans
stamped in a client or a worker process lie on the same timebase and
:meth:`WallProfiler.add_span` takes them as they are.

A span is *named* ``layer.op`` (``engine.round``, ``worker.kernel``);
its ``phase`` tag (the layer, for a span without one), the last dotted
component of the name and its ``callsite`` tag are the aggregate key.
Its *lane* is the track it is drawn on:
``main`` for the thread that first records on its own lane, the thread's
name for any other, or whatever the caller passes (``broker``,
``worker-<pid>``).  Its *parent* is the span open on the calling thread
when it was recorded, so nesting needs no plumbing, and a span's depth
on its lane — what :meth:`WallProfiler.by_phase` tiles the run with and
what orders the flame stacks — is a walk up the parents.

The engine profiles every run by default (see
``MidasRuntime.get_profiler``): a span costs one ``perf_counter`` pair,
a lock acquisition or two, and a dict update — nanoseconds against the
millisecond-scale GF kernels it wraps (the ledger's
``engine.residual_share.*`` holds it with the engine's other bookkeeping).
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.util.timing import Stopwatch

SPEEDSCOPE_SCHEMA = "https://www.speedscope.app/file-format-schema.json"

ProfKey = Tuple[str, str, str]  # (phase, op, callsite)


@dataclass(eq=False)
class Span:
    """One timed interval — also the ``/api/trace`` wire shape.

    ``t_start``/``t_end`` are ``perf_counter`` stamps; ``pid`` tells
    processes apart in a spliced timeline, ``lane`` the track within
    one.  ``trace_id`` is empty outside a served query.
    """

    name: str
    t_start: float
    t_end: float
    pid: int = 0
    lane: str = "main"
    span_id: str = ""
    parent_id: Optional[str] = None
    tags: Dict[str, Any] = field(default_factory=dict)
    trace_id: str = ""

    @property
    def duration(self) -> float:
        return max(self.t_end - self.t_start, 0.0)

    @property
    def op(self) -> str:
        return self.name.rpartition(".")[2]

    @property
    def key(self) -> ProfKey:
        """The aggregate row: a span without a ``phase`` tag files under
        its layer (``broker.total`` -> ``broker/total``)."""
        layer, _, op = self.name.rpartition(".")
        return (self.tags.get("phase", layer), op, self.tags.get("callsite", ""))

    def to_dict(self) -> Dict[str, Any]:
        """The wire form: the record's fields, ``tags`` only when any."""
        d = dict(vars(self), tags=dict(self.tags))
        if not self.tags:
            del d["tags"]
        return d

    @staticmethod
    def from_dict(d: Dict[str, Any]) -> "Span":
        return Span(
            name=d["name"],
            t_start=float(d["t_start"]),
            t_end=float(d["t_end"]),
            pid=int(d.get("pid", 0)),
            lane=str(d.get("lane", "main")),
            span_id=d["span_id"],
            parent_id=d.get("parent_id"),
            tags=dict(d.get("tags") or {}),
            trace_id=d.get("trace_id", ""),
        )


class _OpenSpan:
    """A span being timed — what :meth:`WallProfiler.span` returns.

    Close it by leaving the ``with`` block or calling :meth:`finish`;
    ``span`` (and its stamps) stays readable afterwards."""

    __slots__ = ("_log", "span")

    def __init__(self, log: "WallProfiler", span: Span) -> None:
        self._log = log
        self.span = span

    def tag(self, **tags: Any) -> "_OpenSpan":
        self.span.tags.update(tags)
        return self

    def __enter__(self) -> "_OpenSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.finish(error=exc is not None)

    def finish(self, *, error: bool = False, at: Optional[float] = None) -> Span:
        """Stamp the end — ``at``, or now — and record the span."""
        self.span.t_end = time.perf_counter() if at is None else at
        if error:
            self.span.tags.setdefault("error", True)
        self._log._close(self.span)
        return self.span


class WallProfiler:
    """The thread-safe span collector (see module docs).

    ``keep_spans`` retains the raw span list; aggregates are always
    kept.  Retention is bounded by ``max_spans`` (beyond it spans are
    dropped and counted in ``dropped_spans`` — aggregation continues
    unaffected).  ``enabled=False`` is the null object: spans are still
    stamped for their caller, nothing is recorded.
    """

    #: what a served query's :class:`~repro.obs.qtrace.QueryTrace` sets:
    #: its trace id, and the parent of a span recorded with nothing open
    trace_id = ""
    root_id: Optional[str] = None

    def __init__(self, keep_spans: bool = True, max_spans: int = 100_000,
                 enabled: bool = True) -> None:
        self.enabled = enabled
        self.keep_spans = keep_spans
        self.max_spans = max_spans
        self.epoch = time.perf_counter()
        self.pid = os.getpid()
        self.dropped_spans = 0
        self._spans: List[Span] = []
        self._open: Dict[str, Span] = {}
        self._agg: Dict[ProfKey, Stopwatch] = {}
        # the pid in the high bits: spans a worker process ships into the
        # service's trace never collide with the service's own
        self._ids = itertools.count((self.pid << 32) + 1)
        self._lock = threading.Lock()
        self._tls = threading.local()
        # the thread whose own lane is "main" (first to record on it)
        self._owner: Optional[int] = None

    @property
    def spans(self) -> List[Span]:
        """The recorded spans, in the order they closed (the live list)."""
        return self._spans

    # ----------------------------------------------------------- recording
    def _new(self, name: str, t_start: float, t_end: float,
             pid: Optional[int], lane: Optional[str], tags: dict) -> Span:
        thread = threading.current_thread()
        if lane is None or lane == thread.name:
            if self._owner is None:
                # claimed on open, not close: in threaded mode worker spans
                # close before the round span around them does
                with self._lock:
                    if self._owner is None:
                        self._owner = thread.ident
            lane = "main" if thread.ident == self._owner else thread.name
        stack = self._tls.__dict__.setdefault("stack", [])  # this thread's
        return Span(name, t_start, t_end, self.pid if pid is None else pid,
                    lane, f"{next(self._ids):016x}",
                    stack[-1].span_id if stack else self.root_id, tags,
                    self.trace_id)

    def span(self, name: str, *, lane: Optional[str] = None,
             **tags: Any) -> _OpenSpan:
        """``with profiler.span("engine.round", phase="rounds", round=3)``:
        time a block on the calling thread's lane (or ``lane``)."""
        if not self.enabled:
            return _OpenSpan(self, Span(name, time.perf_counter(), 0.0))
        sp = self._new(name, 0.0, 0.0, None, lane, tags)
        self._tls.stack.append(sp)
        with self._lock:
            self._open[sp.span_id] = sp
        sp.t_start = time.perf_counter()
        return _OpenSpan(self, sp)

    def _close(self, span: Span) -> None:
        if not self.enabled:
            return
        stack = getattr(self._tls, "stack", ())
        if span in stack:  # not when another thread finishes it
            stack.remove(span)
        self._commit(span)

    def add_span(self, name: str, t_start: float, t_end: float, *,
                 pid: Optional[int] = None, lane: Optional[str] = None,
                 **tags: Any) -> Optional[Span]:
        """Record a span stamped elsewhere — another thread (``lane``) or
        another process (``pid``) — as a child of whatever is open here.
        A ``lane`` that names the calling thread is that thread's own."""
        if not self.enabled:
            return None
        sp = self._new(name, t_start, t_end, pid, lane, tags)
        self._commit(sp)
        return sp

    def _observe(self, key: ProfKey, seconds: float) -> None:
        sw = self._agg.get(key)  # lock held
        if sw is None:
            sw = self._agg[key] = Stopwatch()
        sw.observe(seconds)

    def _commit(self, span: Span) -> None:
        with self._lock:
            self._open.pop(span.span_id, None)
            self._observe(span.key, span.t_end - span.t_start)
            if self.keep_spans:
                if len(self._spans) < self.max_spans:
                    self._spans.append(span)
                else:
                    self.dropped_spans += 1

    def observe(self, op: str, seconds: float, phase: str = "",
                callsite: str = "") -> None:
        """Fold an externally measured duration into the aggregates only
        (no raw span — for call sites that already hold a duration)."""
        if self.enabled:
            with self._lock:
                self._observe((phase, op, callsite), seconds)

    def open_spans(self) -> List[Span]:
        """Copies of the started-but-unfinished spans, closed at *now* and
        tagged ``open`` (for crash dumps)."""
        now = time.perf_counter()
        with self._lock:
            return [replace(sp, t_end=now, tags=dict(sp.tags, open=True))
                    for sp in self._open.values()]

    def reset(self) -> None:
        with self._lock:
            self._agg.clear()
            self._spans.clear()
            self._open.clear()
            self.dropped_spans = 0
            self._owner = None
            self.epoch = time.perf_counter()

    # --------------------------------------------------------------- views
    @property
    def has_data(self) -> bool:
        return bool(self._agg)

    def aggregates(self) -> List[dict]:
        """Per-(phase, op, callsite) rows, heaviest first."""
        with self._lock:
            rows = [
                {"phase": k[0], "op": k[1], "callsite": k[2],
                 "calls": sw.calls, "seconds": sw.elapsed, "mean": sw.mean}
                for k, sw in self._agg.items()
            ]
        rows.sort(key=lambda r: r["seconds"], reverse=True)
        return rows

    def _with_depths(self) -> List[Tuple[Span, int]]:
        """Each recorded span with its depth on its lane: how many of its
        ancestors share its ``(pid, lane)``."""
        with self._lock:
            spans = list(self._spans)
        by_id = {s.span_id: s for s in spans}
        out = []
        for s in spans:
            depth, up = 0, by_id.get(s.parent_id)
            for _ in range(64):  # spliced-in parent links are untrusted
                if up is None:
                    break
                depth += (up.pid, up.lane) == (s.pid, s.lane)
                up = by_id.get(up.parent_id)
            out.append((s, depth))
        return out

    def by_phase(self) -> Dict[str, float]:
        """Wall seconds per phase, from the depth-0 spans of lane ``main``.

        Those tile the instrumented run without overlap (nested spans,
        concurrent threads and worker processes are excluded), so these
        totals sum to the run's covered wall time.
        """
        out: Dict[str, float] = {}
        for s, depth in self._with_depths():
            if depth == 0 and s.lane == "main" and s.pid == self.pid:
                phase = s.tags.get("phase") or s.op
                out[phase] = out.get(phase, 0.0) + s.duration
        return out

    def section(self) -> dict:
        """The RunReport ``profile`` section (plain data)."""
        phases = self.by_phase()
        with self._lock:
            spans = list(self._spans)
            dropped = self.dropped_spans
        extent = (max((s.t_end for s in spans), default=0.0)
                  - min((s.t_start for s in spans), default=0.0))
        return {
            "wall_total": sum(phases.values()),
            "wall_span": extent,
            "phases": phases,
            "ops": self.aggregates(),
            "threads": len({s.lane for s in spans}),
            "spans": len(spans),
            "dropped_spans": dropped,
        }

    def to_speedscope(self, name: str = "repro run") -> dict:
        """Render the span list as a speedscope JSON document.

        One ``evented`` profile per lane, times relative to the
        collector's epoch; frames are the distinct ``phase/op callsite``
        names.  Open at https://www.speedscope.app.
        """
        frame_ix: Dict[str, int] = {}
        by_lane: Dict[str, list] = {}
        for s, depth in self._with_depths():
            phase, op, callsite = s.key
            frame = f"{phase}/{op}" if phase else op
            if callsite:
                frame = f"{frame} {callsite}"
            ix = frame_ix.setdefault(frame, len(frame_ix))
            events = by_lane.setdefault(s.lane, [])
            events.append((s.t_start - self.epoch, 1, depth, ix))
            events.append((s.t_end - self.epoch, 0, depth, ix))
        profiles = []
        for lane in sorted(by_lane):
            # at equal timestamps: close before open; closes unwind
            # deepest-first, opens descend shallowest-first
            events = sorted(by_lane[lane],
                            key=lambda e: (e[0], e[1], e[2] if e[1] else -e[2]))
            profiles.append({
                "type": "evented",
                "name": f"{name} [{lane}]",
                "unit": "seconds",
                "startValue": 0.0,
                "endValue": max(t for t, kind, _d, _f in events if not kind),
                "events": [
                    {"type": "O" if kind else "C", "frame": ix, "at": t}
                    for t, kind, _depth, ix in events
                ],
            })
        return {
            "$schema": SPEEDSCOPE_SCHEMA,
            "name": name,
            "exporter": "repro.obs.profile",
            "activeProfileIndex": 0,
            "shared": {"frames": [{"name": f} for f in frame_ix]},
            "profiles": profiles,
        }

    def dump_speedscope(self, path: Union[str, Path],
                        name: str = "repro run") -> Path:
        """Write :meth:`to_speedscope` to ``path`` (parents created)."""
        p = Path(path)
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(json.dumps(self.to_speedscope(name=name)))
        return p


def validate_speedscope(doc: dict) -> int:
    """Check a speedscope document's invariants; return the event count.

    Verifies the schema stamp, that every event references an existing
    frame, that each profile's events are time-ordered with balanced,
    properly nested O/C pairs, and that ``endValue`` covers the last
    event.  Raises ``ValueError`` on the first violation.
    """
    if doc.get("$schema") != SPEEDSCOPE_SCHEMA:
        raise ValueError(f"bad $schema: {doc.get('$schema')!r}")
    frames = doc.get("shared", {}).get("frames")
    if not isinstance(frames, list):
        raise ValueError("shared.frames missing")
    total = 0
    for pi, prof in enumerate(doc.get("profiles", [])):
        if prof.get("type") != "evented":
            raise ValueError(f"profile {pi}: type {prof.get('type')!r}")
        last_t = prof.get("startValue", 0.0)
        stack: List[int] = []
        for ei, ev in enumerate(prof.get("events", [])):
            t, kind, frame = ev.get("at"), ev.get("type"), ev.get("frame")
            if not isinstance(frame, int) or not (0 <= frame < len(frames)):
                raise ValueError(f"profile {pi} event {ei}: bad frame {frame!r}")
            if t < last_t:
                raise ValueError(f"profile {pi} event {ei}: time goes backward")
            last_t = t
            if kind == "O":
                stack.append(frame)
            elif kind == "C":
                if not stack or stack[-1] != frame:
                    raise ValueError(
                        f"profile {pi} event {ei}: C frame {frame} does not "
                        f"match open stack {stack[-3:]}"
                    )
                stack.pop()
            else:
                raise ValueError(f"profile {pi} event {ei}: type {kind!r}")
            total += 1
        if stack:
            raise ValueError(f"profile {pi}: {len(stack)} span(s) never closed")
        if prof.get("endValue", 0.0) < last_t:
            raise ValueError(f"profile {pi}: endValue precedes the last event")
    return total


__all__ = [
    "Span",
    "WallProfiler",
    "validate_speedscope",
    "SPEEDSCOPE_SCHEMA",
]
