"""Wall-clock profiling of the real kernel hot paths.

Virtual time (the simulator's clocks, the Theorem-2 model) answers *what
the algorithm costs on the modeled machine*; it cannot see where real
seconds go in this process — the GIL, numpy dispatch, thread-pool
overhead.  :class:`WallProfiler` closes that gap: call sites wrap their
work in :meth:`WallProfiler.span` and the profiler aggregates wall time
into per-``(phase, op, callsite)`` :class:`~repro.util.timing.Stopwatch`
accumulators while also retaining the raw span timeline for a
speedscope-compatible export (https://www.speedscope.app — drop the JSON
in to browse the flame graph).

The engine profiles every run by default (see
``MidasRuntime.get_profiler``): a span costs one ``perf_counter`` pair,
a lock acquisition, and a dict update — nanoseconds against the
millisecond-scale GF kernels it wraps (bounded by
``benchmarks/bench_profile_overhead.py``).

Spans nest per thread (a thread-local stack tracks depth), so the
export renders proper flame stacks and :meth:`by_phase` can tile the
run's wall clock from the depth-0 spans of the profiling thread without
double-counting nested or concurrent work.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.util.timing import Stopwatch

SPEEDSCOPE_SCHEMA = "https://www.speedscope.app/file-format-schema.json"

ProfKey = Tuple[str, str, str]  # (phase, op, callsite)


@dataclass(frozen=True)
class SpanRecord:
    """One completed wall-clock span (times relative to the profiler epoch)."""

    phase: str
    op: str
    callsite: str
    t0: float
    t1: float
    thread: str
    depth: int

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    @property
    def frame_name(self) -> str:
        base = f"{self.phase}/{self.op}" if self.phase else self.op
        return f"{base} {self.callsite}" if self.callsite else base


class _SpanCtx:
    """Context manager for one span; re-entrant per call (not shared).
    ``t0``/``t1`` (``perf_counter``) stay readable after exit."""

    __slots__ = ("_prof", "_phase", "_op", "_callsite", "t0", "t1", "_depth")

    def __init__(self, prof: "WallProfiler", phase: str, op: str, callsite: str) -> None:
        self._prof = prof
        self._phase = phase
        self._op = op
        self._callsite = callsite
        self.t0 = self.t1 = 0.0
        self._depth = 0

    def __enter__(self) -> "_SpanCtx":
        self._depth = self._prof._push()
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.t1 = time.perf_counter()
        self._prof._pop()
        self._prof._record(self._phase, self._op, self._callsite,
                           self.t0, self.t1, self._depth)


class WallProfiler:
    """Thread-safe wall-clock span aggregator (see module docs).

    ``keep_spans`` retains the raw span timeline for the speedscope
    export; aggregates are always kept.  Raw retention is bounded by
    ``max_spans`` (beyond it spans are dropped and counted in
    ``dropped_spans`` — aggregation continues unaffected).
    """

    def __init__(self, keep_spans: bool = True, max_spans: int = 100_000,
                 enabled: bool = True) -> None:
        self.enabled = enabled
        self.keep_spans = keep_spans
        self.max_spans = max_spans
        self.epoch = time.perf_counter()
        self.spans: List[SpanRecord] = []
        self.dropped_spans = 0
        self._agg: Dict[ProfKey, Stopwatch] = {}
        self._lock = threading.Lock()
        self._tls = threading.local()
        # the thread whose depth-0 spans tile the run (first to record)
        self._owner: Optional[int] = None

    # --------------------------------------------------------------- spans
    def span(self, op: str, phase: str = "", callsite: str = "") -> _SpanCtx:
        """``with profiler.span("kernel", phase="rounds", callsite="k-path")``."""
        return _SpanCtx(self, phase, op, callsite)

    def _push(self) -> int:
        if self._owner is None:
            # first thread to open a span owns the timeline; claiming on
            # open (not close) matters in threaded mode, where worker
            # spans close before the enclosing round span does
            with self._lock:
                if self._owner is None:
                    self._owner = threading.get_ident()
        depth = getattr(self._tls, "depth", 0)
        self._tls.depth = depth + 1
        return depth

    def _pop(self) -> None:
        self._tls.depth = getattr(self._tls, "depth", 1) - 1

    def add_span(self, op: str, t0: float, t1: float, phase: str = "",
                 callsite: str = "", lane: Optional[str] = None) -> None:
        """Record a span stamped elsewhere (``perf_counter`` seconds) on
        thread/worker ``lane``; on the calling thread's own name it nests
        at the caller's current depth, as if opened and closed here."""
        own = lane == threading.current_thread().name
        self._record(phase, op, callsite, t0, t1,
                     getattr(self._tls, "depth", 0) if own else 0,
                     None if own else lane)

    def _record(self, phase: str, op: str, callsite: str, t0: float,
                t1: float, depth: int, lane: Optional[str] = None) -> None:
        if not self.enabled:
            return
        thread = threading.current_thread()
        with self._lock:
            if self._owner is None:
                self._owner = thread.ident
            if lane is None:
                lane = thread.name if thread.ident != self._owner else "main"
            sw = self._agg.get((phase, op, callsite))
            if sw is None:
                sw = self._agg[(phase, op, callsite)] = Stopwatch()
            sw.observe(t1 - t0)
            if self.keep_spans:
                if len(self.spans) < self.max_spans:
                    self.spans.append(SpanRecord(
                        phase, op, callsite,
                        t0 - self.epoch, t1 - self.epoch, lane, depth,
                    ))
                else:
                    self.dropped_spans += 1

    def observe(self, op: str, seconds: float, phase: str = "",
                callsite: str = "") -> None:
        """Fold an externally measured duration into the aggregates only
        (no raw span — for call sites that already hold a duration)."""
        if not self.enabled:
            return
        with self._lock:
            sw = self._agg.get((phase, op, callsite))
            if sw is None:
                sw = self._agg[(phase, op, callsite)] = Stopwatch()
            sw.observe(seconds)

    # ---------------------------------------------------------- aggregates
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

    def by_phase(self) -> Dict[str, float]:
        """Wall seconds per phase, from the profiling thread's depth-0 spans.

        Depth-0 spans of the owning thread tile the instrumented run
        without overlap (nested spans and concurrent worker threads are
        excluded), so these totals sum to the run's covered wall time.
        """
        out: Dict[str, float] = {}
        with self._lock:
            for s in self.spans:
                if s.depth == 0 and s.thread == "main":
                    out[s.phase or s.op] = out.get(s.phase or s.op, 0.0) + s.duration
        return out

    def section(self) -> dict:
        """The RunReport ``profile`` section (plain data)."""
        phases = self.by_phase()
        with self._lock:
            spans = list(self.spans)
            n_spans = len(self.spans)
            dropped = self.dropped_spans
        threads = {s.thread for s in spans}
        extent = (max((s.t1 for s in spans), default=0.0)
                  - min((s.t0 for s in spans), default=0.0))
        return {
            "wall_total": sum(phases.values()),
            "wall_span": extent,
            "phases": phases,
            "ops": self.aggregates(),
            "threads": len(threads),
            "spans": n_spans,
            "dropped_spans": dropped,
        }

    def reset(self) -> None:
        with self._lock:
            self._agg.clear()
            self.spans.clear()
            self.dropped_spans = 0
            self._owner = None
            self.epoch = time.perf_counter()

    # ---------------------------------------------------------- speedscope
    def to_speedscope(self, name: str = "repro run") -> dict:
        """Render the raw span timeline as a speedscope JSON document.

        One ``evented`` profile per thread; frames are the distinct
        ``phase/op callsite`` names.  Open at https://www.speedscope.app.
        """
        with self._lock:
            spans = list(self.spans)
        frame_ix: Dict[str, int] = {}
        frames: List[dict] = []
        by_thread: Dict[str, List[SpanRecord]] = {}
        for s in spans:
            if s.frame_name not in frame_ix:
                frame_ix[s.frame_name] = len(frames)
                frames.append({"name": s.frame_name})
            by_thread.setdefault(s.thread, []).append(s)
        profiles = []
        for tname in sorted(by_thread):
            tspans = by_thread[tname]
            events = []
            for s in tspans:
                events.append((s.t0, 1, s.depth, frame_ix[s.frame_name]))
                events.append((s.t1, 0, s.depth, frame_ix[s.frame_name]))
            # at equal timestamps: close before open; closes unwind
            # deepest-first, opens descend shallowest-first
            events.sort(key=lambda e: (e[0], e[1], e[2] if e[1] else -e[2]))
            end = max((s.t1 for s in tspans), default=0.0)
            profiles.append({
                "type": "evented",
                "name": f"{name} [{tname}]",
                "unit": "seconds",
                "startValue": 0.0,
                "endValue": end,
                "events": [
                    {"type": "O" if kind else "C", "frame": frame, "at": t}
                    for t, kind, _depth, frame in events
                ],
            })
        return {
            "$schema": SPEEDSCOPE_SCHEMA,
            "name": name,
            "exporter": "repro.obs.profile",
            "activeProfileIndex": 0,
            "shared": {"frames": frames},
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
    "SpanRecord",
    "WallProfiler",
    "validate_speedscope",
    "SPEEDSCOPE_SCHEMA",
]
