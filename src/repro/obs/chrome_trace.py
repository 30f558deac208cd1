"""Export trace recordings to Chrome / Perfetto ``trace_event`` JSON.

Two front-ends feed the one ``traceEvents`` writer here:
:func:`trace_to_chrome` lays a served query's wall-clock span log
(:mod:`repro.obs.qtrace`) out as one Chrome process per OS process and
one thread per lane; :func:`to_chrome_trace` does the simulator's
virtual-time event log, described from here on.

Any list of :class:`~repro.runtime.tracing.TraceEvent` (one simulator
run, or a whole detection spliced together by the driver) becomes a
timeline loadable in ``chrome://tracing`` or https://ui.perfetto.dev:

* one virtual thread per rank (plus a ``coordinator`` thread for
  events charged to rank ``-1``, e.g. the round-final reduce);
* duration (``ph: "X"``) events named after their structured
  :class:`~repro.runtime.tracing.Scope`, with the schedule coordinates
  in ``args`` so Perfetto's query engine can slice by round/phase, and
  their cost component (:data:`~repro.runtime.tracing.COMPONENT`:
  compute, comm, idle; ``fault`` markers their own) as category;
* a cumulative ``comm bytes`` counter track (``ph: "C"``) fed by the
  wire-byte accounting of :mod:`repro.runtime.comm`, one series per
  sending rank.

Timestamps are microseconds of *virtual* time (the simulator's modeled
clocks), or wall time for sequential recordings — the format does not
care, and neither does the viewer.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError
from repro.obs.profile import Span
from repro.runtime.tracing import COMPONENT, TraceEvent

PathLike = Union[str, Path]

def _event_name(e: TraceEvent) -> str:
    if e.scope is not None:
        desc = e.scope.describe()
        if desc:
            return f"{e.kind} {desc}"
    return f"{e.kind} {e.info}".rstrip() if e.info else e.kind


def _tid(rank: int, nranks: int) -> int:
    return rank if rank >= 0 else nranks  # coordinator thread after ranks


def _trace_events(processes: Iterable[Tuple[int, str]],
                  threads: Iterable[Tuple[int, int, str, Optional[int]]],
                  timed: Iterable[dict]) -> List[dict]:
    """The one ``traceEvents`` writer: metadata events naming every
    ``(pid, label)`` process and ``(pid, tid, name, sort_index)`` thread
    (the index is optional), then the timed events in the order given."""
    out: List[dict] = [
        {"ph": "M", "pid": pid, "tid": 0, "name": "process_name",
         "args": {"name": label}}
        for pid, label in processes
    ]
    for pid, tid, name, sort_index in threads:
        out.append({"ph": "M", "pid": pid, "tid": tid, "name": "thread_name",
                    "args": {"name": name}})
        if sort_index is not None:
            out.append({"ph": "M", "pid": pid, "tid": tid,
                        "name": "thread_sort_index",
                        "args": {"sort_index": sort_index}})
    out.extend(timed)
    return out


def _complete(pid: int, tid: int, name: str, cat: str, start: float,
              duration: float, args: dict) -> dict:
    """One complete ("X") event; ``start``/``duration`` in seconds."""
    return {"ph": "X", "pid": pid, "tid": tid, "name": name, "cat": cat,
            "ts": start * 1e6, "dur": duration * 1e6, "args": args}


def to_chrome_trace(
    events: Sequence[TraceEvent],
    nranks: Optional[int] = None,
    meta: Optional[dict] = None,
) -> dict:
    """Build the ``trace_event`` JSON object for a recording.

    ``nranks`` sizes the thread list; inferred from the events when
    omitted.  ``meta`` lands in ``otherData`` (run parameters etc.).
    """
    events = list(events)
    if nranks is None:
        nranks = max((e.rank + 1 for e in events if e.rank >= 0), default=1)
    if nranks < 1:
        raise ConfigurationError(f"nranks must be >= 1, got {nranks}")

    pid = 1  # one virtual process; the ranks are its threads
    threads = [(pid, r, f"rank {r}", r) for r in range(nranks)]
    if any(e.rank < 0 for e in events):
        threads.append((pid, nranks, "coordinator", nranks))
    timed: List[dict] = []
    cumulative: Dict[int, int] = {}
    for e in sorted(events, key=lambda ev: (ev.t_start, ev.t_end)):
        args: dict = {}
        if e.scope is not None:
            args.update(e.scope.to_dict())
        if e.info:
            args["info"] = e.info
        if e.nbytes:
            args["nbytes"] = e.nbytes
        timed.append(_complete(pid, _tid(e.rank, nranks), _event_name(e),
                               COMPONENT.get(e.kind, e.kind), e.t_start,
                               max(0.0, e.duration), args))
        if e.kind == "send" and e.nbytes:
            key = _tid(e.rank, nranks)
            cumulative[key] = cumulative.get(key, 0) + e.nbytes
            timed.append({
                "ph": "C",
                "pid": pid,
                "tid": 0,
                "name": "comm bytes",
                "ts": e.t_start * 1e6,
                "args": {f"rank{k}": v for k, v in sorted(cumulative.items())},
            })
    return {
        "traceEvents": _trace_events([(pid, "midas")], threads, timed),
        "displayTimeUnit": "ms",
        "otherData": dict(meta or {}),
    }


def trace_to_chrome(doc: Dict[str, Any]) -> Dict[str, Any]:
    """Convert a query-trace document (``/api/trace/<id>``) into one
    Chrome ``traceEvents`` object.

    Each distinct span pid becomes a Chrome process (workers show up as
    their own pids); lanes become threads.  Events are complete ("X")
    events on the shared perf_counter timebase, shifted so the earliest
    span starts at ts=0 and sorted by (ts, dur), so the stream passes
    :func:`validate_chrome_trace`.
    """
    spans = sorted((Span.from_dict(d) for d in doc.get("spans", [])),
                   key=lambda s: (s.t_start, s.t_end))
    t0 = min((s.t_start for s in spans), default=0.0)
    processes = []
    for pid in sorted({s.pid for s in spans}):
        layers = {s.name.split(".", 1)[0] for s in spans if s.pid == pid}
        role = ("service" if pid == doc.get("service_pid")
                else "client" if "client" in layers
                else "worker" if "worker" in layers else None)
        processes.append((pid, f"{role} (pid {pid})" if role else f"pid {pid}"))
    tid_of: Dict[Tuple[int, str], int] = {}
    for pid, lane in sorted({(s.pid, s.lane) for s in spans}):
        tid_of[(pid, lane)] = 1 + sum(1 for p, _lane in tid_of if p == pid)
    timed = []
    for s in spans:
        args: Dict[str, Any] = {"span_id": s.span_id}
        if s.parent_id:
            args["parent_id"] = s.parent_id
        args.update({str(k): v for k, v in s.tags.items()})
        timed.append(_complete(s.pid, tid_of[(s.pid, s.lane)], s.name,
                               s.name.split(".", 1)[0], s.t_start - t0,
                               s.duration, args))
    return {
        "traceEvents": _trace_events(
            processes,
            [(pid, tid, lane, None) for (pid, lane), tid in tid_of.items()],
            timed),
        "displayTimeUnit": "ms",
        "metadata": {
            "trace_id": doc.get("trace_id"),
            "tenant": doc.get("tenant"),
            "outcome": doc.get("outcome"),
        },
    }


def dump_chrome_trace(
    events: Sequence[TraceEvent],
    path: PathLike,
    nranks: Optional[int] = None,
    meta: Optional[dict] = None,
) -> None:
    """Write a recording as ``trace_event`` JSON (open in Perfetto)."""
    Path(path).write_text(json.dumps(to_chrome_trace(events, nranks, meta)))


def validate_chrome_trace(data: Union[dict, list]) -> int:
    """Validate ``trace_event`` JSON; returns the event count.

    Accepts both the object form (``{"traceEvents": [...]}``) and the
    bare array form; raises :class:`~repro.errors.ConfigurationError` on
    any malformed event.  Beyond per-event shape it checks stream-level
    invariants viewers rely on: timestamps of timed events must be
    monotonically non-decreasing in stream order (Perfetto's importer
    tolerates disorder; ``chrome://tracing``'s does not), and ``B``/``E``
    duration events must nest — every ``E`` matches an open ``B`` on the
    same ``(pid, tid)``, none left open at the end.  Used by the unit
    tests and the CI smoke job.
    """
    if isinstance(data, dict):
        events = data.get("traceEvents")
        if not isinstance(events, list):
            raise ConfigurationError("trace object lacks a 'traceEvents' list")
    elif isinstance(data, list):
        events = data
    else:
        raise ConfigurationError(f"trace must be an object or array, got {type(data).__name__}")

    last_ts: Optional[float] = None
    open_spans: Dict[tuple, List[int]] = {}  # (pid, tid) -> stack of B indices
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            raise ConfigurationError(f"traceEvents[{i}] is not an object")
        ph = ev.get("ph")
        if not isinstance(ph, str) or not ph:
            raise ConfigurationError(f"traceEvents[{i}] lacks a phase ('ph')")
        if "name" not in ev:
            raise ConfigurationError(f"traceEvents[{i}] lacks a name")
        if "pid" not in ev:
            raise ConfigurationError(f"traceEvents[{i}] lacks a pid")
        if ph == "M":
            if not isinstance(ev.get("args"), dict):
                raise ConfigurationError(f"traceEvents[{i}]: metadata needs args")
            continue
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)):
            raise ConfigurationError(f"traceEvents[{i}] lacks a numeric ts")
        if last_ts is not None and ts < last_ts:
            raise ConfigurationError(
                f"traceEvents[{i}]: ts {ts} goes backwards (previous {last_ts})"
            )
        last_ts = ts
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ConfigurationError(
                    f"traceEvents[{i}]: complete event needs dur >= 0"
                )
        elif ph == "C":
            args = ev.get("args")
            if not isinstance(args, dict) or not args or not all(
                isinstance(v, (int, float)) for v in args.values()
            ):
                raise ConfigurationError(
                    f"traceEvents[{i}]: counter event needs numeric args"
                )
        elif ph == "B":
            open_spans.setdefault((ev.get("pid"), ev.get("tid")), []).append(i)
        elif ph == "E":
            stack = open_spans.get((ev.get("pid"), ev.get("tid")))
            if not stack:
                raise ConfigurationError(
                    f"traceEvents[{i}]: 'E' with no open 'B' on "
                    f"pid={ev.get('pid')} tid={ev.get('tid')}"
                )
            stack.pop()
        elif ph not in ("I", "i", "b", "e", "n", "s", "t", "f"):
            raise ConfigurationError(f"traceEvents[{i}]: unknown phase {ph!r}")
    for (pid, tid), stack in open_spans.items():
        if stack:
            raise ConfigurationError(
                f"traceEvents[{stack[-1]}]: 'B' never closed on "
                f"pid={pid} tid={tid} ({len(stack)} open)"
            )
    return len(events)
