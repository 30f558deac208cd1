"""End-to-end query tracing across the service and process-worker boundary.

This module gives every service query a W3C-traceparent-style identity
(:class:`TraceContext`) that is minted in the client and propagated
through the HTTP routes into the broker, which roots the query's span
log — a :class:`QueryTrace` — at it.  The broker records its admission
stages there and hands the same object to the engine as
``MidasRuntime(profiler=trace)``, so rounds, phase windows (stamped in
``mode="process"`` workers and shipped back on the task wire) and
session build steps land in the one list the trace document is made of.

Three layers live here:

* :class:`TraceContext` / :class:`QueryTrace` — the per-query span
  collector: a :class:`~repro.obs.profile.WallProfiler` (one
  :class:`~repro.obs.profile.Span` record, ``perf_counter`` stamps on
  the machine-wide monotonic timebase) plus the trace identity, an
  ``anchor`` pairing a perf stamp with a unix wall stamp so renderers
  can map spans back to wall-clock time, and the document views.
* :class:`QueryTracer` — the service-resident side: a bounded in-memory
  store of finished traces (for ``/api/trace/<id>`` and ``repro
  trace``), plus per-tenant SLO accounting — per-stage latency
  histograms with exemplar trace_ids and per-tenant
  error/quota/cache-hit counters — registered in the service metrics
  registry.
* :class:`FlightRecorder` — a bounded ring of recent notable events
  (admissions, crashes, watchdog trips, sanitizer errors, degraded
  results) that auto-dumps to ``$REPRO_FLIGHT_DIR`` when something goes
  wrong, so post-mortems of a crashed or interrupted service run have
  the last seconds of history.  When the environment variable is unset
  the dump stays in memory (``last_dump``) — test runs and ordinary CLI
  usage never scatter files.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.obs.profile import Span, WallProfiler

__all__ = [
    "TraceContext",
    "Span",
    "QueryTrace",
    "QueryTracer",
    "FlightRecorder",
    "get_flight_recorder",
    "reset_flight_recorder",
    "render_timeline",
    "SLO_STAGES",
]

_TRACEPARENT_VERSION = "00"

# Pipeline stages with per-tenant SLO histograms.  "total" is the
# end-to-end broker latency; the rest decompose it.
SLO_STAGES = ("total", "cache", "coalesce", "quota", "queue", "execute", "reply")


def _hex(nbytes: int) -> str:
    return os.urandom(nbytes).hex()


@dataclass(frozen=True)
class TraceContext:
    """A W3C-traceparent-style trace identity.

    ``trace_id`` is 32 lowercase hex chars, ``span_id`` 16; ``parent_id``
    is the span that created this context (None for a root).
    """

    trace_id: str
    span_id: str
    parent_id: Optional[str] = None

    @staticmethod
    def mint() -> "TraceContext":
        return TraceContext(trace_id=_hex(16), span_id=_hex(8))

    def child(self) -> "TraceContext":
        """A new context under the same trace, parented to this span."""
        return TraceContext(
            trace_id=self.trace_id, span_id=_hex(8), parent_id=self.span_id
        )

    def to_traceparent(self) -> str:
        return f"{_TRACEPARENT_VERSION}-{self.trace_id}-{self.span_id}-01"

    @staticmethod
    def from_traceparent(value: str) -> "TraceContext":
        parts = value.strip().split("-")
        if len(parts) != 4:
            raise ValueError(f"malformed traceparent: {value!r}")
        version, trace_id, span_id, _flags = parts
        if version != _TRACEPARENT_VERSION:
            raise ValueError(f"unsupported traceparent version: {version!r}")
        if len(trace_id) != 32 or _nothex(trace_id) or trace_id == "0" * 32:
            raise ValueError(f"bad trace_id in traceparent: {trace_id!r}")
        if len(span_id) != 16 or _nothex(span_id) or span_id == "0" * 16:
            raise ValueError(f"bad span_id in traceparent: {span_id!r}")
        return TraceContext(trace_id=trace_id, span_id=span_id)


def _nothex(s: str) -> bool:
    try:
        int(s, 16)
        return False
    except ValueError:
        return True


def _splice(dicts: Iterable[Dict[str, Any]], known: set, root_id: str,
            trace_id: str) -> List[Span]:
    """Serialized spans from outside the service (a client, a worker) as
    spans of trace ``trace_id``: malformed ones and ids already in
    ``known`` are skipped, and orphans hang off the root so the timeline
    stays connected."""
    added = []
    for d in dicts:
        try:
            sp = Span.from_dict(dict(d, trace_id=trace_id))
        except (KeyError, TypeError, ValueError):
            continue
        if sp.span_id not in known:
            known.add(sp.span_id)
            added.append(sp)
    for sp in added:
        if sp.parent_id not in known:
            sp.parent_id = root_id
    return added


class QueryTrace(WallProfiler):
    """The span log of one query, rooted at its :class:`TraceContext`.

    The trace lives in the service process: the broker and the engine
    record into it directly; spans serialized elsewhere (a client) are
    spliced in via :meth:`add_spans`.  Span ids come from the
    collector's counter — only the contexts that cross the client
    boundary are random.
    """

    def __init__(self, ctx: TraceContext, *, tenant: str = "-",
                 enabled: bool = True) -> None:
        super().__init__(enabled=enabled)
        self.ctx = ctx
        self.tenant = tenant
        self.trace_id = ctx.trace_id
        self.root_id = ctx.span_id
        # Pair a perf stamp with a wall stamp so renderers can translate
        # the shared monotonic timebase back to wall-clock time.
        self.anchor = {"perf": self.epoch, "unix": time.time()}

    def spans(self) -> List[Span]:
        """A snapshot of the recorded spans (safe while others commit)."""
        with self._lock:
            return list(self._spans)

    def add_spans(self, spans: Iterable[Dict[str, Any]]) -> int:
        """Splice in serialized spans (see :func:`_splice`); they keep
        their own pid/lane.  Returns the number accepted."""
        with self._lock:
            known = {s.span_id for s in self._spans} | {self.root_id}
            added = _splice(spans, known, self.root_id, self.trace_id)
            self._spans.extend(added)
        return len(added)

    def stage_walls(self) -> Dict[str, float]:
        """Total wall per broker pipeline stage (``broker.<stage>`` spans)."""
        walls: Dict[str, float] = {}
        for sp in self.spans():
            if sp.name.startswith("broker."):
                walls[sp.op] = walls.get(sp.op, 0.0) + sp.duration
        return walls

    def to_doc(self, **extra: Any) -> Dict[str, Any]:
        """A JSON-safe document for the trace store / ``/api/trace``."""
        spans = sorted(self.spans(), key=lambda s: (s.t_start, s.t_end))
        doc: Dict[str, Any] = {
            "trace_id": self.trace_id,
            "root_span_id": self.root_id,
            "tenant": self.tenant,
            "anchor": dict(self.anchor),
            "spans": [s.to_dict() for s in spans],
        }
        doc.update(extra)
        return doc


# ---------------------------------------------------------------------------
# Service-side tracer: bounded store + per-tenant SLO accounting.
# ---------------------------------------------------------------------------


class QueryTracer:
    """Owns finished traces and per-tenant SLO metrics for one service."""

    def __init__(self, registry=None, *, capacity: int = 512) -> None:
        from .metrics import DEFAULT_TIME_BUCKETS, MetricsRegistry

        self.registry = registry if registry is not None else MetricsRegistry()
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._store: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._tenants: Dict[str, Dict[str, Any]] = {}
        self.m_stage = self.registry.histogram(
            "midas_slo_stage_seconds",
            "Per-tenant, per-stage query latency",
            buckets=DEFAULT_TIME_BUCKETS,
        )
        self.m_errors = self.registry.counter(
            "midas_tenant_errors_total", "Per-tenant query errors by type"
        )
        self.m_cache_hits = self.registry.counter(
            "midas_tenant_cache_hits_total", "Per-tenant result-cache hits"
        )
        self.m_traces = self.registry.counter(
            "midas_traces_total", "Traces finished, by outcome"
        )

    # -- trace lifecycle -------------------------------------------------

    def begin(self, ctx: TraceContext, *, tenant: str = "-") -> QueryTrace:
        return QueryTrace(ctx, tenant=tenant)

    def finish(
        self,
        qt: QueryTrace,
        *,
        outcome: str = "ok",
        error: Optional[str] = None,
        **extra: Any,
    ) -> Dict[str, Any]:
        """Store the finished trace and fold its stages into the SLOs."""
        doc = qt.to_doc(outcome=outcome, error=error, **extra)
        walls = qt.stage_walls()
        doc["stage_walls"] = walls
        tenant = qt.tenant
        exemplar = {"trace_id": qt.trace_id}
        for stage, wall in walls.items():
            if stage in SLO_STAGES:
                self.m_stage.labels(tenant=tenant, stage=stage).observe(
                    wall, exemplar=exemplar
                )
        self.m_traces.labels(outcome=outcome).inc()
        tstat = self._tenant(tenant)
        with self._lock:
            tstat["queries"] += 1
            if outcome == "cache_hit":
                tstat["cache_hits"] += 1
            elif outcome == "quota":
                tstat["rejected"] += 1
                tstat["errors"] += 1
            elif outcome not in ("ok", "coalesced"):
                tstat["errors"] += 1
            tstat["last_trace_id"] = qt.trace_id
            self._store[qt.trace_id] = doc
            while len(self._store) > self.capacity:
                self._store.popitem(last=False)
        if outcome == "cache_hit":
            self.m_cache_hits.labels(tenant=tenant).inc()
        elif outcome not in ("ok", "coalesced"):
            self.m_errors.labels(tenant=tenant, type=outcome).inc()
        return doc

    def _tenant(self, tenant: str) -> Dict[str, Any]:
        with self._lock:
            if tenant not in self._tenants:
                self._tenants[tenant] = {
                    "queries": 0,
                    "cache_hits": 0,
                    "errors": 0,
                    "rejected": 0,
                    "last_trace_id": None,
                }
            return self._tenants[tenant]

    # -- queries ---------------------------------------------------------

    def get(self, trace_id: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            doc = self._store.get(trace_id)
            return json.loads(json.dumps(doc)) if doc is not None else None

    def ingest(self, trace_id: str, spans: List[Dict[str, Any]]) -> int:
        """Splice externally produced spans (e.g. client-side) into a
        stored trace.  Returns the number of spans accepted."""
        with self._lock:
            doc = self._store.get(trace_id)
            if doc is None:
                return 0
            known = {s["span_id"] for s in doc["spans"]} | {doc["root_span_id"]}
            added = _splice(spans, known, doc["root_span_id"], trace_id)
            doc["spans"].extend(sp.to_dict() for sp in added)
            doc["spans"].sort(key=lambda s: (s["t_start"], s["t_end"]))
            return len(added)

    def tenant_slos(self) -> Dict[str, Dict[str, Any]]:
        with self._lock:
            return {t: dict(v) for t, v in self._tenants.items()}

    def describe(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "stored_traces": len(self._store),
                "capacity": self.capacity,
                "tenants": {t: dict(v) for t, v in self._tenants.items()},
            }


# ---------------------------------------------------------------------------
# Flight recorder
# ---------------------------------------------------------------------------

_FLIGHT_ENV = "REPRO_FLIGHT_DIR"


class FlightRecorder:
    """Bounded in-memory ring of recent notable events.

    ``record()`` is cheap (deque append under a lock); ``dump()``
    snapshots the ring to ``$REPRO_FLIGHT_DIR/flight_<reason>_<pid>_<n>.json``
    when that env var points at a directory, else keeps the snapshot on
    ``last_dump`` so tests and in-process consumers can inspect it
    without any filesystem side effects.
    """

    def __init__(self, capacity: int = 256) -> None:
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._ring: deque = deque(maxlen=self.capacity)
        self._dumps = 0
        self.last_dump: Optional[Dict[str, Any]] = None
        self.last_dump_path: Optional[str] = None

    def record(self, kind: str, **fields: Any) -> None:
        evt = {"t": time.perf_counter(), "unix": time.time(), "kind": kind}
        evt.update(fields)
        with self._lock:
            self._ring.append(evt)

    def events(self) -> List[Dict[str, Any]]:
        with self._lock:
            return list(self._ring)

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def dump(
        self,
        reason: str,
        *,
        extra: Optional[Dict[str, Any]] = None,
        directory: Optional[str] = None,
    ) -> Optional[str]:
        """Snapshot the ring.  Returns the path written, or None when no
        dump directory is configured (snapshot kept on ``last_dump``)."""
        with self._lock:
            events = list(self._ring)
            self._dumps += 1
            n = self._dumps
        snap: Dict[str, Any] = {
            "reason": reason,
            "pid": os.getpid(),
            "unix": time.time(),
            "events": events,
        }
        if extra:
            snap.update(extra)
        self.last_dump = snap
        target = directory if directory is not None else os.environ.get(_FLIGHT_ENV)
        if not target:
            self.last_dump_path = None
            return None
        try:
            os.makedirs(target, exist_ok=True)
            safe = "".join(c if c.isalnum() or c in "-_" else "_" for c in reason)
            path = os.path.join(
                target, f"flight_{safe}_{os.getpid()}_{n}.json"
            )
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(snap, fh, indent=2, sort_keys=True, default=str)
            self.last_dump_path = path
            return path
        except OSError:
            self.last_dump_path = None
            return None

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()


_flight_lock = threading.Lock()
_flight: Optional[FlightRecorder] = None


def get_flight_recorder() -> FlightRecorder:
    """The process-wide flight recorder (created on first use)."""
    global _flight
    with _flight_lock:
        if _flight is None:
            _flight = FlightRecorder()
        return _flight


def reset_flight_recorder() -> None:
    """Drop the process-wide recorder (test isolation)."""
    global _flight
    with _flight_lock:
        _flight = None


# ---------------------------------------------------------------------------
# Rendering: the text timeline (the Chrome view is chrome_trace.trace_to_chrome)
# ---------------------------------------------------------------------------


def render_timeline(doc: Dict[str, Any], *, width: int = 72) -> str:
    """Human-readable tree timeline of one trace document."""
    spans = [Span.from_dict(d) for d in doc.get("spans", [])]
    lines: List[str] = []
    trace_id = doc.get("trace_id", "?")
    lines.append(f"trace {trace_id}  tenant={doc.get('tenant', '-')}  "
                 f"outcome={doc.get('outcome', '?')}")
    anchor = doc.get("anchor") or {}
    if anchor.get("unix") is not None:
        wall = time.strftime(
            "%Y-%m-%d %H:%M:%S", time.localtime(anchor["unix"])
        )
        lines.append(f"  started {wall}")
    if not spans:
        lines.append("  (no spans)")
        return "\n".join(lines)
    t0 = min(s.t_start for s in spans)
    t1 = max(s.t_end for s in spans)
    total = max(t1 - t0, 1e-9)
    children: Dict[Optional[str], List[Span]] = {}
    ids = {s.span_id for s in spans}
    for s in spans:
        key = s.parent_id if s.parent_id in ids else None
        children.setdefault(key, []).append(s)
    for v in children.values():
        v.sort(key=lambda s: (s.t_start, s.t_end))
    rows: List[Tuple[Span, int]] = []  # depth-first: each span, its depth

    def walk(s: Span, depth: int) -> None:
        rows.append((s, depth))
        for c in children.get(s.span_id, []):
            walk(c, depth + 1)

    for root in children.get(None, []):
        walk(root, 0)
    name_w = max((len(s.name) + 2 * depth for s, depth in rows), default=20)
    name_w = min(max(name_w, 20), 44)
    barw = max(width - name_w - 26, 10)
    lines.append(
        f"  {'span':<{name_w}} {'start':>9} {'dur':>9}  {'pid':>9}  "
        f"|{'timeline':<{barw}}|"
    )
    for s, depth in rows:
        off = int((s.t_start - t0) / total * barw)
        length = max(int(s.duration / total * barw), 1)
        length = min(length, barw - off) or 1
        bar = " " * off + "#" * length
        label = ("  " * depth + s.name)[:name_w]
        pidmark = f"pid {s.pid}"
        lines.append(
            f"  {label:<{name_w}} {_ms(s.t_start - t0):>9} {_ms(s.duration):>9}"
            f"  {pidmark:>9}  |{bar:<{barw}}|"
        )
    walls = doc.get("stage_walls") or {}
    if walls:
        parts = ", ".join(
            f"{k}={_ms(v)}" for k, v in sorted(walls.items())
        )
        lines.append(f"  stage walls: {parts}")
    lines.append(f"  total: {_ms(total)} across {len(spans)} spans, "
                 f"{len({s.pid for s in spans})} process(es)")
    return "\n".join(lines)


def _ms(seconds: float) -> str:
    return f"{seconds * 1e3:.2f}ms"
