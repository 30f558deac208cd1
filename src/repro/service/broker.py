"""Query admission, coalescing, quotas, the result cache, and the fleet
that answers.

:meth:`QueryBroker.submit` is a plain blocking call.  One lock guards
the bookkeeping (cache, in-flight map, per-tenant counts, stats, the
completed list) and is never held while a detection runs.  An admitted
query runs whole on one of ``workers`` long-lived worker processes
(:class:`~repro.core.process_backend.QueryFleet`; each starts at the
first query that finds no idle one): the asking thread sends the query
down that worker's pipe and waits for the reply — the payload, the
engine's spans for the query's trace, the worker's description of the
engine session it ran on, and its metric increments.  Each worker keeps
state of its own: the graphs it attached from shared memory, one engine
session per graph (fields, partition, jagged order) — which the parent's
:class:`~repro.service.registry.GraphEntry` lists by worker pid for
``/api/graphs`` and ``/api/service`` — and its own metrics registry.
Distinct queries are independent (the paper's Fig 1: private state per
group, one merge), so ``workers`` of them compute at once in every mode;
a ``runtime_config`` asking for a ``pooled`` mode (one whose backend
runs windows on a pool) runs sequentially in its worker — the fleet is
the parallelism, the bits are the same, and the reply's
``runtime.mode`` says ``"sequential"``.

Admission pipeline, in order:

1. **cache** — results are keyed by ``(graph sha, canonical query, seed
   policy)``.  Detection output is backend-independent and bit-identical
   for a pinned seed policy, so a cached payload is exactly what a fresh
   execution would return; cache hits cost no quota.
2. **coalescing** — an identical query already in flight (same cache
   key) is joined, not re-run: the later caller waits on the leader's
   future and receives the identical payload (or the leader's error).
   Coalesced joins cost no quota either — the work was already admitted.
3. **quota** — each tenant may hold at most ``quota`` in-flight
   executions; the next one is rejected *immediately* with
   :class:`~repro.errors.QuotaExceededError` (backpressure by refusal,
   not by unbounded queueing).
4. **worker** — the admitted caller waits for an idle worker, first
   come first served (the ``broker.queue`` span), and the query runs
   there (``broker.execute``); splicing the reply's spans and metrics,
   freeing the worker and caching are ``broker.reply``.  Each stage
   starts where the one before it ended, so the code between two stages
   (a lock release, a thread switch) is the later stage's, and the total
   ends where the last one did: the stages tile ``broker.total``.  A
   worker that dies under it is replaced and the query sent again, once
   — a pinned seed makes the retry bit-identical; a second death is a
   :class:`~repro.errors.WorkerCrashedError` for the leader and every
   caller coalesced onto it.

Completed executions land in a list; the coordinator's periodic
:meth:`QueryBroker.sweep` — off the query path, on the service's one
thread — turns them into ``midas_service_*`` metrics and
:class:`~repro.obs.store.RunRecord` appends.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future, wait
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.engine import MidasRuntime, SequentialBackend
from repro.core.schedule import MAX_K
from repro.errors import (
    ConfigurationError,
    QuotaExceededError,
    ServiceError,
    WorkerCrashedError,
)
from repro.obs.metrics import MetricsRegistry, merge_into
from repro.obs.profile import WallProfiler
from repro.obs.qtrace import QueryTrace, TraceContext, get_flight_recorder
from repro.graph.templates import TreeTemplate
from repro.service.registry import GraphEntry, GraphRegistry
from repro.util.log import get_logger
from repro.util.rng import RngStream
from repro.util.validation import check_weights

if TYPE_CHECKING:  # imported where a fleet is built, as the engine does
    from repro.core.process_backend import QueryFleet, Slot

_LOG = get_logger(__name__)

#: the span log of every query of a service that traces nothing
_UNTRACED = QueryTrace(TraceContext("", ""), enabled=False)

KINDS = ("detect-path", "detect-tree", "scan")
#: the tree templates a ``detect-tree`` query may name: name -> factory of k
TEMPLATES = {"path": TreeTemplate.path, "star": TreeTemplate.star,
             "binary": TreeTemplate.binary, "caterpillar": TreeTemplate.caterpillar}
STATISTICS = ("berk-jones", "higher-criticism", "elevated-mean")


def _normalize_seed_policy(seed: Any) -> Dict[str, Any]:
    """Canonical seed-policy dict from an int, ``{"seed": n}``, or a full
    :meth:`~repro.util.rng.RngStream.state` lineage dict."""
    if seed is None:
        return {"seed": 0}
    if isinstance(seed, (int, np.integer)):
        return {"seed": int(seed)}
    if isinstance(seed, dict):
        if "entropy" in seed:
            try:
                ent = seed["entropy"]
                return {
                    "entropy": [int(x) for x in ent]
                    if isinstance(ent, (list, tuple)) else int(ent),
                    "spawn_key": [int(x) for x in seed.get("spawn_key", [])],
                    "n_children_spawned": int(seed.get("n_children_spawned", 0)),
                }
            except (TypeError, ValueError) as exc:
                raise ConfigurationError(f"malformed seed state: {exc}") from exc
        if "seed" in seed:
            try:
                return {"seed": int(seed["seed"])}
            except (TypeError, ValueError) as exc:
                raise ConfigurationError(f"malformed seed: {exc}") from exc
    raise ConfigurationError(
        f"seed policy must be an int, {{'seed': n}}, or an RngStream state "
        f"dict, got {seed!r}"
    )


@dataclass(frozen=True)
class QuerySpec:
    """One detection query, normalized and hashable-by-content.

    ``graph`` is a registry reference (name, sha, or sha prefix);
    ``seed`` is the canonical seed policy (see
    :func:`_normalize_seed_policy`) — pinning it makes the query
    deterministic and therefore cacheable/coalescable.
    """

    kind: str
    graph: str
    k: int
    eps: float = 0.1
    seed: Dict[str, Any] = field(default_factory=lambda: {"seed": 0})
    template: str = "binary"
    statistic: str = "berk-jones"
    alpha: float = 0.05
    extract: bool = False
    weights: Optional[Tuple[int, ...]] = None
    early_exit: bool = True

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigurationError(
                f"query kind must be one of {KINDS}, got {self.kind!r}"
            )
        if not isinstance(self.graph, str) or not self.graph:
            raise ConfigurationError("query must name a registered graph")
        if not (1 <= int(self.k) <= MAX_K):
            raise ConfigurationError(f"k must be in [1, {MAX_K}], got {self.k}")
        if not (0.0 < float(self.eps) < 1.0):
            raise ConfigurationError(f"eps must be in (0, 1), got {self.eps}")
        if self.kind == "detect-tree" and self.template not in TEMPLATES:
            raise ConfigurationError(
                f"template must be one of {tuple(TEMPLATES)}, got {self.template!r}"
            )
        if self.kind == "scan":
            if self.statistic not in STATISTICS:
                raise ConfigurationError(
                    f"statistic must be one of {STATISTICS}, got {self.statistic!r}"
                )
            self.scan_statistic()  # refuses an alpha the statistic cannot take

    def scan_statistic(self):
        """The statistic a scan query scores with: ``alpha`` is its level,
        or elevated-mean's per-node baseline."""
        from repro.scanstat.statistics import BerkJones, ElevatedMean, HigherCriticism

        if self.statistic == "elevated-mean":
            return ElevatedMean(baseline_per_node=self.alpha)
        cls = BerkJones if self.statistic == "berk-jones" else HigherCriticism
        return cls(alpha=self.alpha)

    def check_fits(self, n: int) -> None:
        """Refuse what only the resolved graph of ``n`` vertices rules out:
        a scan larger than it, or scan weights of another length."""
        if self.kind != "scan":
            return
        if self.k > n:
            raise ConfigurationError(f"k must be in [1, {n}] on this graph, got {self.k}")
        if self.weights is not None and len(self.weights) != n:
            raise ConfigurationError(
                f"weights must have length n={n}, got {len(self.weights)}")

    @classmethod
    def from_dict(cls, d: Any) -> "QuerySpec":
        """Validated spec from a request payload (HTTP body or CLI)."""
        if not isinstance(d, dict):
            raise ConfigurationError(f"query must be a JSON object, got {type(d).__name__}")
        known = {"kind", "graph", "k", "eps", "seed", "template", "statistic",
                 "alpha", "extract", "weights", "early_exit"}
        extra = set(d) - known
        if extra:
            raise ConfigurationError(f"unknown query field(s): {sorted(extra)}")
        missing = {"kind", "graph", "k"} - set(d)
        if missing:
            raise ConfigurationError(f"query missing field(s): {sorted(missing)}")
        weights = d.get("weights")
        if weights is not None:
            if not isinstance(weights, (list, tuple)):
                raise ConfigurationError(
                    f"weights must be a list of ints, got {type(weights).__name__}")
            weights = tuple(int(x) for x in check_weights(None, weights))
        try:
            return cls(
                kind=str(d["kind"]),
                graph=str(d["graph"]),
                k=int(d["k"]),
                eps=float(d.get("eps", 0.1)),
                seed=_normalize_seed_policy(d.get("seed")),
                template=str(d.get("template", "binary")),
                statistic=str(d.get("statistic", "berk-jones")),
                alpha=float(d.get("alpha", 0.05)),
                extract=bool(d.get("extract", False)),
                weights=weights,
                early_exit=bool(d.get("early_exit", True)),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"malformed query: {exc}") from exc

    def to_dict(self) -> dict:
        """JSON round-trippable form (``from_dict(to_dict(s)) == s``)."""
        d = {
            "kind": self.kind, "graph": self.graph, "k": self.k,
            "eps": self.eps, "seed": dict(self.seed),
            "early_exit": self.early_exit,
        }
        if self.kind == "detect-tree":
            d["template"] = self.template
        if self.kind == "scan":
            d.update(statistic=self.statistic, alpha=self.alpha,
                     extract=self.extract)
            if self.weights is not None:
                d["weights"] = list(self.weights)
        return d

    def seed_stream(self) -> RngStream:
        """A fresh stream realizing the pinned seed policy — every call
        returns an identical lineage, the root of bit-identity."""
        if "entropy" in self.seed:
            return RngStream.from_state(self.seed, name="query")
        return RngStream(self.seed["seed"], name="query")

    def canonical(self, sha: str) -> dict:
        """The deterministic identity of (query, graph content): every
        field that can change the result, and nothing else."""
        ident = {
            "graph_sha": sha, "kind": self.kind, "k": self.k,
            "eps": self.eps, "seed": dict(self.seed),
            "early_exit": self.early_exit,
        }
        if self.kind == "detect-tree":
            ident["template"] = self.template
        if self.kind == "scan":
            ident.update(statistic=self.statistic, alpha=self.alpha,
                         extract=self.extract)
            w = b"" if self.weights is None else np.asarray(
                self.weights, dtype=np.int64).tobytes()
            ident["weights_sha"] = hashlib.sha256(w).hexdigest()
        return ident

    def cache_key(self, sha: str) -> str:
        blob = json.dumps(self.canonical(sha), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


# --------------------------------------------------------------- execution

_SAFE_DETAIL_KEYS = ("reason", "template", "statistic", "n_subtrees",
                     "degraded", "resumed_from", "resilience", "sanitizer")


def _json_safe(obj):
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return repr(obj)


def _safe_details(details: dict) -> dict:
    return {k: _json_safe(details[k]) for k in _SAFE_DETAIL_KEYS
            if k in details}


def _detection_result(res) -> dict:
    """The deterministic slice of a DetectionResult (no wall times, no
    mode — the payload must compare equal across backends)."""
    return {
        "problem": res.problem,
        "k": res.k,
        "found": bool(res.found),
        "eps": res.eps,
        "rounds_run": res.rounds_run,
        "first_hit_round": res.first_hit_round,
        "round_values": [int(r.value) for r in res.rounds],
        "details": _safe_details(res.details),
    }


def _scan_result(res, spec: QuerySpec) -> dict:
    grid = res.grid
    return {
        "problem": "scanstat",
        "k": grid.k,
        "eps": grid.eps,
        "statistic": spec.statistic,
        "best_score": float(res.best_score),
        "best_size": res.best_size,
        "best_weight": res.best_weight,
        "z_max": grid.z_max,
        "rounds_run": grid.rounds_run,
        "detected_cells": [[int(j), int(z)] for j, z in grid.feasible_cells()],
        "cluster": (sorted(int(x) for x in res.cluster)
                    if res.cluster is not None else None),
        "details": _safe_details(grid.details),
    }


def canonical_result(payload: dict) -> dict:
    """The bit-identity slice of a query payload: what must compare equal
    between service, cache, coalesced, and standalone executions."""
    return payload.get("result") or {}


def execute_query(spec: QuerySpec, entry: GraphEntry,
                  rt: MidasRuntime) -> Tuple[dict, object]:
    """Run ``spec`` against ``entry.graph`` on ``rt`` (calling thread).

    Returns ``(payload, raw_result)`` — the payload's ``"result"`` holds
    only deterministic fields; wall time and backend identity live in
    separate keys so cached/coalesced replies stay bit-comparable.  A
    fleet worker runs it for every brokered query (:func:`_answer`), the
    CLI for a local run.
    """
    from repro.core.midas import detect_path, detect_tree

    graph = entry.graph
    rng = spec.seed_stream()
    t0 = time.perf_counter()
    if spec.kind == "detect-path":
        raw = detect_path(graph, spec.k, eps=spec.eps, rng=rng,
                          runtime=rt, early_exit=spec.early_exit)
        result = _detection_result(raw)
        rounds, virtual = raw.rounds_run, raw.virtual_seconds
    elif spec.kind == "detect-tree":
        tmpl = TEMPLATES[spec.template](spec.k)
        raw = detect_tree(graph, tmpl, eps=spec.eps, rng=rng,
                          runtime=rt, early_exit=spec.early_exit)
        result = _detection_result(raw)
        result["template"] = spec.template
        rounds, virtual = raw.rounds_run, raw.virtual_seconds
    else:  # scan
        from repro.scanstat.detect import AnomalyDetector

        w = np.zeros(graph.n, dtype=np.int64) if spec.weights is None else spec.weights
        det = AnomalyDetector(graph, spec.scan_statistic(), k=spec.k,
                              runtime=rt, eps=spec.eps)
        raw = det.detect(w, rng=rng, extract=spec.extract)
        result = _scan_result(raw, spec)
        rounds, virtual = raw.grid.rounds_run, raw.grid.virtual_seconds
    payload = {
        "ok": True,
        "kind": spec.kind,
        "graph": entry.sha,
        "result": result,
        "runtime": {"mode": rt.mode, "n_processors": rt.n_processors,
                    "n1": rt.n1},
        "timing": {"wall_seconds": time.perf_counter() - t0,
                   "virtual_seconds": float(virtual), "rounds": int(rounds)},
    }
    return payload, raw


#: a fleet worker's graphs by content sha, each resolved once and
#: holding that worker's engine sessions
_WORKER_ENTRIES: Dict[str, GraphEntry] = {}


def _answer(graph, spec: QuerySpec, sha: str, config: dict,
            trace: Optional[Tuple[str, str]], cancelled) -> tuple:
    """One whole query in a fleet worker: ``(payload, spans, session)``.

    ``graph`` is what :func:`~repro.core.process_backend.attach_graph`
    needs the first time this worker sees content ``sha``; ``config`` is
    the service's ``runtime_config`` (with the caller's deadline);
    ``trace`` is ``(trace id, broker.execute span id)`` when
    the service traces, and the engine's spans come back as dicts for the
    query's trace.  ``session`` describes the engine session the query
    ran on, with this worker's pid.  The deadline is this worker's
    watchdog's to enforce, and a cancel from the caller (``cancelled``,
    looked at between two windows) winds the run down through the same
    watchdog.
    """
    from repro.core.process_backend import attach_graph
    from repro.runtime.durable import Watchdog

    entry = _WORKER_ENTRIES.get(sha)
    if entry is None:
        entry = _WORKER_ENTRIES[sha] = GraphEntry(sha, attach_graph(graph))
    rt = MidasRuntime(**config)
    if rt.backend.pooled:
        # the fleet is the parallelism: never nest a pool in a worker
        rt.mode = SequentialBackend.name
    rt.session = entry.session_for(rt)
    rt.watchdog = Watchdog(deadline=rt.deadline, hang_timeout=rt.hang_timeout,
                           cancelled=cancelled)
    if trace is not None:
        rt.profiler = WallProfiler()
        rt.profiler.trace_id, rt.profiler.root_id = trace
    try:
        payload, _raw = execute_query(spec, entry, rt)
    finally:
        rt.close_live()
    spans = None if trace is None else [s.to_dict() for s in rt.profiler.spans]
    return payload, spans, dict(rt.session.describe(), pid=os.getpid())


def dispatch(spec: QuerySpec, entry: GraphEntry, fleet: QueryFleet,
             slot: Slot, config: dict, trace: Optional[Tuple[str, str]]):
    """Answer ``spec`` whole on ``slot``'s fleet worker: ``(payload,
    spans, session, metric delta)`` (see :func:`_answer`); the calling
    thread waits for the reply.

    A worker that dies under the query is replaced and the query sent
    again — same pinned seed, same answer; a second death raises
    :class:`~repro.errors.WorkerCrashedError`.  The broker's one call
    into the fleet (the tests replace it to hold or fail an execution).
    """
    args = (spec, entry.sha, config, trace)
    for attempt in (1, 2):
        try:
            reply, mdelta = fleet.call(slot, _answer, entry.graph, args)
            return (*reply, mdelta)
        except WorkerCrashedError as exc:
            if attempt == 2:
                raise WorkerCrashedError(
                    f"a fleet worker died under this {spec.kind} query, and "
                    "its replacement did too (see stderr for their fate)"
                ) from exc
            fr = get_flight_recorder()
            fr.record("worker_crash", query=spec.kind, graph=entry.sha[:12],
                      trace_id=trace[0] if trace else None)
            fr.dump("worker_crash")
            _LOG.warning("%s; sending the query to a new worker", exc)


def _starting(span, stamp: float):
    """``span``, opened just now, moved back to start at ``stamp``: where
    the stage before it ended."""
    span.span.t_start = stamp
    return span


def _timed_out(timeout: float) -> ServiceError:
    return ServiceError(f"query timed out after {timeout}s")


@dataclass
class QueryOutcome:
    """What a client gets back: the JSON-safe payload."""

    payload: dict

    @property
    def result(self) -> dict:
        return canonical_result(self.payload)

    @property
    def served(self) -> dict:
        return self.payload.get("served") or {}

    @property
    def cache_hit(self) -> bool:
        return bool(self.served.get("cache_hit"))

    @property
    def coalesced(self) -> bool:
        return bool(self.served.get("coalesced"))

    @property
    def found(self):
        return self.result.get("found")

    @property
    def trace_id(self) -> Optional[str]:
        """This request's trace id (None when the service traces nothing)."""
        return (self.payload.get("trace") or {}).get("trace_id")


class QueryBroker:
    """Admission, coalescing, quota and cache in front of a
    :class:`~repro.core.process_backend.QueryFleet` of ``workers``
    processes (default: the CPUs this process may use).

    Thread-safe: any thread may :meth:`submit`; ``self._lock`` guards
    every piece of shared state and is released before the detection
    (or a wait for one) starts.
    """

    def __init__(
        self,
        registry: GraphRegistry,
        *,
        metrics: MetricsRegistry,
        quota: int = 8,
        cache_size: int = 256,
        coalesce: bool = True,
        workers: Optional[int] = None,
        store=None,
        runtime_config: Optional[dict] = None,
        tracer=None,
    ) -> None:
        if quota < 1:
            raise ConfigurationError(f"quota must be >= 1, got {quota}")
        if cache_size < 0:
            raise ConfigurationError(f"cache_size must be >= 0, got {cache_size}")
        self.registry = registry
        self.metrics = metrics
        self.quota = quota
        self.cache_size = cache_size
        self.coalesce = coalesce
        self.store = store
        # repro.obs.qtrace.QueryTracer; None: queries record into _UNTRACED
        self.tracer = tracer
        self._runtime_config = dict(runtime_config or {})
        from repro.core.process_backend import QueryFleet

        # what a worker runs for every query (_answer, execute_query),
        # imported before the workers fork: none compiles a module in a query
        for module in ("repro.core.midas", "repro.runtime.durable",
                       "repro.scanstat.detect"):
            importlib.import_module(module)
        # MidasRuntime refuses workers < 1 and an unknown start method, and
        # counts the usable CPUs
        start = self._runtime_config.get("process_start")
        self._fleet = QueryFleet(
            MidasRuntime(workers=workers, process_start=start).get_workers(),
            start_method=start)
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)  # no execution in flight
        self._closed = False
        self._cache: "OrderedDict[str, dict]" = OrderedDict()
        self._inflight: Dict[str, Future] = {}
        self._tenant_inflight: Dict[str, int] = {}
        self._completed: List[dict] = []
        self.stats = {"queries": 0, "cache_hits": 0, "coalesced": 0,
                      "rejected": 0, "errors": 0, "sweeps": 0, "records": 0}
        m = metrics
        self.m_queries = m.counter(
            "midas_service_queries_total",
            "queries by kind/tenant/outcome (ok, cached, coalesced, error)")
        self.m_rejected = m.counter(
            "midas_service_rejected_total", "quota rejections by tenant")
        self.m_cache_hits = m.counter(
            "midas_service_cache_hits_total", "result-cache hits by kind")
        self.m_coalesced = m.counter(
            "midas_service_coalesced_total",
            "queries joined onto an identical in-flight execution")
        self.m_inflight = m.gauge(
            "midas_service_inflight", "executions currently running")
        self.m_latency = m.histogram(
            "midas_service_query_seconds", "execution wall time by kind")
        self.m_rounds = m.counter(
            "midas_service_rounds_total", "detection rounds executed")
        self.m_sweeps = m.counter(
            "midas_service_sweeps_total", "coordinator sweep passes")
        self.m_cache_entries = m.gauge(
            "midas_service_cache_entries", "result-cache population")
        self.m_graphs = m.gauge(
            "midas_service_graphs", "graphs in the registry")
        self.m_sessions = m.gauge(
            "midas_service_sessions", "engine sessions cached across graphs")
        self.m_records = m.counter(
            "midas_service_records_total", "RunRecords appended by the sweep")

    # ----------------------------------------------------------- plumbing
    def _served(self, payload: dict, tenant: str, qt: QueryTrace, *,
                cache_hit: bool = False, coalesced: bool = False) -> dict:
        out = dict(payload)
        out["served"] = {"cache_hit": cache_hit, "coalesced": coalesced,
                         "tenant": tenant}
        if qt.enabled:
            # per-request identity: cache hits and coalesced joins share a
            # payload but each carries its own trace
            out["trace"] = {"trace_id": qt.trace_id,
                            "traceparent": qt.ctx.to_traceparent()}
        return out

    def _remember(self, key: str, payload: dict) -> None:
        if self.cache_size == 0:
            return
        if payload.get("result", {}).get("details", {}).get("degraded"):
            return  # a watchdog-degraded partial answer must not be replayed
        self._cache[key] = payload
        self._cache.move_to_end(key)
        while len(self._cache) > self.cache_size:
            self._cache.popitem(last=False)
        self.m_cache_entries.set(len(self._cache))

    # ----------------------------------------------------------- admission
    def _begin_trace(self, tenant: str, trace) -> QueryTrace:
        """This request's span log (the disabled one when tracing is off).

        ``trace`` is the client's request-side context: a dict carrying a
        ``traceparent`` header value (malformed values are ignored — the
        query must not fail over its telemetry), a TraceContext, or None.
        """
        if self.tracer is None:
            return _UNTRACED
        ctx = None
        if isinstance(trace, TraceContext):
            ctx = trace.child()
        elif isinstance(trace, dict) and trace.get("traceparent"):
            try:
                ctx = TraceContext.from_traceparent(
                    str(trace["traceparent"])).child()
            except ValueError:
                pass
        return self.tracer.begin(ctx or TraceContext.mint(), tenant=tenant)

    def _finish_trace(self, qt: QueryTrace, total, outcome: str,
                      end: Optional[float] = None, **extra) -> None:
        """Close the request's ``broker.total`` span — at ``end``, where its
        last stage ended, or now — and hand the trace to the tracer's
        store and SLO accounting."""
        total.finish(error=outcome in ("error", "interrupted"), at=end)
        if self.tracer is not None:
            self.tracer.finish(qt, outcome=outcome, service_pid=os.getpid(),
                               **extra)

    def _traced_execute(self, spec: QuerySpec, entry: GraphEntry, slot: Slot,
                        qt: QueryTrace, admitted: float, left: Optional[float]):
        """Answer ``spec`` on ``slot``'s fleet worker (:func:`dispatch`):
        ``(payload, the worker's spans, its metric delta, the stamp the
        execution ended at)``.

        Records the ``broker.queue`` span — from ``admitted``, the end of
        admission, to the worker — and ``broker.execute``, the span the
        worker's engine spans hang under.  ``left`` is what the wait left
        of the caller's timeout.
        """
        queued = time.perf_counter()
        qt.add_span("broker.queue", admitted, queued, lane="broker")
        with _starting(qt.span("broker.execute", lane="broker", kind=spec.kind,
                               graph=entry.sha[:12], k=spec.k), queued) as span:
            config = dict(self._runtime_config)
            if left is not None and config.get("deadline") is None:
                config["deadline"] = left
            trace = (qt.trace_id, span.span.span_id) if qt.enabled else None
            payload, spans, session, mdelta = dispatch(
                spec, entry, self._fleet, slot, config, trace)
            entry.note_fleet_session(session)
            span.tag(rounds=int(payload.get("timing", {}).get("rounds", 0)))
        return payload, spans, mdelta, span.span.t_end

    def submit(self, spec: QuerySpec, tenant: str = "default",
               trace=None, timeout: Optional[float] = None) -> QueryOutcome:
        """Admit one query and answer it; the calling thread waits.

        Raises :class:`~repro.errors.UnknownGraphError` for an
        unresolvable graph reference and
        :class:`~repro.errors.QuotaExceededError` when ``tenant`` is at
        its in-flight limit.  ``trace`` carries the client's trace
        context (see :meth:`_begin_trace`); every served payload is
        stamped with its own ``trace`` identity when tracing is on.

        ``timeout`` bounds what the caller can be made to wait for — the
        identical query it joined, or an idle worker — with a
        :class:`~repro.errors.ServiceError`.  What that wait left of it
        becomes the worker runtime's ``deadline`` (unless
        ``runtime_config`` sets one), so an
        overrun comes back as the worker watchdog's degraded reply, which
        is never cached.  An exception that lands in the waiting caller
        (Ctrl-C) cancels the query on its worker, which stops between two
        windows; the worker is idle again once that reply is read.
        """
        entry = self.registry.resolve(spec.graph)
        spec.check_fits(entry.graph.n)
        key = spec.cache_key(entry.sha)
        qt = self._begin_trace(tenant, trace)
        total = qt.span("broker.total", lane="broker", kind=spec.kind)
        joined = mine = None
        # the wait for the lock is the cache lookup's
        lookup = _starting(qt.span("broker.cache", lane="broker"), total.span.t_start)
        with self._lock:
            if self._closed:
                raise ServiceError("service is closed")
            cached = self._cache.get(key)
            edge = lookup.tag(hit=cached is not None).finish().t_end
            if cached is not None:
                self._cache.move_to_end(key)
                self.stats["cache_hits"] += 1
            elif self.coalesce and key in self._inflight:
                joined = self._inflight[key]
                self.stats["coalesced"] += 1
            else:
                with _starting(qt.span("broker.quota", lane="broker"), edge) as span:
                    held = self._tenant_inflight.get(tenant, 0)
                    span.tag(rejected=held >= self.quota)
                edge = span.span.t_end
                if held >= self.quota:
                    self.stats["rejected"] += 1
                else:
                    self._tenant_inflight[tenant] = held + 1
                    mine = self._inflight[key] = Future()

        if cached is not None:
            self.m_cache_hits.labels(kind=spec.kind).inc()
            self.m_queries.labels(kind=spec.kind, tenant=tenant,
                                  outcome="cached").inc()
            self._finish_trace(qt, total, "cache_hit", kind=spec.kind)
            return QueryOutcome(self._served(cached, tenant, qt,
                                             cache_hit=True))

        if joined is not None:
            self.m_coalesced.labels(kind=spec.kind).inc()
            self.m_queries.labels(kind=spec.kind, tenant=tenant,
                                  outcome="coalesced").inc()
            try:
                with _starting(qt.span("broker.coalesce", lane="broker"),
                               edge) as joining:
                    if not wait([joined], timeout=timeout).done:
                        raise _timed_out(timeout)
                    payload = joined.result()
            except BaseException as exc:
                self._finish_trace(
                    qt, total, "error",
                    error=f"coalesced execution failed: {exc}")
                raise
            self._finish_trace(qt, total, "coalesced", joining.span.t_end,
                               kind=spec.kind)
            return QueryOutcome(self._served(payload, tenant, qt,
                                             coalesced=True))

        if mine is None:
            self.m_rejected.labels(tenant=tenant).inc()
            self._finish_trace(qt, total, "quota",
                               error=f"tenant {tenant!r} at quota {self.quota}")
            raise QuotaExceededError(tenant, self.quota)

        self.m_inflight.inc()
        reply = None  # from the worker's reply to the caller's
        try:
            t0 = time.perf_counter()
            slot = self._fleet.acquire(timeout)
            if slot is None:
                raise _timed_out(timeout)
            try:
                left = (None if timeout is None
                        else max(timeout - (time.perf_counter() - t0), 1e-6))
                payload, spans, mdelta, edge = self._traced_execute(
                    spec, entry, slot, qt, edge, left)
                reply = _starting(qt.span("broker.reply", lane="broker"), edge)
            finally:
                self._fleet.release(slot)
            if spans:
                qt.add_spans(spans)
            if mdelta:
                merge_into(self.metrics, mdelta)
        except BaseException as exc:
            # whoever coalesced onto this execution fails with it; an
            # interrupt (Ctrl-C, SystemExit) is this caller's alone
            failure = exc if isinstance(exc, Exception) else ServiceError(
                f"query interrupted by {type(exc).__name__}")
            mine.set_exception(failure)
            with self._lock:
                self.stats["errors"] += 1
            self.m_queries.labels(kind=spec.kind, tenant=tenant,
                                  outcome="error").inc()
            if reply is not None:
                reply.finish(error=True)
            self._finish_trace(
                qt, total, "error" if failure is exc else "interrupted",
                error=f"{type(failure).__name__}: {failure}")
            raise
        else:
            wall = time.perf_counter() - t0
            mine.set_result(payload)
            with self._lock:
                self._remember(key, payload)
                self.stats["queries"] += 1
                self._completed.append({
                    "spec": spec, "entry": entry, "tenant": tenant,
                    "wall": wall, "payload": payload,
                    "trace_id": qt.trace_id or None,
                })
            self.m_queries.labels(kind=spec.kind, tenant=tenant,
                                  outcome="ok").inc()
            self.m_latency.labels(kind=spec.kind).observe(wall)
            self._finish_trace(qt, total, "ok", reply.finish().t_end,
                               kind=spec.kind, wall_seconds=wall,
                               mode=payload["runtime"]["mode"])
            return QueryOutcome(self._served(payload, tenant, qt))
        finally:
            with self._lock:
                self._inflight.pop(key, None)
                self._tenant_inflight[tenant] -= 1
                if not self._tenant_inflight[tenant]:
                    del self._tenant_inflight[tenant]
                    self._idle.notify_all()
            self.m_inflight.dec()

    # ------------------------------------------------------------ coordinator
    def _record_from(self, item: dict):
        from repro.obs.store import RunRecord, config_fingerprint, current_git_sha

        spec: QuerySpec = item["spec"]
        entry: GraphEntry = item["entry"]
        timing = item["payload"].get("timing", {})
        ran_on = item["payload"]["runtime"]
        label = entry.name or entry.sha[:12]
        return RunRecord(
            scenario=f"service:{spec.kind}:{label}:k{spec.k}",
            git_sha=current_git_sha(),
            config_hash=config_fingerprint(spec.canonical(entry.sha)),
            problem=item["payload"].get("result", {}).get("problem", spec.kind),
            mode=ran_on["mode"],
            nranks=ran_on["n_processors"],
            values={
                "wall_seconds": float(item["wall"]),
                "virtual_seconds": float(timing.get("virtual_seconds", 0.0)),
                "rounds": float(timing.get("rounds", 0)),
            },
            meta={"tenant": item["tenant"], "graph": entry.sha[:12],
                  "kind": spec.kind, "k": str(spec.k), "service": "1",
                  **({"trace_id": item["trace_id"]}
                     if item.get("trace_id") else {})},
        )

    def sweep(self) -> dict:
        """Drain completed executions into metrics + RunStore appends.

        Called periodically by the service coordinator (and once more at
        shutdown so nothing is lost), from any thread.  Safe to call with
        nothing completed; the store append happens outside the lock.
        """
        with self._lock:
            completed, self._completed = self._completed, []
        rounds = sum(int(item["payload"].get("timing", {}).get("rounds", 0))
                     for item in completed)
        records = ([self._record_from(item) for item in completed]
                   if self.store is not None else [])
        appended = 0
        if records:
            try:
                appended = self.store.append_many(records)
            except OSError as exc:  # a full disk must not kill the coordinator
                _LOG.error("service sweep: RunStore append failed: %s", exc)
            self.m_records.inc(appended)
        if rounds:
            self.m_rounds.inc(rounds)
        with self._lock:
            self.stats["records"] += appended
            self.stats["sweeps"] += 1
        self.m_sweeps.inc()
        self.m_graphs.set(len(self.registry))
        self.registry.forget_fleet_sessions(self._fleet.pids)
        self.m_sessions.set(self.registry.session_count())
        self.m_cache_entries.set(len(self._cache))
        return {"drained": len(completed), "rounds": rounds,
                "records": len(records)}

    def describe(self) -> dict:
        """JSON-safe broker stats for ``/status`` and ``/api/service``."""
        with self._lock:
            return {
                "quota": self.quota,
                "cache_size": self.cache_size,
                "cache_entries": len(self._cache),
                "coalesce": self.coalesce,
                "inflight": dict(self._tenant_inflight),
                "pending_sweep": len(self._completed),
                "stats": dict(self.stats),
            }

    def close(self) -> None:
        """Admit nothing more, wait for the executions in flight, and send
        the fleet's workers home (their segments go with them)."""
        with self._idle:
            self._closed = True
            while self._tenant_inflight:
                self._idle.wait()
        self._fleet.close()


__all__ = [
    "KINDS",
    "QueryBroker",
    "QueryOutcome",
    "QuerySpec",
    "STATISTICS",
    "TEMPLATES",
    "canonical_result",
    "dispatch",
    "execute_query",
]
