"""The persistent detection service: broker, coordinator, HTTP API.

:class:`DetectionService` is a :class:`~repro.service.broker.QueryBroker`
with a lifecycle.  The thread that asks — a
:class:`~repro.service.client.LocalClient` caller's or an HTTP handler's —
goes through the broker's blocking ``submit``, which runs the query on
one of ``workers`` fleet worker processes and waits for the reply; the
broker's lock makes that safe from any number of threads at once.

The service owns one thread, the **coordinator**: every
``sweep_interval`` seconds it sweeps the broker, draining completed
executions into ``midas_service_*`` metrics and (when a store is
configured) RunRecord appends, off the query path.

:meth:`DetectionService.serve` mounts the API on the same
:class:`~repro.obs.http.LiveServer` stack the live-run telemetry uses,
so one port exposes ``/metrics``, ``/status``, ``/healthz`` **and**:

* ``POST /api/query``  — ``{"tenant": ..., "query": {...}}`` -> payload
  (429 on quota, 404 on unknown graph, 400 on a malformed query);
* ``GET/POST /api/graphs`` — list / register graphs (edge-list upload
  or an ``er:N[:M[:SEED]]`` generator spec);
* ``GET /api/service`` — broker + registry + session introspection.

Shutdown (:meth:`close`): stop the HTTP server, close the broker — it
admits nothing more, waits for the executions in flight and sends the
fleet's workers home — stop and join the coordinator, then run one final
sweep so every completed query is recorded.  ``tests/test_service.py``
asserts the thread, process and ``/dev/shm`` census is unchanged
afterwards.
"""

from __future__ import annotations

import json
import threading
import time
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.errors import (
    ConfigurationError,
    QuotaExceededError,
    ReproError,
    ServiceError,
    UnknownGraphError,
)
from repro.graph.csr import CSRGraph
from repro.obs.metrics import MetricsRegistry
from repro.service.broker import QueryBroker, QueryOutcome, QuerySpec
from repro.service.registry import GraphEntry, GraphRegistry
from repro.util.log import get_logger

if TYPE_CHECKING:
    from repro.obs.http import LiveServer, RouteHandler

_LOG = get_logger(__name__)


def _json_reply(code: int, obj: dict) -> Tuple[int, str, bytes]:
    return code, "application/json", json.dumps(obj).encode()


def _error_reply(code: int, exc: Exception) -> Tuple[int, str, bytes]:
    return _json_reply(code, {"ok": False, "error": str(exc),
                              "error_type": type(exc).__name__})


class DetectionService:
    """A long-lived, multi-tenant detection endpoint (see module docs).

    Use as a context manager — or pair :meth:`start` with :meth:`close`
    — and the coordinator thread, the HTTP server and the worker fleet
    are torn down deterministically.
    """

    def __init__(
        self,
        *,
        quota: int = 8,
        cache_size: int = 256,
        coalesce: bool = True,
        workers: Optional[int] = None,
        store_path: Optional[str] = None,
        metrics: Optional[MetricsRegistry] = None,
        runtime_config: Optional[dict] = None,
        sweep_interval: float = 0.05,
        host: str = "127.0.0.1",
        tracing: bool = True,
        trace_capacity: int = 512,
    ) -> None:
        if sweep_interval <= 0:
            raise ConfigurationError(
                f"sweep_interval must be > 0, got {sweep_interval}"
            )
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.registry = GraphRegistry()
        store = None
        if store_path:
            from repro.obs.store import RunStore

            store = RunStore(store_path)
        self.tracer = None
        if tracing:
            from repro.obs.qtrace import QueryTracer

            self.tracer = QueryTracer(self.metrics, capacity=trace_capacity)
        self.broker = QueryBroker(
            self.registry, metrics=self.metrics, quota=quota,
            cache_size=cache_size, coalesce=coalesce, workers=workers,
            store=store, runtime_config=runtime_config, tracer=self.tracer,
        )
        self.sweep_interval = float(sweep_interval)
        self.host = host
        self._coordinator: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._server: Optional[LiveServer] = None
        self._t0: Optional[float] = None
        self._closed = False

    # ------------------------------------------------------------ lifecycle
    def start(self) -> "DetectionService":
        """Start the coordinator thread (idempotent)."""
        if self._closed:
            raise ServiceError("service already closed; build a new one")
        if self._coordinator is None:
            self._t0 = time.monotonic()
            self._coordinator = threading.Thread(
                target=self._coordinate, name="midas-service-sweep",
                daemon=True)
            self._coordinator.start()
        return self

    def _coordinate(self) -> None:
        while not self._stop.wait(self.sweep_interval):
            try:
                self.broker.sweep()
            except Exception:  # pragma: no cover - defensive
                _LOG.exception("service coordinator sweep failed")

    def close(self) -> None:
        """Full teardown; idempotent.  See module docs for the order."""
        if self._closed:
            return
        self._closed = True
        if self._server is not None:
            self._server.stop()
            self._server = None
        self.broker.close()
        self._stop.set()
        if self._coordinator is not None:
            self._coordinator.join(timeout=10.0)
            self._coordinator = None
        self.broker.sweep()  # flush the last completed queries to the store

    def __enter__(self) -> "DetectionService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------ sync API
    def register_graph(self, graph: CSRGraph,
                       name: Optional[str] = None) -> GraphEntry:
        return self.registry.register(graph, name=name)

    def query(self, query, tenant: str = "default",
              timeout: Optional[float] = None, trace=None) -> QueryOutcome:
        """Answer one query; the calling thread (any thread) waits.

        ``query`` is a :class:`QuerySpec` or a dict for
        :meth:`QuerySpec.from_dict`; ``trace`` carries the caller's trace
        context (a ``{"traceparent": ...}`` dict); ``timeout`` is
        :meth:`QueryBroker.submit`'s.
        """
        spec = query if isinstance(query, QuerySpec) else QuerySpec.from_dict(query)
        self.start()
        return self.broker.submit(spec, tenant=tenant, trace=trace,
                                  timeout=timeout)

    def sweep_now(self) -> dict:
        """One coordinator sweep, now, on the calling thread (tests)."""
        return self.broker.sweep()

    def status_snapshot(self) -> dict:
        """The ``/status`` payload: service-level, not per-run."""
        up = time.monotonic() - self._t0 if self._t0 is not None else 0.0
        snap = {
            "state": "serving" if not self._closed else "closed",
            "service": "midas-detection",
            "uptime_seconds": round(up, 3),
            "graphs": len(self.registry),
            "broker": self.broker.describe(),
        }
        if self.tracer is not None:
            snap["tracing"] = self.tracer.describe()
            snap["tenants"] = self.tracer.tenant_slos()
        return snap

    # ------------------------------------------------------------- tracing
    def get_trace(self, trace_id: str) -> Optional[dict]:
        """A finished query's trace document, or None (tracing off or
        the id unknown/evicted)."""
        if self.tracer is None:
            return None
        return self.tracer.get(trace_id)

    def ingest_spans(self, trace_id: str, spans) -> int:
        """Splice client-side spans into a stored trace (0 when tracing
        is off or the trace is unknown)."""
        if self.tracer is None:
            return 0
        return self.tracer.ingest(trace_id, list(spans or []))

    # ------------------------------------------------------------ HTTP layer
    def serve(self, port: int = 0, host: Optional[str] = None) -> int:
        """Mount the API over HTTP; returns the bound port (0 = ephemeral)."""
        self.start()
        if self._server is None:
            from repro.obs.http import LiveServer  # the HTTP layer, at use

            self._server = LiveServer(
                self.status_snapshot, registry=self.metrics,
                host=host or self.host, routes=self.routes(),
            )
            self._server.start(port)
        return self._server.port

    @property
    def url(self) -> Optional[str]:
        return self._server.url if self._server is not None else None

    def routes(self) -> Dict[str, RouteHandler]:
        """The ``/api/*`` route table (mountable on any LiveServer)."""
        return {
            "/api/query": self._route_query,
            "/api/graphs": self._route_graphs,
            "/api/service": self._route_service,
            "/api/trace": self._route_trace,
        }

    def _route_query(self, method, path, query, body):
        if method != "POST":
            return _json_reply(405, {"ok": False, "error": "POST only"})
        try:
            req = json.loads(body.decode() or "{}")
        except (ValueError, UnicodeDecodeError) as exc:
            return _error_reply(400, exc)
        if not isinstance(req, dict):
            return _json_reply(400, {"ok": False, "error": "body must be a JSON object"})
        tenant = str(req.get("tenant") or "default")
        trace = req.get("trace")
        if not isinstance(trace, dict):
            trace = None
        try:
            spec = QuerySpec.from_dict(req.get("query", req))
            outcome = self.query(spec, tenant=tenant, trace=trace)
        except QuotaExceededError as exc:
            return _error_reply(429, exc)
        except UnknownGraphError as exc:
            return _error_reply(404, exc)
        except ConfigurationError as exc:
            return _error_reply(400, exc)
        except ReproError as exc:
            return _error_reply(500, exc)
        return _json_reply(200, outcome.payload)

    def _route_graphs(self, method, path, query, body):
        if method == "GET":
            return _json_reply(200, {"ok": True,
                                     "graphs": self.registry.describe()})
        try:
            req = json.loads(body.decode() or "{}")
        except (ValueError, UnicodeDecodeError) as exc:
            return _error_reply(400, exc)
        try:
            entry = self._register_from_request(req)
        except (ConfigurationError, ReproError) as exc:
            return _error_reply(400, exc)
        return _json_reply(200, {"ok": True, "sha": entry.sha,
                                 "name": entry.name,
                                 "nodes": entry.graph.n,
                                 "edges": entry.graph.num_edges})

    def _register_from_request(self, req: dict) -> GraphEntry:
        """Build + register a graph from an upload body: either
        ``{"n": ..., "edges": [[u, v], ...]}`` or ``{"er": {"n": ...,
        "seed": ...}}`` (server-side generation for big fixtures)."""
        if not isinstance(req, dict):
            raise ConfigurationError("graph upload must be a JSON object")
        name = req.get("name") or None
        if "edges" in req:
            n = req.get("n")
            if not isinstance(n, int) or n < 0:
                raise ConfigurationError("edge upload needs an int 'n'")
            graph = CSRGraph.from_edges(n, req["edges"] or [],
                                        name=name or "")
        elif "er" in req:
            from repro.graph.generators import erdos_renyi
            from repro.util.rng import RngStream

            er = req["er"] or {}
            n = er.get("n")
            if not isinstance(n, int) or n < 1:
                raise ConfigurationError("er spec needs an int 'n' >= 1")
            m = er.get("m")
            graph = erdos_renyi(
                n, m=int(m) if m is not None else None,
                rng=RngStream(int(er.get("seed", 0)), name="service-er"),
            )
        else:
            raise ConfigurationError(
                "graph upload needs 'edges' (with 'n') or an 'er' spec"
            )
        return self.register_graph(graph, name=name)

    def _route_trace(self, method, path, query, body):
        """``GET /api/trace/<id>`` (or ``?id=...``) returns one query's
        trace document; ``POST /api/trace`` ingests client-side spans
        (``{"trace_id": ..., "spans": [...]}``)."""
        if self.tracer is None:
            return _json_reply(404, {"ok": False, "error": "tracing disabled"})
        if method == "POST":
            try:
                req = json.loads(body.decode() or "{}")
            except (ValueError, UnicodeDecodeError) as exc:
                return _error_reply(400, exc)
            if not isinstance(req, dict) or not req.get("trace_id"):
                return _json_reply(
                    400, {"ok": False, "error": "need trace_id and spans"}
                )
            added = self.ingest_spans(str(req["trace_id"]),
                                      req.get("spans") or [])
            return _json_reply(200, {"ok": True, "ingested": added})
        trace_id = ""
        if path.startswith("/api/trace/"):
            trace_id = path[len("/api/trace/"):].strip("/")
        if not trace_id and query:
            from urllib.parse import parse_qs

            trace_id = (parse_qs(query).get("id") or [""])[0]
        if not trace_id:
            return _json_reply(400, {"ok": False,
                                     "error": "need /api/trace/<id>"})
        doc = self.get_trace(trace_id)
        if doc is None:
            return _json_reply(404, {
                "ok": False,
                "error": f"unknown or evicted trace {trace_id!r}",
            })
        return _json_reply(200, {"ok": True, "trace": doc})

    def _route_service(self, method, path, query, body):
        return _json_reply(200, {
            "ok": True,
            "service": self.status_snapshot(),
            "graphs": self.registry.describe(),
        })


__all__ = ["DetectionService"]
