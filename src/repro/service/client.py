"""One query surface, two transports.

:class:`LocalClient` embeds a :class:`~repro.service.server.DetectionService`
in-process (no sockets, no serialization of the graph) and goes through
exactly the same admission pipeline and worker fleet the HTTP server
uses.

:class:`HttpClient` talks to a remote ``repro serve`` endpoint with
stdlib :mod:`urllib` — no third-party HTTP dependency.  Error mapping
mirrors the server's status codes back into the typed exceptions
(429 -> :class:`~repro.errors.QuotaExceededError`, 404 ->
:class:`~repro.errors.UnknownGraphError`, 400 ->
:class:`~repro.errors.ConfigurationError`), so caller code is transport
agnostic.

Both return :class:`~repro.service.broker.QueryOutcome`, whose
deterministic payload is identical either way (property-tested).
"""

from __future__ import annotations

import json
import os
import time
from typing import Optional

from repro.errors import (
    ConfigurationError,
    QuotaExceededError,
    ServiceError,
    UnknownGraphError,
)
from repro.graph.csr import CSRGraph
from repro.obs.qtrace import TraceContext
from repro.service.broker import QueryOutcome, QuerySpec
from repro.service.server import DetectionService


def _client_span(ctx: TraceContext, t0: float, t1: float,
                 **tags) -> dict:
    """The serialized client-side span for one request, exported to the
    server after the reply (client and server share the perf_counter
    timebase on one machine, so the stamps splice directly)."""
    return {
        "span_id": ctx.span_id, "parent_id": None,
        "name": "client.request", "t_start": t0, "t_end": t1,
        "pid": os.getpid(), "lane": "client", "trace_id": "",
        "tags": dict(tags),
    }


class LocalClient:
    """In-process client; owns its service unless one is passed in."""

    def __init__(self, service: Optional[DetectionService] = None,
                 **service_kwargs) -> None:
        self._owned = service is None
        self.service = service if service is not None else DetectionService(
            **service_kwargs
        )

    def register_graph(self, graph: CSRGraph,
                       name: Optional[str] = None) -> str:
        return self.service.register_graph(graph, name=name).sha

    def query(self, query, tenant: str = "default",
              timeout: Optional[float] = None) -> QueryOutcome:
        """Submit one query under a per-request client context minted
        here; when the service traces, the measured client span is spliced
        into the stored trace after the reply."""
        ctx = TraceContext.mint()
        t0 = time.perf_counter()
        outcome = self.service.query(
            query, tenant=tenant, timeout=timeout,
            trace={"traceparent": ctx.to_traceparent()},
        )
        t1 = time.perf_counter()
        trace_id = outcome.trace_id
        if trace_id:
            self.service.ingest_spans(
                trace_id,
                [_client_span(ctx, t0, t1, transport="local", tenant=tenant)],
            )
        return outcome

    def trace(self, trace_id: str) -> Optional[dict]:
        """A finished query's trace document (None when unknown)."""
        return self.service.get_trace(trace_id)

    def close(self) -> None:
        if self._owned:
            self.service.close()

    def __enter__(self) -> "LocalClient":
        self.service.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _graph_edges(graph: CSRGraph):
    """The unique (u < v) edge pairs of a CSR graph, for upload."""
    edges = []
    indptr, indices = graph.indptr, graph.indices
    for u in range(graph.n):
        for v in indices[indptr[u]:indptr[u + 1]]:
            if u < v:
                edges.append([int(u), int(v)])
    return edges


class HttpClient:
    """Remote client for a ``repro serve`` endpoint (see module docs)."""

    def __init__(self, base_url: str, timeout: float = 300.0) -> None:
        if not base_url.startswith(("http://", "https://")):
            raise ConfigurationError(
                f"server URL must start with http:// or https://, got {base_url!r}"
            )
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # ------------------------------------------------------------- plumbing
    def _request(self, path: str, payload: Optional[dict] = None) -> bytes:
        """The reply body of a GET, or of a JSON POST of ``payload``.
        :mod:`urllib` is imported here, so a process that never makes a
        request never loads it."""
        import urllib.error
        import urllib.request

        data = None if payload is None else json.dumps(payload).encode()
        req = urllib.request.Request(self.base_url + path, data=data,
                                     headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                return resp.read()
        except urllib.error.HTTPError as exc:
            self._raise_mapped(exc)
        except (urllib.error.URLError, OSError) as exc:
            raise ServiceError(f"cannot reach {self.base_url}: {exc}") from exc

    def _post(self, path: str, payload: dict) -> dict:
        return json.loads(self._request(path, payload))

    def _get(self, path: str):
        return self._request(path)

    @staticmethod
    def _raise_mapped(exc: "urllib.error.HTTPError"):
        try:
            detail = json.loads(exc.read().decode() or "{}")
        except ValueError:
            detail = {}
        msg = detail.get("error") or str(exc)
        if exc.code == 429:
            err = QuotaExceededError("?", 0)
            err.args = (msg,)
            raise err from exc
        if exc.code == 404:
            raise UnknownGraphError(msg) from exc
        if exc.code == 400:
            raise ConfigurationError(msg) from exc
        raise ServiceError(f"server error {exc.code}: {msg}") from exc

    # ------------------------------------------------------------------ api
    def register_graph(self, graph: CSRGraph,
                       name: Optional[str] = None) -> str:
        """Upload ``graph`` by edge list; returns its content sha (the
        server recomputes it from the same CSR canonical form, so local
        and remote shas agree)."""
        reply = self._post("/api/graphs", {
            "name": name or graph.name or None,
            "n": graph.n,
            "edges": _graph_edges(graph),
        })
        return reply["sha"]

    def register_er(self, n: int, m: Optional[int] = None, seed: int = 0,
                    name: Optional[str] = None) -> str:
        """Ask the server to generate-and-register an ER graph (avoids
        shipping big edge lists for benchmark fixtures)."""
        er = {"n": int(n), "seed": int(seed)}
        if m is not None:
            er["m"] = int(m)
        return self._post("/api/graphs", {"name": name, "er": er})["sha"]

    def query(self, query, tenant: str = "default",
              timeout: Optional[float] = None) -> QueryOutcome:
        """Submit one query; ``timeout`` overrides the client default for
        this call."""
        spec = query if isinstance(query, QuerySpec) else QuerySpec.from_dict(query)
        ctx = TraceContext.mint()
        saved = self.timeout
        if timeout is not None:
            self.timeout = timeout
        t0 = time.perf_counter()
        try:
            payload = self._post("/api/query", {
                "tenant": tenant,
                "query": spec.to_dict(),
                "trace": {"traceparent": ctx.to_traceparent()},
            })
        finally:
            self.timeout = saved
        t1 = time.perf_counter()
        outcome = QueryOutcome(payload)
        trace_id = outcome.trace_id
        if trace_id:
            try:
                # export the measured client span so `repro trace` shows
                # the full client->broker->engine->worker timeline; a
                # failed export must never fail the query itself
                self._post("/api/trace", {
                    "trace_id": trace_id,
                    "spans": [_client_span(ctx, t0, t1, transport="http",
                                           tenant=tenant)],
                })
            except (ServiceError, ConfigurationError,
                    UnknownGraphError, QuotaExceededError):
                pass
        return outcome

    def trace(self, trace_id: str) -> Optional[dict]:
        """Fetch one query's trace document from ``/api/trace/<id>``;
        None when the server doesn't know the id (evicted/disabled)."""
        try:
            reply = json.loads(self._get(f"/api/trace/{trace_id}").decode())
        except (UnknownGraphError, ServiceError):
            return None
        return reply.get("trace")

    def status(self) -> dict:
        return json.loads(self._get("/status").decode())

    def metrics_text(self) -> str:
        return self._get("/metrics").decode()

    def service_info(self) -> dict:
        return json.loads(self._get("/api/service").decode())

    def close(self) -> None:  # symmetry with LocalClient
        pass

    def __enter__(self) -> "HttpClient":
        return self

    def __exit__(self, *exc) -> None:
        pass


__all__ = ["HttpClient", "LocalClient"]
