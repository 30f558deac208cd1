"""Detection as a service: a persistent, multi-tenant query layer.

The standalone drivers in :mod:`repro.core.midas` rebuild everything —
partition, halo views, field tables — on every call.  This package keeps
that state resident between queries:

* :mod:`repro.service.registry` — :class:`GraphRegistry`: preloaded CSR
  graphs keyed by content sha, each with cached
  :class:`~repro.core.engine.EngineSession` prepared state;
* :mod:`repro.service.broker` — :class:`QueryBroker`: admits queries,
  coalesces identical in-flight work, enforces per-tenant quotas,
  caches results keyed by ``(graph sha, query, seed policy)``, and runs
  each admitted query whole on one of ``workers`` long-lived worker
  processes;
* :mod:`repro.service.server` — :class:`DetectionService`: the broker's
  lifecycle, the coordinator sweep (the service's one thread), and the
  HTTP ``/api/*`` routes mounted on :class:`~repro.obs.http.LiveServer`;
* :mod:`repro.service.client` — :class:`LocalClient` (in-process) and
  :class:`HttpClient` (remote), one ``query()`` surface for both.

Determinism contract: a service query with a pinned seed policy returns
results bit-identical to the standalone driver — including when the
answer came from the cache or was coalesced onto another tenant's
in-flight execution.  Property-tested in ``tests/test_service.py``.

The names below are imported from their module on first use, so a
caller of :func:`repro.service.broker.execute_query` alone (the CLI's
local run) loads no server, client or worker fleet.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "server": ("DetectionService",),
    "registry": ("GraphEntry", "GraphRegistry", "graph_sha"),
    "client": ("HttpClient", "LocalClient"),
    "broker": ("QueryBroker", "QueryOutcome", "QuerySpec", "canonical_result"),
})
