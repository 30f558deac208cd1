"""Detection-as-a-service: broker, registry, transports, lifecycle.

The acceptance bar from the service design: results through
:class:`LocalClient` and :class:`HttpClient` are **bit-identical** to a
standalone engine run for a pinned seed policy (including cached and
coalesced replies); quotas reject immediately without harming other
tenants; ``workers`` queries compute at once on the worker fleet, in
every mode; shutdown leaks no thread, process or shared segment.
"""

from __future__ import annotations

import glob
import json
import multiprocessing
import os
import platform
import signal
import sys
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro.core import leveldp
from repro.core.engine import MidasRuntime
from repro.core.midas import detect_path, detect_tree
from repro.core.process_backend import QueryFleet
from repro.core.schedule import MAX_K
from repro.errors import (
    ConfigurationError,
    QuotaExceededError,
    ServiceError,
    UnknownGraphError,
    WorkerCrashedError,
)
from repro.ff.gf2m import field_degree_for_k, round_success_bound
from repro.graph.generators import erdos_renyi, plant_path
from repro.graph.templates import TreeTemplate
from repro.obs.metrics import MetricsRegistry
from repro.obs.qtrace import get_flight_recorder, reset_flight_recorder
from repro.obs.store import RunStore
from repro.scanstat.detect import AnomalyDetector
from repro.scanstat.statistics import BerkJones
from repro.service import (
    DetectionService,
    GraphRegistry,
    HttpClient,
    LocalClient,
    QuerySpec,
    canonical_result,
    graph_sha,
)
from repro.service import broker as broker_mod
from repro.service.broker import (
    QueryBroker,
    _detection_result,
    _scan_result,
    execute_query,
)
from repro.util.rng import RngStream


def _graph(seed=1, n=120, m=360, k=5):
    g, _ = plant_path(erdos_renyi(n, m, rng=RngStream(seed)), k,
                      rng=RngStream(seed + 50))
    g.name = ""
    return g


def _service_threads():
    return sorted(t.name for t in threading.enumerate()
                  if t.name.startswith(("midas-", "repro-live")))


def _standalone(spec: QuerySpec, graph) -> dict:
    """Reference execution: a fresh engine run outside the service, fed
    the same pinned seed policy, serialized through the same
    deterministic-slice helpers."""
    rt = MidasRuntime(metrics=MetricsRegistry())
    rng = spec.seed_stream()
    if spec.kind == "detect-path":
        raw = detect_path(graph, spec.k, eps=spec.eps, rng=rng, runtime=rt,
                          early_exit=spec.early_exit)
        return _detection_result(raw)
    if spec.kind == "detect-tree":
        factories = {"path": TreeTemplate.path, "star": TreeTemplate.star,
                     "binary": TreeTemplate.binary,
                     "caterpillar": TreeTemplate.caterpillar}
        raw = detect_tree(graph, factories[spec.template](spec.k),
                          eps=spec.eps, rng=rng, runtime=rt,
                          early_exit=spec.early_exit)
        res = _detection_result(raw)
        res["template"] = spec.template
        return res
    det = AnomalyDetector(graph, BerkJones(alpha=spec.alpha), k=spec.k,
                          runtime=rt, eps=spec.eps)
    raw = det.detect(np.asarray(spec.weights, dtype=np.int64), rng=rng,
                     extract=spec.extract)
    return _scan_result(raw, spec)


# ------------------------------------------------------------------ specs


class TestQuerySpec:
    def test_round_trips_through_dict(self):
        spec = QuerySpec(kind="detect-tree", graph="g", k=4, eps=0.2,
                         seed={"seed": 7}, template="star")
        assert QuerySpec.from_dict(spec.to_dict()) == spec

    def test_scan_round_trip_keeps_weights(self):
        spec = QuerySpec(kind="scan", graph="g", k=3, seed={"seed": 1},
                         statistic="elevated-mean", alpha=0.2,
                         weights=(1, 0, 2), extract=True)
        assert QuerySpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("bad", [
        {"kind": "nope", "graph": "g", "k": 3},
        {"kind": "detect-path", "graph": "g", "k": 0},
        {"kind": "detect-path", "graph": "g", "k": 65},
        {"kind": "detect-path", "graph": "g", "k": 3, "eps": 1.5},
        {"kind": "detect-path", "graph": "g", "k": 3, "bogus": 1},
        {"kind": "detect-path", "graph": "g"},
        {"kind": "detect-tree", "graph": "g", "k": 3, "template": "dag"},
        {"kind": "scan", "graph": "g", "k": 3, "statistic": "chi2"},
        {"kind": "scan", "graph": "g", "k": 3, "weights": [-1, 2]},
        {"kind": "detect-path", "graph": "g", "k": 3, "seed": "abc"},
        "not a dict",
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ConfigurationError):
            QuerySpec.from_dict(bad)

    def test_seed_policy_forms(self):
        s_int = QuerySpec.from_dict({"kind": "detect-path", "graph": "g",
                                     "k": 3, "seed": 11})
        assert s_int.seed == {"seed": 11}
        state = RngStream(11).child("detect").state()
        s_state = QuerySpec.from_dict({"kind": "detect-path", "graph": "g",
                                       "k": 3, "seed": state})
        assert "entropy" in s_state.seed
        # the pinned lineage realizes identically on every call
        a = s_state.seed_stream().child("x").integers(0, 1 << 30, size=4)
        b = s_state.seed_stream().child("x").integers(0, 1 << 30, size=4)
        assert (a == b).all()

    def test_cache_key_tracks_identity_fields(self):
        base = {"kind": "detect-path", "graph": "g", "k": 3, "seed": 1}
        k0 = QuerySpec.from_dict(base).cache_key("sha")
        assert QuerySpec.from_dict(base).cache_key("sha") == k0
        assert QuerySpec.from_dict({**base, "seed": 2}).cache_key("sha") != k0
        assert QuerySpec.from_dict({**base, "k": 4}).cache_key("sha") != k0
        assert QuerySpec.from_dict(base).cache_key("other-sha") != k0


# --------------------------------------------------------------- registry


class TestGraphRegistry:
    def test_register_is_idempotent_by_content(self):
        reg = GraphRegistry()
        g = _graph(seed=3)
        e1 = reg.register(g, name="alpha")
        e2 = reg.register(_graph(seed=3))  # same content, new object
        assert e1 is e2
        assert len(reg) == 1

    def test_resolution_by_name_sha_and_prefix(self):
        reg = GraphRegistry()
        e = reg.register(_graph(seed=3), name="alpha")
        assert reg.resolve("alpha") is e
        assert reg.resolve(e.sha) is e
        assert reg.resolve(e.sha[:12]) is e
        with pytest.raises(UnknownGraphError):
            reg.resolve(e.sha[:4])  # prefixes shorter than 8 never match
        with pytest.raises(UnknownGraphError):
            reg.resolve("missing")

    def test_name_rebind_to_different_content_refused(self):
        reg = GraphRegistry()
        reg.register(_graph(seed=3), name="alpha")
        with pytest.raises(ConfigurationError, match="already bound"):
            reg.register(_graph(seed=4), name="alpha")

    def test_sha_is_canonical_over_edge_presentation(self):
        from repro.graph.csr import CSRGraph

        a = CSRGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        b = CSRGraph.from_edges(4, [(3, 2), (1, 0), (2, 1), (1, 2)])
        assert graph_sha(a) == graph_sha(b)


# ---------------------------------------------------- local bit-identity


class TestLocalBitIdentity:
    def test_all_kinds_match_standalone_property_style(self):
        g1, g2 = _graph(seed=1), _graph(seed=2)
        n = g1.n
        specs = []
        for seed in (101, 202, 303):
            specs.append(QuerySpec(kind="detect-path", graph="one", k=4,
                                   eps=0.25, seed={"seed": seed}))
            specs.append(QuerySpec(kind="detect-tree", graph="two", k=4,
                                   eps=0.25, seed={"seed": seed},
                                   template="star"))
            specs.append(QuerySpec(
                kind="scan", graph="one", k=3, eps=0.25,
                seed={"seed": seed},
                weights=tuple(i % 3 for i in range(n))))
        refs = [_standalone(s, g1 if s.graph == "one" else g2)
                for s in specs]

        before = _service_threads()
        with LocalClient(metrics=MetricsRegistry()) as client:
            client.register_graph(g1, name="one")
            client.register_graph(g2, name="two")
            for spec, ref in zip(specs, refs):
                out = client.query(spec)
                assert canonical_result(out.payload) == ref
                assert not out.cache_hit and not out.coalesced
        assert _service_threads() == before

    def test_pinned_state_seed_matches_cli_lineage(self):
        """A spec carrying a full RngStream state reproduces exactly the
        run that lineage would produce standalone — the contract the CLI
        relies on to keep --server runs identical to local ones."""
        g = _graph(seed=5)
        child_state = RngStream(42, name="cli").child("detect").state()
        spec = QuerySpec(kind="detect-path", graph="g", k=4, eps=0.2,
                         seed=child_state)
        direct = detect_path(
            g, 4, eps=0.2,
            rng=RngStream(42, name="cli").child("detect"),
            runtime=MidasRuntime(metrics=MetricsRegistry()))
        with LocalClient(metrics=MetricsRegistry()) as client:
            client.register_graph(g, name="g")
            out = client.query(spec)
        assert out.result["round_values"] == [
            int(r.value) for r in direct.rounds]
        assert out.result["found"] == direct.found

    def test_external_service_not_closed_by_client(self):
        svc = DetectionService(metrics=MetricsRegistry())
        svc.start()
        try:
            client = LocalClient(service=svc)
            client.close()  # not owned -> must leave the service running
            assert svc.query(QuerySpec(
                kind="detect-path", graph=svc.register_graph(_graph()).sha,
                k=3, eps=0.3, seed={"seed": 1})).payload["ok"]
        finally:
            svc.close()


# ------------------------------------------------- cache / coalesce / quota


class TestCacheCoalesceQuota:
    def test_cache_hit_returns_identical_payload(self):
        with DetectionService(metrics=MetricsRegistry()) as svc:
            svc.register_graph(_graph(), name="g")
            spec = QuerySpec(kind="detect-path", graph="g", k=4, eps=0.3,
                             seed={"seed": 5})
            first = svc.query(spec)
            second = svc.query(spec)
            assert not first.cache_hit and second.cache_hit
            assert first.result == second.result
            assert svc.broker.stats["cache_hits"] == 1
            assert svc.metrics.snapshot().get(
                "midas_service_cache_hits_total", kind="detect-path") == 1

    def test_coalesced_join_gets_identical_result(self, monkeypatch):
        real = broker_mod.dispatch
        started, release = threading.Event(), threading.Event()

        def slow(*args):
            started.set()
            assert release.wait(timeout=30)
            return real(*args)

        monkeypatch.setattr(broker_mod, "dispatch", slow)
        with DetectionService(metrics=MetricsRegistry()) as svc:
            svc.register_graph(_graph(), name="g")
            spec = QuerySpec(kind="detect-path", graph="g", k=4, eps=0.3,
                             seed={"seed": 9})
            out = {}
            threads = [
                threading.Thread(target=lambda t=t: out.__setitem__(
                    t, svc.query(spec, tenant=t)))
                for t in ("a", "b")
            ]
            threads[0].start()
            assert started.wait(timeout=10)
            threads[1].start()
            deadline = time.monotonic() + 10
            while (svc.broker.stats["coalesced"] < 1
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert svc.broker.stats["coalesced"] == 1
            release.set()
            for t in threads:
                t.join(timeout=30)
            assert sorted(o.coalesced for o in out.values()) == [False, True]
            assert out["a"].result == out["b"].result

    def test_quota_rejects_immediately_per_tenant(self, monkeypatch):
        real = broker_mod.dispatch
        started, release = threading.Event(), threading.Event()

        def slow(*args):
            started.set()
            assert release.wait(timeout=30)
            return real(*args)

        monkeypatch.setattr(broker_mod, "dispatch", slow)
        svc = DetectionService(quota=1, workers=4,
                               metrics=MetricsRegistry())
        try:
            svc.register_graph(_graph(), name="g")

            def spec(seed):
                return QuerySpec(kind="detect-path", graph="g", k=4,
                                 eps=0.3, seed={"seed": seed})

            holder = threading.Thread(
                target=lambda: svc.query(spec(1), tenant="alice"))
            holder.start()
            assert started.wait(timeout=10)
            t0 = time.monotonic()
            with pytest.raises(QuotaExceededError):
                svc.query(spec(2), tenant="alice")  # distinct: no coalesce
            assert time.monotonic() - t0 < 5  # refusal, not queueing
            assert svc.broker.stats["rejected"] == 1
            assert svc.metrics.snapshot().get(
                "midas_service_rejected_total", tenant="alice") == 1
            # an unrelated tenant is admitted despite alice being full
            other = threading.Thread(
                target=lambda: svc.query(spec(3), tenant="bob"))
            other.start()
            release.set()
            holder.join(timeout=30)
            other.join(timeout=30)
            assert svc.broker.stats["queries"] == 2
        finally:
            svc.close()

    def test_after_an_interrupted_execution_the_next_query_is_served(
            self, monkeypatch):
        """A KeyboardInterrupt inside a query surfaces in the calling
        thread, where it was raised, and strands nothing: the worker, the
        tenant's quota and the in-flight entry are all given back."""
        real = broker_mod.dispatch
        calls = {"n": 0}

        def boom(*args):
            calls["n"] += 1
            if calls["n"] == 1:
                raise KeyboardInterrupt()
            return real(*args)

        monkeypatch.setattr(broker_mod, "dispatch", boom)
        before = _service_threads()
        svc = DetectionService(quota=1, workers=1, metrics=MetricsRegistry())
        try:
            svc.register_graph(_graph(), name="g")
            spec = QuerySpec(kind="detect-path", graph="g", k=4, eps=0.3,
                             seed={"seed": 5})
            with pytest.raises(KeyboardInterrupt):
                svc.query(spec, timeout=30)
            assert svc.broker.describe()["inflight"] == {}
            assert svc.query(spec, timeout=60).payload["ok"]  # still serving
        finally:
            svc.close()
        assert _service_threads() == before

    def test_after_a_failed_execution_the_next_query_is_served(
            self, monkeypatch):
        real = broker_mod.dispatch

        def boom(spec, *args):
            if spec.seed == {"seed": 5}:
                raise RuntimeError("synthetic failure")
            return real(spec, *args)

        monkeypatch.setattr(broker_mod, "dispatch", boom)
        with DetectionService(quota=1, workers=1,
                              metrics=MetricsRegistry()) as svc:
            svc.register_graph(_graph(), name="g")
            with pytest.raises(RuntimeError, match="synthetic"):
                svc.query(QuerySpec(kind="detect-path", graph="g", k=4,
                                    seed={"seed": 5}), timeout=30)
            assert svc.broker.stats["errors"] == 1
            assert svc.query(QuerySpec(kind="detect-path", graph="g", k=4,
                                       seed={"seed": 6})).payload["ok"]

    def test_unknown_graph_rejected(self):
        with DetectionService(metrics=MetricsRegistry()) as svc:
            with pytest.raises(UnknownGraphError):
                svc.query(QuerySpec(kind="detect-path", graph="ghost", k=3,
                                    seed={"seed": 1}))


# ------------------------------------------------- execution on the fleet


def _cliques(n_cliques=100):
    """Disjoint 4-cliques: no path on more than 4 vertices, so a k >= 5
    query runs every amplification round."""
    from repro.graph.csr import CSRGraph

    return CSRGraph.from_edges(4 * n_cliques, [
        (4 * c + i, 4 * c + j)
        for c in range(n_cliques) for i in range(4) for j in range(i + 1, 4)])


def _path_spec(seed, **kw):
    return QuerySpec(kind="detect-path", graph="g", k=4, eps=0.3,
                     seed={"seed": seed}, **kw)


class _Gate:
    """A ``dispatch`` that parks each execution, holding its worker, until
    released, and records how many were held at once."""

    def __init__(self, monkeypatch, fail=None):
        self.real = broker_mod.dispatch
        self.fail = fail
        self.entered = threading.Semaphore(0)
        self.release = threading.Event()
        self.lock = threading.Lock()
        self.running = self.peak = 0
        monkeypatch.setattr(broker_mod, "dispatch", self)

    def __call__(self, *args):
        with self.lock:
            self.running += 1
            self.peak = max(self.peak, self.running)
        self.entered.release()
        try:
            assert self.release.wait(timeout=30)
            if self.fail is not None:
                raise self.fail
            return self.real(*args)
        finally:
            with self.lock:
                self.running -= 1


def _in_thread(fn):
    """Run ``fn`` on a thread; the returned dict gets its result or error."""
    box = {}

    def run():
        try:
            box["result"] = fn()
        except BaseException as exc:  # noqa: BLE001 - handed to the asserts
            box["error"] = exc

    box["thread"] = threading.Thread(target=run)
    box["thread"].start()
    return box


def _join(box):
    box["thread"].join(timeout=30)
    assert not box["thread"].is_alive()
    return box


def _wait_for(predicate, timeout=10.0):
    give_up = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < give_up
        time.sleep(0.005)


class TestCallerThreadExecution:
    def test_a_started_service_owns_one_thread(self):
        before = set(threading.enumerate())

        def added(http=False):
            """Names of the threads started since, without (``http``) the
            HTTP server's own: its accept loop and per-request handlers."""
            return sorted(
                t.name for t in set(threading.enumerate()) - before
                if not (http and (t.name.startswith("repro-live-http")
                                  or "process_request_thread" in t.name)))

        svc = DetectionService(metrics=MetricsRegistry()).start()
        try:
            svc.register_graph(_graph(), name="g")
            assert added() == ["midas-service-sweep"]
            svc.query(_path_spec(1))
            LocalClient(svc).query(_path_spec(2))
            assert added() == ["midas-service-sweep"]
            svc.serve(0)
            HttpClient(svc.url).query(_path_spec(3).to_dict())
            assert added(http=True) == ["midas-service-sweep"]
        finally:
            svc.close()
        _wait_for(lambda: added() == [])  # a handler may still be returning

    def test_one_worker_slot_serialises_distinct_queries(self, monkeypatch):
        gate = _Gate(monkeypatch)
        with DetectionService(workers=1, metrics=MetricsRegistry()) as svc:
            svc.register_graph(_graph(), name="g")
            boxes = [_in_thread(lambda s=s: svc.query(_path_spec(s)))
                     for s in (1, 2, 3)]
            assert gate.entered.acquire(timeout=10)
            # all three admitted (quota 8), one executing, two queued
            _wait_for(lambda: svc.broker.describe()["inflight"]
                      == {"default": 3})
            gate.release.set()
            for box in boxes:
                assert _join(box)["result"].payload["ok"]
        assert gate.peak == 1

    @pytest.mark.parametrize("mode", ["sequential", "simulated", "threaded",
                                      "process"])
    def test_workers_run_at_once_in_every_mode(self, monkeypatch, mode):
        """``workers`` means worker processes whatever the mode: two of
        three distinct queries hold a worker at once, the third waits for
        one, and the two ran in two processes other than this one (a
        process or threaded runtime runs sequentially in its worker)."""
        gate = _Gate(monkeypatch)
        with DetectionService(workers=2, metrics=MetricsRegistry(),
                              runtime_config={"mode": mode}) as svc:
            svc.register_graph(_graph(), name="g")
            boxes = [_in_thread(lambda s=s: svc.query(_path_spec(s)))
                     for s in (1, 2, 3)]
            for _ in range(2):
                assert gate.entered.acquire(timeout=10)
            _wait_for(lambda: svc.broker.describe()["inflight"]
                      == {"default": 3})
            assert not gate.entered.acquire(timeout=0.1)  # the third waits
            gate.release.set()
            outs = [_join(box)["result"] for box in boxes]
            pids = {s["pid"] for out in outs
                    for s in svc.get_trace(out.trace_id)["spans"]
                    if s["name"] == "engine.round"}
        assert gate.peak == 2
        assert len(pids) == 2 and os.getpid() not in pids
        for out, seed in zip(outs, (1, 2, 3)):
            assert out.result == _standalone(_path_spec(seed), _graph())

    @pytest.mark.parametrize("failure, joiner_sees", [
        (RuntimeError("synthetic failure"), RuntimeError),
        (KeyboardInterrupt(), ServiceError),  # the interrupt is the leader's
    ])
    def test_a_failing_leader_fails_its_joiners(self, monkeypatch, failure,
                                                joiner_sees):
        gate = _Gate(monkeypatch, fail=failure)
        with DetectionService(metrics=MetricsRegistry()) as svc:
            svc.register_graph(_graph(), name="g")
            leader = _in_thread(lambda: svc.query(_path_spec(1), tenant="a"))
            assert gate.entered.acquire(timeout=10)
            joiners = [_in_thread(lambda: svc.query(_path_spec(1), tenant="b"))
                       for _ in range(2)]
            _wait_for(lambda: svc.broker.stats["coalesced"] == 2)
            gate.release.set()
            assert type(_join(leader)["error"]) is type(failure)
            for box in joiners:
                assert isinstance(_join(box)["error"], joiner_sees)
            assert svc.broker.stats["errors"] == 1  # one execution failed
            assert svc.broker.describe()["inflight"] == {}
            monkeypatch.setattr(broker_mod, "dispatch", gate.real)
            assert svc.query(_path_spec(1)).payload["ok"]  # nothing cached

    def test_close_waits_for_the_query_in_flight(self, monkeypatch):
        gate = _Gate(monkeypatch)
        svc = DetectionService(metrics=MetricsRegistry()).start()
        svc.register_graph(_graph(), name="g")
        query = _in_thread(lambda: svc.query(_path_spec(1)))
        assert gate.entered.acquire(timeout=10)
        closing = _in_thread(svc.close)
        _wait_for(lambda: svc.broker._closed)
        closing["thread"].join(timeout=0.2)
        assert closing["thread"].is_alive()  # still waiting for the query
        with pytest.raises(ServiceError, match="closed"):
            svc.broker.submit(_path_spec(2))  # and admitting nothing new
        gate.release.set()
        assert _join(query)["result"].payload["ok"]
        assert "error" not in _join(closing)
        assert svc.broker.stats["sweeps"] >= 1
        assert svc.broker.describe()["pending_sweep"] == 0  # final sweep ran

    def test_timeout_bounds_the_slot_wait_and_a_coalesced_join(
            self, monkeypatch):
        gate = _Gate(monkeypatch)
        with DetectionService(workers=1, metrics=MetricsRegistry()) as svc:
            svc.register_graph(_graph(), name="g")
            holder = _in_thread(lambda: svc.query(_path_spec(1)))
            assert gate.entered.acquire(timeout=10)
            t0 = time.monotonic()
            with pytest.raises(ServiceError, match="timed out after 0.1s"):
                svc.query(_path_spec(1), timeout=0.1)  # joins the holder
            with pytest.raises(ServiceError, match="timed out after 0.1s"):
                svc.query(_path_spec(2), timeout=0.1)  # queues behind it
            assert time.monotonic() - t0 < 5
            assert svc.broker.describe()["inflight"] == {"default": 1}
            gate.release.set()
            assert _join(holder)["result"].payload["ok"]

    def test_timeout_becomes_the_watchdog_deadline(self):
        """An execution that overruns its caller's timeout comes back as
        the watchdog's degraded partial answer with its stage's
        ``(1 - p)^rounds`` bound; that answer is not cached, so the same
        query asked again with time to spare is computed in full."""
        before = _service_threads()
        with DetectionService(metrics=MetricsRegistry()) as svc:
            # the 50 rounds must outlast the 0.1 s timeout: ~0.4 s compiled
            svc.register_graph(_cliques(400), name="g")
            spec = QuerySpec(kind="detect-path", graph="g", k=10, eps=1e-6,
                             seed={"seed": 1})  # 50 rounds, witness-free
            cut = svc.query(spec, timeout=0.1)
            degraded = cut.result["details"]["degraded"]
            assert degraded["reason"] == "deadline"
            assert cut.result["rounds_run"] == degraded["rounds_completed"] < 50
            p = round_success_bound(10, field_degree_for_k(10), 10)
            assert degraded["p_failure_bound"] == float(
                (1 - p) ** cut.result["rounds_run"])
            assert svc.broker.describe()["cache_entries"] == 0
            assert _service_threads() == ["midas-service-sweep"]  # no watchdog
            full = svc.query(spec)
            assert not full.cache_hit and not full.coalesced
            assert full.result["rounds_run"] == 50
            assert "degraded" not in full.result["details"]
            assert full.result["round_values"][:cut.result["rounds_run"]] == \
                cut.result["round_values"]
            assert svc.query(spec).cache_hit
        assert _service_threads() == before

    def test_many_threads_lose_no_update(self):
        """More client threads than cores on a short switch interval: every
        query is accounted for exactly once, identical queries agree, and
        nothing is left in flight."""
        n_threads, per_thread = 8, 12
        outcomes, errors = [], []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with DetectionService(quota=2, workers=3,
                                  metrics=MetricsRegistry()) as svc:
                svc.register_graph(_graph(), name="g")

                def client(c):
                    for i in range(per_thread):
                        spec = _path_spec((c + i) % 5)
                        try:
                            out = svc.query(spec, tenant=f"t{c % 3}")
                        except QuotaExceededError as exc:
                            errors.append(exc)
                        else:
                            outcomes.append((spec.seed["seed"], out))

                boxes = [_in_thread(lambda c=c: client(c))
                         for c in range(n_threads)]
                for box in boxes:
                    box["thread"].join(timeout=120)
                    assert not box["thread"].is_alive()
                    assert "error" not in box
                stats = svc.broker.describe()
        finally:
            sys.setswitchinterval(interval)
        assert len(outcomes) + len(errors) == n_threads * per_thread
        assert stats["inflight"] == {}
        counted = stats["stats"]
        assert counted["rejected"] == len(errors)
        assert counted["cache_hits"] == sum(o.cache_hit for _, o in outcomes)
        assert counted["coalesced"] == sum(o.coalesced for _, o in outcomes)
        assert (counted["queries"] + counted["cache_hits"]
                + counted["coalesced"]) == len(outcomes)
        by_seed = {}
        for seed, out in outcomes:
            assert by_seed.setdefault(seed, out.result) == out.result


def _census():
    return (sorted(glob.glob("/dev/shm/psm_*")), sorted(_service_threads()),
            threading.active_count(), len(multiprocessing.active_children()))


def _crashes():
    return [e for e in get_flight_recorder().events()
            if e["kind"] == "worker_crash"]


class TestFleet:
    """The fleet's own contract: who answers, what a worker's death or an
    interrupted caller costs, and what is left after ``close()``."""

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_is_refused(self, workers):
        with pytest.raises(ConfigurationError, match="workers"):
            QueryBroker(GraphRegistry(), metrics=MetricsRegistry(),
                        workers=workers)

    def test_a_released_slot_goes_to_whoever_waited_longest(self):
        """Never back to the thread that gave it up while someone is in
        line (left up for grabs, the releasing thread asks again before
        the one it woke holds the GIL, and a busy service's second client
        waits seconds); a caller that times out leaves the line."""
        fleet = QueryFleet(1)
        try:
            held = fleet.acquire()
            order, go = [], threading.Event()

            def wait_in_line(name):
                slot = fleet.acquire(timeout=30)
                assert slot is held
                order.append(name)
                assert go.wait(timeout=30)
                fleet.release(slot)

            boxes = []
            for name in "abc":
                boxes.append(_in_thread(lambda name=name: wait_in_line(name)))
                _wait_for(lambda: len(fleet._waiting) == len(boxes))
            assert fleet.acquire(timeout=0.05) is None  # timed out, left
            assert len(fleet._waiting) == 3
            fleet.release(held)
            assert fleet.acquire(timeout=0) is None  # handed over, not free
            go.set()
            for box in boxes:
                assert "error" not in _join(box)
            assert order == ["a", "b", "c"]
            assert fleet.acquire(timeout=0) is held  # nobody left: idle again
        finally:
            fleet.close()
        assert not multiprocessing.active_children()  # holding forks nothing

    def test_default_workers_are_the_cpus_this_process_may_use(self):
        broker = QueryBroker(GraphRegistry(), metrics=MetricsRegistry())
        try:
            assert broker._fleet.workers == MidasRuntime().get_workers()
        finally:
            broker.close()

    @pytest.mark.parametrize("mode", ["sequential", "simulated"])
    def test_served_replies_equal_a_standalone_run(self, mode):
        g = _graph(seed=4)
        config = {"mode": mode}
        if mode == "simulated":
            config.update(n_processors=4, n1=2)
        specs = [
            QuerySpec(kind="detect-path", graph="g", k=4, eps=0.25,
                      seed={"seed": 41}),
            QuerySpec(kind="detect-tree", graph="g", k=4, eps=0.25,
                      seed={"seed": 42}, template="binary"),
            QuerySpec(kind="scan", graph="g", k=3, eps=0.25, seed={"seed": 43},
                      weights=tuple(i % 2 for i in range(g.n))),
        ]
        with DetectionService(workers=2, metrics=MetricsRegistry(),
                              runtime_config=config) as svc:
            entry = svc.register_graph(g, name="g")
            boxes = [_in_thread(lambda s=s: svc.query(s)) for s in specs]
            served = [_join(box)["result"] for box in boxes]
        for spec, out in zip(specs, served):
            alone, _ = execute_query(spec, entry,
                                     MidasRuntime(metrics=MetricsRegistry(),
                                                  **config))
            assert canonical_result(out.payload) == canonical_result(alone)
            assert out.payload["runtime"]["mode"] == mode

    def test_close_leaves_no_worker_segment_or_thread(self):
        before = _census()
        svc = DetectionService(workers=2, metrics=MetricsRegistry()).start()
        svc.register_graph(_graph(seed=1), name="one")
        svc.register_graph(_graph(seed=2), name="two")

        def ask(graph, seed):
            return svc.query(QuerySpec(kind="detect-path", graph=graph, k=4,
                                       eps=0.3, seed={"seed": seed}))

        assert ask("one", 1).payload["ok"]  # the first worker starts
        gate = threading.Barrier(2)

        def ask_two_at_once(seed):
            gate.wait(timeout=10)
            return ask("two", seed)

        boxes = [_in_thread(lambda s=s: ask_two_at_once(s)) for s in (2, 3)]
        for box in boxes:
            assert _join(box)["result"].payload["ok"]
        assert len(multiprocessing.active_children()) == 2
        assert glob.glob("/dev/shm/psm_*")  # the graphs reached them here
        svc.close()
        assert _census() == before

    def test_a_workers_session_shows_in_api_service_and_the_gauge(self):
        """``/api/service`` lists the engine session each worker answered
        on, under that worker's pid, and the ``midas_service_sessions``
        gauge counts it; a worker that dies takes its session along."""
        with DetectionService(workers=1, metrics=MetricsRegistry()) as svc:
            svc.register_graph(_graph(), name="g")
            svc.query(_path_spec(1))
            svc.query(_path_spec(2))
            (worker,) = multiprocessing.active_children()
            svc.serve(0)
            svc.sweep_now()
            (graph,) = HttpClient(svc.url).service_info()["graphs"]
            (session,) = graph["sessions"]
            assert session["pid"] == worker.pid and session["uses"] == 2
            assert svc.metrics.snapshot().get("midas_service_sessions") == 1
            os.kill(worker.pid, signal.SIGKILL)
            worker.join()
            assert svc.query(_path_spec(3)).payload["ok"]  # on a new worker
            svc.sweep_now()
            (session,) = svc.registry.describe()[0]["sessions"]
            assert session["pid"] != worker.pid and session["uses"] == 1
            assert svc.metrics.snapshot().get("midas_service_sessions") == 1

    def test_a_worker_killed_mid_query_costs_one_retry(self):
        g = _cliques(3000)  # the rounds must outlast the 0.3 s before the kill
        spec = QuerySpec(kind="detect-path", graph="g", k=10, eps=0.05,
                         seed={"seed": 3})  # 11 witness-free rounds, ~1.2 s
        reference = _standalone(spec, g)
        before = _census()
        reset_flight_recorder()
        svc = DetectionService(workers=1, metrics=MetricsRegistry()).start()
        try:
            svc.register_graph(g, name="g")
            box = _in_thread(lambda: svc.query(spec))
            _wait_for(lambda: multiprocessing.active_children())
            (victim,) = multiprocessing.active_children()
            time.sleep(0.3)  # inside its rounds
            assert box["thread"].is_alive()
            os.kill(victim.pid, signal.SIGKILL)
            out = _join(box)["result"]
            assert out.result == reference  # the retry is bit-identical
            assert len(_crashes()) == 1
            assert [p.pid for p in multiprocessing.active_children()] != [
                victim.pid]
            assert svc.query(spec).cache_hit
        finally:
            svc.close()
        assert _census() == before

    def test_a_second_death_fails_leader_and_joiners_and_caches_nothing(
            self, monkeypatch):
        # every worker forked from here on dies at its first call
        monkeypatch.setenv("REPRO_TEST_CRASH_WORKER", "1")
        before = _census()
        reset_flight_recorder()
        gate = _Gate(monkeypatch)
        with DetectionService(workers=1, metrics=MetricsRegistry()) as svc:
            svc.register_graph(_graph(), name="g")
            leader = _in_thread(lambda: svc.query(_path_spec(1), tenant="a"))
            assert gate.entered.acquire(timeout=10)
            joiners = [_in_thread(lambda: svc.query(_path_spec(1), tenant="b"))
                       for _ in range(2)]
            _wait_for(lambda: svc.broker.stats["coalesced"] == 2)
            gate.release.set()
            for box in [leader, *joiners]:
                assert isinstance(_join(box)["error"], WorkerCrashedError)
            assert len(_crashes()) == 1  # the first death; the second raised
            assert svc.broker.describe()["cache_entries"] == 0
            assert svc.broker.describe()["inflight"] == {}
            monkeypatch.delenv("REPRO_TEST_CRASH_WORKER")
            out = svc.query(_path_spec(1))  # a new worker, computed afresh
            assert not out.cache_hit
            assert out.result == _standalone(_path_spec(1), _graph())
        assert _census() == before

    def test_an_interrupted_caller_cancels_its_query_between_two_windows(self):
        """Ctrl-C while the caller waits: the query is cancelled on its
        worker, which stops at its next window and replies; the worker is
        idle again and answers the next query."""
        if threading.current_thread() is not threading.main_thread():
            pytest.skip("signals reach the main thread only")
        spec = QuerySpec(kind="detect-path", graph="g", k=10, eps=1e-6,
                         seed={"seed": 1})  # 62 witness-free rounds, ~4 s
        with DetectionService(workers=1, metrics=MetricsRegistry()) as svc:
            svc.register_graph(_cliques(1000), name="g")
            assert svc.query(_path_spec(1)).payload["ok"]  # the worker is up
            (worker,) = multiprocessing.active_children()
            interrupt = threading.Timer(0.3, signal.pthread_kill,
                                        (threading.get_ident(), signal.SIGINT))
            t0 = time.monotonic()
            interrupt.start()
            with pytest.raises(KeyboardInterrupt):
                svc.query(spec)
            stopped = time.monotonic() - t0
            interrupt.join()
            assert stopped < 1.5
            assert svc.broker.describe()["inflight"] == {}
            out = svc.query(_path_spec(2))
            assert multiprocessing.active_children() == [worker]
            assert {s["pid"] for s in svc.get_trace(out.trace_id)["spans"]
                    if s["name"] == "engine.round"} == {worker.pid}


# ------------------------------------------------------------ worker heaps
# The allocator policy is the level-DP core's (tests/test_heap_policy.py
# bounds the faults it saves); what is left here is that the broker
# serves the same bits whether or not the C library has ``mallopt``.


class TestWorkerHeaps:
    def test_reports_whether_glibc_took_the_thresholds(self):
        first = leveldp.retain_worker_heaps()
        assert first is (platform.libc_ver()[0] == "glibc")
        assert leveldp.retain_worker_heaps() is first

    @pytest.mark.parametrize("libc", ["missing", "no mallopt"])
    def test_off_glibc_is_false_and_the_broker_still_serves(self, monkeypatch,
                                                            libc):
        def cdll(name):
            if libc == "missing":
                raise OSError("no C library to load")
            return object()  # musl, macOS: a libc without mallopt

        spec = QuerySpec(kind="detect-path", graph="g", k=5, seed={"seed": 3})
        reference = _standalone(spec, _graph())
        monkeypatch.setattr(leveldp.ctypes, "CDLL", cdll)
        # as in a process that has not run a level step yet
        monkeypatch.setattr(leveldp, "_heaps_retained", None)
        assert leveldp.retain_worker_heaps() is False
        assert _standalone(spec, _graph()) == reference
        assert leveldp._heaps_retained is False
        registry = GraphRegistry()
        registry.register(_graph(), name="g")
        broker = QueryBroker(registry, metrics=MetricsRegistry(), workers=1)
        try:
            out = broker.submit(spec)
        finally:
            broker.close()
        assert out.result == reference


# ------------------------------------------------------- sweep + records


class TestSweepRecords:
    def test_sweep_appends_service_run_records(self, tmp_path):
        store_path = tmp_path / "runs.jsonl"
        # the coordinator must not sweep between the queries and sweep_now:
        # at the default 50 ms interval it did, now and then, and the one
        # sweep counted below found fewer than three records
        with DetectionService(metrics=MetricsRegistry(), sweep_interval=3600.0,
                              store_path=str(store_path)) as svc:
            svc.register_graph(_graph(), name="g")
            for seed in (1, 2, 3):
                svc.query(QuerySpec(kind="detect-path", graph="g", k=4,
                                    eps=0.3, seed={"seed": seed}),
                          tenant="rec")
            swept = svc.sweep_now()
            assert swept["records"] == 3
        records = RunStore(str(store_path)).load()
        service_recs = [r for r in records
                        if r.scenario.startswith("service:detect-path:g:k4")]
        assert len(service_recs) == 3
        assert all(r.meta["tenant"] == "rec" for r in service_recs)
        assert all(r.values["rounds"] > 0 for r in service_recs)


# ------------------------------------------------------------ HTTP layer


class TestHttpTransport:
    def test_http_query_bit_identical_to_local_and_standalone(self):
        g = _graph(seed=7)
        spec_d = {"kind": "detect-path", "graph": "g", "k": 4, "eps": 0.25,
                  "seed": 17}
        ref = _standalone(QuerySpec.from_dict(spec_d), g)
        before = _service_threads()
        with DetectionService(metrics=MetricsRegistry()) as svc:
            port = svc.serve(0)
            http = HttpClient(f"http://127.0.0.1:{port}")
            sha = http.register_graph(g, name="g")
            assert sha == graph_sha(g)  # upload round-trips canonically
            remote = http.query(spec_d)
            local = svc.query(QuerySpec.from_dict(spec_d))
            assert canonical_result(remote.payload) == ref
            assert canonical_result(local.payload) == ref
            assert local.cache_hit  # identical query, shared cache
            status = http.status()
            assert status["state"] == "serving"
            assert status["graphs"] == 1
            info = http.service_info()
            assert info["ok"] and info["graphs"][0]["sha"] == sha
        assert _service_threads() == before

    def test_server_side_er_generation_matches_local(self):
        g = erdos_renyi(80, m=200, rng=RngStream(9, name="service-er"))
        with DetectionService(metrics=MetricsRegistry()) as svc:
            http = HttpClient(f"http://127.0.0.1:{svc.serve(0)}")
            sha = http.register_er(80, m=200, seed=9, name="gen")
            assert sha == graph_sha(g)

    def test_http_error_mapping(self):
        with DetectionService(metrics=MetricsRegistry()) as svc:
            http = HttpClient(f"http://127.0.0.1:{svc.serve(0)}")
            with pytest.raises(UnknownGraphError):
                http.query({"kind": "detect-path", "graph": "ghost", "k": 3})
            with pytest.raises(ConfigurationError):
                http.query({"kind": "detect-path", "graph": "ghost", "k": 0})
            with pytest.raises(ServiceError):
                HttpClient("http://127.0.0.1:9").status()  # unreachable
        with pytest.raises(ConfigurationError):
            HttpClient("ftp://x")

    def test_k_beyond_the_schedule_refused_at_admission(self):
        """A k no schedule runs is a 400 before any quota, queue or fork."""
        with DetectionService(metrics=MetricsRegistry()) as svc:
            http = HttpClient(f"http://127.0.0.1:{svc.serve(0)}")
            http.register_er(40, m=80, seed=3, name="er")
            for k in (MAX_K + 1, 64):
                with pytest.raises(ConfigurationError, match=f"k must be in \\[1, {MAX_K}\\]"):
                    http.query({"kind": "detect-path", "graph": "er", "k": k})
            assert svc.broker.stats["errors"] == 0
            assert svc.broker._fleet.pids() == set()

    @pytest.mark.parametrize("query, match", [
        ({"statistic": "berk-jones", "alpha": 1.5}, "alpha must be in \\(0, 1\\)"),
        ({"statistic": "higher-criticism", "alpha": 0.0}, "alpha must be in \\(0, 1\\)"),
        ({"statistic": "elevated-mean", "alpha": 0.0}, "baseline_per_node must be > 0"),
        ({"weights": [1] * 11}, "weights must have length n=12"),
        ({"k": 13}, "k must be in \\[1, 12\\] on this graph"),
    ], ids=["berk-jones-alpha", "higher-criticism-alpha", "elevated-mean-baseline",
            "weights-length", "k-above-n"])
    def test_scan_that_can_only_fail_refused_at_admission(self, query, match):
        """A scan query no worker can answer (or one that would score
        every graph 0.0) is a 400 before any quota, queue or fork."""
        with DetectionService(metrics=MetricsRegistry()) as svc:
            http = HttpClient(f"http://127.0.0.1:{svc.serve(0)}")
            http.register_er(12, m=20, seed=3, name="er")
            with pytest.raises(ConfigurationError, match=match):
                http.query({"kind": "scan", "graph": "er", "k": 3, **query})
            assert svc.broker.stats["errors"] == 0
            assert svc.broker._fleet.pids() == set()

    def test_http_quota_maps_to_429(self, monkeypatch):
        real = broker_mod.dispatch
        started, release = threading.Event(), threading.Event()

        def slow(*args):
            started.set()
            assert release.wait(timeout=30)
            return real(*args)

        monkeypatch.setattr(broker_mod, "dispatch", slow)
        svc = DetectionService(quota=1, metrics=MetricsRegistry())
        try:
            svc.register_graph(_graph(), name="g")
            http = HttpClient(f"http://127.0.0.1:{svc.serve(0)}")
            holder = threading.Thread(target=lambda: http.query(
                {"kind": "detect-path", "graph": "g", "k": 4, "seed": 1},
                tenant="t"))
            holder.start()
            assert started.wait(timeout=10)
            with pytest.raises(QuotaExceededError, match="quota|in-flight"):
                http.query({"kind": "detect-path", "graph": "g", "k": 4,
                            "seed": 2}, tenant="t")
            release.set()
            holder.join(timeout=30)
        finally:
            svc.close()


# --------------------------------------------------------- acceptance smoke


class TestServiceSmoke:
    def test_eight_concurrent_clients_two_graphs_two_tenants(self, tmp_path):
        """The acceptance scenario end to end: 8 concurrent HTTP clients,
        two graphs, two tenants, mixed query kinds — every reply
        bit-identical to its standalone reference, service metrics
        scraped from the live endpoint, records swept to the store, and
        a leak-free shutdown."""
        g1, g2 = _graph(seed=11), _graph(seed=12)
        n = g1.n
        specs = []
        for i in range(8):
            seed = {"seed": 500 + i}
            graph = "alpha" if i % 2 == 0 else "beta"
            if i % 3 == 0:
                specs.append(QuerySpec(kind="detect-path", graph=graph, k=4,
                                       eps=0.25, seed=seed))
            elif i % 3 == 1:
                specs.append(QuerySpec(kind="detect-tree", graph=graph, k=4,
                                       eps=0.25, seed=seed, template="star"))
            else:
                specs.append(QuerySpec(
                    kind="scan", graph=graph, k=3, eps=0.25, seed=seed,
                    weights=tuple((i + j) % 3 for j in range(n))))
        refs = [_standalone(s, g1 if s.graph == "alpha" else g2)
                for s in specs]

        before = _service_threads()
        store_path = tmp_path / "smoke.jsonl"
        svc = DetectionService(quota=8, workers=8,
                               metrics=MetricsRegistry(),
                               store_path=str(store_path))
        try:
            svc.register_graph(g1, name="alpha")
            svc.register_graph(g2, name="beta")
            port = svc.serve(0)
            results = [None] * len(specs)
            errors = []
            gate = threading.Barrier(len(specs))

            def run(i):
                try:
                    gate.wait(timeout=10)
                    client = HttpClient(f"http://127.0.0.1:{port}")
                    tenant = "tenant-a" if i % 2 == 0 else "tenant-b"
                    results[i] = client.query(specs[i], tenant=tenant)
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append((i, exc))

            threads = [threading.Thread(target=run, args=(i,))
                       for i in range(len(specs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=300)
            assert not errors
            for out, ref in zip(results, refs):
                assert canonical_result(out.payload) == ref

            text = HttpClient(f"http://127.0.0.1:{port}").metrics_text()
            assert "midas_service_queries_total" in text
            assert "midas_service_inflight" in text
            svc.sweep_now()
            assert svc.broker.stats["queries"] == len(specs)
        finally:
            # the coordinator may be mid-sweep here (drained, not yet
            # counted), so the records are counted in the store after close
            svc.close()
        assert _service_threads() == before
        records = RunStore(str(store_path)).load()
        assert len([r for r in records
                    if r.scenario.startswith("service:")]) == len(specs)
        tenants = {r.meta["tenant"] for r in records}
        assert tenants == {"tenant-a", "tenant-b"}
