"""End-to-end query tracing, per-tenant SLOs, and the flight recorder.

The acceptance bar from the tracing design: a client query against a
``mode="process"`` engine yields ONE spliced timeline with
client->broker->engine->worker spans carrying distinct pids; broker
stage spans tile the measured latency; per-tenant SLO histograms carry
exemplar trace ids and survive Prometheus exposition for hostile
tenant names; worker-side metric increments land in the parent run
registry exactly once (with or without tracing); and crashes leave a
flight-recorder dump.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time

import pytest

from repro.core.engine import MidasRuntime
from repro.core.midas import detect_path
from repro.errors import ConfigurationError, SanitizerError, WorkerCrashedError
from repro.graph.generators import erdos_renyi, plant_path
from repro.obs.chrome_trace import trace_to_chrome, validate_chrome_trace
from repro.obs.metrics import MetricsRegistry, merge_into, snapshot_delta
from repro.obs.qtrace import (
    FlightRecorder,
    QueryTracer,
    Span,
    TraceContext,
    get_flight_recorder,
    render_timeline,
    reset_flight_recorder,
)
from repro.service import DetectionService, LocalClient, QuerySpec, canonical_result
from repro.util.rng import RngStream


def _graph(seed=1, n=80, m=240, k=4):
    g, _ = plant_path(erdos_renyi(n, m, rng=RngStream(seed)), k,
                      rng=RngStream(seed + 50))
    g.name = ""
    return g


# ---------------------------------------------------------------------------
# TraceContext
# ---------------------------------------------------------------------------


class TestTraceContext:
    def test_mint_and_traceparent_roundtrip(self):
        ctx = TraceContext.mint()
        assert re.fullmatch(r"[0-9a-f]{32}", ctx.trace_id)
        assert re.fullmatch(r"[0-9a-f]{16}", ctx.span_id)
        back = TraceContext.from_traceparent(ctx.to_traceparent())
        assert back.trace_id == ctx.trace_id
        assert back.span_id == ctx.span_id

    def test_child_keeps_trace_and_links_parent(self):
        ctx = TraceContext.mint()
        kid = ctx.child()
        assert kid.trace_id == ctx.trace_id
        assert kid.parent_id == ctx.span_id
        assert kid.span_id != ctx.span_id

    @pytest.mark.parametrize("bad", [
        "",
        "not-a-traceparent",
        "00-zzzz-aaaa-01",
        "00-" + "0" * 32 + "-" + "1" * 16 + "-01",   # all-zero trace id
        "00-" + "1" * 32 + "-" + "0" * 16 + "-01",   # all-zero span id
        "00-" + "1" * 31 + "-" + "2" * 16 + "-01",   # short trace id
        "ff-" + "1" * 32 + "-" + "2" * 16 + "-01",   # reserved version
    ])
    def test_malformed_traceparent_rejected(self, bad):
        with pytest.raises(ValueError):
            TraceContext.from_traceparent(bad)


# ---------------------------------------------------------------------------
# QueryTrace / QueryTracer
# ---------------------------------------------------------------------------


class TestQueryTraceSpans:
    def _trace(self, tenant="t"):
        return QueryTracer(MetricsRegistry()).begin(TraceContext.mint(),
                                                    tenant=tenant)

    def test_span_context_manager_records_duration(self):
        qt = self._trace()
        with qt.span("broker.total", lane="broker") as h:
            time.sleep(0.002)
            h.tag(k=5)
        (sp,) = qt.spans()
        assert sp.name == "broker.total" and sp.tags["k"] == 5
        assert sp.duration >= 0.002

    def test_open_spans_snapshot_for_crash_dumps(self):
        qt = self._trace()
        h = qt.span("broker.execute")
        snap = qt.open_spans()
        assert len(snap) == 1 and snap[0].tags.get("open") is True
        h.finish()
        assert qt.open_spans() == []

    def test_add_spans_rewrites_trace_and_reparents_orphans(self):
        qt = self._trace()
        n = qt.add_spans([
            {"span_id": "aa" * 8, "parent_id": None, "name": "worker.kernel",
             "t_start": 1.0, "t_end": 2.0, "pid": 999, "lane": "worker-999",
             "trace_id": ""},
        ])
        assert n == 1
        (sp,) = qt.spans()
        assert sp.trace_id == qt.trace_id
        assert sp.parent_id == qt.ctx.span_id  # orphan hangs off the root

    def test_stage_walls_sum_broker_spans(self):
        qt = self._trace()
        qt.add_span("broker.queue", 0.0, 0.25, lane="broker")
        qt.add_span("broker.execute", 0.25, 1.0, lane="broker")
        qt.add_span("engine.round", 0.3, 0.9, lane="engine")
        walls = qt.stage_walls()
        assert walls == pytest.approx({"queue": 0.25, "execute": 0.75})

    def test_tracer_stores_bounded_and_deep_copies(self):
        tracer = QueryTracer(MetricsRegistry(), capacity=2)
        ids = []
        for _ in range(3):
            qt = tracer.begin(TraceContext.mint())
            tracer.finish(qt, outcome="ok")
            ids.append(qt.trace_id)
        assert tracer.get(ids[0]) is None  # LRU-evicted
        doc = tracer.get(ids[2])
        doc["spans"].append("mutation")
        assert tracer.get(ids[2])["spans"] == []  # store unharmed

    def test_ingest_skips_duplicates_and_reparents(self):
        tracer = QueryTracer(MetricsRegistry())
        qt = tracer.begin(TraceContext.mint())
        with qt.span("broker.total"):
            pass
        tracer.finish(qt, outcome="ok")
        client = {"span_id": "cc" * 8, "parent_id": "ff" * 8,
                  "name": "client.request", "t_start": 0.0, "t_end": 1.0,
                  "pid": 1, "lane": "client", "trace_id": ""}
        assert tracer.ingest(qt.trace_id, [client, client]) == 1
        doc = tracer.get(qt.trace_id)
        got = [s for s in doc["spans"] if s["name"] == "client.request"]
        assert len(got) == 1
        assert got[0]["parent_id"] == doc["root_span_id"]
        assert tracer.ingest("0" * 32, [client]) == 0  # unknown trace

    def test_span_ids_are_counted_not_drawn(self, monkeypatch):
        """Spans minted inside the service cost no syscall: 16 hex digits
        from the trace's counter, unique; only client-boundary contexts
        are random.  Splicing still de-duplicates and re-parents."""
        tracer = QueryTracer(MetricsRegistry())
        qt = tracer.begin(TraceContext.mint())
        drawn = []
        monkeypatch.setattr(os, "urandom",
                            lambda n: drawn.append(n) or b"\0" * n)
        for i in range(5000):
            with qt.span("engine.round", round=i):
                qt.add_span("engine.kernel", 0.0, 1.0, lane="w")
        assert drawn == []
        ids = [sp.span_id for sp in qt.spans()]
        assert len(set(ids)) == len(ids) == 10_000
        assert all(re.fullmatch(r"[0-9a-f]{16}", i) for i in ids)

        client = {"span_id": "cc" * 8, "parent_id": "ff" * 8,
                  "name": "client.request", "t_start": 0.0, "t_end": 1.0,
                  "pid": 1, "lane": "client", "trace_id": ""}
        echo = dict(client, span_id=ids[0], name="client.echo")
        child = dict(client, span_id="dd" * 8, parent_id="cc" * 8)
        # listed child-first: the parent arrives in the same batch
        assert qt.add_spans([child, client, echo, client, {"junk": 1}]) == 2
        by_id = {sp.span_id: sp for sp in qt.spans()}
        assert len(by_id) == 10_002 and by_id[ids[0]].name != "client.echo"
        assert by_id["cc" * 8].parent_id == qt.ctx.span_id
        assert by_id["dd" * 8].parent_id == "cc" * 8
        tracer.finish(qt, outcome="ok")
        assert tracer.ingest(qt.trace_id, [client, child, echo]) == 0
        late = dict(client, span_id="ee" * 8, parent_id="dd" * 8)
        assert tracer.ingest(qt.trace_id, [late, late]) == 1
        assert drawn == []

    def test_finish_outcomes_feed_tenant_slos(self):
        tracer = QueryTracer(MetricsRegistry())
        for outcome in ("ok", "cache_hit", "quota", "error"):
            qt = tracer.begin(TraceContext.mint(), tenant="acme")
            tracer.finish(qt, outcome=outcome)
        slos = tracer.tenant_slos()["acme"]
        assert slos["queries"] == 4
        assert slos["cache_hits"] == 1
        assert slos["rejected"] == 1
        assert slos["errors"] == 2  # quota + error


class TestRenderTimeline:
    def test_large_document_renders_in_linear_time(self):
        """2 000 spans, 40 rounds of 49 windows under one stage: depths
        come from one walk of the parent index, not one index per span."""
        spans = [{"span_id": "stage", "parent_id": None, "name": "engine.stage",
                  "t_start": 0.0, "t_end": 40.0, "pid": 1, "lane": "engine"}]
        for r in range(40):
            spans.append({"span_id": f"r{r}", "parent_id": "stage",
                          "name": "engine.round", "t_start": float(r),
                          "t_end": r + 1.0, "pid": 1, "lane": "main"})
            spans.extend({"span_id": f"r{r}w{w}", "parent_id": f"r{r}",
                          "name": "worker.kernel", "t_start": r + w / 50,
                          "t_end": r + (w + 1) / 50, "pid": 2 + w % 2,
                          "lane": f"worker-{2 + w % 2}"} for w in range(49))
        doc = {"trace_id": "t", "tenant": "acme", "outcome": "ok",
               "spans": spans}
        assert len(spans) == 2001
        t0 = time.perf_counter()
        text = render_timeline(doc)
        assert time.perf_counter() - t0 < 0.5
        lines = text.splitlines()
        assert len(lines) == 2001 + 3  # header, column heads, total
        assert lines[2].lstrip().startswith("engine.stage")
        assert lines[3].startswith("    engine.round")
        assert lines[4].startswith("      worker.kernel")
        assert lines[-1].endswith("across 2001 spans, 3 process(es)")


# ---------------------------------------------------------------------------
# Flight recorder
# ---------------------------------------------------------------------------


class TestFlightRecorder:
    def test_ring_is_bounded(self):
        rec = FlightRecorder(capacity=4)
        for i in range(10):
            rec.record("evt", i=i)
        events = rec.events()
        assert len(events) == 4
        assert [e["i"] for e in events] == [6, 7, 8, 9]

    def test_dump_without_dir_stays_in_memory(self, monkeypatch):
        monkeypatch.delenv("REPRO_FLIGHT_DIR", raising=False)
        rec = FlightRecorder()
        rec.record("watchdog_trip", round=3)
        assert rec.dump("watchdog_trip") is None
        assert rec.last_dump["reason"] == "watchdog_trip"
        assert rec.last_dump["events"][0]["round"] == 3

    def test_dump_with_dir_writes_json(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path))
        rec = FlightRecorder()
        rec.record("worker_crash", round=1)
        path = rec.dump("worker_crash", extra={"open_spans": []})
        assert path is not None and os.path.exists(path)
        snap = json.loads(open(path).read())
        assert snap["reason"] == "worker_crash"
        assert snap["open_spans"] == []
        assert snap["events"][0]["kind"] == "worker_crash"

    def test_process_global_singleton(self):
        reset_flight_recorder()
        assert get_flight_recorder() is get_flight_recorder()

    def test_graph_registration_is_recorded(self):
        reset_flight_recorder()
        svc = DetectionService()
        try:
            svc.registry.register(_graph(seed=77), name="flight-g")
        finally:
            svc.close()
        kinds = [e["kind"] for e in get_flight_recorder().events()]
        assert "graph_registered" in kinds


# ---------------------------------------------------------------------------
# Worker metric deltas (satellite: lost worker-side increments)
# ---------------------------------------------------------------------------


class TestWorkerMetricsMerge:
    def test_snapshot_delta_and_merge_roundtrip(self):
        a = MetricsRegistry()
        a.counter("c_total", "c").labels(x="1").inc(2)
        h = a.histogram("h_seconds", "h", buckets=[0.1, 1.0])
        h.observe(0.05)
        base = a.snapshot()
        a.counter("c_total").labels(x="1").inc(3)
        h.observe(0.5)
        delta = snapshot_delta(a.snapshot(), base)
        assert delta, "changed registry must produce a delta"

        b = MetricsRegistry()
        merge_into(b, delta)
        text = b.snapshot().to_prometheus()
        assert 'c_total{x="1"} 3' in text
        assert 'h_seconds_bucket{le="1"} 1' in text
        assert "h_seconds_count 1" in text

    def test_unchanged_registry_produces_empty_delta(self):
        reg = MetricsRegistry()
        reg.counter("c_total", "c").inc()
        snap = reg.snapshot()
        assert snapshot_delta(reg.snapshot(), snap) == []

    def test_process_run_lands_worker_metrics_in_parent_registry(self):
        """Regression: worker-side increments used to vanish with the
        worker process.  A plain mode='process' run (no tracing, no
        service) must land them in the parent's run registry."""
        reg = MetricsRegistry()
        rt = MidasRuntime(mode="process", workers=2, metrics=reg)
        detect_path(_graph(seed=3), 3, runtime=rt)
        text = reg.snapshot().to_prometheus()
        m = re.search(r"^midas_worker_phases_total (\d+)", text, re.M)
        assert m, "worker phase counter missing from the parent registry"
        assert int(m.group(1)) >= 1


# ---------------------------------------------------------------------------
# Prometheus exposition: exemplars + hostile tenant labels (satellite)
# ---------------------------------------------------------------------------

_LABEL_BLOCK = r'(?:[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*",?)*'
_LINE = re.compile(
    r'^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)'
    r'(?:\{(?P<labels>' + _LABEL_BLOCK + r')\})? '
    r'(?P<value>[^ ]+)'
    r'(?: # \{(?P<ex_labels>' + _LABEL_BLOCK + r')\} (?P<ex_value>[^ ]+))?$'
)
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _unescape(v: str) -> str:
    return v.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")


def _scrape(text: str):
    """Parse exposition text back into (name, labels, value, exemplar)
    tuples — the inverse of ``MetricsSnapshot.to_prometheus()``."""
    out = []
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        m = _LINE.match(line)
        assert m, f"unparseable exposition line: {line!r}"
        labels = {k: _unescape(v) for k, v in
                  _LABEL.findall(m.group("labels") or "")}
        exemplar = None
        if m.group("ex_labels") is not None:
            exemplar = ({k: _unescape(v) for k, v in
                         _LABEL.findall(m.group("ex_labels"))},
                        float(m.group("ex_value")))
        out.append((m.group("name"), labels, m.group("value"), exemplar))
    return out


class TestTenantExposition:
    HOSTILE = ['acme', 'quo"te', 'back\\slash', 'uni-tenänt-日本', 'new\nline']

    def test_hostile_tenant_names_roundtrip_through_scrape(self):
        reg = MetricsRegistry()
        tracer = QueryTracer(reg)
        for tenant in self.HOSTILE:
            qt = tracer.begin(TraceContext.mint(), tenant=tenant)
            qt.add_span("broker.total", 0.0, 0.01, lane="broker")
            tracer.finish(qt, outcome="ok")
        samples = _scrape(reg.snapshot().to_prometheus())
        seen = {lab["tenant"] for _, lab, _, _ in samples if "tenant" in lab}
        assert seen == set(self.HOSTILE)

    def test_exemplars_carry_trace_ids(self):
        reg = MetricsRegistry()
        tracer = QueryTracer(reg)
        qt = tracer.begin(TraceContext.mint(), tenant="acme")
        qt.add_span("broker.total", 0.0, 0.25, lane="broker")
        tracer.finish(qt, outcome="ok")
        samples = _scrape(reg.snapshot().to_prometheus())
        exemplars = [ex for name, _, _, ex in samples
                     if ex is not None and name.endswith("_bucket")]
        assert exemplars, "no exemplar rendered on any bucket line"
        labels, value = exemplars[0]
        assert labels == {"trace_id": qt.trace_id}
        assert value == pytest.approx(0.25)

    def test_exemplar_only_on_marked_bucket(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat_seconds", "l", buckets=[0.1, 1.0, 10.0])
        h.observe(0.5, exemplar={"trace_id": "ab" * 16})
        text = reg.snapshot().to_prometheus()
        tagged = [ln for ln in text.splitlines() if " # {" in ln]
        assert len(tagged) == 1
        assert 'le="1"' in tagged[0]


# ---------------------------------------------------------------------------
# End-to-end: service + process workers
# ---------------------------------------------------------------------------


def _spec(seed=11, k=4):
    return QuerySpec(kind="detect-path", graph="g", k=k,
                     seed={"seed": seed}, early_exit=False)


class TestEndToEndProcessTrace:
    def test_spliced_timeline_across_process_boundary(self):
        g = _graph(seed=5)
        svc = DetectionService(runtime_config={"mode": "process", "workers": 2})
        svc.registry.register(g, name="g")
        with svc:
            client = LocalClient(svc)
            out = client.query(_spec(), tenant="acme")
            assert out.trace_id
            doc = client.trace(out.trace_id)

        names = {s["name"] for s in doc["spans"]}
        assert {"client.request", "broker.total", "broker.cache",
                "broker.quota", "broker.queue", "broker.execute",
                "engine.stage", "engine.round",
                "engine.kernel"} <= names
        # distinct pids: the service process and the fleet worker, whose
        # engine spans are spliced under broker.execute
        service_pid = doc["service_pid"]
        by_id = {s["span_id"]: s for s in doc["spans"]}
        engine = [s for s in doc["spans"] if s["name"].startswith("engine.")]
        worker_pids = {s["pid"] for s in engine}
        assert len(worker_pids) == 1 and service_pid not in worker_pids
        for s in engine:
            while s["name"] != "broker.execute":
                s = by_id[s["parent_id"]]
        # one connected tree: every span's parent resolves
        ids = {s["span_id"] for s in doc["spans"]} | {doc["root_span_id"]}
        assert all(s["parent_id"] in ids for s in doc["spans"]
                   if s["parent_id"] is not None)

        walls = doc["stage_walls"]
        tiled = sum(v for k, v in walls.items() if k != "total")
        assert 0.5 * walls["total"] <= tiled <= 1.05 * walls["total"]

        chrome = trace_to_chrome(doc)
        assert validate_chrome_trace(chrome) > 0
        chrome_pids = {e["pid"] for e in chrome["traceEvents"]}
        assert len(chrome_pids) >= 2

        text = render_timeline(doc)
        assert out.trace_id in text
        assert "engine.kernel" in text and "stage walls" in text

    def test_the_reply_tail_is_a_stage(self, monkeypatch):
        """What the broker does after the worker's reply — splicing its
        spans, merging its metrics, releasing the slot, caching — is the
        ``broker.reply`` stage, so a slow tail still tiles the total."""
        import repro.service.broker as broker

        def slow_merge(*args, **kwargs):
            time.sleep(0.02)
            return merge_into(*args, **kwargs)

        monkeypatch.setattr(broker, "merge_into", slow_merge)
        svc = DetectionService(workers=1)
        svc.registry.register(_graph(seed=5), name="g")
        with svc:
            client = LocalClient(svc)
            out = client.query(_spec(seed=11), tenant="acme")
            doc = client.trace(out.trace_id)
        walls = doc["stage_walls"]
        tiled = sum(v for k, v in walls.items() if k != "total")
        assert abs(tiled - walls["total"]) <= 0.10 * walls["total"], walls
        assert walls["reply"] >= 0.02

    @pytest.mark.parametrize("mode", ["sequential", "threaded", "process"])
    def test_every_mode_trace_explains_itself(self, mode):
        """One span log per query, whatever mode the service is configured
        with: the fleet worker runs it sequentially, so the trace carries
        rounds x phases ``engine.kernel`` spans on the worker's main lane,
        and a first query on a fresh session shows what it had to build."""
        svc = DetectionService(
            workers=1, runtime_config={"mode": mode, "workers": 2, "n2": 4})
        svc.registry.register(_graph(seed=5), name="g")
        with svc:
            client = LocalClient(svc)
            docs = []
            for seed in (11, 12):  # cold session, then warm
                out = client.query(_spec(seed=seed), tenant="acme")
                assert out.payload["runtime"]["mode"] == "sequential"
                docs.append(client.trace(out.trace_id))
        cold, warm = docs

        by_id = {s["span_id"]: s for s in cold["spans"]}

        def ancestors(span):
            while span["parent_id"] in by_id:
                span = by_id[span["parent_id"]]
                yield span["name"]

        rounds = [s for s in cold["spans"] if s["name"] == "engine.round"]
        kernels = [s for s in cold["spans"] if s["name"].endswith(".kernel")]
        rounds_run = next(s for s in cold["spans"]
                          if s["name"] == "engine.stage")["tags"]["rounds_done"]
        assert len(rounds) == rounds_run
        assert len(kernels) == rounds_run * (1 << 4) // 4  # k=4, n2=4
        assert {s["name"] for s in kernels} == {"engine.kernel"}
        for s in kernels:
            assert s["lane"] == "main"
            assert list(ancestors(s))[:3] == ["engine.round", "engine.stage",
                                              "broker.execute"]
            assert s["pid"] != cold["service_pid"]
        assert sorted(s["tags"]["q_start"] for s in kernels
                      if by_id[s["parent_id"]] is rounds[0]) == [0, 4, 8, 12]

        # what the cold query built, and the warm one found in the session
        names = lambda doc: {s["name"] for s in doc["spans"]}  # noqa: E731
        assert "engine.field" in names(cold)
        assert not {"engine.field", "engine.pool"} & names(warm)
        for s in cold["spans"]:
            if s["name"] == "engine.field":
                assert "broker.execute" in ancestors(s)
                assert s["tags"]["phase"] == "setup"

        for doc in docs:
            walls = doc["stage_walls"]
            tiled = sum(v for k, v in walls.items() if k != "total")
            assert 0.5 * walls["total"] <= tiled <= 1.05 * walls["total"]
            assert validate_chrome_trace(trace_to_chrome(doc)) > 0

    def test_simulated_trace_shows_partition_and_halo(self):
        svc = DetectionService(runtime_config={
            "mode": "simulated", "n_processors": 2, "n1": 2})
        svc.registry.register(_graph(seed=5), name="g")
        with svc:
            client = LocalClient(svc)
            out = client.query(_spec(seed=11), tenant="acme")
            doc = client.trace(out.trace_id)
        by_id = {s["span_id"]: s for s in doc["spans"]}
        for name in ("engine.partition", "engine.halo"):
            (span,) = [s for s in doc["spans"] if s["name"] == name]
            assert by_id[span["parent_id"]]["name"] == "engine.stage"

    def test_results_bit_identical_to_tracing_off(self):
        g = _graph(seed=9)
        on = DetectionService()
        off = DetectionService(tracing=False)
        on.registry.register(g, name="g")
        off.registry.register(g, name="g")
        try:
            with on, off:
                a = LocalClient(on).query(_spec(seed=21), tenant="t")
                b = LocalClient(off).query(_spec(seed=21), tenant="t")
        finally:
            pass
        assert b.trace_id is None
        assert canonical_result(a.payload) == canonical_result(b.payload)

    def test_tracing_disabled_service_has_no_trace_routes(self):
        svc = DetectionService(tracing=False)
        svc.registry.register(_graph(seed=13), name="g")
        with svc:
            out = LocalClient(svc).query(_spec(seed=4), tenant="t")
            assert out.trace_id is None
            assert svc.get_trace("0" * 32) is None

    def test_worker_crash_dumps_flight_recorder(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_TEST_CRASH_WORKER", "1")
        reset_flight_recorder()
        rt = MidasRuntime(mode="process", workers=2)
        with pytest.raises(WorkerCrashedError):
            detect_path(_graph(seed=2), 3, runtime=rt)
        dumps = list(tmp_path.glob("flight_worker_crash_*.json"))
        assert dumps, "worker crash left no flight dump"
        snap = json.loads(dumps[0].read_text())
        assert snap["reason"] == "worker_crash"
        assert any(e["kind"] == "worker_crash" for e in snap["events"])
        assert "open_spans" in snap

    @pytest.mark.parametrize("kind", ["watchdog_trip", "sanitizer_error"])
    def test_engine_dumps_carry_open_spans(self, kind, tmp_path, monkeypatch):
        """Every dump the engine makes says where the run was: the spans
        still open when the watchdog tripped / the sanitizer raised."""
        monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path))
        reset_flight_recorder()
        if kind == "watchdog_trip":
            rt = MidasRuntime(deadline=1e-9)
        else:
            import numpy as np

            from repro.runtime.comm import AllReduce

            def diverging(*_args, **_kw):
                def program(ctx):
                    yield AllReduce(np.zeros(ctx.rank + 1, np.int64))
                return program

            monkeypatch.setattr("repro.core.engine.phase_program", diverging)
            rt = MidasRuntime(mode="simulated", n_processors=2, n1=2,
                              sanitize="strict")
        with rt.get_profiler().span("caller.request", lane="caller"):
            if kind == "watchdog_trip":
                res = detect_path(_graph(seed=2), 3, runtime=rt)
                assert res.details["degraded"]["reason"] == "deadline"
            else:
                with pytest.raises(SanitizerError):
                    detect_path(_graph(seed=2), 3, runtime=rt)
        rt.close_live()
        (dump,) = tmp_path.glob(f"flight_{kind}_*.json")
        snap = json.loads(dump.read_text())
        assert snap["reason"] == kind
        still_open = {s["name"] for s in snap["open_spans"]}
        assert "caller.request" in still_open
        if kind == "watchdog_trip":
            # tripped between rounds: the stage was still running
            assert "engine.stage" in still_open
            assert snap["degraded"]["reason"] == "deadline"

    def test_status_snapshot_surfaces_tenant_slos(self):
        svc = DetectionService()
        svc.registry.register(_graph(seed=6), name="g")
        with svc:
            LocalClient(svc).query(_spec(seed=8), tenant="acme")
            st = svc.status_snapshot()
        assert st["tenants"]["acme"]["queries"] == 1
        assert st["tracing"]["stored_traces"] >= 1
        assert st["tenants"]["acme"]["last_trace_id"]


# ---------------------------------------------------------------------------
# CLI interrupt flush (satellite: Ctrl-C dumps the flight recorder)
# ---------------------------------------------------------------------------


class TestInterruptFlush:
    def test_sigint_flush_dumps_flight_recorder(self, tmp_path, capsys,
                                                monkeypatch):
        import repro.core.midas as midas
        from repro.cli import main

        monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path / "flight"))
        reset_flight_recorder()
        real = midas.detect_path

        def interrupted(g, k, **kw):
            real(g, k, **kw)
            raise KeyboardInterrupt()

        monkeypatch.setattr(midas, "detect_path", interrupted)
        rc = main(["detect-path", "--er", "150", "-k", "4", "--seed", "12"])
        assert rc == 130
        err = capsys.readouterr().err
        assert "flight recorder dumped" in err
        dumps = list((tmp_path / "flight").glob("flight_interrupted_*.json"))
        assert dumps, "interrupt left no flight dump"
        snap = json.loads(dumps[0].read_text())
        assert snap["reason"] == "interrupted"
        assert any(e["kind"] == "interrupted" for e in snap["events"])


# ---------------------------------------------------------------------------
# HTTP surface
# ---------------------------------------------------------------------------


class TestHttpTraceRoutes:
    def test_http_query_trace_fetch_and_ingest(self):
        import urllib.request

        from repro.service import HttpClient

        g = _graph(seed=15)
        svc = DetectionService()
        svc.registry.register(g, name="g")
        with svc:
            port = svc.serve(0)
            url = f"http://127.0.0.1:{port}"
            client = HttpClient(url)
            out = client.query(_spec(seed=33), tenant="acme")
            assert out.trace_id
            doc = client.trace(out.trace_id)
            assert doc is not None
            names = {s["name"] for s in doc["spans"]}
            # the client span was exported via POST /api/trace
            assert "client.request" in names
            assert "broker.execute" in names
            # suffix-style route
            with urllib.request.urlopen(
                f"{url}/api/trace/{out.trace_id}", timeout=10
            ) as resp:
                body = json.loads(resp.read())
            assert body["ok"] and body["trace"]["trace_id"] == out.trace_id
            # unknown id -> 404
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(f"{url}/api/trace/{'0' * 32}",
                                       timeout=10)
            assert err.value.code == 404
            assert client.trace("0" * 32) is None
