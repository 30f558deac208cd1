"""Run-level observability: metrics, Chrome-trace export, run reports.

Three complementary views of one MIDAS run:

* :mod:`repro.obs.metrics` — a process-wide :class:`MetricsRegistry`
  (counters, gauges, log-bucket histograms with labeled children) that
  the driver, the calibration, and the GF kernels all write into;
* :mod:`repro.obs.chrome_trace` — export any
  :class:`~repro.runtime.tracing.TraceEvent` recording to Chrome /
  Perfetto ``trace_event`` JSON (one virtual thread per rank, a
  bytes-on-the-wire counter track);
* :mod:`repro.obs.report` — :class:`RunReport` joins the trace, a
  metrics snapshot, and the Theorem-2 model prediction into a single
  artifact; its ``text()`` is the one text renderer, analysis included;
* :mod:`repro.obs.analyze` — critical-path extraction over the
  happens-before edges the scheduler records, makespan blame, slack,
  load-imbalance and communication-matrix analytics;
* :mod:`repro.obs.store` — append-only JSONL :class:`RunStore` of
  compact :class:`RunRecord` perf fingerprints with baseline
  comparison (``repro history`` / ``repro compare``);
* :mod:`repro.obs.live` — in-flight telemetry: a thread-safe
  :class:`RunStatus` the engine updates at round/phase boundaries, an
  append-only JSONL progress stream, and live gauges (``repro watch``);
* :mod:`repro.obs.http` — stdlib HTTP exporter serving ``/metrics``
  (Prometheus text), ``/status`` (JSON RunStatus) and ``/healthz``
  (``MidasRuntime(live_port=...)`` / CLI ``--live-port``);
* :mod:`repro.obs.profile` — the wall-clock span log: one ``Span``
  record and one thread-safe collector (``WallProfiler``) that every
  session build step, round, phase window and broker stage is recorded
  in once, with per-(phase, op, callsite) aggregates, a ``profile``
  RunReport section, and speedscope export as views;
* :mod:`repro.obs.qtrace` — end-to-end query tracing for the detection
  service: W3C-traceparent contexts minted per query, a ``QueryTrace``
  (that collector plus the trace identity) shared by broker, engine and
  process workers on one monotonic timebase, per-tenant SLO histograms
  with exemplar trace ids, and a crash flight recorder
  (``repro trace <id>``).

The Chrome export, the report and the analysis read the compute / comm
/ idle split of a recording from
:func:`repro.runtime.tracing.split_timeline`, its one owner.

CLI: ``python -m repro detect-path ... --trace-out run.json
--metrics-out metrics.json --report-out report.json`` and
``python -m repro report report.json``.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "analyze": ("CriticalPath", "PathSegment", "RunAnalysis", "analyze_run",
                "communication_matrix", "extract_critical_path", "slack_histogram"),
    "chrome_trace": ("dump_chrome_trace", "to_chrome_trace", "trace_to_chrome",
                     "validate_chrome_trace"),
    "http": ("LiveServer",),
    "live": ("LiveRun", "ProgressStream", "RunStatus"),
    "metrics": ("Counter", "Gauge", "Histogram", "MetricFamily", "MetricsRegistry",
                "MetricsSnapshot", "get_default_registry", "log_buckets"),
    "profile": ("Span", "WallProfiler", "validate_speedscope"),
    "qtrace": ("FlightRecorder", "QueryTrace", "QueryTracer", "TraceContext",
               "get_flight_recorder", "render_timeline", "reset_flight_recorder"),
    "report": ("RunReport",),
    "store": ("RunComparison", "RunRecord", "RunStore", "compare_runs",
              "compare_to_baseline", "config_fingerprint", "current_git_sha"),
})
