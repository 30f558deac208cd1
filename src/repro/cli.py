"""Command-line interface: ``python -m repro <command> ...``.

Commands map one-to-one to the library's top-level workflows:

* ``datasets`` — print the Table II registry (optionally generating
  stand-ins at a scale);
* ``detect-path`` / ``detect-tree`` — run a detection on a generated or
  edge-list graph;
* ``scan`` — anomaly detection with a chosen statistic;
* ``calibrate`` — measure and print the c1(N2) kernel calibration;
* ``model`` — evaluate the Theorem-2 performance model for a
  ``(dataset, k, N, N1, N2)`` configuration;
* ``verify`` — run the full correctness tooling on one instance:
  sanitized detection, cross-backend replay, witness certification;
* ``watch`` — follow a live run: poll a ``--live-port`` endpoint's
  ``/status`` or tail a ``--progress-out`` JSONL stream
  (``--stall-timeout`` turns a dead heartbeat into a nonzero exit);
* ``resume`` — continue a killed run from its ``--checkpoint-dir``,
  bit-identically to an uninterrupted execution;
* ``serve`` — run the persistent multi-tenant detection service
  (preloaded graphs, engine-session reuse, result cache, quotas);
* ``query`` — send one query to a running ``serve`` endpoint.

The detection commands build one service query
(:class:`~repro.service.broker.QuerySpec`) and run it on the calling
thread (:func:`~repro.service.broker.execute_query`), or send it to a
remote ``repro serve`` with ``--server URL`` — results are
bit-identical either way because the query carries the exact RNG
lineage the standalone driver would have consumed.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def _add_graph_args(p: argparse.ArgumentParser) -> None:
    from repro.graph.datasets import DATASETS

    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--dataset", choices=list(DATASETS),
                     help="generate a Table II stand-in")
    src.add_argument("--edge-list", metavar="PATH", help="read a whitespace edge list")
    src.add_argument("--er", metavar="N", type=int,
                     help="generate an Erdos-Renyi graph with N nodes, m = N ln N")
    p.add_argument("--scale", type=float, default=0.001,
                   help="dataset scale (1.0 = paper size; default 0.001)")
    p.add_argument("--seed", type=int, default=0, help="root random seed")


def _load_graph(args):
    from repro.graph.datasets import load_dataset
    from repro.graph.generators import erdos_renyi
    from repro.graph.io import read_edge_list
    from repro.util.rng import RngStream

    rng = RngStream(args.seed, name="cli")
    if args.dataset:
        return load_dataset(args.dataset, scale=args.scale, rng=rng.child("data")), rng
    if args.edge_list:
        return read_edge_list(args.edge_list), rng
    return erdos_renyi(args.er, rng=rng.child("er")), rng


def _graph_label(args) -> str:
    """A human name for the loaded graph (registry alias, scenarios)."""
    if getattr(args, "dataset", None):
        return args.dataset
    if getattr(args, "edge_list", None):
        from pathlib import Path

        return Path(args.edge_list).stem
    return f"er{args.er}" if getattr(args, "er", None) else "graph"


def _add_client_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--server", metavar="URL", default=None,
                   help="send the query to a running `repro serve` endpoint "
                        "instead of executing in-process (runtime flags like "
                        "--mode then apply server-side, not here); results "
                        "are bit-identical either way")
    p.add_argument("--tenant", default="cli",
                   help="tenant id for the service's per-tenant quota "
                        "(default 'cli')")


def _add_mode_args(p: argparse.ArgumentParser) -> None:
    """The execution configuration every command that runs detections
    takes, ``repro serve`` included: the modes are the engine's backends,
    the sanitize levels the sanitizer's."""
    from repro.core.engine import BACKENDS, SANITIZE_MODES, MidasRuntime

    p.add_argument("--mode", choices=list(BACKENDS), default=MidasRuntime.mode,
                   help="execution backend")
    p.add_argument("-N", "--processors", type=int, default=1)
    p.add_argument("--n1", type=int, default=1, help="graph partition count N1")
    p.add_argument("--n2", type=int, default=None, help="iteration batch size N2")
    p.add_argument("--sanitize", choices=SANITIZE_MODES,
                   default=MidasRuntime.sanitize,
                   help="runtime comm sanitizer: strict raises on the first "
                        "violation, warn accumulates a report (default off)")


def _modes_with(rule: str) -> str:
    """The modes whose backend has ``rule`` set, for help texts."""
    from repro.core.engine import BACKENDS

    return ", ".join(mode for mode, b in BACKENDS.items() if getattr(b, rule))


def _add_runtime_args(p: argparse.ArgumentParser) -> None:
    _add_mode_args(p)
    p.add_argument("--workers", type=int, default=None,
                   help=f"worker count for --mode {_modes_with('pooled')} "
                        "(default: the CPUs this process may use)")
    p.add_argument("--eps", type=float, default=0.1, help="failure probability bound")
    p.add_argument("--trace-out", metavar="PATH", default=None,
                   help="write the run timeline as Chrome trace_event JSON "
                        "(open at https://ui.perfetto.dev)")
    p.add_argument("--metrics-out", metavar="PATH", default=None,
                   help="write the metrics-registry snapshot")
    p.add_argument("--metrics-format", choices=["json", "prom"], default="json",
                   help="--metrics-out format: the versioned JSON envelope or "
                        "Prometheus text exposition (default json)")
    p.add_argument("--report-out", metavar="PATH", default=None,
                   help="write a RunReport JSON (render with `repro report`)")
    p.add_argument("--store", metavar="PATH", default=None,
                   help="append a compact RunRecord to this JSONL run-history "
                        "store (inspect with `repro history` / `repro compare`)")
    p.add_argument("--scenario", metavar="NAME", default=None,
                   help="scenario key for --store records (default: derived "
                        "from the command and graph)")
    p.add_argument("--fault-plan", metavar="PLAN", default=None,
                   help="fault-injection plan: a JSON file path or an inline "
                        'JSON object, e.g. \'{"seed": 7, "faults": '
                        '[{"kind": "crash", "rank": 1, "after_ops": 5}]}\' '
                        f"(--mode {_modes_with('ranks')} only)")
    p.add_argument("--max-retries", type=int, default=5,
                   help="per-phase-window retry budget under faults (default 5)")
    p.add_argument("--retry-backoff", type=float, default=1e-3,
                   help="base virtual-seconds backoff before a retry; doubles "
                        "per attempt (default 1e-3)")
    p.add_argument("--live-port", type=int, default=None, metavar="PORT",
                   help="serve /metrics, /status and /healthz over HTTP "
                        "while the run executes (0 = ephemeral port; watch "
                        "with `repro watch http://127.0.0.1:PORT`)")
    p.add_argument("--progress-out", metavar="PATH", default=None,
                   help="append live progress events to this JSONL stream "
                        "(tail with `repro watch PATH --follow`)")
    p.add_argument("--profile-out", metavar="PATH", default=None,
                   help="write the wall-clock profile as speedscope JSON "
                        "(open at https://www.speedscope.app)")
    p.add_argument("--checkpoint-dir", metavar="DIR", default=None,
                   help="write crash-consistent checkpoints at round "
                        "boundaries into DIR; recover with `repro resume DIR`")
    p.add_argument("--checkpoint-every", type=int, default=1, metavar="N",
                   help="persist the checkpoint every N rounds (default 1; "
                        "stage boundaries always persist)")
    p.add_argument("--deadline", type=float, default=None, metavar="SECONDS",
                   help="wall-clock budget: past it the run checkpoints and "
                        "exits with a degraded partial result")
    p.add_argument("--hang-timeout", type=float, default=None, metavar="SECONDS",
                   help="declare the run stalled (and degrade) when no "
                        "engine heartbeat arrives for this many seconds")


def _runtime(args):
    from repro.core.midas import MidasRuntime

    recorder = None
    if (getattr(args, "trace_out", None) or getattr(args, "report_out", None)
            or getattr(args, "store", None)):
        from repro.runtime.tracing import TraceRecorder

        recorder = TraceRecorder(enabled=True)
    fault_plan = None
    if getattr(args, "fault_plan", None):
        from repro.runtime.faults import load_fault_plan

        fault_plan = load_fault_plan(args.fault_plan)
    checkpoint_dir = getattr(args, "checkpoint_dir", None)
    resume_run = getattr(args, "resume_run", False)
    rt = MidasRuntime(
        n_processors=args.processors, n1=args.n1, n2=args.n2, mode=args.mode,
        recorder=recorder, fault_plan=fault_plan,
        max_retries=getattr(args, "max_retries", 5),
        retry_backoff=getattr(args, "retry_backoff", 1e-3),
        workers=getattr(args, "workers", None),
        sanitize=getattr(args, "sanitize", "off"),
        live_port=getattr(args, "live_port", None),
        progress_path=getattr(args, "progress_out", None),
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=getattr(args, "checkpoint_every", 1),
        resume=resume_run,
        allow_restart=getattr(args, "allow_restart", False),
        deadline=getattr(args, "deadline", None),
        hang_timeout=getattr(args, "hang_timeout", None),
    )
    if checkpoint_dir:
        from repro.runtime.durable import write_run_config

        if not resume_run:
            # persist the invocation so `repro resume <dir>` can rebuild it
            write_run_config(checkpoint_dir, {
                k: v for k, v in vars(args).items() if k != "fn"
            })
        # build the manager eagerly: a corrupt checkpoint must surface
        # before any expensive work starts, not at the first round
        rt.get_checkpoint()
    live = rt.get_live()
    if live is not None and live.port is not None:
        print(f"live telemetry: http://127.0.0.1:{live.port} "
              f"(/metrics /status /healthz)", flush=True)
    return rt


def _write_obs(args, rt, problem: str = "", estimate=None, resilience=None,
               sanitizer=None, truncated: bool = False, degraded=None,
               resumed_from=None) -> None:
    """Emit --trace-out / --metrics-out / --report-out / --profile-out /
    --store artifacts.  ``truncated=True`` marks artifacts flushed from an
    interrupted run: the report carries ``meta.truncated`` and no
    RunRecord is appended (a partial run would poison the perf baseline).
    A watchdog-``degraded`` run is treated the same way; a ``resumed_from``
    run *is* recorded, carrying the provenance flag so baselines skip it.
    """
    if not (getattr(args, "trace_out", None) or getattr(args, "metrics_out", None)
            or getattr(args, "report_out", None) or getattr(args, "store", None)
            or getattr(args, "profile_out", None)):
        return
    from pathlib import Path

    from repro.serialization import dump_result

    for out in (args.trace_out, args.metrics_out, args.report_out):
        if out:
            Path(out).parent.mkdir(parents=True, exist_ok=True)
    nranks = max(1, rt.n_processors) if rt.backend.ranks else 1
    snap = rt.get_metrics().snapshot()
    if args.trace_out:
        from repro.obs.chrome_trace import dump_chrome_trace

        dump_chrome_trace(rt.recorder.events, args.trace_out, nranks=nranks,
                          meta={"problem": problem, "mode": rt.mode,
                                "n1": rt.n1, "n2": rt.n2 or 0})
        print(f"trace written: {args.trace_out}")
    if args.metrics_out:
        if getattr(args, "metrics_format", "json") == "prom":
            Path(args.metrics_out).write_text(snap.to_prometheus())
        else:
            dump_result(snap, args.metrics_out)
        print(f"metrics written: {args.metrics_out}")
    prof = rt.profiler
    profile = prof.section() if (prof is not None and prof.has_data) else None
    if getattr(args, "profile_out", None):
        if prof is not None and prof.has_data:
            prof.dump_speedscope(args.profile_out,
                                 name=f"{problem or 'repro'} [{rt.mode}]")
            print(f"profile written: {args.profile_out}")
        else:
            print("no profile data recorded; skipping --profile-out",
                  file=sys.stderr)
    rep = None
    if args.report_out or getattr(args, "store", None):
        from repro.obs.report import RunReport

        meta = {"n1": rt.n1}
        if truncated:
            meta["truncated"] = True
        if degraded:
            meta["degraded"] = True
            meta["degraded_reason"] = degraded.get("reason", "")
            meta["p_failure_bound"] = degraded.get("p_failure_bound", 1.0)
        if resumed_from:
            meta["resumed_from"] = resumed_from
        rep = RunReport.build(rt.recorder.events, nranks, problem=problem,
                              mode=rt.mode, metrics=snap, estimate=estimate,
                              meta=meta, resilience=resilience,
                              sanitizer=sanitizer, profile=profile,
                              edges=rt.recorder.edges,
                              fault_plan=rt.fault_plan, n1=rt.n1)
    if args.report_out:
        dump_result(rep, args.report_out)
        print(f"report written: {args.report_out}")
    if getattr(args, "store", None):
        if truncated or degraded:
            why = "interrupted" if truncated else "degraded"
            print(f"run {why}; not appending a RunRecord to the store",
                  file=sys.stderr)
        else:
            from repro.obs.store import RunRecord, RunStore

            scenario = args.scenario or _default_scenario(args, problem)
            record = RunRecord.from_report(
                rep, scenario, config=_store_config(args, rt, problem)
            )
            RunStore(args.store).append(record)
            print(f"run recorded: {args.store} [{scenario}]")


def _flush_interrupted(args, rt, problem: str) -> int:
    """SIGINT mid-run: flush whatever observability we have and exit 130
    (the conventional 128+SIGINT code).  The progress stream is already
    on disk — it is appended and flushed per event.  The flight
    recorder is dumped too (with any still-open query spans) so an
    interrupted run leaves the same forensic artifact a crash would."""
    print("\ninterrupted — flushing partial artifacts", file=sys.stderr)
    _write_obs(args, rt, problem=problem, truncated=True)
    from repro.obs.qtrace import get_flight_recorder

    prof = rt.profiler  # the run's span log, once the engine has started it
    extra = ({"open_spans": [sp.to_dict() for sp in prof.open_spans()]}
             if prof is not None else None)
    rec = get_flight_recorder()
    rec.record("interrupted", problem=problem)
    path = rec.dump("interrupted", extra=extra)
    if path is not None:
        print(f"flight recorder dumped: {path}", file=sys.stderr)
    return 130


def _default_scenario(args, problem: str) -> str:
    k = getattr(args, "k", None)
    return f"{problem}:{_graph_label(args)}" + (f":k{k}" if k is not None else "")


def _store_config(args, rt, problem: str) -> dict:
    """The fields whose change makes two runs non-comparable."""
    return {
        "problem": problem, "mode": rt.mode, "N": rt.n_processors,
        "n1": rt.n1, "n2": rt.n2 or 0, "k": getattr(args, "k", 0),
        "eps": getattr(args, "eps", 0.0), "seed": getattr(args, "seed", 0),
        "dataset": getattr(args, "dataset", None) or "",
        "scale": getattr(args, "scale", 0.0),
        "er": getattr(args, "er", None) or 0,
    }


def _print_resilience(r: dict) -> None:
    injected = ", ".join(
        f"{k}={v}" for k, v in sorted(r.get("faults_injected", {}).items())
    ) or "none"
    print(f"resilience: faults [{injected}]  "
          f"failures={r.get('phase_failures', 0)} retries={r.get('retries', 0)}  "
          f"overhead={r.get('makespan_overhead_seconds', 0.0):.3g}s "
          f"({r.get('overhead_fraction', 0.0):.1%})")


def _print_sanitizer(sn: dict) -> None:
    status = "clean" if sn.get("clean", True) else "VIOLATIONS"
    kinds = ", ".join(f"{k}={v}" for k, v in sorted(sn.get("violations", {}).items()))
    tail = f"  [{kinds}]" if kinds else ""
    print(f"sanitizer: {status} ({sn.get('ops_checked', 0)} ops, "
          f"{sn.get('runs', 0)} run(s)){tail}")
    for finding in sn.get("findings", [])[:8]:
        print(f"  {finding}")


def _print_recovery(details: dict):
    """Print resume/degradation annotations from a result's details;
    returns ``(degraded, resumed_from)`` for ``_write_obs`` and the
    exit-code decision."""
    resumed_from = details.get("resumed_from")
    if resumed_from:
        print(f"resumed from checkpoint: {resumed_from}")
    degraded = details.get("degraded")
    if degraded:
        print(f"DEGRADED ({degraded.get('reason', '?')}): "
              f"{degraded.get('detail', '')}", file=sys.stderr)
        print(f"  partial result after {degraded.get('rounds_completed', 0)} "
              f"completed round(s); miss probability <= "
              f"{degraded.get('p_failure_bound', 1.0):.3g}", file=sys.stderr)
    return degraded, resumed_from


def cmd_datasets(args) -> int:
    from repro.graph.datasets import table2_rows
    from repro.util.rng import RngStream

    scale = args.scale if args.generate else None
    print(f"{'dataset':>12} {'paper nodes':>12} {'paper edges':>12}"
          + (f" {'gen nodes':>10} {'gen edges':>10}" if scale else ""))
    for r in table2_rows(scale=scale, rng=RngStream(args.seed)):
        line = (f"{r['dataset']:>12} {r['paper_nodes_x1e6']:>11g}M "
                f"{r['paper_edges_x1e6']:>11g}M")
        if scale:
            line += f" {r['generated_nodes']:>10} {r['generated_edges']:>10}"
        print(line)
    return 0


def _spec_for(args, kind: str, seed: dict, graph: str = "",
              weights=None) -> dict:
    """The service QuerySpec dict of one CLI query under seed policy
    ``seed``."""
    spec = {"kind": kind, "graph": graph, "k": args.k, "eps": args.eps,
            "seed": seed}
    if kind == "detect-tree":
        spec["template"] = args.template
    if kind == "scan":
        spec.update(statistic=args.statistic, alpha=args.alpha,
                    extract=bool(args.extract))
        if weights is not None:
            spec["weights"] = [int(x) for x in weights]
    return spec


def _run_query(args, kind: str, g, rng, rt, weights=None):
    """Run one detection.

    ``rt`` is the runtime the flags built: the query runs on this thread
    (Ctrl-C lands in its round loop) and the driver's own result object
    comes back.  With ``--server`` ``rt`` is None — execution
    configuration lives server-side — and the reply's
    :class:`~repro.service.broker.QueryOutcome` comes back.
    """
    # the seed policy pins the exact RNG lineage the standalone driver
    # would have consumed, so a service-routed query — local, remote,
    # cached or coalesced — is bit-identical to it
    seed = rng.child("scan" if kind == "scan" else "detect").state()
    spec = _spec_for(args, kind, seed, weights=weights)
    if rt is None:
        from repro.service.client import HttpClient

        client = HttpClient(args.server)
        spec["graph"] = client.register_graph(g, name=_graph_label(args))
        return client.query(spec, tenant=getattr(args, "tenant", "cli") or "cli")
    from repro.graph.csr import graph_sha
    from repro.service.broker import QuerySpec, execute_query
    from repro.service.registry import GraphEntry

    spec["graph"] = graph_sha(g)
    _payload, raw = execute_query(QuerySpec.from_dict(spec),
                                  GraphEntry(spec["graph"], g), rt)
    return raw


def _report_run(args, rt, problem: str, details: dict, estimate=None):
    """Shared post-detection tail for the three detection commands:
    resilience/sanitizer/recovery rendering plus artifact emission.
    Returns the ``degraded`` annotation (None for a full-quality run)."""
    resilience = details.get("resilience")
    if resilience:
        _print_resilience(resilience)
    sanitizer = details.get("sanitizer")
    if sanitizer:
        _print_sanitizer(sanitizer)
    degraded, resumed_from = _print_recovery(details)
    if rt is not None:
        _write_obs(args, rt, problem=problem, estimate=estimate,
                   resilience=resilience, sanitizer=sanitizer,
                   degraded=degraded, resumed_from=resumed_from)
    elif (getattr(args, "report_out", None) or getattr(args, "store", None)
          or getattr(args, "trace_out", None)):
        print("--server runs record observability server-side; skipping "
              "local artifacts", file=sys.stderr)
    return degraded


def _print_remote_detection(outcome) -> None:
    """Render a detection payload that has no raw result (HTTP path)."""
    r = outcome.result
    served = outcome.served
    via = "cache" if outcome.cache_hit else (
        "coalesced" if outcome.coalesced else "server")
    tail = (f"[via {via}, tenant={served.get('tenant', '?')}, "
            f"wall={outcome.payload.get('timing', {}).get('wall_seconds', 0.0):.3f}s]")
    if r.get("problem") == "scanstat":
        cell = (f"size={r.get('best_size')}, weight={r.get('best_weight')}"
                if r.get("best_size") is not None else "none")
        print(f"anomaly: score={r.get('best_score', 0.0):.4f} at [{cell}] "
              f"after {r.get('rounds_run', 0)} round(s) {tail}")
        if r.get("cluster") is not None:
            print(f"cluster: {r['cluster']}")
        if getattr(outcome, "trace_id", ""):
            print(f"trace: {outcome.trace_id}  "
                  f"(repro trace {outcome.trace_id} --url <service>)")
        return
    verdict = "FOUND" if r.get("found") else "not found"
    print(f"{r.get('problem', '?')}(k={r.get('k', '?')}): {verdict} after "
          f"{r.get('rounds_run', 0)} round(s) {tail}")
    trace_id = getattr(outcome, "trace_id", "")
    if trace_id:
        print(f"trace: {trace_id}  (repro trace {trace_id} --url <service>)")


def _detect(args, kind: str, problem: str, g, rng, weights=None) -> int:
    """The shared body of ``detect-path``, ``detect-tree`` and ``scan``:
    run the query, flush on Ctrl-C, render the answer and report it.

    A detection exits 0 with a witness — a certificate even from a
    degraded run — and 1 without; a scan exits 0.  A degraded run
    without a witness exits 4."""
    rt = None if getattr(args, "server", None) else _runtime(args)
    try:
        res = _run_query(args, kind, g, rng, rt, weights=weights)
    except KeyboardInterrupt:
        if rt is None:
            return 130
        return _flush_interrupted(args, rt, problem)
    finally:
        if rt is not None:
            rt.close_live()
    scan = kind == "scan"
    if rt is None:
        _print_remote_detection(res)
        details, estimate = res.result.get("details") or {}, None
    elif scan:
        print(res.summary())
        if res.cluster is not None:
            print(f"cluster: {sorted(int(x) for x in res.cluster)}")
        details, estimate = res.grid.details, None
    else:
        print(res.summary())
        details, estimate = res.details, res.details.get("estimate")
    degraded = _report_run(args, rt, problem, details, estimate)
    if not scan and res.found:
        return 0
    return 4 if degraded else (0 if scan else 1)


def cmd_detect_path(args) -> int:
    g, rng = _load_graph(args)
    print(f"graph: {g}")
    return _detect(args, "detect-path", "k-path", g, rng)


def cmd_detect_tree(args) -> int:
    from repro.service.broker import TEMPLATES

    g, rng = _load_graph(args)
    tmpl = TEMPLATES[args.template](args.k)
    print(f"graph: {g}\ntemplate: {tmpl}")
    return _detect(args, "detect-tree", "k-tree", g, rng)


def cmd_scan(args) -> int:
    import numpy as np

    from repro.graph.generators import plant_cluster

    g, rng = _load_graph(args)
    print(f"graph: {g}")
    w = np.zeros(g.n, dtype=np.int64)
    if args.plant:
        hot = plant_cluster(g, args.plant, rng=rng.child("plant"))
        w[hot] = 1
        print(f"planted hot cluster: {sorted(hot.tolist())}")
    return _detect(args, "scan", "scanstat", g, rng, weights=w)


def cmd_calibrate(args) -> int:
    from repro.runtime.costmodel import KernelCalibration

    cal = KernelCalibration.measure(
        sample_nodes=args.nodes, avg_degree=args.degree, k=args.k
    )
    print(f"{'N2':>6} {'c1 [ns/(vertex*iter)]':>22}")
    for n2, c1 in sorted(cal.as_table().items()):
        print(f"{n2:>6} {c1 * 1e9:>22.2f}")
    best = min(cal.as_table(), key=cal.as_table().get)
    print(f"best N2: {best}")
    return 0


def cmd_model(args) -> int:
    from repro.core.model import PartitionStats, estimate_runtime
    from repro.core.schedule import PhaseSchedule
    from repro.graph.datasets import DATASETS
    from repro.runtime.cluster import juliet
    from repro.runtime.costmodel import KernelCalibration

    spec = DATASETS[args.dataset]
    n, m = spec.paper_nodes, spec.paper_edges
    n2 = args.n2 if args.n2 else PhaseSchedule.bs_max(args.k, args.processors, args.n1)
    sched = PhaseSchedule(args.k, args.processors, args.n1, n2)
    cal = (KernelCalibration.measure() if args.measure
           else KernelCalibration.synthetic())
    est = estimate_runtime(
        PartitionStats.random_model(n, m, args.n1), sched, cal,
        juliet().cost_model(args.processors), eps=args.eps, problem=args.problem,
    )
    print(sched.describe())
    print(f"modeled total:   {est.total_seconds:.4f}s "
          f"(compute {est.compute_seconds:.4f}s, comm {est.comm_seconds:.4f}s, "
          f"comm fraction {est.comm_fraction:.1%})")
    print(f"memory per rank: {est.memory_bytes_per_rank / 2**20:.1f} MiB")
    return 0


def cmd_report(args) -> int:
    from repro.obs.metrics import MetricsSnapshot
    from repro.obs.report import RunReport
    from repro.serialization import load_result
    from repro.util.timing import format_seconds

    try:
        obj = load_result(args.path)
    except (OSError, ValueError) as exc:  # missing file, bad JSON, wrong schema
        print(f"{args.path}: {exc}", file=sys.stderr)
        return 1
    if isinstance(obj, RunReport):
        print(obj.text(max_phases=args.max_phases))
        return 0
    if isinstance(obj, MetricsSnapshot):
        for fam in obj.metrics:
            print(f"{fam['name']} ({fam['kind']}): {fam['help']}")
            for s in fam["samples"]:
                labels = ",".join(f"{k}={v}" for k, v in sorted(s["labels"].items()))
                if fam["kind"] == "histogram":
                    mean = s["sum"] / s["count"] if s["count"] else 0.0
                    print(f"  {{{labels}}} count={s['count']} "
                          f"mean={format_seconds(mean)} sum={format_seconds(s['sum'])}")
                else:
                    print(f"  {{{labels}}} {s['value']:g}")
        return 0
    print(f"{args.path}: serialized {type(obj).__name__}, not a RunReport "
          "or MetricsSnapshot", file=sys.stderr)
    return 1


def cmd_history(args) -> int:
    """List a run-history store's trajectory, newest last."""
    from repro.errors import ConfigurationError
    from repro.obs.store import RunStore

    store = RunStore(args.store)
    try:
        records = store.load(args.scenario)
    except ConfigurationError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    if not records:
        where = f" for scenario {args.scenario!r}" if args.scenario else ""
        print(f"{args.store}: no records{where}")
        return 1
    if args.scenario is None:
        print(f"{len(records)} record(s), "
              f"{len(store.scenarios())} scenario(s): "
              + ", ".join(store.scenarios()))
    for rec in records[-args.last:] if args.last else records:
        print(rec.describe())
    return 0


def cmd_compare(args) -> int:
    """Compare two runs (or newest vs rolling baseline); exit 3 on
    regression beyond tolerance."""
    import json as _json

    from repro.errors import ConfigurationError
    from repro.obs.store import RunStore, compare_runs, compare_to_baseline

    store = RunStore(args.store)
    try:
        if args.ref is not None or args.new is not None:
            records = store.load(args.scenario)
            if not records:
                raise ConfigurationError(
                    f"{args.store}: no records"
                    + (f" for scenario {args.scenario!r}" if args.scenario else "")
                )
            ref_i = args.ref if args.ref is not None else -2
            new_i = args.new if args.new is not None else -1
            try:
                cmp = compare_runs(records[ref_i], records[new_i],
                                   tolerance=args.tolerance,
                                   wall_tolerance=args.wall_tolerance)
            except IndexError:
                raise ConfigurationError(
                    f"record index out of range (have {len(records)})"
                ) from None
        else:
            scenario = args.scenario
            if scenario is None:
                names = store.scenarios()
                if len(names) != 1:
                    raise ConfigurationError(
                        f"--scenario required: store holds {len(names)} "
                        f"scenario(s)" + (f" ({', '.join(names)})" if names else "")
                    )
                scenario = names[0]
            cmp = compare_to_baseline(store, scenario,
                                      tolerance=args.tolerance,
                                      window=args.window,
                                      wall_tolerance=args.wall_tolerance)
    except ConfigurationError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    if args.json_out:
        from pathlib import Path

        Path(args.json_out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.json_out).write_text(_json.dumps(cmp.to_dict(), indent=2))
    print(cmp.markdown())
    return 0 if cmp.ok else 3


def cmd_verify(args) -> int:
    """Run the full correctness tooling on one k-path instance:
    sanitized detection, cross-backend replay, independent certification.
    Exit 0 when everything checks out, 2 on any violation."""
    from repro.core.midas import detect_path
    from repro.core.witness import extract_witness
    from repro.errors import DetectionError, ReplayMismatchError, SanitizerError
    from repro.sanitize import ResultCertifier, verify_replay

    g, rng = _load_graph(args)
    print(f"graph: {g}")
    rt = _runtime(args)
    failures = 0

    # 1. sanitized detection on the requested backend
    try:
        res = detect_path(g, args.k, eps=args.eps, rng=rng.child("detect"),
                          runtime=rt)
    except SanitizerError as exc:
        print(f"FAIL sanitizer: {exc}")
        return 2
    print(res.summary())
    sn = res.details.get("sanitizer")
    if sn:
        _print_sanitizer(sn)
        if not sn.get("clean", True):
            failures += 1

    # 2. deterministic replay against the reference backend
    try:
        rep = verify_replay(detect_path, g, args.k, runtime=rt,
                            reference_mode=args.reference_mode,
                            seed=args.seed, strict=False, eps=args.eps)
        print(rep.text())
        if not rep.ok:
            failures += 1
    except ReplayMismatchError as exc:  # pragma: no cover - strict=False above
        print(f"FAIL replay: {exc}")
        failures += 1

    # 3. independent certification: a witness when found, the exact
    #    oracle spot-check when not (small instances only)
    cert = ResultCertifier(g, mode="warn")
    if res.found:
        query_rng = rng.child("witness")

        def feasible(masked) -> bool:
            return detect_path(
                masked, args.k, eps=0.01,
                rng=query_rng.child(f"q{masked.num_edges}"),
            ).found

        try:
            witness = extract_witness(g, feasible, args.k,
                                      rng=rng.child("peel"))
        except DetectionError as exc:
            print(f"witness extraction failed: {exc}")
            failures += 1
        else:
            ordered = cert.path_witness(witness, args.k)
            if ordered is not None:
                print(f"witness certified: path {ordered}")
    elif g.n <= 200:
        cert.negative_path(args.k)
    print(cert.report.text())
    if not cert.report.clean:
        failures += 1

    print("verify: " + ("OK" if failures == 0 else f"{failures} FAILURE(S)"))
    return 0 if failures == 0 else 2


def cmd_resume(args) -> int:
    """Reconstruct a checkpointed run from its directory and continue it.

    The run directory's ``run.json`` (written by ``--checkpoint-dir``)
    supplies the original invocation; the checkpoint file supplies the
    completed rounds, which are restored instead of re-executed — the
    final result is bit-identical to an uninterrupted run.  Exit 2 on a
    corrupt checkpoint (``--allow-restart`` discards it and restarts).
    """
    from repro.errors import CheckpointCorruptError, ConfigurationError
    from repro.runtime.durable import load_run_config

    dispatch = {"detect-path": cmd_detect_path, "detect-tree": cmd_detect_tree,
                "scan": cmd_scan}
    try:
        cfg = load_run_config(args.dir)
    except ConfigurationError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    command = cfg.get("command")
    if command not in dispatch:
        print(f"{args.dir}: run config names unsupported command {command!r}",
              file=sys.stderr)
        return 1
    ns = argparse.Namespace(**cfg)
    ns.checkpoint_dir = args.dir
    ns.resume_run = True
    ns.allow_restart = args.allow_restart
    print(f"resuming {command} from {args.dir}")
    try:
        return dispatch[command](ns)
    except CheckpointCorruptError as exc:
        print(str(exc), file=sys.stderr)
        print("hint: pass --allow-restart to discard the corrupt checkpoint "
              "and restart from scratch", file=sys.stderr)
        return 2


_TERMINAL_STATES = ("done", "failed", "interrupted", "degraded")


def _render_status(s: dict) -> str:
    """One status line from a RunStatus snapshot dict."""
    from repro.util.timing import format_seconds

    parts = [
        f"[{s.get('state', '?'):>11}]",
        f"{s.get('problem') or '?'}/{s.get('mode') or '?'}",
        f"rounds {s.get('rounds_completed', 0)}/{s.get('rounds_planned', 0)}",
    ]
    stage = s.get("stage")
    if stage:
        parts.append(f"stage {stage} (k={s.get('k', 0)})")
    pf = s.get("p_failure_bound")
    if pf is not None:
        parts.append(f"p_fail<={pf:.3g}")
    eta = s.get("eta_seconds")
    if eta:
        parts.append(f"eta {format_seconds(eta)}")
    faults = s.get("faults") or {}
    if faults.get("phase_failures") or faults.get("retries"):
        parts.append(f"faults {faults.get('phase_failures', 0)} "
                     f"(+{faults.get('retries', 0)} retries)")
    if s.get("found") is not None:
        parts.append(f"found={s['found']}")
    return "  ".join(parts)


def _render_event(evt: dict) -> Optional[str]:
    """One progress-stream event as a display line (None = skip)."""
    kind = evt.get("event")
    if kind == "run_start":
        g = evt.get("graph") or {}
        return (f"run {evt.get('run', '?')}: {evt.get('problem', '?')} "
                f"[{evt.get('mode', '?')}] on {g.get('nodes', '?')} nodes / "
                f"{g.get('edges', '?')} edges")
    if kind == "stage_start":
        return (f"stage {evt.get('stage', '?')}: k={evt.get('k', '?')}, "
                f"{evt.get('rounds', '?')} round(s) x "
                f"{evt.get('phases_per_round', '?')} phase(s)")
    if kind == "round":
        status = evt.get("status") or {}
        hit = "  HIT" if evt.get("hit") else ""
        return _render_status(status) + hit
    if kind == "fault":
        return (f"faults: {evt.get('failures', 0)} failure(s), "
                f"{evt.get('retries', 0)} retry(ies), "
                f"{evt.get('injected', 0)} injected")
    if kind == "result":
        return f"result: found={evt.get('found')}"
    if kind == "run_end":
        return f"run ended: {evt.get('state', '?')}" + (
            f" ({evt['error']})" if evt.get("error") else "")
    return None  # per-phase events are too chatty for the console


def _watch_url(args) -> int:
    import json as _json
    import time as _time
    import urllib.error
    import urllib.request

    base = args.target.rstrip("/")
    deadline = _time.monotonic() + args.timeout if args.timeout else None
    last = None
    seen_any = False
    while True:
        try:
            with urllib.request.urlopen(base + "/status", timeout=5) as resp:
                status = _json.load(resp)
        except (urllib.error.URLError, OSError, ValueError) as exc:
            if seen_any:
                # the exporter shuts down right after the run finishes, so
                # losing an endpoint we were successfully polling means the
                # run ended (the terminal /status poll is easy to miss)
                print("watch: endpoint gone — run ended", file=sys.stderr)
                return 0
            print(f"watch: cannot read {base}/status: {exc}", file=sys.stderr)
            return 1
        seen_any = True
        line = _render_status(status)
        if line != last:
            print(line)
            last = line
        if status.get("state") in _TERMINAL_STATES:
            return 0
        stall = getattr(args, "stall_timeout", None)
        if stall and status.get("state") == "running" and \
                float(status.get("heartbeat_age_seconds", 0.0)) > stall:
            print(f"watch: run stalled — last heartbeat "
                  f"{status.get('heartbeat_age_seconds', 0.0):.1f}s ago "
                  f"(stall-timeout {stall:g}s)", file=sys.stderr)
            return 5
        if deadline is not None and _time.monotonic() > deadline:
            print("watch: timed out before the run ended", file=sys.stderr)
            return 1
        _time.sleep(args.interval)


def _watch_file(args) -> int:
    import json as _json
    import time as _time
    from pathlib import Path

    path = Path(args.target)
    if not path.exists():
        print(f"watch: no such progress stream: {path}", file=sys.stderr)
        return 1
    deadline = _time.monotonic() + args.timeout if args.timeout else None
    ended = False
    pending = ""  # a last line whose newline is not written yet
    with path.open() as fh:
        while True:
            line = pending + fh.readline()
            if line.endswith("\n"):
                pending = ""
                line = line.strip()
                if not line:
                    continue
                try:
                    evt = _json.loads(line)
                except ValueError:
                    continue  # a malformed line
                out = _render_event(evt)
                if out:
                    print(out)
                if evt.get("event") == "run_end":
                    ended = True
                continue
            pending = line  # at EOF, or at the written part of the last line
            if ended:
                return 0
            stall = getattr(args, "stall_timeout", None)
            if stall:
                age = _time.time() - path.stat().st_mtime
                if age > stall:
                    print(f"watch: run stalled — stream last written "
                          f"{age:.1f}s ago (stall-timeout {stall:g}s)",
                          file=sys.stderr)
                    return 5
            if not args.follow:
                return 0
            if deadline is not None and _time.monotonic() > deadline:
                print("watch: timed out before the run ended", file=sys.stderr)
                return 1
            _time.sleep(args.interval)


def cmd_watch(args) -> int:
    """Follow a live run: poll an HTTP /status endpoint or tail a
    progress JSONL stream, rendering rounds, ETA, and fault counts."""
    if args.target.startswith(("http://", "https://")):
        return _watch_url(args)
    return _watch_file(args)


def _serve_register(svc, spec: str) -> None:
    """Register one ``--register NAME=SOURCE`` graph on a service, where
    SOURCE is ``er:N[:M[:SEED]]`` or an edge-list path."""
    from repro.errors import ConfigurationError

    name, eq, src = spec.partition("=")
    if not eq or not name or not src:
        raise ConfigurationError(
            f"--register wants NAME=er:N[:M[:SEED]] or NAME=PATH, got {spec!r}"
        )
    if src.startswith("er:"):
        from repro.graph.generators import erdos_renyi
        from repro.util.rng import RngStream

        parts = src.split(":")[1:]
        try:
            n = int(parts[0])
            m = int(parts[1]) if len(parts) > 1 and parts[1] else None
            seed = int(parts[2]) if len(parts) > 2 else 0
        except (ValueError, IndexError) as exc:
            raise ConfigurationError(f"bad er spec {src!r}: {exc}") from exc
        g = erdos_renyi(n, m=m, rng=RngStream(seed, name="serve-er"))
    else:
        from repro.graph.io import read_edge_list

        g = read_edge_list(src)
    entry = svc.register_graph(g, name=name)
    print(f"registered {name}: {entry.sha[:12]} "
          f"({g.n} nodes, {g.num_edges} edges)")


def cmd_serve(args) -> int:
    """Run the persistent multi-tenant detection service until
    interrupted (or for --run-seconds, for scripted smoke tests)."""
    import time as _time

    from repro.errors import ConfigurationError
    from repro.service import DetectionService

    runtime_config = {
        "mode": args.mode, "n_processors": args.processors,
        "n1": args.n1, "n2": args.n2,
        "sanitize": args.sanitize,
    }
    svc = DetectionService(
        quota=args.quota, cache_size=args.cache_size,
        coalesce=not args.no_coalesce, workers=args.pool_workers,
        store_path=args.store, sweep_interval=args.sweep_interval,
        runtime_config=runtime_config, host=args.host,
        tracing=not args.no_tracing, trace_capacity=args.trace_capacity,
    )
    try:
        for spec in args.register or []:
            _serve_register(svc, spec)
    except ConfigurationError as exc:
        print(str(exc), file=sys.stderr)
        svc.close()
        return 1
    port = svc.serve(args.port)
    print(f"serving detection API on http://{args.host}:{port}  "
          f"(/api/query /api/graphs /api/service /metrics /status /healthz)")
    print(f"{len(svc.registry)} graph(s) preloaded; quota "
          f"{args.quota} in-flight/tenant; mode={args.mode}", flush=True)

    # Shell background jobs ('repro serve ... &' from a script, which is
    # how the CI smoke job runs) inherit SIGINT as SIG_IGN, so Python
    # never arms its KeyboardInterrupt handler and 'kill -INT' would be
    # silently ignored.  Install handlers explicitly; SIGTERM gets the
    # same clean-drain path.
    import signal as _signal

    def _interrupt(signum, frame):
        raise KeyboardInterrupt

    try:
        _signal.signal(_signal.SIGINT, _interrupt)
        _signal.signal(_signal.SIGTERM, _interrupt)
    except ValueError:  # pragma: no cover - not the main thread
        pass
    try:
        if args.run_seconds:
            _time.sleep(args.run_seconds)
        else:
            while True:
                _time.sleep(3600)
    except KeyboardInterrupt:
        print("\nshutting down", file=sys.stderr)
    finally:
        svc.close()
    return 0


def cmd_query(args) -> int:
    """One-shot client for a running ``repro serve`` endpoint."""
    from repro.errors import ConfigurationError, QuotaExceededError, ServiceError
    from repro.service.client import HttpClient

    spec = _spec_for(args, args.kind, {"seed": args.seed}, graph=args.graph)
    client = HttpClient(args.url)
    try:
        outcome = client.query(spec, tenant=args.tenant)
    except QuotaExceededError as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return 6
    except (ConfigurationError, ServiceError) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    if args.json:
        import json as _json

        print(_json.dumps(outcome.payload, indent=2))
    else:
        _print_remote_detection(outcome)
    found = outcome.found
    if args.kind == "scan":
        return 0
    return 0 if found else 1


def cmd_trace(args) -> int:
    """Fetch a finished query's end-to-end trace from a running
    ``repro serve`` endpoint and render it."""
    import json as _json

    from repro.errors import ConfigurationError, ServiceError
    from repro.obs.chrome_trace import trace_to_chrome, validate_chrome_trace
    from repro.obs.qtrace import render_timeline
    from repro.service.client import HttpClient

    client = HttpClient(args.url)
    try:
        doc = client.trace(args.trace_id)
    except (ConfigurationError, ServiceError) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    if doc is None:
        print(f"unknown trace: {args.trace_id} (expired from the ring "
              f"buffer, or tracing is disabled on the server)",
              file=sys.stderr)
        return 1
    if args.json:
        print(_json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(render_timeline(doc))
    if args.chrome_out:
        chrome = trace_to_chrome(doc)
        validate_chrome_trace(chrome)
        with open(args.chrome_out, "w", encoding="utf-8") as fh:
            _json.dump(chrome, fh)
        print(f"chrome trace written: {args.chrome_out} "
              f"(open in chrome://tracing or ui.perfetto.dev)")
    return 0


def cmd_figures(args) -> int:
    from repro.experiments import FIGURES, figure_rows
    from repro.runtime.costmodel import KernelCalibration

    cal = KernelCalibration.measure() if args.measure else None
    names = [args.name] if args.name else sorted(FIGURES)
    for name in names:
        rows = figure_rows(name, calibration=cal)
        print(f"\n=== {name} ===")
        header = list(rows[0].keys())
        print("  ".join(f"{h:>16}" for h in header))
        for r in rows:
            cells = []
            for h in header:
                v = r[h]
                if v is None:
                    cells.append(f"{'-':>16}")
                elif isinstance(v, float):
                    cells.append(f"{v:>16.4g}")
                else:
                    cells.append(f"{str(v):>16}")
            print("  ".join(cells))
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro.core.engine import BACKENDS, MidasRuntime
    from repro.graph.datasets import DATASETS
    from repro.service.broker import KINDS, STATISTICS, TEMPLATES

    p = argparse.ArgumentParser(
        prog="repro",
        description="MIDAS: multilinear detection at scale (IPDPS 2018 reproduction)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("datasets", help="print the Table II dataset registry")
    d.add_argument("--generate", action="store_true", help="generate stand-ins")
    d.add_argument("--scale", type=float, default=0.001)
    d.add_argument("--seed", type=int, default=0)
    d.set_defaults(fn=cmd_datasets)

    dp = sub.add_parser("detect-path", help="decide whether a k-path exists")
    _add_graph_args(dp)
    _add_runtime_args(dp)
    _add_client_args(dp)
    dp.add_argument("-k", type=int, required=True)
    dp.set_defaults(fn=cmd_detect_path)

    dt = sub.add_parser("detect-tree", help="decide whether a tree template embeds")
    _add_graph_args(dt)
    _add_runtime_args(dt)
    _add_client_args(dt)
    dt.add_argument("-k", type=int, required=True)
    dt.add_argument("--template", choices=list(TEMPLATES), default="binary")
    dt.set_defaults(fn=cmd_detect_tree)

    sc = sub.add_parser("scan", help="scan-statistics anomaly detection")
    _add_graph_args(sc)
    _add_runtime_args(sc)
    _add_client_args(sc)
    sc.add_argument("-k", type=int, required=True)
    sc.add_argument("--statistic", choices=STATISTICS, default="berk-jones")
    sc.add_argument("--alpha", type=float, default=0.05)
    sc.add_argument("--plant", type=int, default=0,
                    help="plant a hot connected cluster of this size")
    sc.add_argument("--extract", action="store_true",
                    help="peel out the maximizing cluster")
    sc.set_defaults(fn=cmd_scan)

    ca = sub.add_parser("calibrate", help="measure the c1(N2) kernel calibration")
    ca.add_argument("--nodes", type=int, default=4096)
    ca.add_argument("--degree", type=int, default=16)
    ca.add_argument("-k", type=int, default=8)
    ca.set_defaults(fn=cmd_calibrate)

    mo = sub.add_parser("model", help="evaluate the Theorem-2 performance model")
    mo.add_argument("--dataset", choices=list(DATASETS), default="random-1e6")
    mo.add_argument("-k", type=int, default=10)
    mo.add_argument("-N", "--processors", type=int, default=512)
    mo.add_argument("--n1", type=int, default=32)
    mo.add_argument("--n2", type=int, default=None)
    mo.add_argument("--eps", type=float, default=0.2)
    mo.add_argument("--problem", choices=["path", "tree", "scanstat"], default="path")
    mo.add_argument("--measure", action="store_true",
                    help="calibrate live instead of using the synthetic curve")
    mo.set_defaults(fn=cmd_model)

    vf = sub.add_parser(
        "verify",
        help="sanitized detection + cross-backend replay + certification",
    )
    _add_graph_args(vf)
    _add_runtime_args(vf)
    vf.add_argument("-k", type=int, required=True)
    vf.add_argument("--reference-mode", choices=list(BACKENDS),
                    default=MidasRuntime.mode,
                    help="backend the replay check compares against")
    vf.set_defaults(fn=cmd_verify)

    rp = sub.add_parser("report", help="render a RunReport/metrics JSON as text")
    rp.add_argument("path", help="file written by --report-out or --metrics-out")
    rp.add_argument("--max-phases", type=int, default=12,
                    help="phase-table rows to show (default 12)")
    rp.set_defaults(fn=cmd_report)

    hi = sub.add_parser("history", help="list a run-history store's records")
    hi.add_argument("store", help="JSONL store written with --store")
    hi.add_argument("--scenario", default=None, help="filter to one scenario")
    hi.add_argument("--last", type=int, default=0,
                    help="only the newest N records (default all)")
    hi.set_defaults(fn=cmd_history)

    cp = sub.add_parser(
        "compare",
        help="diff two stored runs (or newest vs rolling baseline); "
             "exit 3 on regression",
    )
    cp.add_argument("store", help="JSONL store written with --store")
    cp.add_argument("--scenario", default=None,
                    help="scenario to compare (required unless the store "
                         "holds exactly one)")
    cp.add_argument("--tolerance", type=float, default=0.25,
                    help="relative growth beyond which a metric regresses "
                         "(default 0.25 = +25%%)")
    cp.add_argument("--wall-tolerance", type=float, default=None,
                    help="gate the noisy wall_* metrics at this tolerance "
                         "(default: report them as 'noted' without failing)")
    cp.add_argument("--ref", type=int, default=None,
                    help="baseline record index (negatives from the end; "
                         "default: rolling-baseline mean of prior runs)")
    cp.add_argument("--new", type=int, default=None,
                    help="candidate record index (default -1, the newest)")
    cp.add_argument("--window", type=int, default=5,
                    help="rolling-baseline window (default 5)")
    cp.add_argument("--json-out", metavar="PATH", default=None,
                    help="also write the comparison as JSON")
    cp.set_defaults(fn=cmd_compare)

    wa = sub.add_parser(
        "watch",
        help="follow a live run: poll /status on a --live-port endpoint "
             "or tail a --progress-out JSONL stream",
    )
    wa.add_argument("target",
                    help="http://host:port of a --live-port run, or the "
                         "path of a --progress-out stream")
    wa.add_argument("--interval", type=float, default=0.5,
                    help="seconds between polls (default 0.5)")
    wa.add_argument("--follow", action="store_true",
                    help="keep tailing a progress file until run_end")
    wa.add_argument("--timeout", type=float, default=0.0,
                    help="give up after this many seconds (0 = never)")
    wa.add_argument("--stall-timeout", type=float, default=None,
                    metavar="SECONDS",
                    help="report the run as stalled (exit 5) when its last "
                         "heartbeat is older than this, instead of polling "
                         "forever")
    wa.set_defaults(fn=cmd_watch)

    rs = sub.add_parser(
        "resume",
        help="continue a checkpointed run from its --checkpoint-dir; the "
             "completed rounds are restored, not re-executed, and the "
             "result is bit-identical to an uninterrupted run",
    )
    rs.add_argument("dir", help="checkpoint directory of the interrupted run")
    rs.add_argument("--allow-restart", action="store_true",
                    help="if the checkpoint is corrupt, discard it and "
                         "restart from scratch instead of failing (exit 2)")
    rs.set_defaults(fn=cmd_resume)

    sv = sub.add_parser(
        "serve",
        help="run the persistent multi-tenant detection service: preloaded "
             "graphs, session reuse, result cache, per-tenant quotas",
    )
    sv.add_argument("--host", default="127.0.0.1")
    sv.add_argument("--port", type=int, default=0,
                    help="HTTP port (default 0 = ephemeral; the bound port "
                         "is printed and reported in /status)")
    sv.add_argument("--register", action="append", metavar="NAME=SOURCE",
                    help="preload a graph: NAME=er:N[:M[:SEED]] generates, "
                         "NAME=PATH reads an edge list (repeatable)")
    sv.add_argument("--quota", type=int, default=8,
                    help="max in-flight executions per tenant; the next "
                         "query is rejected with HTTP 429 (default 8)")
    sv.add_argument("--cache-size", type=int, default=256,
                    help="result-cache entries, LRU-evicted (0 disables)")
    sv.add_argument("--no-coalesce", action="store_true",
                    help="do not join identical in-flight queries")
    sv.add_argument("--pool-workers", type=int, default=None,
                    help="worker processes answering queries, one query "
                         "each at a time, in every --mode (default: the "
                         "CPUs this process may use)")
    sv.add_argument("--sweep-interval", type=float, default=0.05,
                    help="coordinator sweep period in seconds (default 0.05)")
    sv.add_argument("--store", metavar="PATH", default=None,
                    help="append a RunRecord per served query to this JSONL "
                         "run-history store")
    sv.add_argument("--run-seconds", type=float, default=None,
                    help="exit cleanly after this long (smoke tests; "
                         "default: serve until Ctrl-C)")
    _add_mode_args(sv)
    sv.add_argument("--no-tracing", action="store_true",
                    help="disable per-query distributed tracing and "
                         "per-tenant SLO metrics")
    sv.add_argument("--trace-capacity", type=int, default=512,
                    help="finished traces kept in memory for "
                         "/api/trace/<id> (default 512, LRU-evicted)")
    sv.set_defaults(fn=cmd_serve)

    qu = sub.add_parser(
        "query",
        help="send one detection query to a running `repro serve` endpoint",
    )
    qu.add_argument("url", help="service base URL, e.g. http://127.0.0.1:8641")
    qu.add_argument("--kind", choices=KINDS, default="detect-path")
    qu.add_argument("--graph", required=True,
                    help="registered graph name, sha, or sha prefix")
    qu.add_argument("-k", type=int, required=True)
    qu.add_argument("--eps", type=float, default=0.1)
    qu.add_argument("--seed", type=int, default=0,
                    help="pinned seed policy: the same seed always returns "
                         "a bit-identical result (and hits the cache)")
    qu.add_argument("--template", choices=list(TEMPLATES), default="binary")
    qu.add_argument("--statistic", choices=STATISTICS, default="berk-jones")
    qu.add_argument("--alpha", type=float, default=0.05)
    qu.add_argument("--extract", action="store_true")
    qu.add_argument("--tenant", default="cli")
    qu.add_argument("--json", action="store_true",
                    help="print the full JSON payload instead of a summary")
    qu.set_defaults(fn=cmd_query)

    tr = sub.add_parser(
        "trace",
        help="render a served query's end-to-end timeline (client, broker "
             "stages, engine rounds, process workers) by trace id",
    )
    tr.add_argument("trace_id", help="32-hex trace id from a query reply")
    tr.add_argument("--url", required=True,
                    help="service base URL, e.g. http://127.0.0.1:8641")
    tr.add_argument("--json", action="store_true",
                    help="print the raw trace document instead of a timeline")
    tr.add_argument("--chrome-out", metavar="PATH", default=None,
                    help="also write the cross-process Chrome trace_event "
                         "JSON (chrome://tracing / ui.perfetto.dev)")
    tr.set_defaults(fn=cmd_trace)

    fg = sub.add_parser("figures", help="regenerate the paper's figure series")
    fg.add_argument("name", nargs="?", default=None,
                    help="figure id (fig3-5, fig6-8, fig9, fig10, fig11, fig12, "
                         "giraph); all when omitted")
    fg.add_argument("--measure", action="store_true",
                    help="calibrate live instead of using the synthetic curve")
    fg.set_defaults(fn=cmd_figures)

    return p


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
