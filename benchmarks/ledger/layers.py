"""Per-layer measurements, taken from outside the program.

Every number here comes from timing calls into a layer's public functions
on the ledger workloads' own inputs; nothing under ``src/`` is
instrumented.  Each timed call is also a span in the run's recorder, so
the trace file shows the same calls nested the way they were made.

The engine and runtime ladders run ``LADDER_ROUNDS`` amplification rounds
instead of the workloads' eight: the ladder needs the per-round cost of
eight configurations inside one benchmark run, and a round is a round.
The fixed per-call cost is therefore spread over fewer rounds than in a
real op, which makes ``engine.residual_share.*`` an upper bound on the
share a full op would show.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

from repro.core.engine import EngineSession, MidasRuntime
from repro.core.evaluator_path import path_eval_phase, path_phase_value
from repro.core.evaluator_scanstat import scanstat_eval_phase
from repro.core.evaluator_tree import tree_eval_phase
from repro.core.evaluator_wpath import weighted_path_eval_phase
from repro.core.halo import build_halo_views
from repro.core.midas import detect_path
from repro.core.problems import path_problem
from repro.core.process_backend import ProcessPhasePool
from repro.core.schedule import rounds_for_epsilon
from repro.ff.fingerprint import Fingerprint
from repro.ff.gf2m import GF2m, default_field_for_k, field_degree_for_k
from repro.graph.csr import xor_segment_reduce
from repro.graph.io import read_edge_list, write_edge_list
from repro.graph.partition import make_partition
from repro.graph.templates import decompose_template
from repro.obs.metrics import MetricsRegistry
from repro.runtime.costmodel import KernelCalibration
from repro.runtime.tracing import TraceRecorder
from repro.service import DetectionService, HttpClient, LocalClient
from repro.util.rng import RngStream

import host
import workloads as wl

FIELD_M = 7  # l = 3 + ceil(log2 k) for k = 9..16: both k-path workloads
LANES = 64
LADDER_EPS = 0.7
LADDER_ROUNDS = rounds_for_epsilon(LADDER_EPS)
ONE_ROUND_EPS = 0.85
MEMCPY_CAP = 32 << 20
assert LADDER_ROUNDS == 2 and rounds_for_epsilon(ONE_ROUND_EPS) == 1


class Suite:
    """Shared inputs and the timing helper for one layer-suite run."""

    def __init__(self, seed: int, quick: bool, rec, results: Path) -> None:
        self.seed, self.quick, self.rec, self.results = seed, quick, rec, results
        self.dense = wl.KpathDense(seed, quick)
        self.kinds = wl.KindsElementwise(seed, quick)
        self.wide = wl.KpathWideProc(seed, quick)
        self.sim = wl.SimScaling(seed, quick)
        self.out: Dict[str, float] = {}
        self.notes: Dict[str, object] = {"ladder_rounds": LADDER_ROUNDS}

    def rng(self, label: str) -> RngStream:
        return RngStream(wl.derive(self.seed, f"layers/{label}")[0])

    def time(self, name: str, layer: str, fn: Callable[[], object],
             reps: int = 5, warm: int = 1) -> float:
        """Median wall of ``reps`` calls to ``fn``, each one a span."""
        for _ in range(warm):
            fn()
        walls = []
        for _ in range(reps):
            with self.rec.span(name, layer):
                t0 = time.perf_counter()
                fn()
                walls.append(time.perf_counter() - t0)
        return statistics.median(walls)


# ----------------------------------------------------------------------- ff
def measure_ff(s: Suite) -> None:
    n = 256 if s.quick else 4096
    elems = n * LANES
    rng = s.rng("ff")
    table = GF2m(FIELD_M, kernel_strategy="table")
    logexp = GF2m(FIELD_M, kernel_strategy="logexp")
    bs = GF2m(FIELD_M, kernel_strategy="bitsliced").bitsliced
    a, b = table.random(rng, size=(n, LANES)), table.random(rng, size=(n, LANES))
    pa, pb = bs.slice(a), bs.slice(b)
    pa256, pb256 = bs.slice(a.reshape(n // 4, 4 * LANES)), bs.slice(b.reshape(n // 4, 4 * LANES))
    scalar = 0x53
    fp = Fingerprint.draw(n, 10, rng, field=table)

    def per_elem(name, fn):
        s.out[name] = s.time(name, "ff", fn) / elems * 1e9

    with s.rec.span("layers.ff", "driver"):
        per_elem("ff.mul_ns.table", lambda: table.mul(a, b))
        per_elem("ff.mul_ns.logexp", lambda: logexp.mul(a, b))
        per_elem("ff.mul_ns.bitsliced", lambda: bs.mul(pa, pb))
        per_elem("ff.mul_ns.bitsliced_n256", lambda: bs.mul(pa256, pb256))
        per_elem("ff.mul_scalar_ns.table", lambda: table.mul_scalar(a, scalar))
        per_elem("ff.mul_scalar_ns.bitsliced", lambda: bs.mul_scalar(pa, scalar))
        per_elem("ff.slice_ns", lambda: bs.slice(a))
        per_elem("ff.unslice_ns", lambda: bs.unslice(pa, LANES))
        per_elem("ff.base_block_ns", lambda: fp.level_base_block(1, 0, LANES))
        s.out["ff.field_build_s.table"] = s.time(
            "ff.field_build_s.table", "ff",
            lambda: GF2m(FIELD_M, kernel_strategy="table"))
        s.out["ff.field_build_s.bitsliced"] = s.time(
            "ff.field_build_s.bitsliced", "ff",
            lambda: GF2m(FIELD_M, kernel_strategy="bitsliced").bitsliced)
        draw_rng = s.rng("ff/draw")
        s.out["ff.fingerprint_draw_s"] = s.time(
            "ff.fingerprint_draw_s", "ff",
            lambda: Fingerprint.draw(s.dense.graph.n, s.dense.k, draw_rng, field=table))

        # bandwidth ceiling.  The arrays should be >= 4x the last-level cache;
        # they are capped because first-touch page faults cost ~30 ms/MB on
        # the reference VM — both sizes are stated so the reader can judge
        llc = host.llc_bytes()
        nbytes = (4 << 20) if s.quick else min(max(4 * llc, 8 << 20), MEMCPY_CAP)
        src = np.ones(nbytes // 8, dtype=np.uint64)
        dst = np.empty_like(src)
        copy_s = s.time("ff.memcpy", "ff", lambda: np.copyto(dst, src), reps=5)
        s.out["ff.memcpy_gbps"] = 2 * nbytes / copy_s / 1e9  # read + write
        s.notes["memcpy"] = {"array_bytes": nbytes, "llc_bytes": llc,
                             "meets_4x_llc": nbytes >= 4 * llc}
        del src, dst
        # computed bytes of one plane multiply: two operands read, one written
        mul_bytes = 3 * pa.nbytes
        mul_s = s.out["ff.mul_ns.bitsliced"] * elems / 1e9
        s.out["ff.mul_bw_ratio.bitsliced"] = (mul_bytes / mul_s / 1e9) / s.out["ff.memcpy_gbps"]


# -------------------------------------------------------------------- graph
def measure_graph(s: Suite) -> None:
    g = s.dense.graph
    nnz = len(g.indices)
    rng = s.rng("graph")
    elem = GF2m(FIELD_M).random(rng, size=(nnz, LANES))
    planes = rng.integers(0, 1 << 62, size=(nnz, FIELD_M)).astype(np.uint64)
    with s.rec.span("layers.graph", "driver"):
        for name, vals in (("graph.xor_reduce_ns.elem", elem),
                           ("graph.xor_reduce_ns.planes", planes)):
            s.out[name] = s.time(
                name, "graph", lambda: xor_segment_reduce(vals, g.indptr)
            ) / (nnz * LANES) * 1e9
        s.out["graph.generate_s"] = s.time(
            "graph.generate_s", "graph",
            lambda: wl.KpathDense(s.seed, s.quick), reps=3, warm=0)
        n1 = s.sim.p["n1"]
        for method in ("random", "bfs", "greedy"):
            name = f"graph.partition_s.{method}"
            s.out[name] = s.time(
                name, "graph",
                lambda: make_partition(s.sim.graph, n1, method, rng=RngStream(7777)),
                reps=3, warm=0)


# ----------------------------------------------------------- core.evaluator
def measure_evaluator(s: Suite) -> None:
    rng = s.rng("eval")

    def path_phase(w, strategy: str) -> float:
        fp = Fingerprint.draw(w.graph.n, w.k, rng,
                              field=default_field_for_k(w.k, kernel_strategy=strategy))
        lanes = min(LANES, 1 << w.k)
        return s.time(f"path_eval_phase[{w.name},{strategy}]", "core.evaluator",
                      lambda: path_eval_phase(w.graph, fp, 0, lanes))

    def rate(w, seconds: float) -> float:
        lanes = min(LANES, 1 << w.k)
        return len(w.graph.indices) * lanes * (w.k - 1) / seconds

    with s.rec.span("layers.evaluator", "driver"):
        s.out["eval.path_phase_s.table"] = path_phase(s.dense, "table")
        s.out["eval.path_phase_s.bitsliced"] = path_phase(s.dense, "bitsliced")
        s.out["eval.edge_iter_rate.path_dense"] = rate(
            s.dense, s.out["eval.path_phase_s.bitsliced"])
        s.out["eval.edge_iter_rate.path_wide"] = rate(
            s.wide, path_phase(s.wide, "bitsliced"))

        g, w, p = s.kinds.graph, s.kinds.weights, s.kinds.p
        nnz = len(g.indices)
        template = s.kinds.template
        specs = decompose_template(template)
        joins = sum(1 for sp in specs if not sp.is_leaf)
        lanes = min(LANES, 1 << template.k)
        fp = Fingerprint.draw(g.n, template.k, rng, field=default_field_for_k(template.k))
        t = s.out["eval.tree_phase_s"] = s.time(
            "tree_eval_phase", "core.evaluator",
            lambda: tree_eval_phase(g, template, fp, 0, lanes, specs))
        s.out["eval.edge_iter_rate.tree"] = nnz * lanes * joins / t

        k = p["wpath_k"]
        lanes = min(LANES, 1 << k)
        fp = Fingerprint.draw(g.n, k, rng, field=default_field_for_k(k))
        t = s.out["eval.wpath_phase_s"] = s.time(
            "weighted_path_eval_phase", "core.evaluator",
            lambda: weighted_path_eval_phase(g, w, fp, k, 0, lanes))
        s.out["eval.edge_iter_rate.wpath"] = nnz * lanes * (k - 1) * (k + 1) / t

        k = p["scan_k"]
        lanes = min(LANES, 1 << k)
        fp = Fingerprint.draw(g.n, k, rng, levels=k + 1,
                              field=default_field_for_k(max(k, 2)))
        t = s.out["eval.scanstat_phase_s"] = s.time(
            "scanstat_eval_phase", "core.evaluator",
            lambda: scanstat_eval_phase(g, w, fp, k, 0, lanes))
        s.out["eval.edge_iter_rate.scanstat"] = nnz * lanes * (k - 1) * (k + 1) / t


# -------------------------------------------------------------- core.engine
def _ladder_detect(w, mode: str, eps: float = LADDER_EPS, **extra):
    workers = getattr(w, "workers", None) if mode != "sequential" else None
    rt = MidasRuntime(mode=mode, workers=workers, **extra)
    return detect_path(w.graph, w.k, eps=eps, rng=RngStream(w.op_seed),
                       runtime=rt, early_exit=False)


def _replay(s: Suite, w, rounds: int) -> float:
    """Replay a sequential detect_path's schedule by calling the phase
    evaluator directly; returns the summed wall of the phase calls."""
    rt = MidasRuntime()
    sched = rt.schedule_for(w.k)
    field = default_field_for_k(w.k, kernel_strategy=rt.resolve_kernel(
        field_degree_for_k(w.k), sched.n2, plane=True))
    rng = RngStream(w.op_seed)
    phases_s = 0.0
    values = []
    with s.rec.span(f"replay[{w.name}]", "core.engine") as root:
        for ell in range(rounds):
            with s.rec.span("Fingerprint.draw", "ff"):
                fp = Fingerprint.draw(w.graph.n, w.k, rng.child(f"round{ell}"),
                                      levels=w.k, field=field)
            value = 0
            for t in range(sched.n_phases):
                with s.rec.span("path_phase_value", "core.evaluator") as sp:
                    t0 = time.perf_counter()
                    value ^= path_phase_value(w.graph, fp, t * sched.n2, sched.n2)
                    phases_s += time.perf_counter() - t0
                    sp.count(phases=1, edge_iterations=len(w.graph.indices)
                             * sched.n2 * (w.k - 1))
            values.append(value)
        root.count(rounds=rounds)
    s.notes.setdefault("replay_values", {})[w.name] = values
    return phases_s


def _engine_vs_replay(s: Suite, w, reps: int = 3):
    """Sequential detect_path walls and the walls of the same schedule's
    phase calls made directly, ``reps`` of each, interleaved."""
    walls, phases, ok = [], [], True
    for _ in range(reps):
        with s.rec.span(f"detect_path[{w.name}]", "core.engine"):
            t0 = time.perf_counter()
            res = _ladder_detect(w, "sequential")
            walls.append(time.perf_counter() - t0)
        phases.append(_replay(s, w, LADDER_ROUNDS))
        ok &= [int(r.value) for r in res.rounds] == s.notes["replay_values"][w.name]
    s.notes[f"replay_matches_engine.{w.name}"] = ok
    return walls, phases


def measure_engine(s: Suite) -> None:
    with s.rec.span("layers.engine", "driver"):
        # the residual is a small difference of two nearly equal walls, and
        # host noise only ever adds time: compare the best of each
        for tag, w in (("dense", s.dense), ("wide", s.wide)):
            walls, phases = _engine_vs_replay(s, w)
            s.out[f"engine.residual_share.{tag}"] = (min(walls) - min(phases)) / min(walls)
        s.out["engine.round_s.sequential"] = statistics.median(walls) / LADDER_ROUNDS
        for mode, reps in (("threaded", 2), ("process", 3)):
            name = f"engine.round_s.{mode}"
            s.out[name] = s.time(
                name, "core.engine", lambda: _ladder_detect(s.wide, mode),
                reps=reps, warm=0) / LADDER_ROUNDS
        s.out["engine.par_speedup"] = (s.out["engine.round_s.sequential"]
                                       / s.out["engine.round_s.process"])
        s.notes["par_speedup_base"] = (
            f"sequential round / process round on kpath_wide_proc inputs, "
            f"{s.wide.workers} workers, {host.nproc()} cores")

        sim_rt = s.sim.runtime()

        def build_session():
            sess = EngineSession.for_runtime(s.sim.graph, sim_rt)
            sess.ensure_views()
            sess.field_for_k(s.sim.k)

        s.out["engine.session_build_s"] = s.time(
            "engine.session_build_s", "core.engine", build_session, reps=3, warm=0)

        spec = path_problem(s.wide.graph, s.wide.k)
        fp = spec.draw_fingerprint(s.wide.graph.n, s.rng("engine/pool"))

        def pool_until_every_worker_answers():
            pool = ProcessPhasePool(s.wide.graph, s.wide.workers)
            try:
                wired = pool.wire_spec(spec)
                for fut in [pool.submit(wired, fp, 0, LANES)
                            for _ in range(s.wide.workers)]:
                    fut.result(timeout=60)
            finally:
                pool.close()

        s.out["engine.pool_start_s"] = s.time(
            "engine.pool_start_s", "core.engine", pool_until_every_worker_answers,
            reps=3, warm=0)
        s.out["engine.phases_per_op"] = (
            wl.ROUNDS * MidasRuntime().schedule_for(s.dense.k).n_phases)


# ------------------------------------------------------------------ runtime
def measure_runtime(s: Suite) -> None:
    base = s.sim.p["n_processors"]
    ladder = {"n16": base // 4, "n32": base // 2, "n64": base, "n128": base * 2}
    with s.rec.span("layers.runtime", "driver"):
        for tag, n_proc in ladder.items():
            name = f"runtime.sim_wall_s.{tag}"
            with s.rec.span(name, "runtime") as sp:
                t0 = time.perf_counter()
                res = detect_path(s.sim.graph, s.sim.k, eps=LADDER_EPS,
                                  rng=RngStream(s.sim.op_seed),
                                  runtime=s.sim.runtime(n_proc), early_exit=False)
                s.out[name] = time.perf_counter() - t0
                sp.count(rounds=res.rounds_run, ranks=n_proc)
            if tag == "n64":
                s.out["runtime.virtual_makespan_s.n64"] = res.virtual_seconds
        reg = MetricsRegistry()
        detect_path(s.sim.graph, s.sim.k, eps=ONE_ROUND_EPS,
                    rng=RngStream(s.sim.op_seed),
                    runtime=s.sim.runtime(metrics=reg, trace=True), early_exit=False)
        s.out["runtime.comm_bytes.n64"] = reg.counter("midas_comm_bytes_total").labels(
            problem="k-path").value

        part = make_partition(s.sim.graph, s.sim.p["n1"], "random", rng=RngStream(7777))
        s.out["runtime.halo_build_s"] = s.time(
            "runtime.halo_build_s", "runtime",
            lambda: build_halo_views(s.sim.graph, part), reps=3, warm=0)
        calib = {"sample_nodes": 128 if s.quick else 1024, "grid": (1, 8, 64, 256),
                 "min_time": 0.005}
        s.notes["calibrate"] = calib
        s.out["runtime.calibrate_s"] = s.time(
            "runtime.calibrate_s", "runtime",
            lambda: KernelCalibration.measure(**calib), reps=1, warm=0)

        rt = MidasRuntime(checkpoint_dir=str(s.results / "checkpoint"))
        detect_path(s.wide.graph, s.wide.k, eps=ONE_ROUND_EPS,
                    rng=RngStream(s.wide.op_seed), runtime=rt, early_exit=False)
        s.out["runtime.checkpoint_commit_s"] = s.time(
            "runtime.checkpoint_commit_s", "runtime", rt.checkpoint.save, warm=0)


# ------------------------------------------------------------ service + obs
def _service(w: wl.ServiceMixed, tracing: bool = True):
    svc = DetectionService(workers=host.nproc(), quota=8, tracing=tracing,
                           metrics=MetricsRegistry()).start()
    return svc, LocalClient(svc)


def measure_service(s: Suite) -> None:
    w = wl.ServiceMixed(s.seed, s.quick)
    seeds = wl.derive(s.seed, "layers/service", 16)
    fresh = [w._spec("detect-path", x) for x in seeds]
    reps = 5
    with s.rec.span("layers.service", "driver"):
        svc, client = _service(w)
        try:
            s.out["service.register_graph_s"] = s.time(
                "service.register_graph_s", "service",
                lambda: client.register_graph(w.graph, name=w.GRAPH), reps=1, warm=0)

            def query(spec, name):
                with s.rec.span(name, "service") as sp:
                    t0 = time.perf_counter()
                    out = client.query(spec, tenant="layers")
                    dt = time.perf_counter() - t0
                    sp.count(queries=1, cache_hits=int(out.cache_hit))
                return dt

            s.out["service.query_cold_s"] = query(fresh[0], "service.query_cold_s")
            # warm query and the same detection called directly with the
            # session, in pairs so host drift cancels in the difference
            entry = svc.registry.resolve(w.GRAPH)
            warm, overhead = [], []
            for spec in fresh[1:1 + reps]:
                warm.append(query(spec, "service.query_warm_s"))
                rt = MidasRuntime(metrics=MetricsRegistry())
                rt.session = entry.session_for(rt)
                with s.rec.span("detect_path[session]", "core.engine"):
                    t0 = time.perf_counter()
                    detect_path(w.graph, spec.k, eps=spec.eps, rng=spec.seed_stream(),
                                runtime=rt, early_exit=False)
                    overhead.append(warm[-1] - (time.perf_counter() - t0))
            s.out["service.query_warm_s"] = statistics.median(warm)
            s.out["service.admission_overhead_s"] = statistics.median(overhead)
            hits = [query(spec, "service.query_cache_hit_s") for spec in fresh[1:1 + reps]]
            s.out["service.query_cache_hit_s"] = statistics.median(hits)

            svc.serve(0)
            remote = HttpClient(svc.url)
            http = []
            for spec in fresh[1:1 + reps]:  # all cached: transport is what differs
                with s.rec.span("HttpClient.query", "service"):
                    t0 = time.perf_counter()
                    remote.query(spec.to_dict(), tenant="layers")
                    http.append(time.perf_counter() - t0)
            s.out["service.http_roundtrip_s"] = (
                statistics.median(http) - s.out["service.query_cache_hit_s"])
        finally:
            svc.close()

        # the workload's own mix, a fixed number of queries: amortisation and errors
        w.stream = w.stream[: 12 if s.quick else 24]
        w.setup()
        try:
            mix = w.run_timed(60.0, s.rec)
        finally:
            w.close()
        served = mix["counts"]
        s.out["service.amortised_ratio"] = (
            (served["cache_hits"] + served["coalesced"]) / max(1, served["queries"]))
        s.out["service.errors"] = len(mix["failures"])
        s.notes["service_mix"] = {"queries": mix["attempted"], **served,
                                  "failures": mix["failures"]}


def measure_obs(s: Suite) -> None:
    w = wl.ServiceMixed(s.seed, s.quick)
    seeds = wl.derive(s.seed, "layers/obs", 16)
    n = 4 if s.quick else 8
    with s.rec.span("layers.obs", "driver"):
        arms = {tracing: _service(w, tracing=tracing) for tracing in (True, False)}
        walls = {True: [], False: []}
        try:
            for tracing, (_, client) in arms.items():
                client.register_graph(w.graph, name=w.GRAPH)
                client.query(w._spec("detect-path", seeds[0]), tenant="obs")
            for x in seeds[1:1 + n]:  # interleaved, so host drift hits both arms alike
                for tracing, (_, client) in arms.items():
                    with s.rec.span(f"LocalClient.query[tracing={tracing}]", "service"):
                        t0 = time.perf_counter()
                        client.query(w._spec("detect-path", x), tenant="obs")
                        walls[tracing].append(time.perf_counter() - t0)
        finally:
            for svc, _ in arms.values():
                svc.close()
        s.out["obs.service_tracing_ratio"] = (statistics.median(walls[True])
                                              / statistics.median(walls[False]))

        plain, recorded = [], []
        for _ in range(3):
            for walls, extra in ((plain, {}), (recorded, {"recorder": TraceRecorder()})):
                with s.rec.span("detect_path[recorder]" if extra else "detect_path",
                                "core.engine"):
                    t0 = time.perf_counter()
                    _ladder_detect(s.wide, "sequential", eps=ONE_ROUND_EPS, **extra)
                    walls.append(time.perf_counter() - t0)
        s.out["obs.recorder_ratio"] = statistics.median(recorded) / statistics.median(plain)


# ---------------------------------------------------------------------- cli
def measure_cli(s: Suite, env: dict) -> None:
    path = s.results / "kpath_dense.edges"
    write_edge_list(s.dense.graph, path)
    seed = s.dense.op_seed

    def run(args: List[str]) -> float:
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                              text=True, timeout=120)
        dt = time.perf_counter() - t0
        # detect-path exits 0 on FOUND and 1 on not-found; anything else is an error
        if proc.returncode not in (0, 1):
            raise RuntimeError(f"{args}: exit {proc.returncode}: {proc.stderr[-500:]}")
        s.notes.setdefault("cli_stdout", []).append(proc.stdout[-300:])
        return dt

    with s.rec.span("layers.cli", "driver"):
        s.out["cli.import_s"] = s.time(
            "cli.import_s", "cli", lambda: run(["-c", "import repro"]), reps=2, warm=0)
        with s.rec.span("cli.detect_path_s", "cli"):
            s.out["cli.detect_path_s"] = run(
                ["-m", "repro", "detect-path", "--edge-list", str(path), "-k",
                 str(s.dense.k), "--eps", str(wl.EPS), "--seed", str(seed)])
        # the same detection in-process: same file, same RNG lineage, early exit on
        with s.rec.span("detect_path[cli-equivalent]", "core.engine"):
            t0 = time.perf_counter()
            res = detect_path(read_edge_list(path), s.dense.k, eps=wl.EPS,
                              rng=RngStream(seed, name="cli").child("detect"))
            in_process = time.perf_counter() - t0
        s.out["cli.overhead_s"] = s.out["cli.detect_path_s"] - in_process
        s.notes["cli_rounds_in_process"] = res.rounds_run


def measure_all(seed: int, quick: bool, rec, results: Path, env: dict):
    """Run the whole layer suite; returns ``(metrics, notes)``."""
    s = Suite(seed, quick, rec, results)
    measure_ff(s)
    measure_graph(s)
    measure_evaluator(s)
    measure_engine(s)
    measure_runtime(s)
    measure_service(s)
    measure_obs(s)
    measure_cli(s, env)
    return s.out, s.notes
