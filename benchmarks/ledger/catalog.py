"""Names, units and predictions: the vocabulary every later issue uses.

``END_TO_END`` are what a user of the system sees, with the bound by
which each may worsen before a change counts as a regression.
``PER_LAYER`` are single-layer numbers; each one declares, *before it is
measured*, which end-to-end metric it should move and on which workload
(``moves``/``on``) — a layer number that improves without its declared
end-to-end metric following is a finding, not a gain.  ``BENCHMARK.json``
at the repository root is this file's machine-readable mirror;
``test_ledger.py`` keeps the two in step.
"""

from __future__ import annotations

# BLAS/OpenMP pools are capped before numpy loads: the kernels under test are
# single-threaded ufuncs, and an uncapped pool only adds idle threads
THREAD_CAPS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}

WORKLOADS = {
    "kpath_dense": (
        "detect_path k=10 on ER n=800 m=6400 planted path, sequential auto kernel: "
        "bit-sliced ff and the path evaluator do >90% of the work, so kernel and "
        "LevelDP changes show here"),
    "kinds_elementwise": (
        "detect_tree binary(8) + max_weight_path k=6 + scan_grid k=5 on ER n=600: "
        "table/logexp element-wise kernels and the z weight axis, which a "
        "plane-path gain must not slow"),
    "kpath_wide_proc": (
        "detect_path k=11 on ER n=400 m=1600 in process mode: tiny per-phase "
        "arrays, so numpy dispatch, engine bookkeeping, pool start and task wire "
        "set the time, not bandwidth"),
    "service_mixed": (
        "one DetectionService, 2 blocking clients, 70% k-path k=6 / 30% k-tree k=5 "
        "on ER n=1500 m=6000, 25% repeats: admission, cache, session reuse, qtrace "
        "and GIL contention decide latency"),
    "sim_scaling": (
        "detect_path k=8 on ER n=800 with 64 simulated ranks (N1=16): scheduler, "
        "collectives, halo and partition do the work; the path every paper figure "
        "takes"),
}

END_TO_END = [
    {"name": "op_p50_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.10},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]

# The tail is reported by the full ledger only, and only for a workload whose
# pooled sample has ten ops beyond it (today: service_mixed).  A single
# run of a library workload holds about ten ops, so a p95 there would be its
# slowest op under another name; it is therefore not in BENCHMARK.json.
LEDGER_TAIL = {"name": "op_p95_s", "unit": "s", "better": "lower", "bound": 0.25}

DENSE, KINDS, WIDE, SERVICE, SIM = WORKLOADS


def _rows(layer, unit, better, moves, on, names):
    return [{"name": n, "unit": unit, "better": better, "layer": layer,
             "moves": moves, "on": on} for n in names]


PER_LAYER = (
    # ---- ff ---------------------------------------------------------------
    _rows("ff", "ns", "lower", "op_p50_s", [DENSE],
          ["ff.mul_ns.bitsliced", "ff.mul_ns.bitsliced_n256",
           "ff.mul_scalar_ns.bitsliced", "ff.slice_ns", "ff.unslice_ns"])
    + _rows("ff", "ns", "lower", "op_p50_s", [KINDS, SIM],
            ["ff.mul_ns.table", "ff.mul_ns.logexp", "ff.mul_scalar_ns.table",
             "ff.base_block_ns"])
    + _rows("ff", "s", "lower", "setup_s", [DENSE, KINDS, WIDE, SERVICE, SIM],
            ["ff.field_build_s.table", "ff.field_build_s.bitsliced"])
    + _rows("ff", "s", "lower", "op_p50_s", [DENSE, WIDE], ["ff.fingerprint_draw_s"])
    + _rows("ff", "GB/s", "higher", "op_p50_s", [DENSE], ["ff.memcpy_gbps"])
    + _rows("ff", "ratio", "higher", "op_p50_s", [DENSE], ["ff.mul_bw_ratio.bitsliced"])
    # ---- graph ------------------------------------------------------------
    + _rows("graph", "ns", "lower", "op_p50_s", [KINDS, SIM], ["graph.xor_reduce_ns.elem"])
    + _rows("graph", "ns", "lower", "op_p50_s", [DENSE], ["graph.xor_reduce_ns.planes"])
    + _rows("graph", "s", "lower", "setup_s", [DENSE], ["graph.generate_s"])
    + _rows("graph", "s", "lower", "op_p50_s", [SIM],
            ["graph.partition_s.random", "graph.partition_s.bfs",
             "graph.partition_s.greedy"])
    # ---- core.evaluator ---------------------------------------------------
    + _rows("core.evaluator", "s", "lower", "op_p50_s", [DENSE],
            ["eval.path_phase_s.table", "eval.path_phase_s.bitsliced"])
    + _rows("core.evaluator", "s", "lower", "op_p50_s", [KINDS],
            ["eval.tree_phase_s", "eval.wpath_phase_s", "eval.scanstat_phase_s"])
    + _rows("core.evaluator", "1/s", "higher", "ops_per_s", [DENSE],
            ["eval.edge_iter_rate.path_dense"])
    + _rows("core.evaluator", "1/s", "higher", "ops_per_s", [WIDE],
            ["eval.edge_iter_rate.path_wide"])
    + _rows("core.evaluator", "1/s", "higher", "ops_per_s", [KINDS],
            ["eval.edge_iter_rate.tree", "eval.edge_iter_rate.wpath",
             "eval.edge_iter_rate.scanstat"])
    # ---- core.engine ------------------------------------------------------
    + _rows("core.engine", "s", "lower", "op_p50_s", [WIDE],
            ["engine.round_s.sequential", "engine.round_s.threaded",
             "engine.round_s.process", "engine.pool_start_s"])
    + _rows("core.engine", "ratio", "lower", "op_p50_s", [DENSE],
            ["engine.residual_share.dense"])
    + _rows("core.engine", "ratio", "lower", "op_p50_s", [WIDE],
            ["engine.residual_share.wide"])
    + _rows("core.engine", "s", "lower", "setup_s", [SERVICE, SIM],
            ["engine.session_build_s"])
    + _rows("core.engine", "ratio", "higher", "ops_per_s", [WIDE], ["engine.par_speedup"])
    + _rows("core.engine", "count", "lower", "op_p50_s", [DENSE], ["engine.phases_per_op"])
    # ---- runtime ----------------------------------------------------------
    + _rows("runtime", "s", "lower", "op_p50_s", [SIM],
            ["runtime.sim_wall_s.n16", "runtime.sim_wall_s.n32",
             "runtime.sim_wall_s.n64", "runtime.sim_wall_s.n128",
             "runtime.virtual_makespan_s.n64", "runtime.halo_build_s",
             "runtime.calibrate_s", "runtime.checkpoint_commit_s"])
    + _rows("runtime", "count", "lower", "op_p50_s", [SIM], ["runtime.comm_bytes.n64"])
    # ---- service ----------------------------------------------------------
    + _rows("service", "s", "lower", "op_p50_s", [SERVICE],
            ["service.register_graph_s", "service.query_cold_s",
             "service.query_warm_s", "service.query_cache_hit_s",
             "service.admission_overhead_s", "service.http_roundtrip_s"])
    + _rows("service", "ratio", "higher", "ops_per_s", [SERVICE],
            ["service.amortised_ratio"])
    + _rows("service", "count", "lower", "ops_per_s", [SERVICE], ["service.errors"])
    # ---- obs --------------------------------------------------------------
    + _rows("obs", "ratio", "lower", "op_p50_s", [SERVICE], ["obs.service_tracing_ratio"])
    + _rows("obs", "ratio", "lower", "op_p50_s", [WIDE], ["obs.recorder_ratio"])
    + _rows("obs", "ratio", "lower", "op_p50_s", [SERVICE, WIDE],
            ["obs.ledger_trace_ratio"])
    # ---- cli --------------------------------------------------------------
    + _rows("cli", "s", "lower", "setup_s", [DENSE, KINDS, WIDE, SERVICE, SIM],
            ["cli.import_s"])
    + _rows("cli", "s", "lower", "setup_s", [DENSE],
            ["cli.detect_path_s", "cli.overhead_s"])
    # ---- host -------------------------------------------------------------
    + _rows("host", "ratio", "lower", "op_p50_s", [DENSE, KINDS, WIDE, SERVICE, SIM],
            ["host.probe_cv"])
)


def benchmark_json(command, paths, run_seconds) -> dict:
    """The ``BENCHMARK.json`` document this catalog implies."""
    return {
        "command": list(command),
        "paths": list(paths),
        "run_seconds": run_seconds,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": END_TO_END,
        "per_layer": [{k: row[k] for k in ("name", "unit", "better")}
                      for row in PER_LAYER],
    }
