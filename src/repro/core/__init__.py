"""MIDAS core: the paper's contribution.

* :mod:`repro.core.schedule` — the round/batch/phase decomposition (Fig 1);
* :mod:`repro.core.halo` — per-rank partitioned graph views with the
  boundary send/recv lists that Algorithm 3's message pattern needs;
* :mod:`repro.core.leveldp` — the level-DP core: the one neighbour sum,
  the one halo exchange, and the two drivers that run any recurrence,
  each in its own lane layout (whole graph: bit-planes; simulated ranks:
  field elements);
* :mod:`repro.core.mld` — the one problem abstraction: each application
  (Algorithms 3, 4, the weighted-path variant, 5) is an
  :class:`MLDCircuit` builder, and one interpreter turns any circuit
  into a level-DP recurrence;
* :mod:`repro.core.problems` — :func:`~repro.core.problems.compile`: a
  circuit as the :class:`ProblemSpec` the engine runs (data, not a
  bespoke driver);
* :mod:`repro.core.engine` — the unified detection engine: one
  round → batch → phase loop with pluggable execution backends
  (``sequential``, ``simulated``, ``modeled``, ``threaded``,
  ``process``);
* :mod:`repro.core.midas` — the MIDAS drivers (Alg 2), thin wrappers
  over the engine;
* :mod:`repro.core.model` — the analytic performance model (Theorem 2 with
  calibrated constants);
* :mod:`repro.core.witness` — witness extraction by deletion peeling.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "engine": ("DetectionEngine", "ExecutionBackend", "SequentialBackend",
               "SimulatedBackend", "ModeledBackend", "ThreadedBackend",
               "ProcessBackend"),
    "problems": ("ProblemSpec", "compile"),
    "halo": ("HaloView", "build_halo_views"),
    "leveldp": ("phase_program", "run_whole_graph"),
    "mld": ("CircuitStep", "MLDCircuit", "algorithm1_reference", "detect_multilinear"),
    "midas": ("MidasRuntime", "detect_path", "detect_scan_cell", "detect_tree",
              "max_weight_path", "scan_grid", "sequential_detect_path"),
    "model": ("PerformanceEstimate", "estimate_runtime"),
    "result": ("DetectionResult", "ScanGridResult"),
    "schedule": ("PhaseSchedule",),
    "witness": ("extract_witness",),
})
