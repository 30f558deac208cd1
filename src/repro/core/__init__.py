"""MIDAS core: the paper's contribution.

* :mod:`repro.core.schedule` — the round/batch/phase decomposition (Fig 1);
* :mod:`repro.core.halo` — per-rank partitioned graph views with the
  boundary send/recv lists that Algorithm 3's message pattern needs;
* :mod:`repro.core.leveldp` — the level-DP core: the one neighbour sum,
  the one halo exchange, two lane layouts (field elements / bit-planes)
  and the two drivers (whole graph, simulated ranks) that run any
  recurrence;
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

from repro.core.engine import (
    DetectionEngine,
    ExecutionBackend,
    ModeledBackend,
    ProcessBackend,
    SequentialBackend,
    SimulatedBackend,
    ThreadedBackend,
)
from repro.core.halo import HaloView, build_halo_views
from repro.core.leveldp import phase_program, run_whole_graph, whole_graph_lanes
from repro.core.mld import (
    CircuitStep,
    MLDCircuit,
    algorithm1_reference,
    detect_multilinear,
)
from repro.core.midas import (
    MidasRuntime,
    detect_path,
    detect_scan_cell,
    detect_tree,
    max_weight_path,
    scan_grid,
    sequential_detect_path,
)
from repro.core.model import PerformanceEstimate, estimate_runtime
from repro.core.problems import ProblemSpec, compile
from repro.core.result import DetectionResult, ScanGridResult
from repro.core.schedule import PhaseSchedule
from repro.core.witness import extract_witness

__all__ = [
    "DetectionEngine",
    "ExecutionBackend",
    "SequentialBackend",
    "SimulatedBackend",
    "ModeledBackend",
    "ThreadedBackend",
    "ProcessBackend",
    "ProblemSpec",
    "compile",
    "HaloView",
    "build_halo_views",
    "phase_program",
    "run_whole_graph",
    "whole_graph_lanes",
    "CircuitStep",
    "MLDCircuit",
    "algorithm1_reference",
    "detect_multilinear",
    "MidasRuntime",
    "detect_path",
    "detect_scan_cell",
    "detect_tree",
    "max_weight_path",
    "scan_grid",
    "sequential_detect_path",
    "PerformanceEstimate",
    "estimate_runtime",
    "DetectionResult",
    "ScanGridResult",
    "PhaseSchedule",
    "extract_witness",
]
