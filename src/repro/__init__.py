"""MIDAS: Multilinear Detection at Scale — a Python reproduction.

Reproduction of Ekanayake, Cadena, Wickramasinghe, and Vullikanti,
*"MIDAS: Multilinear Detection at Scale"*, IPDPS 2018: distributed
multilinear-term detection with applications to finding k-paths and
k-trees and to network scan statistics, plus the FASCIA color-coding
baseline and a simulated-MPI substrate for the scaling experiments.

Quick taste::

    from repro import detect_path, erdos_renyi, RngStream
    g = erdos_renyi(10_000, rng=RngStream(1))
    result = detect_path(g, k=12, eps=0.05, rng=RngStream(2))
    print(result.summary())

See README.md for the architecture tour and DESIGN.md / EXPERIMENTS.md for
the paper-experiment mapping.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "core.midas": ("MidasRuntime", "detect_path", "detect_scan_cell", "detect_tree",
                   "max_weight_path", "scan_grid", "sequential_detect_path"),
    "core.model": ("PartitionStats", "PerformanceEstimate", "estimate_runtime"),
    "core.result": ("DetectionResult", "ScanGridResult"),
    "core.schedule": ("PhaseSchedule", "rounds_for_epsilon"),
    "core.witness": ("extract_witness",),
    "graph.csr": ("CSRGraph",),
    "graph.datasets": ("DATASETS", "load_dataset"),
    "graph.generators": ("barabasi_albert", "erdos_renyi", "grid2d", "miami_like",
                         "orkut_like", "plant_cluster", "plant_path", "plant_tree",
                         "watts_strogatz"),
    "graph.partition": ("Partition", "make_partition"),
    "graph.templates": ("TreeTemplate",),
    "runtime.cluster": ("VirtualCluster", "juliet", "laptop", "shadowfax"),
    "runtime.costmodel": ("KernelCalibration",),
    "obs.live": ("LiveRun", "RunStatus"),
    "obs.http": ("LiveServer",),
    "obs.metrics": ("MetricsRegistry", "get_default_registry"),
    "obs.store": ("RunRecord", "RunStore", "compare_runs", "compare_to_baseline"),
    "obs.report": ("RunReport",),
    "obs.profile": ("WallProfiler",),
    "obs.analyze": ("analyze_run", "extract_critical_path"),
    "runtime.tracing": ("Scope", "TraceRecorder"),
    "sanitize.certify": ("CertificationReport", "ResultCertifier"),
    "sanitize.comm": ("CommSanitizer", "SanitizerReport"),
    "sanitize.replay": ("DigestLog", "ReplayReport", "verify_replay"),
    "scanstat.detect": ("AnomalyDetector", "AnomalyResult"),
    "scanstat.statistics": ("BerkJones", "ElevatedMean", "ExpectationBasedPoisson",
                            "HigherCriticism", "Kulldorff"),
    "util.rng": ("RngStream",),
})
__all__ += ["__version__"]
