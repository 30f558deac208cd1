"""Simulated SPMD (MPI-like) runtime substrate.

The paper runs MIDAS as a C/MPI program on two Haswell clusters.  This
subpackage substitutes an in-process simulator:

* :mod:`repro.runtime.scheduler` executes ``N`` *rank programs* (Python
  generators yielding ``Exchange``/``Collect``, ``AllReduce`` and
  ``Charge``) with deterministic round-robin scheduling, real message
  delivery, and per-rank virtual clocks — detection results are produced
  by actually running the SPMD decomposition.
* :mod:`repro.runtime.costmodel` supplies alpha–beta communication costs and
  *measured* compute rates (calibrated from the real vectorized kernels), so
  virtual time reproduces the shape of the paper's scaling curves.
* :mod:`repro.runtime.cluster` describes virtual machines (Juliet,
  Shadowfax) with intra-/inter-node network tiers.
* :mod:`repro.runtime.tracing` records timelines for the reports.
* :mod:`repro.runtime.faults` injects deterministic, seeded faults
  (rank crashes, message drops/duplicates/delays, transient send
  failures, stragglers) for fault-tolerance testing.
* :mod:`repro.runtime.durable` persists crash-consistent checkpoints at
  round boundaries (CRC-protected, atomically renamed) so a SIGKILLed
  run resumes bit-identically, and arms a wall-clock watchdog that
  degrades gracefully instead of dying silently.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "comm": ("AllReduce", "Charge", "Collect", "Exchange"),
    "durable": ("CheckpointManager", "Watchdog", "load_run_config", "read_envelope",
                "write_envelope", "write_run_config"),
    "faults": ("FaultInjector", "FaultPlan", "FaultSpec", "backoff_jitter",
               "load_fault_plan"),
    "cluster": ("VirtualCluster", "juliet", "shadowfax", "laptop"),
    "costmodel": ("CostModel", "KernelCalibration", "MachineSpec"),
    "scheduler": ("RankContext", "SimResult", "Simulator"),
    "tracing": ("Scope", "TraceEvent", "TraceRecorder", "TraceSummary"),
})
