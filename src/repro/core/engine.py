"""The unified detection engine: one round → batch → phase loop for all
MIDAS problems, with pluggable execution backends.

The paper's contribution is a single execution discipline (Fig. 1,
Table I) applied uniformly to every application.  This module writes
that discipline exactly once, as **round loop × executor × phase
boundary**:

* :class:`MidasRuntime` — the user-facing execution configuration
  (mode, ``(N, N1, N2)``, cluster, observability, fault tolerance);
* :class:`EngineSession` — the prepared state every engine runs on
  (partition, halo views, GF(2^l) tables, calibration): the runtime's
  shared one, or a private one built the same way;
* :class:`DetectionEngine` — owns the amplification rounds
  (:meth:`~DetectionEngine.run_stage`: seeded RNG-stream derivation,
  round batches — several rounds side by side in one window when a
  window covers a round — one stamped span per batch, checkpoints,
  early exit) and the one
  **phase boundary** :meth:`~DetectionEngine.phase_done`, where every
  finished phase window — whoever ran it — meets the histogram, the
  span log (``rt.get_profiler()``: the run's profile and, for a served
  query, its trace — one list), the digest log, live status, the
  watchdog and the recorder;
* :class:`ExecutionBackend` — the whole-graph **round loop**
  (:meth:`~ExecutionBackend.run_round`: fold completed windows into
  their rounds' XOR accumulators, report each to the boundary, cancel
  what has not started if anything raises), written once; the
  subclasses say only *how a window gets executed*:

  ``SequentialBackend``
      Inline on the calling thread, one window at a time — no pool, no
      future.
  ``ModeledBackend``
      The same, plus the analytic Theorem-2 model for virtual time
      (cluster-scale sweeps).
  ``ThreadedBackend``
      On a :class:`~concurrent.futures.ThreadPoolExecutor`.  The GF(2^l)
      kernels are numpy pipelines that release the GIL, and XOR
      accumulation is commutative and associative, so folding in
      completion order is bit-identical to sequential.
  ``ProcessBackend``
      On the interpreter's warm fleet of worker processes
      (:func:`~repro.core.process_backend.fleet`), the graph shared
      through shared memory — the same commutativity argument past the
      GIL.  One request per worker per round batch (a whole stage, when
      it fits), one record back per window; decodes the records,
      merges worker metrics and spans, re-runs a batch whose worker died
      once and turns the second death into a typed
      :class:`~repro.errors.WorkerCrashedError`.
  ``SimulatedBackend``
      The real SPMD decomposition on the runtime simulator — its own
      round → batch → phase loop with halo messages, XOR all-reduces,
      checkpoint/retry under fault injection and virtual-time
      accounting — reporting to the same phase boundary.  A stage's
      communication is enacted once; later windows reuse its timeline.

Every problem reaches this engine the same way — an
:class:`~repro.core.mld.MLDCircuit`, compiled into a
:class:`~repro.core.problems.ProblemSpec`, run by the one driver entry
in :mod:`repro.core.midas` — so every feature (overlap, fault
tolerance, metrics, tracing, new backends) lands here exactly once and
applies to all problems.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from contextlib import closing
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple, Type

import numpy as np

from repro.core.model import PartitionStats, PerformanceEstimate, estimate_runtime
from repro.core.halo import build_halo_views
from repro.core.leveldp import exchange_signature, phase_program
from repro.core.problems import ProblemSpec, Value
from repro.core.schedule import PhaseSchedule, pow2_floor, rounds_for_epsilon
from repro.errors import (
    ConfigurationError,
    FaultInjectedError,
    RankFailedError,
    ReplayMismatchError,
    SanitizerError,
    WatchdogExpired,
    WorkerCrashedError,
)
from repro.ff.gf2m import field_degree_for_k
from repro.graph.csr import CSRGraph, graph_sha
from repro.graph.partition import make_partition
from repro.obs.metrics import MetricsRegistry, get_default_registry, merge_into
from repro.obs.profile import WallProfiler
from repro.runtime.cluster import VirtualCluster, laptop
from repro.runtime.costmodel import KernelCalibration
from repro.runtime.durable import decode_value
from repro.runtime.faults import FaultInjector, FaultPlan, backoff_jitter
from repro.runtime.scheduler import Simulator
from repro.runtime.tracing import Scope, TraceRecorder
from repro.util.log import get_logger
from repro.util.rng import RngStream

_LOG = get_logger(__name__)

_MODES = ("sequential", "simulated", "modeled", "threaded", "process")
#: the modes that evaluate a phase window on the whole graph in one call
_WHOLE_GRAPH_MODES = ("sequential", "threaded", "process")
#: the largest plane-resident DP state (one ``(l, n, N2 / 64)`` uint64
#: block) the default ``N2`` is allowed to build: past it a wider window
#: only moves the level step out of cache (see :meth:`MidasRuntime.schedule_for`)
_STATE_BYTES = 768 << 10
_SANITIZE = ("off", "warn", "strict")
#: every session's partition RNG lineage starts here, so the partition is
#: a function of ``(graph, n1, partition_method)`` alone
_PARTITION_SEED = 7777
#: the null span log: session build steps nobody is watching go here
_UNPROFILED = WallProfiler(enabled=False)


@dataclass
class MidasRuntime:
    """Parallel execution configuration for the MIDAS driver.

    ``n2=None`` picks a sensible default: the figures' BSMax
    (``2^k N1 / N``) in simulated/modeled modes; in the sequential,
    threaded and process modes the paper's "keep ``N2 < 1024``" — a
    window of up to 1024 iterations, narrowed so every worker has one
    and so the DP state stays in cache (:meth:`schedule_for`).
    ``overlap=True`` uses the
    communication-overlapping halo exchange (Irecv/Wait with
    local/ghost-split reductions) in simulated runs of all evaluators;
    results are bit-identical either way.

    ``mode="threaded"`` executes each round's independent phase windows
    concurrently on ``workers`` threads (default: the CPUs this process
    may use)
    for real wall-clock speedup on multi-core hosts; detection output is
    bit-identical to ``sequential`` (property-tested).

    ``mode="process"`` runs the same phase windows on ``workers``
    *processes* — past the GIL that caps threaded speedup on the
    inter-ufunc glue.  The graph's CSR arrays are published once via
    shared memory, workers rebuild specs from their picklable circuits,
    each takes an equal share of a round's windows in one request, and
    the parent XOR-merges phase values in completion order: the same
    commutativity argument, the same bit-identical guarantee
    (property-tested).  ``process_start`` selects the multiprocessing
    start method (``None`` = platform default, e.g. ``fork`` on Linux).
    A worker death (segfault, OOM-kill) costs one re-run of the round
    on a rebuilt fleet; a second one in the same stage surfaces as a
    typed :class:`~repro.errors.WorkerCrashedError`, never a hang.

    Observability: attach a :class:`~repro.runtime.tracing.TraceRecorder`
    as ``recorder`` to collect a run-level, schedule-scoped timeline
    (per-phase simulator recordings spliced onto global ranks and a
    global clock; per-phase wall timings in other modes).  Driver
    metrics always land in ``metrics`` when set, else the process-wide
    :func:`repro.obs.metrics.get_default_registry` — the same registry
    the kernel-calibration instrumentation writes to.  Neither affects
    detection output (property-tested bit-identical).

    Fault tolerance (simulated mode only): attach a
    :class:`~repro.runtime.faults.FaultPlan` as ``fault_plan`` and the
    engine runs every phase window under injection, checkpointing
    completed windows and re-executing only the ones whose simulator run
    died with a :class:`~repro.errors.FaultInjectedError` — with the
    same seeded randomness, so results under any recoverable plan are
    bit-identical to the fault-free run.  Retries are bounded by
    ``max_retries`` per window; each retry adds an exponential-backoff
    penalty of ``retry_backoff * 2^attempt`` virtual seconds to the
    makespan, modeling failure detection + restart cost.

    Sanitization: ``sanitize="warn"`` or ``"strict"`` attaches a
    :class:`~repro.sanitize.CommSanitizer` to every simulated run (comm
    discipline checked on every yielded op; strict raises a typed
    :class:`~repro.errors.SanitizerError` at the first violation, warn
    accumulates a report) and stamps a ``sanitizer`` section into result
    details / the RunReport plus ``sanitizer_*`` metric families.
    Sanitizer hooks charge no virtual time, so sanitized runs keep
    identical clocks and results — and because the sanitizer has to see
    every message, a sanitized run enacts every phase window instead of
    reusing one per stage (as do ``fault_plan`` and
    ``measure_compute=True``; see :class:`SimulatedBackend`).
    ``digest_log`` optionally attaches a
    :class:`~repro.sanitize.DigestLog` that records per-phase and
    per-round accumulator digests for deterministic-replay verification
    (:func:`repro.sanitize.verify_replay`).
    """

    n_processors: int = 1
    n1: int = 1
    n2: Optional[int] = None
    mode: str = "sequential"
    cluster: Optional[VirtualCluster] = None
    partition_method: str = "random"
    calibration: Optional[KernelCalibration] = None
    measure_compute: bool = False
    trace: bool = False
    overlap: bool = False
    recorder: Optional[TraceRecorder] = None
    metrics: Optional[MetricsRegistry] = None
    fault_plan: Optional[FaultPlan] = None
    max_retries: int = 5
    retry_backoff: float = 1e-3
    workers: Optional[int] = None
    process_start: Optional[str] = None
    sanitize: str = "off"
    digest_log: Optional[object] = None
    live: Optional[object] = None
    live_port: Optional[int] = None
    progress_path: Optional[str] = None
    profiler: Optional[object] = None
    checkpoint_dir: Optional[str] = None
    checkpoint_every: int = 1
    resume: bool = False
    allow_restart: bool = False
    checkpoint: Optional[object] = None
    deadline: Optional[float] = None
    hang_timeout: Optional[float] = None
    watchdog: Optional[object] = None
    session: Optional["EngineSession"] = None

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ConfigurationError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.sanitize not in _SANITIZE:
            raise ConfigurationError(
                f"sanitize must be one of {_SANITIZE}, got {self.sanitize!r}"
            )
        if self.fault_plan is not None and self.mode != "simulated":
            raise ConfigurationError(
                f"fault_plan requires mode='simulated' (faults are injected into "
                f"the runtime simulator), got mode={self.mode!r}"
            )
        if self.max_retries < 0:
            raise ConfigurationError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.retry_backoff < 0:
            raise ConfigurationError(
                f"retry_backoff must be >= 0, got {self.retry_backoff}"
            )
        if self.workers is not None and self.workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {self.workers}")
        if self.process_start is not None:
            import multiprocessing

            valid = multiprocessing.get_all_start_methods()
            if self.process_start not in valid:
                raise ConfigurationError(
                    f"process_start must be one of {valid}, got {self.process_start!r}"
                )
        if self.live_port is not None and not (0 <= self.live_port <= 65535):
            raise ConfigurationError(
                f"live_port must be a port number (0 = ephemeral), got {self.live_port}"
            )
        if self.checkpoint_every < 1:
            raise ConfigurationError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every}"
            )
        if self.resume and self.checkpoint_dir is None and self.checkpoint is None:
            raise ConfigurationError(
                "resume=True requires a checkpoint_dir (or checkpoint manager)"
            )
        if self.deadline is not None and self.deadline <= 0:
            raise ConfigurationError(f"deadline must be > 0, got {self.deadline}")
        if self.hang_timeout is not None and self.hang_timeout <= 0:
            raise ConfigurationError(
                f"hang_timeout must be > 0, got {self.hang_timeout}"
            )

    def schedule_for(self, k: int, n: int = 0, field_degree: Optional[int] = None,
                     payload: int = 1, rounds: Optional[int] = None,
                     live_states: int = 1) -> PhaseSchedule:
        """The ``(k, N, N1, N2)`` schedule of a ``2^k``-iteration round on
        an ``n``-vertex graph, and how many of ``rounds`` independent
        rounds one window carries.

        An explicit ``n2`` wins.  Otherwise simulated/modeled modes take
        BSMax, and the whole-graph modes take ``min(2^k, 1024)`` — every
        window is bit-identical at any width, and the level step's
        per-lane cost falls with it — halved, never below one 64-lane
        word, until each of the mode's workers has a window
        (``2^k / N2 >= workers``) and the plane-resident state of an
        ``n``-vertex graph fits :data:`_STATE_BYTES`: ``8 l n N2 / 64``
        bytes per weight cell, over ``payload`` cells (a spec's
        ``payload``), in the field of degree ``l = field_degree``
        (default: a k-path's).  ``n = 0`` (size unknown) skips the budget.

        ``rounds`` (default: not asked) is how many rounds are left to
        run.  When a default whole-graph window covers a round
        (``N2 = 2^k``), it then carries ``R = rounds_per_window`` of them:
        as many as leave a window per worker (``R <= rounds / workers``)
        within ``R 2^k <= 1024`` lanes — any count, so a stage's rounds
        take as few windows as the cap allows — and the largest such
        count whose ``live_states`` states of the spec's recurrence,
        ``live_states * 8 l n payload * ceil(R 2^k / 64)`` bytes, fit
        ``3 * _STATE_BYTES``.  Everywhere else — simulated and modeled
        modes, an explicit ``n2``, a round of several windows — ``R = 1``.
        """
        total = 1 << k
        n2 = self.n2
        rpw = 1
        if n2 is None:
            if self.mode in _WHOLE_GRAPH_MODES:
                n2 = min(total, 1024)
                workers = 1 if self.mode == "sequential" else self.get_workers()
                ell = field_degree_for_k(k) if field_degree is None else field_degree
                word_bytes = 8 * ell * n * payload
                while n2 > 64 and (total // n2 < workers
                                   or word_bytes * (n2 // 64) > _STATE_BYTES):
                    n2 //= 2
                if rounds is not None and n2 == total:
                    rpw = max(1, min(rounds // workers, 1024 // total))
                    while rpw > 1 and (live_states * word_bytes * -(-rpw * total // 64)
                                       > 3 * _STATE_BYTES):
                        rpw -= 1
            else:
                n2 = PhaseSchedule.bs_max(k, self.n_processors, self.n1)
        # the divisors of 2^k are exactly the powers of two, so the largest
        # divisor <= n2 is the largest power of two <= n2
        n2 = pow2_floor(max(1, min(n2, total)))
        return PhaseSchedule(k, self.n_processors, self.n1, n2, rpw)

    def get_cluster(self) -> VirtualCluster:
        if self.cluster is not None:
            return self.cluster
        # a generously sized default so any (N, N1) fits
        nodes = max(1, -(-self.n_processors // 8))
        return laptop(nodes)

    def get_calibration(self) -> KernelCalibration:
        if self.calibration is not None:
            return self.calibration
        if self.session is not None:
            return self.session.get_calibration()
        return KernelCalibration.synthetic()

    def get_metrics(self) -> MetricsRegistry:
        return self.metrics if self.metrics is not None else get_default_registry()

    def get_recorder(self) -> Optional[TraceRecorder]:
        """The attached recorder, or None when absent/disabled."""
        rec = self.recorder
        return rec if (rec is not None and rec.enabled) else None

    def get_workers(self) -> int:
        """Worker count for the threaded and process backends: ``workers``,
        or the CPUs this process may run on — in a container or under
        ``taskset`` fewer than the host's ``os.cpu_count()``."""
        if self.workers is not None:
            return self.workers
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1

    def resolve_kernel(self, m: int, n2: int, plane: object = None) -> str:
        """A GF kernel name for a field of degree ``m`` behind ``n2``-lane
        windows, kept only for ``benchmarks/ledger/layers.py``; it goes
        with ROADMAP item 1.  No run reads it: every whole-graph run is
        plane-resident and every rank element-wise, whatever the field's
        kernel (:mod:`repro.core.leveldp`).  ``plane`` is ignored."""
        if self.mode != "modeled" and n2 >= 64:
            return "bitsliced"
        return "table" if m <= 8 else "logexp"

    def get_live(self):
        """The live telemetry bus, built lazily from ``live`` /
        ``live_port`` / ``progress_path`` (``None`` when none are set).

        A ``live_port`` starts the HTTP exporter immediately; the bound
        port (useful with ``live_port=0``) is ``rt.live.port``.  The bus
        is stored back on the runtime so every engine sharing this
        runtime reports into one cumulative RunStatus.
        """
        if self.live is None and (self.live_port is not None
                                  or self.progress_path is not None):
            from repro.obs.live import LiveRun  # lazy: optional layer

            self.live = LiveRun(progress_path=self.progress_path,
                                metrics=self.get_metrics())
        if self.live is not None and self.live_port is not None:
            self.live.serve(self.live_port)  # idempotent
        return self.live

    def get_profiler(self):
        """The wall-clock span log (always present; created on first use)
        — the engine's only wall-span sink.

        Every engine run is profiled by default — span overhead is
        nanoseconds against the kernels it wraps (see
        :mod:`repro.obs.profile`) and the ``wall_*`` RunRecord values
        depend on it.  The service broker attaches each traced query's
        trace here (a ``QueryTrace``, which is a ``WallProfiler``), so the
        query's trace document and its profile are views of one list.
        """
        if self.profiler is None:
            self.profiler = WallProfiler()
        return self.profiler

    def get_checkpoint(self):
        """The durable checkpoint manager, built lazily from
        ``checkpoint_dir`` (``None`` when checkpointing is off).

        Construction *loads* existing state when ``resume=True`` — so a
        corrupt checkpoint surfaces as a typed
        :class:`~repro.errors.CheckpointCorruptError` here, before any
        work starts, unless ``allow_restart`` discards it.  The manager
        is stored back on the runtime so every engine sharing this
        runtime checkpoints into one state file.
        """
        if self.checkpoint is None and self.checkpoint_dir is not None:
            from repro.runtime.durable import CheckpointManager  # lazy: optional

            self.checkpoint = CheckpointManager(
                self.checkpoint_dir, every=self.checkpoint_every,
                resume=self.resume, allow_restart=self.allow_restart,
            )
        return self.checkpoint

    def get_watchdog(self):
        """The wall-clock watchdog, built lazily from ``deadline`` /
        ``hang_timeout`` (``None`` when neither is set).  Shared across
        every engine on this runtime: the deadline bounds the whole run,
        not one stage."""
        if self.watchdog is None and (self.deadline is not None
                                      or self.hang_timeout is not None):
            from repro.runtime.durable import Watchdog  # lazy: optional layer

            self.watchdog = Watchdog(deadline=self.deadline,
                                     hang_timeout=self.hang_timeout)
        return self.watchdog

    def close_live(self) -> None:
        """Stop the HTTP exporter, the progress stream, and the watchdog
        monitor thread, if any."""
        if self.live is not None:
            self.live.close()
        if self.watchdog is not None:
            self.watchdog.stop()


def _reduce_cost(rt: MidasRuntime, nbytes: int) -> float:
    cluster = rt.get_cluster()
    cost_model = cluster.cost_model(min(rt.n_processors, cluster.total_cores))
    return cost_model.allreduce_cost(rt.n_processors, nbytes)


class _FaultContext:
    """Per-detection fault-tolerance state: the shared injector, the
    ``fault_*`` metric families, and the resilience accounting that ends
    up in ``details["resilience"]`` / the RunReport.

    ``injector`` is ``None`` when no plan is attached — the phase runner
    then degenerates to a single plain attempt with zero overhead.
    """

    def __init__(self, rt: MidasRuntime, reg: MetricsRegistry, problem: str) -> None:
        self.problem = problem
        self.injector = FaultInjector(rt.fault_plan) if rt.fault_plan else None
        self.max_retries = rt.max_retries
        self.backoff0 = rt.retry_backoff
        self.injected_ctr = reg.counter(
            "fault_injected_total", "Faults fired by the injector, by kind"
        )
        self.failures_ctr = reg.counter(
            "fault_phase_failures_total", "Phase attempts killed by injected faults"
        )
        self.retries_ctr = reg.counter(
            "fault_retries_total", "Phase re-executions after a fault"
        ).labels(problem=problem)
        self.lost_ctr = reg.counter(
            "fault_work_lost_seconds_total",
            "Virtual seconds of partial work discarded with failed attempts",
        ).labels(problem=problem)
        self.backoff_ctr = reg.counter(
            "fault_backoff_seconds_total",
            "Virtual seconds spent in exponential backoff before retries",
        ).labels(problem=problem)
        self.recomputed_ctr = reg.counter(
            "fault_work_recomputed_seconds_total",
            "Virtual seconds of successful re-execution after faults",
        ).labels(problem=problem)
        # running totals for the resilience report
        self.injected: dict = {}
        self.phase_failures = 0
        self.retries = 0
        self.work_lost = 0.0
        self.backoff_seconds = 0.0
        self.work_recomputed = 0.0

    def record_injected(self, counts: dict) -> None:
        for kind, n in counts.items():
            self.injected_ctr.labels(kind=kind, problem=self.problem).inc(n)
            self.injected[kind] = self.injected.get(kind, 0) + n

    def resilience(self, virtual_total: float) -> dict:
        """The RunReport resilience section (see module docs)."""
        overhead = self.work_lost + self.backoff_seconds
        clean = max(virtual_total - overhead, 0.0)
        return {
            "faults_injected": dict(self.injected),
            "phase_failures": self.phase_failures,
            "retries": self.retries,
            "work_lost_seconds": self.work_lost,
            "work_recomputed_seconds": self.work_recomputed,
            "backoff_seconds": self.backoff_seconds,
            "makespan_overhead_seconds": overhead,
            "overhead_fraction": overhead / clean if clean > 0 else 0.0,
        }


def _run_phase_resilient(rt: MidasRuntime, fc: _FaultContext, prog, key: str,
                         sim_cost_model, want_trace: bool, prof,
                         sanitizer=None, heartbeat=None):
    """Run one phase window to completion under the fault plan.

    Retries the window (same program, seeded-identical randomness) on any
    :class:`~repro.errors.FaultInjectedError` — or on a run that
    "completed" with crashed ranks — up to ``max_retries`` times, adding
    exponential backoff to the virtual clock.  Returns ``(res, sim,
    extra_virtual, failed_events)`` where ``extra_virtual`` is the lost +
    backoff virtual time that precedes the successful attempt on the
    run-level timeline and ``failed_events`` the (shifted-from-zero)
    trace events of failed attempts for splicing.
    """
    attempt = 0
    extra = 0.0
    failed_events = []
    while True:
        run_inj = (
            fc.injector.for_run(f"{key}/a{attempt}") if fc.injector is not None else None
        )
        sim = Simulator(
            rt.n1, cost_model=sim_cost_model,
            measure_compute=rt.measure_compute,
            trace=want_trace, faults=run_inj, sanitizer=sanitizer,
            heartbeat=heartbeat,
        )
        err = None
        res = None
        try:
            # callsite is the problem, not the phase key — one
            # aggregate row per problem, not per phase window
            with prof.span("engine.simulate", phase="rounds",
                           callsite=fc.problem):
                res = sim.run(prog)
            if res.crashed_ranks:
                # the program "finished" but ranks died: their partial
                # results are unusable — treat like a failed collective
                err = RankFailedError(
                    f"rank(s) {list(res.crashed_ranks)} crashed during phase {key}",
                    ranks=res.crashed_ranks,
                )
        except FaultInjectedError as exc:
            err = exc
        if run_inj is not None and run_inj.counts:
            fc.record_injected(run_inj.counts)
        if err is None:
            if attempt > 0:
                fc.work_recomputed += res.makespan
                fc.recomputed_ctr.inc(res.makespan)
            return res, sim, extra, failed_events
        fc.phase_failures += 1
        fc.failures_ctr.labels(error=type(err).__name__, problem=fc.problem).inc()
        clocks = sim.partial_clocks
        lost = float(clocks.max()) if len(clocks) else 0.0
        fc.work_lost += lost
        fc.lost_ctr.inc(lost)
        if want_trace:
            failed_events.append(
                (extra, attempt, list(sim.trace.events), list(sim.trace.edges))
            )
        if attempt >= fc.max_retries:
            _LOG.error("phase %s failed after %d attempts: %s", key, attempt + 1, err)
            raise err
        backoff = fc.backoff0 * (2.0 ** attempt)
        if fc.injector is not None:
            # seeded jitter in [0, 1): co-scheduled retries across ranks /
            # processes desynchronize, yet the draw is keyed by (plan seed,
            # phase key, attempt) so every re-execution of this plan — and
            # a crash-resumed one — charges the identical backoff
            backoff *= 1.0 + backoff_jitter(fc.injector.plan.seed, key, attempt)
        extra += lost + backoff
        fc.backoff_seconds += backoff
        fc.backoff_ctr.inc(backoff)
        fc.retries += 1
        fc.retries_ctr.inc()
        attempt += 1
        _LOG.info(
            "phase %s attempt %d failed (%s: %s); retrying with %.3g s backoff",
            key, attempt, type(err).__name__, err, backoff,
        )


@dataclass
class _Stage:
    """One (spec, schedule) evaluation inside a run — e.g. one grid size."""

    spec: ProblemSpec
    sched: PhaseSchedule
    rounds: int
    key_prefix: str  # fault-injection key namespace ("", "size3/", ...)
    label: str  # trace-scope label ("", "size3", ...)
    phase_hist: object  # midas_phase_seconds histogram, pre-labeled
    estimate: Optional[PerformanceEstimate] = None
    # simulated mode: exchange signature -> the _Timeline enacted for it
    timelines: dict = field(default_factory=dict)


@dataclass
class StageResult:
    """Per-round accumulator values of one engine stage."""

    values: List[Value]
    virtuals: List[float]
    schedule: PhaseSchedule
    estimate: Optional[PerformanceEstimate] = None

    @property
    def rounds_run(self) -> int:
        return len(self.values)


class _Rounds(NamedTuple):
    """The consecutive rounds one :meth:`ExecutionBackend.run_round` call
    runs — a *round batch* — and how they split into phase windows."""

    ell: int  # the first round's index
    fps: list  # one fingerprint per round
    sched: PhaseSchedule  # rounds_per_window: the rounds a window carries

    def windows(self) -> List[Tuple[range, int]]:
        """Each window as ``(batch positions of its rounds, phase t)``:
        ``R`` rounds side by side in one phase window, or — ``R = 1`` —
        every phase of each round."""
        rpw = self.sched.rounds_per_window
        return [(range(r, r + rpw), t) for r in range(0, len(self.fps), rpw)
                for t in range(self.sched.n_phases)]


#: a finished phase window as the round loop consumes it: its value in each
#: of its rounds, the ``perf_counter`` stamps taken where the kernel ran,
#: that lane's name, and the worker's pid when that was another process
Window = Tuple[List[Value], float, float, str, Optional[int]]


def _run_window(graph: CSRGraph, stage: _Stage, rounds: _Rounds, w: int) -> Window:
    """Evaluate window ``w`` of a round batch on the calling thread,
    stamped here."""
    rs, t = rounds.windows()[w]
    t0 = time.perf_counter()
    values = stage.spec.phase_values(graph, rounds.fps[rs.start:rs.stop],
                                     rounds.sched.phase_window(t)[0],
                                     rounds.sched.n2)
    return values, t0, time.perf_counter(), threading.current_thread().name, None


class ExecutionBackend:
    """How a batch of amplification rounds' phase windows get executed.

    The whole-graph round loop (:meth:`run_round`) is written here once;
    it knows nothing about telemetry — every finished window goes to the
    engine's phase boundary.  A whole-graph backend supplies only the
    executor: :meth:`submit` for a pool of futures (the default
    :meth:`windows` joins and cancels), or :meth:`windows` itself to run
    inline or to stream from elsewhere.
    """

    name = "?"

    def __init__(self, engine: "DetectionEngine") -> None:
        self.engine = engine

    def prepare(self, stage: _Stage) -> None:
        """Per-stage setup (partitioning, pools); may be called repeatedly."""

    def submit(self, stage: _Stage, rounds: _Rounds, w: int):
        """A future of window ``w``'s result (pool executors)."""
        raise NotImplementedError

    def completed(self, stage: _Stage, w: int, result) -> Window:
        """Decode window ``w``'s executor result into a :data:`Window`."""
        return result

    def windows(self, stage: _Stage, rounds: _Rounds) -> Iterator[tuple]:
        """Run the batch's windows; yield ``(w, result)`` as each finishes.

        The windows are independent and the fold is commutative, so
        completion order is as good as schedule order.  When the consumer
        stops early — a watchdog trip, a dead worker, Ctrl-C — the
        windows that have not started are cancelled before the exception
        propagates, so nothing keeps computing for a discarded batch.
        """
        futures = {self.submit(stage, rounds, w): w
                   for w in range(len(rounds.windows()))}
        try:
            for fut in as_completed(futures):
                yield futures[fut], fut.result()
        finally:
            for fut in futures:
                fut.cancel()

    def run_round(self, stage: _Stage, rounds: _Rounds):
        """Execute a batch of rounds; return each round's ``(values,
        virtual_seconds)`` as two lists.

        The one whole-graph round loop: XOR-fold each finished window
        into its rounds' accumulators and hand it to the phase boundary.
        ``closing`` ends the executor's generator on the way out, whatever
        the reason, which is what cancels the windows that have not
        started.
        """
        e, spec = self.engine, stage.spec
        values = [spec.acc_init() for _ in rounds.fps]
        windows = rounds.windows()
        round0 = time.perf_counter()
        with closing(self.windows(stage, rounds)) as done:
            for w, result in done:
                contribs, t0, t1, lane, pid = self.completed(stage, w, result)
                rs, t = windows[w]
                for r, contrib in zip(rs, contribs):
                    values[r] = spec.combine(values[r], contrib)
                e.phase_done(stage, range(rounds.ell + rs.start, rounds.ell + rs.stop),
                             t, contribs, t0, t1, lane, pid)
        e.round_joined(stage, rounds.ell, round0, time.perf_counter())
        return values, [0.0] * len(values)

    def close(self) -> None:
        """Release backend resources (pools)."""


class SequentialBackend(ExecutionBackend):
    """Inline on the calling thread, one phase window at a time."""

    name = "sequential"

    def windows(self, stage: _Stage, rounds: _Rounds) -> Iterator[tuple]:
        for w in range(len(rounds.windows())):
            yield w, _run_window(self.engine.graph, stage, rounds, w)


class ModeledBackend(SequentialBackend):
    """Sequential evaluation; virtual time from the Theorem-2 model."""

    name = "modeled"

    def run_round(self, stage: _Stage, rounds: _Rounds):
        values, _ = super().run_round(stage, rounds)
        virtual = (
            stage.estimate.total_seconds / stage.rounds
            if stage.estimate is not None
            else 0.0
        )
        return values, [virtual] * len(values)


class ThreadedBackend(ExecutionBackend):
    """Run a round batch's independent phase windows on a thread pool.

    The phase kernels are numpy bit-plane pipelines that release the
    GIL, and the round accumulator is an XOR fold — commutative and
    associative — so accumulating in completion order is bit-identical
    to the sequential order while phases execute in parallel.
    """

    name = "threaded"

    def __init__(self, engine: "DetectionEngine") -> None:
        super().__init__(engine)
        self._pool: Optional[ThreadPoolExecutor] = None

    def prepare(self, stage: _Stage) -> None:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.engine.rt.get_workers(),
                thread_name_prefix="midas-phase",
            )

    def submit(self, stage: _Stage, rounds: _Rounds, w: int):
        return self._pool.submit(_run_window, self.engine.graph, stage, rounds, w)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None


class ProcessBackend(ExecutionBackend):
    """Run a round batch's phase windows on worker *processes* (past the GIL).

    Same contract as :class:`ThreadedBackend` — independent windows, XOR
    merge in completion order, bit-identical to sequential — but the
    phase kernels run in separate interpreters: the interpreter's warm
    fleet (:func:`~repro.core.process_backend.fleet`), which this call
    borrows a batch at a time.  The call publishes the graph and its
    circuits' weights in shared memory (and unlinks them on close), specs
    are compiled in workers from their picklable circuits, and a batch is
    one request per worker — each takes a share of the batch's windows
    and streams back one record per finished window, so this side only
    receives and folds.
    """

    name = "process"

    def __init__(self, engine: "DetectionEngine") -> None:
        super().__init__(engine)
        self._shared = None  # the SharedArrays this call published
        self._graph = None  # the graph's wire
        self._pool = None  # the fleet the last batch ran on, once one has
        self._crashed_in: Optional[_Stage] = None  # a stage gets one retry

    def _fleet_key(self) -> tuple:
        return self.engine.rt.get_workers(), self.engine.rt.process_start

    def prepare(self, stage: _Stage) -> None:
        from repro.core.process_backend import SharedArrays, fleet

        if self._shared is None:
            # the call's publication, and the fleet's start when it is not
            # warm: setup, not the first batch's wall
            with self.engine.prof.span("engine.pool", phase="setup",
                                       callsite="process"):
                fleet(*self._fleet_key())
                self._shared = SharedArrays()
                self._graph = self._shared.wire_graph(self.engine.graph)
        # publishes the circuit's weights once (the wire is cached per
        # spec); a hand-built spec without a circuit is refused here
        self._shared.wire_spec(stage.spec)

    def windows(self, stage: _Stage, rounds: _Rounds) -> Iterator[tuple]:
        from repro.core.process_backend import driving

        sched = rounds.sched
        with driving(*self._fleet_key()) as pool:
            self._pool = pool  # the fleet a dead worker closes
            yield from pool.batch(
                self._graph, self._shared.wire_spec(stage.spec), rounds.fps,
                sched.n2, [(sched.phase_window(t)[0], rs.start, rs.stop)
                           for rs, t in rounds.windows()])

    def completed(self, stage: _Stage, w: int, result) -> Window:
        raws, (pid, t0, t1, *build), mdelta = result
        e = self.engine
        if mdelta:
            # increments made inside the worker (field builds, calibration,
            # phase counters) land in the parent's run registry exactly once
            merge_into(e.reg, mdelta)
        lane = f"worker-{pid}"
        if build:
            # perf_counter is CLOCK_MONOTONIC on Linux: worker and parent
            # stamps share a timebase, so the span goes in as stamped
            e.prof.add_span("worker.spec_build", *build, pid=pid, lane=lane,
                            phase="setup", callsite=stage.spec.name)
        return [stage.spec.rank_value(raw) for raw in raws], t0, t1, lane, pid

    def run_round(self, stage: _Stage, rounds: _Rounds):
        """The batch, or — when a worker dies under it — the batch again
        on a rebuilt fleet: the fingerprints are the same, so the values
        are.  A second death in the same stage is not retried."""
        from repro.core.process_backend import close_fleet, fleet

        ell = rounds.ell
        try:
            return super().run_round(stage, rounds)
        except WorkerCrashedError as exc:
            close_fleet(self._pool)
            e = self.engine
            e.flight_dump("worker_crash", round=ell,
                          graph=getattr(e.graph, "name", None))
            if self._crashed_in is stage:
                raise WorkerCrashedError(
                    f"a worker process died while evaluating round {ell} of "
                    f"{stage.spec.name!r} (see stderr for the worker's fate); the "
                    "process pool is closed"
                ) from exc
            self._crashed_in = stage
            _LOG.warning("%s; re-running round %d on a new fleet", exc, ell)
            e.discard_round()
            with e.prof.span("engine.pool", phase="setup", callsite="process"):
                fleet(*self._fleet_key())
            return self.run_round(stage, rounds)

    def close(self) -> None:
        """Unlink what this call published; the fleet stays warm."""
        if self._shared is not None:
            self._shared.close()
            self._shared = None


class _Timeline(NamedTuple):
    """What one enacted phase window leaves behind besides its value.

    Plain data on purpose: the :class:`~repro.runtime.scheduler.Simulator`,
    its rank generators and ``SimResult.results`` reference each other in
    cycles, and a stage keeps its timelines until it ends.
    """

    makespan: float
    clocks: np.ndarray  # per-rank virtual clocks at the end of the window
    summary: object  # the window's TraceSummary
    # the window's own recording (clock from 0, ranks 0..N1-1), for the
    # splice onto the run's timeline; both empty unless tracing
    events: list  # of TraceEvent
    edges: list  # of DepEdge


class SimulatedBackend(ExecutionBackend):
    """The real SPMD decomposition on the runtime simulator.

    Every phase of a stage runs the same partition, message pattern and
    message sizes, so with modeled compute a window's virtual timeline
    depends on its exchange shapes alone, never on the data.  Each stage
    therefore *enacts* one window per exchange signature — in practice
    its first — on the coroutine simulator.  A round's windows are
    valued by whole-graph level-DP runs as wide as a sequential window
    (:meth:`ProblemSpec.window_values`); the enacted value is checked
    against its window's, and every later window takes its value from
    them and its makespan, clocks, trace splice and byte counts from the
    stored :class:`_Timeline`.  A fault plan, a sanitizer or measured compute
    make timelines window-specific: then every window is enacted.
    """

    name = "simulated"

    def __init__(self, engine: "DetectionEngine") -> None:
        super().__init__(engine)
        self._views = None
        self._cost_model = None
        rt = engine.rt
        self._reuse = (rt.fault_plan is None and rt.sanitize == "off"
                       and not rt.measure_compute)

    def prepare(self, stage: _Stage) -> None:
        e = self.engine
        if self._views is None:
            e.partition = e.session.ensure_partition(e.prof)
            self._views = e.session.ensure_views(e.prof, e.problem)
            self._cost_model = e.rt.get_cluster().cost_model(e.rt.n1)

    def _run_lanes(self, spec) -> int:
        """The lanes of a whole-graph run that values a round's windows:
        the stage's sequential window (an explicit ``n2`` wins, as
        there), so the run holds no more state than a sequential one."""
        return MidasRuntime(n2=self.engine.rt.n2).schedule_for(
            spec.k, self.engine.graph.n, spec.field.m, spec.payload).n2

    def run_round(self, stage: _Stage, rounds: _Rounds):
        # one round a batch: simulated windows carry one round (R = 1)
        (fp,), ell = rounds.fps, rounds.ell
        e = self.engine
        rt, rec, fc = e.rt, e.rec, e.fc
        spec, sched = stage.spec, stage.sched
        want_trace = rt.trace or rec is not None
        value = spec.acc_init()
        round_virtual = 0.0
        if self._reuse:
            # every window's whole-graph value: a reused window's value,
            # an enacted one's check
            with e.prof.span("engine.values", phase="rounds", callsite=fc.problem):
                whole = spec.window_values(e.graph, fp, sched.n2, self._run_lanes(spec))
        for bi, batch in enumerate(sched.batches()):
            if rec is not None and e.last_join is not None:
                # phase barrier: every rank of this batch starts when the
                # previous batch's slowest phase (or the round reduce) ended
                jr, jt = e.last_join
                for r in range(len(batch) * rt.n1):
                    rec.record_edge("barrier", jr, jt, r, e.cursor,
                                    info=f"r{ell}/b{bi}")
            batch_time = 0.0
            batch_slow = (0, 0.0)  # (global rank, end time) of slowest phase
            for gi, t in enumerate(batch):
                q0, q1 = sched.phase_window(t)
                tl, extra, failed = None, 0.0, ()
                if self._reuse:
                    # the signature says whether this window's messages
                    # were enacted before
                    t0, contrib = time.perf_counter(), whole[t]
                    signature = exchange_signature(spec.recurrence, fp, q0, sched.n2)
                    tl = stage.timelines.get(signature)
                if tl is not None:
                    e.prof.add_span("engine.simulate", t0, time.perf_counter(),
                                    phase="rounds", callsite=fc.problem)
                    if e._hb is not None:
                        e._hb()  # one simulator heartbeat per reused window
                else:
                    key = f"{stage.key_prefix}r{ell}/b{bi}/p{t}"
                    prog = phase_program(self._views, spec.recurrence, fp, q0,
                                         sched.n2, overlapped=rt.overlap)
                    res, sim, extra, failed = _run_phase_resilient(
                        rt, fc, prog, key, self._cost_model, want_trace, e.prof,
                        sanitizer=e.san, heartbeat=e._hb,
                    )
                    tl = _Timeline(res.makespan, res.clocks, res.summary,
                                   sim.trace.events, sim.trace.edges)
                    enacted = spec.rank_value(res.results[0])
                    if self._reuse:
                        if not np.array_equal(enacted, contrib):
                            raise ReplayMismatchError(
                                f"simulated phase {key} evaluates to {enacted!r} "
                                f"but the whole-graph level DP gives {contrib!r} "
                                "for the same window", ell, bi, t)
                        stage.timelines[signature] = tl
                    contrib = enacted
                value = spec.combine(value, contrib)
                # a virtual makespan, not a wall interval: no lane
                e.phase_done(stage, range(ell, ell + 1), t, [contrib], 0.0,
                             tl.makespan, None)
                phase_end = extra + tl.makespan
                if phase_end >= batch_time:
                    slow_local = int(tl.clocks.argmax()) if len(tl.clocks) else 0
                    batch_slow = (gi * rt.n1 + slow_local, phase_end)
                batch_time = max(batch_time, phase_end)
                if rt.trace:
                    e.trace_compute += tl.summary.total_compute
                    e.trace_comm += tl.summary.total_comm
                if rec is not None:
                    # splice the phase's group onto global ranks/clock:
                    # failed attempts at their own offsets, then the one
                    # that succeeded
                    attempts = [
                        (shift, _compose_label(stage.label, f"failed-attempt{a}"),
                         events, edges)
                        for shift, a, events, edges in failed
                    ] + [(extra, stage.label, tl.events, tl.edges)]
                    for shift, label, events, edges in attempts:
                        rec.extend(
                            events, t_shift=e.cursor + shift,
                            rank_offset=gi * rt.n1,
                            scope=Scope(round=ell, batch=bi, phase=t, q0=q0,
                                        q1=q1, label=label),
                            edges=edges,
                        )
                if want_trace:
                    e.bytes_ctr.inc(tl.summary.total_bytes)
            round_virtual += batch_time
            e.cursor += batch_time
            e.last_join = (batch_slow[0], e.cursor)
        red = _reduce_cost(rt, spec.reduce_nbytes)
        round_virtual += red
        if rec is not None:
            if e.last_join is not None:
                # the round reduce joins on the slowest phase of the batch
                rec.record_edge("collective", e.last_join[0], e.cursor,
                                -1, e.cursor + red, info="round-reduce")
            rec.record(-1, "collective", e.cursor, e.cursor + red,
                       info="round-reduce", nbytes=spec.reduce_nbytes,
                       scope=Scope(round=ell,
                                   label=(f"{stage.label} reduce" if stage.label
                                          else "round-reduce")))
        e.cursor += red
        e.last_join = (-1, e.cursor)
        return [value], [round_virtual]


def _compose_label(stage_label: str, suffix: str) -> str:
    return f"{stage_label} {suffix}" if stage_label else suffix


_BACKENDS: Dict[str, Type[ExecutionBackend]] = {
    "sequential": SequentialBackend,
    "simulated": SimulatedBackend,
    "modeled": ModeledBackend,
    "threaded": ThreadedBackend,
    "process": ProcessBackend,
}


class EngineSession:
    """Reusable prepared stage state for one ``(graph, decomposition)``.

    Every :class:`DetectionEngine` runs on a session: the one attached as
    ``MidasRuntime(session=...)``, or a private one it builds with
    :meth:`for_runtime` and drops when the driver call ends — fine for a
    single CLI invocation, wasteful for a service answering many queries
    against the same preloaded graph, which shares one.  A session holds
    exactly the state that is (a) expensive to build and (b) *immutable
    once built*:

    * the vertex partition (deterministic in ``(graph, n1,
      partition_method)`` — one fixed RNG lineage);
    * the halo views derived from it (simulated mode);
    * GF(2^l) table sets, cached per field degree;
    * the kernel calibration used by the modeled estimates.

    Everything *mutable* during a run — accumulators, round RNG children,
    fault state, live status, the virtual clock — stays on the engine
    (or its runtime), so any number of concurrent engines may share one
    session safely; the internal lock only guards lazy construction.
    Attach a session via ``MidasRuntime(session=...)``; the engine
    validates that the runtime's decomposition matches the session's at
    construction time and raises :class:`ConfigurationError` on drift
    (a partition built for a different ``n1`` would silently skew the
    simulated decomposition).

    Determinism contract: results with and without a session are
    bit-identical — the partition inputs are the same, and field tables
    of equal degree are equal.  Property-tested in
    ``tests/test_engine_sessions.py``.
    """

    def __init__(
        self,
        graph: CSRGraph,
        *,
        n1: int = 1,
        partition_method: str = "random",
        calibration: Optional[KernelCalibration] = None,
    ) -> None:
        self.graph = graph
        self.n1 = n1
        self.partition_method = partition_method
        self._calibration = calibration
        self._partition = None
        self._views = None
        self._fields: Dict[int, object] = {}  # field degree -> GF2m tables
        self._lock = threading.Lock()
        self.uses = 0  # engines ever attached (for /api/service stats)

    @classmethod
    def for_runtime(cls, graph: CSRGraph, rt: "MidasRuntime") -> "EngineSession":
        """A session matching ``rt``'s decomposition knobs."""
        return cls(graph, n1=rt.n1, partition_method=rt.partition_method,
                   calibration=rt.calibration)

    def compatible(self, graph: CSRGraph, rt: "MidasRuntime") -> Optional[str]:
        """``None`` when this session may serve ``(graph, rt)``, else the
        human-readable mismatch."""
        if graph is not self.graph:
            return "session was prepared for a different graph object"
        for attr in ("n1", "partition_method"):
            if getattr(rt, attr) != getattr(self, attr):
                return (f"runtime {attr}={getattr(rt, attr)!r} != session "
                        f"{attr}={getattr(self, attr)!r}")
        return None

    def attach(self) -> None:
        with self._lock:
            self.uses += 1

    # ------------------------------------------------------ prepared state
    # each build step is one setup span of ``prof``, the span log of
    # whichever run finds the state missing

    def ensure_partition(self, prof=_UNPROFILED):
        """The session's vertex partition, built once under the lock."""
        with self._lock:
            if self._partition is None:
                with prof.span("engine.partition", phase="setup",
                               callsite=self.partition_method):
                    self._partition = make_partition(
                        self.graph, self.n1, self.partition_method,
                        rng=RngStream(_PARTITION_SEED, name="partition"),
                    )
            return self._partition

    def ensure_views(self, prof=_UNPROFILED, problem: str = ""):
        """The halo views over :meth:`ensure_partition`, built once."""
        part = self.ensure_partition(prof)
        with self._lock:
            if self._views is None:
                with prof.span("engine.halo", phase="setup", callsite=problem):
                    self._views = build_halo_views(self.graph, part)
            return self._views

    def field_for_k(self, d: int, prof=_UNPROFILED):
        """The GF(2^l) table set of a polynomial of degree ``d`` in the
        ``y``s (``d = k`` for a k-path), cached per field degree (many
        ``d`` share one)."""
        from repro.ff.gf2m import default_field_for_k

        deg = field_degree_for_k(d)
        with self._lock:
            fld = self._fields.get(deg)
            if fld is None:
                with prof.span("engine.field", phase="setup", callsite=f"GF(2^{deg})"):
                    fld = self._fields[deg] = default_field_for_k(d)
            return fld

    def get_calibration(self) -> KernelCalibration:
        with self._lock:
            if self._calibration is None:
                self._calibration = KernelCalibration.synthetic()
            return self._calibration

    def describe(self) -> dict:
        """JSON-safe session stats for the service's ``/api/service``."""
        with self._lock:
            return {
                "n1": self.n1,
                "partition_method": self.partition_method,
                "partition_seed": _PARTITION_SEED,
                "partition_built": self._partition is not None,
                "views_built": self._views is not None,
                "fields_cached": sorted(self._fields),
                "uses": self.uses,
            }


class DetectionEngine:
    """The round → batch → phase evaluation loop, written once.

    One engine instance serves one driver call: it runs on an
    :class:`EngineSession` (the runtime's, or a private one that is never
    stored back on the runtime) and owns the run-level virtual clock that
    trace events are spliced onto, the shared metric families, and (in
    simulated mode) the fault-tolerance context.  :meth:`run_stage`
    executes the amplification rounds of one
    :class:`~repro.core.problems.ProblemSpec`; multi-stage drivers (the
    scan grid's one-spec-per-size loop) call it repeatedly and all stages
    share the same run-level accounting.

    Use as a context manager so backend resources (the thread or
    process pool) are released deterministically.
    """

    def __init__(self, graph: CSRGraph, rt: MidasRuntime, problem: str) -> None:
        self.graph = graph
        self.rt = rt
        self.problem = problem
        self.rec = rt.get_recorder()
        self.reg = rt.get_metrics()
        self.fc = (
            _FaultContext(rt, self.reg, problem) if rt.mode == "simulated" else None
        )
        self.san = None
        self.san_report = None
        self._san_synced = False
        self.digests = rt.digest_log
        self._value_digest = None
        if rt.sanitize != "off" or self.digests is not None:
            # imported lazily: repro.sanitize.replay imports this module
            from repro.sanitize.comm import CommSanitizer, SanitizerReport
            from repro.sanitize.replay import value_digest
            self._value_digest = value_digest
            if rt.sanitize != "off":
                self.san_report = SanitizerReport()
                if rt.mode == "simulated":
                    # comm checking only has a substrate in simulated mode;
                    # other modes still get the report/metrics plumbing
                    self.san = CommSanitizer(rt.sanitize, self.san_report)
        self.backend = _BACKENDS[rt.mode](self)  # rt.mode is validated
        self.session = (rt.session if rt.session is not None
                        else EngineSession.for_runtime(graph, rt))
        mismatch = self.session.compatible(graph, rt)
        if mismatch is not None:
            raise ConfigurationError(f"engine session mismatch: {mismatch}")
        self.session.attach()
        self.partition = None  # set once this run has asked the session for it
        self.prof = rt.get_profiler()
        self.live = rt.get_live()
        if self.live is not None:
            # empty unless the span log is a served query's trace
            self.live.trace_id = self.prof.trace_id
        self.round_walls: List[float] = []  # wall seconds of each round run
        self._windows: List[tuple] = []  # (round, t, t0, t1, lane) awaiting the join
        if self.live is not None:
            self.live.run_started(problem, rt.mode,
                                  graph_nodes=graph.n,
                                  graph_edges=graph.num_edges)
        self.degraded: Optional[dict] = None
        self.ckpt = rt.get_checkpoint()
        self.ekey = None
        if self.ckpt is not None:
            self.ekey = self.ckpt.attach_engine(self)
            self.ckpt.restore_into(self)
            self.graph_sha = graph_sha(graph)  # in every stage's identity
        self.wd = rt.get_watchdog()
        if self.wd is not None:
            # on a hard hang the monitor thread still flushes a checkpoint;
            # the raise itself happens at the next cooperative check()
            self.wd.start(on_trip=(self.ckpt.save if self.ckpt is not None
                                   else None))
        self._hb = (self._heartbeat
                    if (self.live is not None or self.wd is not None) else None)
        self.cursor = 0.0  # run-level virtual clock for the spliced trace
        self.last_join = None  # (rank, time) the next batch's barrier hangs on
        self.virtual_total = 0.0
        self.trace_compute = 0.0
        self.trace_comm = 0.0
        self.rounds_ctr = self.reg.counter(
            "midas_rounds_total", "Amplification rounds executed"
        ).labels(problem=problem, mode=rt.mode)
        self.bytes_ctr = self.reg.counter(
            "midas_comm_bytes_total", "Wire bytes sent in simulated phases"
        ).labels(problem=problem)

    # ------------------------------------------------------------ lifecycle
    def __enter__(self) -> "DetectionEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.live is not None:
            if exc_type is None:
                if self.degraded is not None:
                    state, error = "degraded", self.degraded["detail"]
                else:
                    state, error = "done", ""
            elif issubclass(exc_type, KeyboardInterrupt):
                state, error = "interrupted", "KeyboardInterrupt"
            else:
                state, error = "failed", f"{exc_type.__name__}: {exc}"
            self.live.run_ended(state, error=error)
        if exc_type is not None and issubclass(exc_type, SanitizerError):
            self.flight_dump("sanitizer_error", detail=str(exc))
        self.close()

    def close(self) -> None:
        self.backend.close()
        self._sync_sanitizer_metrics()

    def _sync_sanitizer_metrics(self) -> None:
        """Publish the sanitizer report into ``sanitizer_*`` metric families
        (once; drivers that never call :meth:`fill_details` still report)."""
        rep = self.san_report
        if rep is None or self._san_synced:
            return
        self._san_synced = True
        self.reg.counter(
            "sanitizer_ops_checked_total", "Ops inspected by the comm sanitizer"
        ).labels(problem=self.problem, mode=self.rt.mode).inc(rep.ops_checked)
        self.reg.counter(
            "sanitizer_runs_total", "Simulated runs executed under the sanitizer"
        ).labels(problem=self.problem, mode=self.rt.mode).inc(rep.runs)
        for kind, n in rep.counts().items():
            self.reg.counter(
                "sanitizer_violations_total", "Sanitizer violations, by kind"
            ).labels(kind=kind, problem=self.problem).inc(n)

    # ----------------------------------------------------------- liveness
    def _heartbeat(self) -> None:
        """The simulator's heartbeat hook: tick the live status and the
        watchdog, and surface an expired watchdog *inside* the phase —
        :class:`~repro.errors.WatchdogExpired` is not a
        :class:`~repro.errors.FaultInjectedError`, so the retry loop
        never swallows it and the round loop degrades promptly."""
        if self.live is not None:
            self.live.heartbeat()
        if self.wd is not None:
            self.wd.beat()
            self.wd.check()

    def _note_degraded(self, exc: WatchdogExpired, spec: ProblemSpec,
                       rounds_done: int) -> None:
        """Convert a watchdog trip into degraded-run state: remember the
        reason plus the stage's ``(1 - p)^rounds`` miss bound (``p``: its
        :attr:`~repro.core.problems.ProblemSpec.round_success`) and force
        a checkpoint so the partial work is durable and resumable."""
        self.degraded = {
            "reason": exc.reason,
            "detail": str(exc),
            "rounds_completed": int(rounds_done),
            "p_failure_bound": float((1 - spec.round_success) ** rounds_done),
        }
        _LOG.warning(
            "watchdog tripped (%s) — degrading after %d completed round(s); "
            "p(miss) <= %.3g", exc.reason, rounds_done,
            self.degraded["p_failure_bound"],
        )
        self.flight_dump("watchdog_trip", reason=exc.reason,
                         rounds_completed=int(rounds_done),
                         extra={"degraded": dict(self.degraded)})
        if self.ckpt is not None:
            self.ckpt.save()

    def flight_dump(self, kind: str, extra: Optional[dict] = None, **fields) -> None:
        """Record a notable event in the process-wide flight recorder and
        dump the ring (to ``$REPRO_FLIGHT_DIR`` when set), with the spans
        that were open when it happened: where the run was."""
        from repro.obs.qtrace import get_flight_recorder  # lazy: optional layer

        fr = get_flight_recorder()
        fr.record(kind, problem=self.problem,
                  trace_id=self.prof.trace_id or None, **fields)
        fr.dump(kind, extra={
            **(extra or {}),
            "open_spans": [s.to_dict() for s in self.prof.open_spans()]})

    # ------------------------------------------------------ phase boundary
    def phase_done(self, stage: "_Stage", ells: range, t: int, values: list,
                   t0: float, t1: float, lane: Optional[str],
                   pid: Optional[int] = None) -> None:
        """The one phase boundary: every backend reports each finished
        phase window here, on the thread that folds the round
        accumulators (so no sink needs to be thread-safe for it).

        The window was phase ``t`` of each round in ``ells`` — several
        rounds side by side when the schedule fuses them, each with its
        entry in ``values``; a fused round is one phase, ``t = 0``.
        ``t0``/``t1`` were stamped where the window ran: ``perf_counter``
        seconds on thread ``lane`` or worker process ``pid``, or —
        ``lane=None`` — a virtual makespan from the simulator, which has
        no wall interval to profile or to lay on a recorder lane.  The
        watchdog is checked here, so a trip surfaces between two windows
        of any backend.
        """
        stage.phase_hist.observe(t1 - t0)
        if lane is not None:
            self.prof.add_span(
                "engine.kernel" if pid is None else "worker.kernel", t0, t1,
                pid=pid, lane=lane, phase="rounds", callsite=stage.spec.name,
                q_start=stage.sched.phase_window(t)[0], n2=stage.sched.n2,
                k=stage.spec.k, round=ells.start, rounds=len(ells))
            if self.rec is not None:
                # the recorder lanes are laid out once the batch has joined
                self._windows.append((ells.start, t, t0, t1, lane))
        if self.wd is not None:
            self.wd.beat()
            self.wd.check()
        for ell, value in zip(ells, values):
            if self.digests is not None:
                # keyed by phase index, so completion order is moot
                self.digests.record_phase(
                    stage.label, ell, t // stage.sched.concurrency, t,
                    self._value_digest(value),
                )
            if self.live is not None:
                self.live.phase_done(ell, t)

    def discard_round(self) -> None:
        """Forget the windows of a round that will not be joined (its
        backend is about to run it again)."""
        self._windows = []

    def round_joined(self, stage: "_Stage", ell: int, round0: float,
                     round1: float) -> None:
        """The join half of the boundary: lay the windows of the round
        batch that starts at round ``ell`` on the recorder — one timeline
        lane per thread/worker that ran any, wall offsets from the batch
        start preserved — and advance the run-level clock by the batch's
        wall.  When the accumulator join crossed threads, a barrier edge
        hangs it on the window that finished last.
        """
        if self.rec is None:
            return
        windows, self._windows = self._windows, []
        lanes = {w: i for i, w in enumerate(sorted({w[4] for w in windows}))}

        def at(stamp: float) -> float:  # clamped: worker clocks are foreign
            return self.cursor + max(stamp - round0, 0.0)

        for first, t, t0, t1, lane in sorted(windows, key=lambda w: w[2]):
            q0, q1 = stage.sched.phase_window(t)
            self.rec.record(lanes[lane], "compute", at(t0), at(t1),
                            scope=Scope(round=first, phase=t, q0=q0, q1=q1,
                                        label=stage.label))
        if windows:
            *_, t1, lane = max(windows, key=lambda w: w[3])
            if lane != threading.current_thread().name:
                self.rec.record_edge("barrier", lanes[lane], at(t1), 0,
                                     at(round1), info=f"r{ell} join")
        self.cursor += round1 - round0

    def note_result(self, found: bool) -> None:
        """Publish the detection's final answer to the live bus."""
        if self.live is not None:
            self.live.note_result(found)

    def note_round(self, stage: "_Stage", ell: int, value) -> None:
        """Record one round accumulator's digest (no-op without a log)."""
        if self.digests is not None:
            self.digests.record_round(stage.label, ell,
                                      self._value_digest(value))

    # ------------------------------------------------------------ main loop
    def run_stage(
        self,
        spec: ProblemSpec,
        rounds: int,
        rng: RngStream,
        *,
        eps: float = 0.2,
        stop: Optional[Callable[[Value], bool]] = None,
        key_prefix: str = "",
        label: str = "",
    ) -> StageResult:
        """Run ``rounds`` amplification rounds of ``spec``.

        ``rng`` is the stage's stream; round ``ell`` draws its fingerprint
        from ``rng.child(f"round{ell}")`` — identical in every mode, so
        answers never depend on the backend, the ``(N, N1, N2)``
        decomposition or how many rounds share a window.  ``stop`` is the
        early-exit predicate on the round accumulator (e.g. *any witness*
        for detection, *this weight cell* for single-cell queries).

        Rounds run in batches of at most all the rounds left without
        ``stop``, and of at most 1, 2, 4, ... rounds with it; how many a
        batch takes is :meth:`_round_batch`'s rule.  Each round
        is still reported on its own, in order — its digest, checkpoint,
        live event and ``stop`` — and a hit drops the batch's later rounds
        unreported.  A watchdog trip discards the unfinished batch.

        The stage carries a Theorem-2 estimate (``StageResult.estimate``)
        in modeled mode, where it is the virtual clock, and in simulated
        mode with a recorder attached, where the RunReport sets it against
        the simulated timeline.
        """
        rt = self.rt
        sched = rt.schedule_for(spec.k, self.graph.n, spec.field.m, spec.payload)
        # the stage is a span too: what this run has to build for it (pool,
        # partition, halo) and its rounds nest inside
        with self.prof.span("engine.stage", lane="engine",
                            label=label or self.problem, k=spec.k,
                            mode=rt.mode, rounds=rounds) as stage_span:
            phase_hist = self.reg.histogram(
                "midas_phase_seconds", "Per-phase time (virtual makespan or wall)"
            ).labels(problem=self.problem, mode=rt.mode, k=spec.k, n1=rt.n1, n2=sched.n2)
            estimate = None
            if rt.mode == "modeled" or (rt.mode == "simulated" and self.rec is not None):
                self.partition = self.session.ensure_partition(self.prof)
                stats = PartitionStats.from_partition(self.partition)
                cluster = rt.get_cluster()
                estimate = estimate_runtime(
                    stats, sched, rt.get_calibration(),
                    cluster.cost_model(min(rt.n_processors, cluster.total_cores)),
                    eps=eps, problem="scanstat" if spec.convolves else "path",
                    levels=spec.exchanges, z_axis=spec.payload, rounds=rounds,
                )
            stage = _Stage(spec, sched, rounds, key_prefix, label, phase_hist, estimate)
            # the stage key is consumed unconditionally (creation order), so a
            # resumed process walks the same key sequence as the killed one
            skey = self.ckpt.stage_key(self.ekey, label) if self.ckpt is not None else None
            if self.degraded is not None:
                # a previous stage tripped the watchdog: start no new work
                return StageResult([], [], sched, estimate)
            self.backend.prepare(stage)
            if self.live is not None:
                self.live.stage_started(label or self.problem, spec.k, rounds,
                                        sched.n_phases, spec.round_success, eps=eps)
            walls0 = len(self.round_walls)  # the ETA averages this stage's rounds

            values: List[Value] = []
            virtuals: List[float] = []
            start_round = 0
            if skey is not None:
                # restored rounds must be this question's: same graph,
                # polynomial, field and randomness, or a false positive
                st = self.ckpt.open_stage(self.ekey, skey, {
                    "graph": self.graph_sha, "problem": spec.name,
                    "k": spec.k, "levels": spec.levels,
                    "field_degree": spec.field.m,
                    "field_modulus": spec.field.modulus,
                    "rng": rng.state(), "rounds": rounds,
                })
                if st["values"]:
                    values = [decode_value(v, spec) for v in st["values"]]
                    virtuals = [float(x) for x in st["virtuals"]]
                    # children are spawn-order-derived: re-requesting the
                    # restored rounds' streams leaves the parent positioned
                    # exactly where the killed run left it
                    for ell in range(len(values)):
                        rng.child(f"round{ell}")
                    self.virtual_total += sum(virtuals)
                    start_round = len(values)
                    if self.live is not None:
                        self.live.rounds_restored(start_round, self.virtual_total)
                    _LOG.info("%s: restored %d checkpointed round(s)",
                              self.problem, start_round)
                    if st["hit"] or st["complete"]:
                        return StageResult(values, virtuals, sched, estimate)

            ell, grow, hit = start_round, 1, False
            while ell < rounds and not hit:
                if self.wd is not None:
                    try:
                        self.wd.check()
                    except WatchdogExpired as exc:
                        self._note_degraded(exc, spec, len(values))
                        break
                # with an early exit, batches grow 1, 2, 4, ... rounds, so a
                # first-round hit costs one round's window
                want = rounds - ell if stop is None else min(rounds - ell, grow)
                grow *= 2
                batch = self._round_batch(spec, ell, want, rng, stop is not None)
                # the batch is stamped once: this span is the profile's and
                # the query trace's, and feeds details["wall"] and the ETA
                span = self.prof.span("engine.round", phase="rounds",
                                      callsite=label or self.problem, round=ell,
                                      rounds=len(batch.fps))
                try:
                    with span:
                        done = list(zip(*self.backend.run_round(stage, batch)))
                except WatchdogExpired as exc:
                    # the in-flight batch's partial work is discarded; a resume
                    # re-runs it from the same round-scoped streams, bit-identical
                    self.round_walls.append(span.span.duration)
                    self._note_degraded(exc, spec, len(values))
                    break
                self._share_wall(span.span.duration, len(done))
                for value, round_virtual in done:
                    hit = self._round_done(stage, skey, ell, rounds, rng, value,
                                           round_virtual, values, virtuals, walls0,
                                           stop)
                    ell += 1
                    if hit:
                        break
                if hit and ell < batch.ell + len(done):
                    # the batch's later rounds were evaluated, never reported
                    del self.round_walls[-len(done):]
                    self._share_wall(span.span.duration, ell - batch.ell)
                    if self.digests is not None:
                        self.digests.forget_phases(
                            stage.label, range(ell, batch.ell + len(done)))
            stage_span.tag(rounds_done=len(values),
                           degraded=self.degraded is not None)
            return StageResult(values, virtuals, sched, estimate)

    def _round_batch(self, spec: ProblemSpec, ell: int, want: int,
                     rng: RngStream, early_exit: bool) -> _Rounds:
        """The next round batch: round ``ell`` on, at most ``want`` rounds.

        A window carries ``R`` rounds (:meth:`MidasRuntime.schedule_for`),
        and a batch is one window's rounds — except on a pool with the
        default schedule: when a window covers a round, a window per
        worker; when a round spans several windows and there is no early
        exit, all ``want`` rounds, or as many as keep the batch's stacked
        fingerprints within ``3 * _STATE_BYTES`` (the budget a fused
        window's states keep).  So an early exit over several windows a
        round, and an explicit ``n2``, run a round at a time.

        The fingerprints come from the streams ``rng.child`` will hand out
        for these rounds, drawn without spawning them: the stage stream
        moves on one child per round *reported* (:meth:`_round_done`), so
        an early exit leaves it where a one-round-at-a-time run would.
        """
        rt = self.rt
        n = self.graph.n
        sched = rt.schedule_for(spec.k, n, spec.field.m, spec.payload,
                                rounds=want, live_states=spec.live_states)
        size = sched.rounds_per_window
        if rt.mode in ("threaded", "process") and rt.n2 is None:
            if sched.n_phases == 1:
                size *= max(1, min(rt.get_workers(), want // size))
            elif not early_exit:
                fp_bytes = n * (8 + spec.levels * np.dtype(spec.field.dtype).itemsize)
                size = max(1, min(want, 3 * _STATE_BYTES // max(1, fp_bytes)))
        fps = [spec.draw_fingerprint(n, child) for child in
               rng.children_ahead([f"round{r}" for r in range(ell, ell + size)])]
        return _Rounds(ell, fps, sched)

    def _share_wall(self, seconds: float, rounds: int) -> None:
        """A batch's wall is its rounds' walls, shared evenly."""
        self.round_walls.extend([seconds / rounds] * rounds)

    def _round_done(self, stage: "_Stage", skey, ell: int, rounds: int,
                    rng: RngStream, value, round_virtual: float, values: list,
                    virtuals: list, walls0: int, stop) -> bool:
        """Report round ``ell``: the stage stream, its digest, counters, the
        live bus and the checkpoint; True when ``stop`` says it hit."""
        rng.child(f"round{ell}")  # the fingerprint's stream, spawned now
        self.note_round(stage, ell, value)
        self.rounds_ctr.inc()
        self.virtual_total += round_virtual
        values.append(value)
        virtuals.append(round_virtual)
        hit = stop is not None and stop(value)
        if self.live is not None:
            remaining = 0 if hit else rounds - (ell + 1)
            mean_virtual = sum(virtuals) / len(virtuals)
            stage_walls = self.round_walls[walls0:]
            self.live.round_done(
                ell, hit, self.virtual_total,
                eta_seconds=sum(stage_walls) / len(stage_walls) * remaining,
                eta_virtual_seconds=mean_virtual * remaining,
            )
            if self.fc is not None and self.fc.injector is not None:
                self.live.fault_update(
                    self.fc.phase_failures, self.fc.retries,
                    sum(self.fc.injected.values()),
                )
        if skey is not None:
            self.ckpt.note_round(self.ekey, skey, value, round_virtual,
                                 hit=hit, complete=hit or (ell + 1 == rounds))
        _LOG.debug("%s k=%d round %d/%d", self.problem, stage.spec.k, ell + 1, rounds)
        if hit:
            _LOG.info("%s k=%d: witness found in round %d",
                      self.problem, stage.spec.k, ell + 1)
        return hit

    # ------------------------------------------------------------- details
    def fill_details(self, det: dict, estimate=None) -> dict:
        """Stamp run-level context (partition stats, trace summary,
        resilience accounting) into a result's ``details`` dict."""
        if self.partition is not None:
            det.setdefault("max_load", self.partition.max_load)
            det.setdefault("max_deg", self.partition.max_degree)
        if self.round_walls:
            total = sum(self.round_walls)
            det.setdefault("wall", {
                "rounds_seconds": total,
                "rounds": len(self.round_walls),
                "mean_round_seconds": total / len(self.round_walls),
            })
        if estimate is not None:
            det.setdefault("estimate", estimate)
        if self.rt.mode == "simulated" and self.rt.trace:
            busy = self.trace_compute + self.trace_comm
            det.setdefault("trace_compute_seconds", self.trace_compute)
            det.setdefault("trace_comm_seconds", self.trace_comm)
            det.setdefault("trace_comm_fraction",
                           self.trace_comm / busy if busy > 0 else 0.0)
        if self.fc is not None and self.fc.injector is not None:
            det["resilience"] = self.fc.resilience(self.virtual_total)
        if self.san_report is not None:
            det["sanitizer"] = self.san_report.to_dict()
        if self.degraded is not None:
            det["degraded"] = dict(self.degraded)
        if self.ckpt is not None and self.ckpt.resumed_from:
            det["resumed_from"] = self.ckpt.resumed_from
        return det


__all__ = [
    "MidasRuntime",
    "DetectionEngine",
    "EngineSession",
    "ExecutionBackend",
    "SequentialBackend",
    "SimulatedBackend",
    "ModeledBackend",
    "ThreadedBackend",
    "ProcessBackend",
    "StageResult",
    "rounds_for_epsilon",
]
