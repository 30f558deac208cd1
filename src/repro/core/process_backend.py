"""Process-parallel phase execution past the GIL.

The threaded backend proved the execution contract: phase windows are
independent, their values combine by XOR (commutative and associative),
so merge order cannot change the result — bit-identical to sequential.
But numpy kernels only release the GIL inside individual ufuncs; the
gather/reshape/dispatch glue between them serializes, capping threaded
speedup.  This module runs the same contract across *processes*:

* the graph's CSR arrays (and any problem payload arrays, e.g. scan-stat
  weights) are published **once** via ``multiprocessing.shared_memory``
  — workers attach zero-copy, nothing is pickled per phase;
* problem specs hold closures (the recurrence) and cannot cross a
  process boundary, so workers rebuild them from the spec's picklable
  ``recipe`` (:func:`repro.core.problems.spec_from_recipe`) against the
  shared graph, caching per recipe;
* each phase task ships only the round fingerprint (``k``, ``v``, ``y``
  — a few KB) and its ``(q_start, n2)`` window, and returns the phase
  value plus one ``perf_counter``-stamped kernel record (CLOCK_MONOTONIC
  on Linux, so parent and workers share a timebase for trace lanes).

The parent owns every shared segment's lifecycle: workers only attach
(the resource tracker is shared with the parent under every start
method, so attach-registration is idempotent) and the backend unlinks
every segment on close.
"""

from __future__ import annotations

import os
import pickle
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import get_context, shared_memory
from time import perf_counter
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.core.problems import spec_from_recipe
from repro.errors import ConfigurationError
from repro.graph.csr import CSRGraph

# multiprocessing's resource tracker takes a process-wide lock whenever a
# segment is registered or unregistered, and a fork() while another thread
# holds it leaves the child deadlocked at its first attach.  Pools of
# concurrent engines (one per in-flight service query) therefore take turns
# at the two things that touch it: creating or unlinking segments, and the
# submit that forks the workers.
_MP_STATE_LOCK = threading.Lock()

# environment hook for the crash-regression test: a worker that sees this
# set dies hard (os._exit skips atexit/finally), exactly like a segfault
# or OOM-kill would look to the parent pool
_CRASH_ENV = "REPRO_TEST_CRASH_WORKER"


@dataclass(frozen=True)
class ShmArray:
    """A picklable reference to a numpy array in a shared-memory segment."""

    name: str
    shape: Tuple[int, ...]
    dtype: str

    def nbytes(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64)) * np.dtype(self.dtype).itemsize


def publish_array(arr: np.ndarray) -> Tuple[ShmArray, shared_memory.SharedMemory]:
    """Copy ``arr`` into a fresh shared segment; caller owns the handle."""
    arr = np.ascontiguousarray(arr)
    shm = shared_memory.SharedMemory(create=True, size=max(1, arr.nbytes))
    view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
    view[...] = arr
    return ShmArray(shm.name, tuple(arr.shape), arr.dtype.str), shm


# --------------------------------------------------------------- worker side
# Per-worker caches, populated lazily.  Under the default fork start method
# these start empty in each child; under spawn the module is re-imported.
_ATTACHED: Dict[str, Tuple[shared_memory.SharedMemory, np.ndarray]] = {}
_WORKER_GRAPH: Optional[CSRGraph] = None
_SPEC_CACHE: Dict[bytes, Any] = {}
# Last metrics snapshot shipped back to the parent.  Each task returns
# the *delta* of the worker's default registry against this baseline and
# advances it, so increments made inside workers (field builds, kernel
# calibration, anything instrumented) reach the parent exactly once.
_METRICS_BASE = None


def _attach(ref: ShmArray) -> np.ndarray:
    """Attach to a published segment (cached per worker), return the view."""
    cached = _ATTACHED.get(ref.name)
    if cached is not None:
        return cached[1]
    # Attaching re-registers the name with the resource tracker.  The
    # tracker is *shared* with the parent under every start method (the
    # tracker fd rides along in the spawn preparation data), its cache is
    # a set, and the parent's unlink unregisters exactly once — so the
    # phantom-owner double-unlink of bpo-38119 cannot happen here and no
    # worker-side unregister is needed (one would instead strip the
    # parent's registration and make its unlink noisy).
    shm = shared_memory.SharedMemory(name=ref.name)
    view = np.ndarray(ref.shape, dtype=np.dtype(ref.dtype), buffer=shm.buf)
    _ATTACHED[ref.name] = (shm, view)
    return view


def _worker_init(n: int, indptr_ref: ShmArray, indices_ref: ShmArray,
                 graph_name: str) -> None:
    """Pool initializer: attach the CSR graph once per worker."""
    global _WORKER_GRAPH, _METRICS_BASE
    from repro.obs.metrics import get_default_registry

    # a forked worker inherits the parent's default registry; the parent
    # has counted that already, so only increments from here on are shipped
    _METRICS_BASE = get_default_registry().snapshot()
    indptr = _attach(indptr_ref)
    indices = _attach(indices_ref)
    # CSRGraph keeps already-conforming int64 arrays as-is (no copy), so
    # the worker's graph stays backed by the shared segments
    _WORKER_GRAPH = CSRGraph(n, indptr, indices, name=graph_name)


def _materialize(params: Dict[str, Any]) -> Dict[str, Any]:
    return {
        key: _attach(val) if isinstance(val, ShmArray) else val
        for key, val in params.items()
    }


def _spec_for(wired: bytes):
    """Rebuild (and cache) the problem spec for a pickled wire descriptor."""
    spec = _SPEC_CACHE.get(wired)
    if spec is None:
        from repro.ff.gf2m import GF2m

        kind, params, (m, modulus, kernel) = pickle.loads(wired)
        field = GF2m(m, modulus=modulus, kernel_strategy=kernel)
        spec = spec_from_recipe(
            _WORKER_GRAPH, (kind, _materialize(dict(params))), field=field
        )
        _SPEC_CACHE[wired] = spec
    return spec


def _metrics_delta():
    """Diff the worker's default registry against the last-shipped
    baseline; advance the baseline.  Returns None when nothing changed
    (the common case after warm-up) so the wire stays small."""
    global _METRICS_BASE
    from repro.obs.metrics import get_default_registry, snapshot_delta

    snap = get_default_registry().snapshot()
    delta = snapshot_delta(snap, _METRICS_BASE)
    _METRICS_BASE = snap
    return delta or None


def _phase_task(wired: bytes, k: int, v: np.ndarray, y: np.ndarray,
                q_start: int, n2: int):
    """Evaluate one phase window.

    Returns ``(value, stamps, mdelta)``: the raw phase value, the
    window's one stamped record ``(pid, t0, t1)`` — the
    ``worker.kernel`` interval where it ran, extended by the
    ``worker.spec_build`` interval ``(tb0, tb1)`` when the spec had to
    be rebuilt (anything over a microsecond; a cache hit is not) — and
    the worker registry's metric delta since the previous task (None
    when unchanged).  The parent derives the histogram sample, the span
    in its span log and the recorder lane from that one record; the task
    wire is the only channel back to it.
    """
    if os.environ.get(_CRASH_ENV):
        os._exit(23)
    from repro.ff.fingerprint import Fingerprint
    from repro.obs.metrics import get_default_registry

    tb0 = perf_counter()
    spec = _spec_for(wired)
    tb1 = perf_counter()
    fp = Fingerprint(k=k, field=spec.field, v=v, y=y)
    t0 = perf_counter()
    value = spec.phase_value(_WORKER_GRAPH, fp, q_start, n2)
    stamps = (os.getpid(), t0, perf_counter())
    if tb1 - tb0 > 1e-6:
        stamps += (tb0, tb1)
    get_default_registry().counter(
        "midas_worker_phases_total", "Phase windows evaluated in process workers"
    ).inc()
    return value, stamps, _metrics_delta()


# --------------------------------------------------------------- parent side
class ProcessPhasePool:
    """A pool of worker processes sharing one published graph.

    ``wire_spec`` converts a :class:`ProblemSpec` into a picklable wire
    descriptor (ndarray payloads are swapped for :class:`ShmArray`
    references, published on first sight); ``submit`` ships one phase
    window.  ``close`` tears down the pool and unlinks every segment.
    """

    def __init__(self, graph: CSRGraph, workers: int,
                 start_method: Optional[str] = None) -> None:
        if workers < 1:
            raise ConfigurationError(f"process pool needs >= 1 worker, got {workers}")
        self.graph = graph
        self.workers = int(workers)
        self._segments = []  # SharedMemory handles we own
        self._published: Dict[int, ShmArray] = {}  # id(arr) -> ref
        self._keepalive = []  # source arrays, so the id() keys stay valid
        # id(spec) -> (spec, wire descriptor); the spec is pinned so a
        # freed spec's id can never alias a cache entry (scan drivers
        # build one short-lived spec per grid cell)
        self._wire_cache: Dict[int, Tuple[Any, bytes]] = {}
        indptr_ref = self._publish(graph.indptr)
        indices_ref = self._publish(graph.indices)
        ctx = get_context(start_method)
        self._executor = ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=ctx,
            initializer=_worker_init,
            initargs=(graph.n, indptr_ref, indices_ref, graph.name),
        )

    def _publish(self, arr: np.ndarray) -> ShmArray:
        ref = self._published.get(id(arr))
        if ref is None:
            with _MP_STATE_LOCK:
                ref, shm = publish_array(arr)
            self._segments.append(shm)
            self._published[id(arr)] = ref
            self._keepalive.append(arr)
        return ref

    def wire_spec(self, spec) -> bytes:
        """Pickle a spec's recipe with ndarray payloads in shared memory."""
        cached = self._wire_cache.get(id(spec))
        if cached is not None:
            return cached[1]
        if spec.recipe is None:
            raise ConfigurationError(
                f"problem {spec.name!r} carries no recipe; hand-built specs "
                "cannot run on mode='process' (closures do not cross process "
                "boundaries) — use the factory constructors in repro.core.problems"
            )
        kind, params = spec.recipe
        wire_params = tuple(
            sorted(
                (
                    key,
                    self._publish(val) if isinstance(val, np.ndarray) else val,
                )
                for key, val in params.items()
            )
        )
        f = spec.field
        wired = pickle.dumps(
            (kind, wire_params, (f.m, f.modulus, f.kernel_strategy)),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        self._wire_cache[id(spec)] = (spec, wired)
        return wired

    def submit(self, wired: bytes, fp, q_start: int, n2: int):
        """Submit one phase window; future resolves to
        ``(value, stamps, mdelta)`` — see :func:`_phase_task`."""
        with _MP_STATE_LOCK:  # the first submit forks every worker
            return self._executor.submit(
                _phase_task, wired, fp.k, fp.v, fp.y, q_start, n2
            )

    def close(self) -> None:
        # join the workers before unlinking: one still in _worker_init
        # would otherwise attach to a name that is already gone.  Queued
        # phases are cancelled; only the ones already running finish.
        self._executor.shutdown(wait=True, cancel_futures=True)
        for shm in self._segments:
            try:
                shm.close()
                with _MP_STATE_LOCK:
                    shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self._segments = []
        self._published = {}
        self._keepalive = []
        self._wire_cache = {}


__all__ = ["ProcessPhasePool", "ShmArray", "publish_array"]
