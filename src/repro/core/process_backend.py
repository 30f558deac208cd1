"""Process-parallel phase execution past the GIL: a worker fleet.

The threaded backend proved the execution contract: phase windows are
independent, their values combine by XOR (commutative and associative),
so merge order cannot change the result — bit-identical to sequential.
But numpy kernels only release the GIL inside individual ufuncs; the
gather/reshape/dispatch glue between them serializes, capping threaded
speedup.  This module runs the same contract across *processes*, in the
shape of the paper's Fig 1 — every phase group owns a share of the
round's windows, one coordinator merges:

* the graph's CSR arrays (and any problem payload arrays, e.g. scan-stat
  weights) are published **once** per call via
  ``multiprocessing.shared_memory`` (:class:`SharedArrays`) — workers
  attach zero-copy, nothing is pickled per phase;
* problem specs hold closures (the recurrence) and cannot cross a
  process boundary, so workers compile them from the spec's picklable
  :class:`~repro.core.mld.MLDCircuit` (:func:`repro.core.problems.compile`),
  its weights in shared memory, caching a few per wire descriptor;
* a round batch is **one request per worker**: the parent copies the
  batch's fingerprints, stacked ``(R, n)`` and ``(R, n, levels)``, into a
  segment it reuses from batch to batch and sends each worker
  ``(id, graph, spec key, k, v, y, n2, share)`` — ``graph`` the wire of
  the graph to run on, ``v``/``y`` references into
  that segment, ``share`` an equal slice of the batch's
  ``(t, q_start, r0, r1)`` windows, each over the batch's rounds
  ``[r0, r1)`` side by side.  The worker streams back one record per
  finished window, ``(id, t, values, (pid, t0, t1[, tb0, tb1]), mdelta)``
  with one value per round of the window
  (``perf_counter`` is CLOCK_MONOTONIC on Linux, so parent and workers
  share a timebase for trace lanes), and the parent only receives and
  folds.  An exception raised in a worker comes back in the value's
  place and is raised from the round;
* **records carry their request's id.**  A record whose request was
  cancelled or superseded is counted and dropped, never folded;
* **a worker looks at its request channel between two windows.**  A
  cancel (the bare id) ends the share there, ``None`` or EOF — the
  parent closed the pool, or died — ends the worker.

The same worker loop serves a second request kind, a **whole call**
``(id, fn, args)``: the worker runs ``fn(*args, cancelled)`` to the end
and sends exactly one record back, ``(id, None, value, None, mdelta)``.
:class:`QueryFleet` is the pool built on it — the detection service's
``workers`` long-lived processes, each answering whole queries for one
caller thread at a time; ``cancelled()`` is the call's look at its
request channel, for the engine to take between two windows.

Every ``mode="process"`` engine in an interpreter borrows one warm
fleet (:func:`fleet`): started by the first call, kept between calls,
rebuilt when the worker count or start method changes or a worker dies,
closed by :func:`close_fleet` and at interpreter exit, forgotten by a
forked child.  One thread drives it at a time (:func:`driving`, a
batch's hold).  Workers are bound to no graph: each keeps the one the
last request named attached, and closes its attachments to segments the
current request does not name, so a warm worker maps no more segments
than one request names.

The parent owns every shared segment's lifecycle: workers only attach
(the resource tracker is shared with the parent under every start
method, so attach-registration is idempotent).  What a call published —
its graph, its circuits' weights — it unlinks when it closes; the fleet
owns only its fingerprint segment, unlinked with the fleet after the
workers have left.
"""

from __future__ import annotations

import atexit
import itertools
import os
import pickle
import selectors
import signal
import threading
from collections import OrderedDict, deque
from contextlib import contextmanager
from dataclasses import dataclass, replace
from multiprocessing import (get_context, parent_process, resource_tracker,
                             shared_memory)
from multiprocessing import util as mp_util
from multiprocessing.connection import wait
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

# the level-DP hot path (problems -> leveldp, mld, gf2m -> bitsliced, csr,
# and the compiled kernel ff.native loads), imported before any fork: no
# worker compiles a module, or the kernel, in its first window
from repro.core.problems import compile
from repro.errors import ConfigurationError, WorkerCrashedError
from repro.graph.csr import CSRGraph

# multiprocessing's resource tracker takes a process-wide lock whenever a
# segment is registered or unregistered, and a fork() while another thread
# holds it leaves the child deadlocked at its first attach.  Pools of
# concurrent engines (one per in-flight service query) therefore take turns
# at the two things that touch it: creating or unlinking segments, and
# starting a fleet.
_MP_STATE_LOCK = threading.Lock()

# The parent's end of every live worker channel in this process (guarded by
# _MP_STATE_LOCK).  A forked child inherits all of them — its own fleet's
# and those of every other pool — and closes its copies at the fork
# (_forget_parent): a channel only reaches EOF once its last writer is
# gone, and EOF is how a worker learns that its parent was killed.  Empty
# in a spawned worker.
_PARENT_ENDS: set = set()

# environment hook for the crash-regression test: a worker that sees this
# set dies hard (os._exit skips atexit/finally), exactly like a segfault
# or OOM-kill would look to the parent
_CRASH_ENV = "REPRO_TEST_CRASH_WORKER"


@dataclass(frozen=True)
class ShmArray:
    """A picklable reference to a numpy array in a shared-memory segment."""

    name: str
    shape: Tuple[int, ...]
    dtype: str
    offset: int = 0

    def nbytes(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64)) * np.dtype(self.dtype).itemsize


def publish_array(arr: np.ndarray) -> Tuple[ShmArray, shared_memory.SharedMemory]:
    """Copy ``arr`` into a fresh shared segment; caller owns the handle."""
    arr = np.ascontiguousarray(arr)
    shm = shared_memory.SharedMemory(create=True, size=max(1, arr.nbytes))
    view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
    view[...] = arr
    return ShmArray(shm.name, tuple(arr.shape), arr.dtype.str), shm


def _unlink(shm: shared_memory.SharedMemory) -> None:
    """Close and unlink a segment this process created."""
    try:
        shm.close()
        with _MP_STATE_LOCK:
            shm.unlink()
    except FileNotFoundError:  # pragma: no cover - already gone
        pass


# --------------------------------------------------------------- worker side
# Per-worker caches, populated lazily.  Under the default fork start method
# these start empty in each child; under spawn the module is re-imported.
_ATTACHED: Dict[str, shared_memory.SharedMemory] = {}
# the graph the last batch request named: (its wire, the attached graph)
_GRAPH: Tuple[Optional[tuple], Optional[CSRGraph]] = (None, None)
# wire descriptor -> (compiled spec, the segments it views), least recently
# used first.  A weighted kind's wire names a segment its call publishes,
# so each of its calls is a new entry; a k-path's wire is the same bytes
# from call to call.
_SPEC_CACHE: "OrderedDict[bytes, Tuple[Any, Tuple[str, ...]]]" = OrderedDict()
_SPEC_CACHE_SIZE = 8
# Last metrics snapshot shipped back to the parent.  A share's last record
# carries the *delta* of the worker's default registry against this
# baseline and advances it, so increments made inside workers (field
# builds, kernel calibration, anything instrumented) reach the parent
# exactly once.
_METRICS_BASE = None


def _attach(ref: ShmArray) -> np.ndarray:
    """A view of a published array (segments stay attached per worker)."""
    shm = _ATTACHED.get(ref.name)
    if shm is None:
        # Attaching re-registers the name with the resource tracker.  The
        # tracker is *shared* with the parent under every start method (the
        # tracker fd rides along in the spawn preparation data), its cache is
        # a set, and the parent's unlink unregisters exactly once — so the
        # phantom-owner double-unlink of bpo-38119 cannot happen here and no
        # worker-side unregister is needed (one would instead strip the
        # parent's registration and make its unlink noisy).
        shm = _ATTACHED[ref.name] = shared_memory.SharedMemory(name=ref.name)
    return np.ndarray(ref.shape, dtype=np.dtype(ref.dtype), buffer=shm.buf,
                      offset=ref.offset)


def _materialize(val):
    return _attach(val) if isinstance(val, ShmArray) else val


def attach_graph(wired: tuple) -> CSRGraph:
    """The graph a :meth:`ProcessPhasePool.wire_graph` tuple names.

    CSRGraph keeps already-conforming int64 arrays as-is (no copy), so
    an attached graph stays backed by the shared segments.
    """
    n, indptr_ref, indices_ref, name = wired
    return CSRGraph(n, _attach(indptr_ref), _attach(indices_ref), name=name)


def _graph_for(wired: tuple) -> CSRGraph:
    """The graph a batch request names: the one attached for the last
    request, or — a different wire — a new attachment in its place."""
    global _GRAPH
    if _GRAPH[0] != wired:
        _GRAPH = (wired, attach_graph(wired))
    return _GRAPH[1]


def _spec_for(wired: bytes):
    """Compile (and cache) the problem spec of a pickled wire descriptor;
    returns ``(spec, the names of the segments it views)``."""
    hit = _SPEC_CACHE.get(wired)
    if hit is not None:
        _SPEC_CACHE.move_to_end(wired)
        return hit
    from repro.ff.gf2m import GF2m

    circuit, (m, modulus) = pickle.loads(wired)
    held: Tuple[str, ...] = ()
    if isinstance(circuit.weights, ShmArray):
        held = (circuit.weights.name,)
        circuit = replace(circuit, weights=_attach(circuit.weights))
    hit = _SPEC_CACHE[wired] = (
        compile(circuit, GF2m(m, modulus=modulus)), held)
    if len(_SPEC_CACHE) > _SPEC_CACHE_SIZE:
        _SPEC_CACHE.popitem(last=False)
    return hit


def _detach_all_but(names: set) -> None:
    """Close this worker's attachments to segments outside ``names`` —
    their owners have moved on, and may have unlinked them — after
    dropping the cached specs that view one.

    A segment still viewed from somewhere (a cycle the collector has not
    reached yet) stays attached until a later request finds it free.
    """
    for wired in [w for w, (_spec, held) in _SPEC_CACHE.items()
                  if not names.issuperset(held)]:
        del _SPEC_CACHE[wired]
    for name in [name for name in _ATTACHED if name not in names]:
        try:
            _ATTACHED[name].close()
        except BufferError:  # a view of it is still alive
            continue
        del _ATTACHED[name]


def _metrics_delta():
    """Diff the worker's default registry against the last-shipped
    baseline; advance the baseline.  Returns None when nothing changed
    so the wire stays small."""
    global _METRICS_BASE
    from repro.obs.metrics import get_default_registry, snapshot_delta

    snap = get_default_registry().snapshot()
    delta = snapshot_delta(snap, _METRICS_BASE)
    _METRICS_BASE = snap
    return delta or None


class _Inbox:
    """A worker's end of its request channel.

    Requests are served in the order they were sent; what arrives while
    one is being served waits in ``queued``.
    """

    def __init__(self, conn) -> None:
        self.conn = conn
        self.queued: deque = deque()
        # registered once: Connection.poll() builds a selector per call,
        # and this is looked at before every window
        self._ready = selectors.DefaultSelector()
        self._ready.register(conn, selectors.EVENT_READ)

    def next(self):
        """The next request, waiting for one; None or EOFError to leave."""
        return self.queued.popleft() if self.queued else self.conn.recv()

    def cancelled(self, rid: int) -> bool:
        """Read whatever the parent has sent since the last look.

        Returns True when request ``rid`` — the one being served — was
        cancelled.  A cancel for a request still waiting in ``queued``
        removes it there; one for a request already finished is moot.
        ``None`` and a closed channel both mean the pool is gone:
        EOFError, which ends the worker.
        """
        cancelled = False
        while self._ready.select(0):
            msg = self.conn.recv()
            if msg is None:
                raise EOFError
            if not isinstance(msg, int):
                self.queued.append(msg)
            elif msg == rid:
                cancelled = True
            else:
                self.queued = deque(m for m in self.queued if m[0] != msg)
        return cancelled


def _serve(inbox: _Inbox, res, request) -> None:
    """Evaluate one request's share, one record back per finished window.

    A record is ``(rid, t, values, stamps, mdelta)``: the raw phase value
    of each round the window carries,
    the window's one stamped interval ``(pid, t0, t1)`` — the
    ``worker.kernel`` span where it ran, extended on the share's first
    record by the ``worker.spec_build`` interval ``(tb0, tb1)`` when the
    spec was not in this worker's cache — and, on the share's last
    record, the worker registry's metric delta since the one shipped
    before (None when unchanged; a cancelled share's increments ride
    with the next).  A delta on every record measured 3–5 % slower on
    1.4 ms windows: a snapshot, a bigger record and a merge in the
    parent, all on cores the kernels want.  The parent derives the histogram sample, the span in its span
    log and the recorder lane from that one record; the record stream is
    the only channel back to it.
    """
    from repro.ff.fingerprint import Fingerprint
    from repro.obs.metrics import get_default_registry

    rid, graph_wire, wired, k, v, y, n2, share = request
    if inbox.cancelled(rid):
        return
    build = () if wired in _SPEC_CACHE else (perf_counter(),)
    spec, held = _spec_for(wired)
    if build:
        build += (perf_counter(),)
    graph = _graph_for(graph_wire)
    _detach_all_but({ref.name for ref in (graph_wire[1], graph_wire[2], v, y)
                     if isinstance(ref, ShmArray)}.union(held))
    # (R, n) and (R, n, levels): one fingerprint per round of the batch
    vs, ys = _materialize(v), _materialize(y)
    fps = [Fingerprint(k=k, field=spec.field, v=vr, y=yr) for vr, yr in zip(vs, ys)]
    phases = get_default_registry().counter(
        "midas_worker_phases_total", "Phase windows evaluated in process workers")
    pid = os.getpid()
    last = len(share) - 1
    for i, (t, q_start, r0, r1) in enumerate(share):
        # between two windows: has the batch been cancelled, the pool gone?
        if i and inbox.cancelled(rid):
            return
        if os.environ.get(_CRASH_ENV):
            os._exit(23)
        t0 = perf_counter()
        values = spec.phase_values(graph, fps[r0:r1], q_start, n2)
        t1 = perf_counter()
        phases.inc()
        res.send((rid, t, values, (pid, t0, t1, *build),
                  _metrics_delta() if i == last else None))
        build = ()


def _serve_call(inbox: _Inbox, res, request) -> None:
    """Run one whole call, ``fn(*args, cancelled)``, and send its one
    record, ``(rid, None, value, None, mdelta)``.

    ``cancelled()`` reads the request channel like the share loop does
    between two windows: True once this call was cancelled (it then
    winds down and still replies — the parent reads that reply before
    it hands the worker to anyone else), EOFError once the pool is gone.
    """
    rid, fn, args = request
    if os.environ.get(_CRASH_ENV):
        os._exit(23)
    value = fn(*args, lambda: inbox.cancelled(rid))
    res.send((rid, None, value, None, _metrics_delta()))


def _worker_main(req, res) -> None:
    """A fleet worker: serve requests until the channel says to leave."""
    from repro.obs.metrics import reset_default_registry

    # a terminal's Ctrl-C reaches the whole process group; the parent
    # decides what it stops (a cancel, None, EOF), so the work it is still
    # waiting for — a served query while the service drains — finishes
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # a forked worker inherits the parent's default registry: its counts
    # (the parent has them already) and its locks, any of which a sibling
    # thread of the parent may have held at the fork — for ever, here.  The
    # worker counts into a registry of its own and ships all of it.
    reset_default_registry()
    try:
        inbox = _Inbox(req)
        while True:
            request = inbox.next()
            if request is None:
                return
            if isinstance(request, int):  # a cancel that came late
                continue
            try:
                # a batch's share (id, graph, spec, k, v, y, n2, windows)
                # or a whole call (id, fn, args)
                (_serve if len(request) == 8 else _serve_call)(inbox, res,
                                                               request)
            except (EOFError, BrokenPipeError):
                raise
            except Exception as exc:
                # the parent raises it in the round's place, as an
                # executor's future would; this worker serves on
                res.send((request[0], None, exc, None, None))
    except (EOFError, BrokenPipeError, KeyboardInterrupt):
        # the pool was closed, the parent died, or a signal handler the
        # worker inherited turned SIGTERM into an interrupt: nobody is left
        # to answer to
        return


# --------------------------------------------------------------- parent side
@dataclass
class _Worker:
    process: Any
    req: Any  # Connection: requests, cancels and the final None go out
    res: Any  # Connection: records come in; EOF is the worker's death


class _Reply:
    """What :meth:`ProcessPhasePool.submit` returns: ``result(timeout=)``."""

    def __init__(self, pool: "ProcessPhasePool", rid: int) -> None:
        self._pool, self._rid = pool, rid

    def result(self, timeout: Optional[float] = None):
        pool = self._pool
        while pool._singles[self._rid] is None:
            # between rounds, so whatever else arrives is a cancelled one's
            pool.records_discarded += len(pool._receive(timeout))
        values, stamps, mdelta = pool._singles.pop(self._rid)
        if isinstance(values, Exception):
            raise values
        return values[0], stamps, mdelta


class SharedArrays:
    """Arrays one owner published in shared memory; :meth:`close` unlinks
    them together.

    A ``mode="process"`` engine holds one for its call (the graph, its
    circuits' weights); a :class:`ProcessPhasePool` is one for what it
    publishes itself.
    """

    def __init__(self) -> None:
        self._segments: List[shared_memory.SharedMemory] = []  # handles we own
        self._published: Dict[int, ShmArray] = {}  # id(arr) -> ref
        self._keepalive = []  # source arrays, so the id() keys stay valid
        # id(spec) -> (spec, wire descriptor); the spec is pinned so a
        # freed spec's id can never alias a cache entry (scan drivers
        # build one short-lived spec per grid cell)
        self._wire_cache: Dict[int, Tuple[Any, bytes]] = {}

    def _publish(self, arr: np.ndarray) -> ShmArray:
        with _MP_STATE_LOCK:  # a QueryFleet's callers publish concurrently
            ref = self._published.get(id(arr))
            if ref is None:
                ref, shm = publish_array(arr)
                self._segments.append(shm)
                self._published[id(arr)] = ref
                self._keepalive.append(arr)
        return ref

    def wire_graph(self, graph: CSRGraph) -> tuple:
        """What a worker attaches ``graph`` from (:func:`attach_graph`):
        its CSR arrays, published once per graph object."""
        return (graph.n, self._publish(graph.indptr),
                self._publish(graph.indices), graph.name)

    def wire_spec(self, spec) -> bytes:
        """Pickle a spec's circuit and field, the circuit's weights in
        shared memory."""
        cached = self._wire_cache.get(id(spec))
        if cached is not None:
            return cached[1]
        circuit = spec.circuit
        if circuit.weights is not None:
            circuit = replace(circuit, weights=self._publish(circuit.weights))
        f = spec.field
        wired = pickle.dumps((circuit, (f.m, f.modulus)),
                             protocol=pickle.HIGHEST_PROTOCOL)
        self._wire_cache[id(spec)] = (spec, wired)
        return wired

    def close(self) -> None:
        """Unlink every segment published here."""
        for shm in self._segments:
            _unlink(shm)
        self._segments = []
        self._published = {}
        self._keepalive = []
        self._wire_cache = {}


class ProcessPhasePool(SharedArrays):
    """A fleet of worker processes, each bound to no graph.

    ``wire_graph`` / ``wire_spec`` publish (in segments the pool owns) and
    return what a request names.  :meth:`batch` runs a round batch's
    windows on a graph's wire — one request per worker, records streamed
    back as windows finish; :meth:`round` is its one-round form and
    :meth:`submit` the one-window form, both on the pool's own ``graph``.
    ``close`` sends the workers home and unlinks every segment the pool
    owns.  The workers start in the constructor.

    One thread drives a pool's rounds and windows.  ``requests_sent``,
    ``fingerprints_sent`` and ``records_discarded`` count what crossed
    the process boundary for them.  The :class:`QueryFleet` subclass
    starts its workers as calls need them, and its calls — from any
    number of threads, each on its own worker — these counters leave out.
    """

    _starts_lazily = False

    def __init__(self, graph: Optional[CSRGraph], workers: int,
                 start_method: Optional[str] = None) -> None:
        if workers < 1:
            raise ConfigurationError(f"process pool needs >= 1 worker, got {workers}")
        super().__init__()
        self.graph = graph
        self.workers = int(workers)
        self.requests_sent = 0
        self.fingerprints_sent = 0
        self.records_discarded = 0
        self._fp_segment: Optional[shared_memory.SharedMemory] = None
        self._rids = itertools.count(1)
        # one-window requests in flight: rid -> None, then its record
        self._singles: Dict[int, Any] = {}
        self._fleet: List[_Worker] = []
        self._selector = selectors.DefaultSelector()
        self._ctx = get_context(start_method)
        self.key = (self.workers, self._ctx.get_start_method())
        # held by the thread driving a batch (driving()); close() waits for it
        self._driving = threading.Lock()
        self.closed = False
        self._graph_wire = None
        if self._starts_lazily:
            return
        try:
            if graph is not None:
                self._graph_wire = self.wire_graph(graph)
            with _MP_STATE_LOCK:  # every fork of this process happens in here
                for _ in range(self.workers):
                    self._start_worker()
        except BaseException:  # no fork, no memory, Ctrl-C: leave nothing
            self.close()
            raise

    def _start_worker(self) -> _Worker:
        """Start one worker (under ``_MP_STATE_LOCK``, like every fork)."""
        # the worker must share this process's resource tracker (a fork
        # inherits its pipe, a spawn is handed it): started after the
        # worker, the tracker would be one of the worker's own, whose
        # registrations nobody unregisters
        resource_tracker.ensure_running()
        ctx = self._ctx
        req_r, req_w = ctx.Pipe(duplex=False)
        res_r, res_w = ctx.Pipe(duplex=False)
        _PARENT_ENDS.update((req_w, res_r))
        worker = _Worker(ctx.Process(target=_worker_main, daemon=True,
                                     args=(req_r, res_w)),
                         req_w, res_r)
        self._fleet.append(worker)
        self._selector.register(res_r, selectors.EVENT_READ, worker)
        try:
            worker.process.start()
        finally:
            # the worker holds the only copy of its ends from here on
            req_r.close()
            res_w.close()
        return worker

    # ------------------------------------------------------------ segments
    def _publish_fingerprints(self, fps) -> Tuple[ShmArray, ShmArray]:
        """Copy a round batch's ``v`` and ``y``, stacked ``(R, n)`` and
        ``(R, n, levels)``, into the fingerprint segment.

        The segment is reused from batch to batch — safe because a batch
        only starts once the previous one is complete or cancelled, and a
        cancelled batch's records are never folded.  Fingerprints that do
        not fit get a new segment of at least twice the size, and the old
        one is unlinked: a cancelled share that had not attached it yet
        fails by a stale id, and is discarded like any other of its records.
        """
        v = np.stack([fp.v for fp in fps])
        y = np.stack([fp.y for fp in fps])
        y_at = -(-v.nbytes // 8) * 8
        need = y_at + y.nbytes
        seg = self._fp_segment
        if seg is None or seg.size < need:
            size = max(need, 2 * seg.size if seg is not None else 1)
            with _MP_STATE_LOCK:
                grown = shared_memory.SharedMemory(create=True, size=size)
            self._segments.append(grown)
            if seg is not None:
                self._segments.remove(seg)
                _unlink(seg)
            self._fp_segment = seg = grown
        refs = (ShmArray(seg.name, v.shape, v.dtype.str),
                ShmArray(seg.name, y.shape, y.dtype.str, offset=y_at))
        for ref, arr in zip(refs, (v, y)):
            np.ndarray(arr.shape, dtype=arr.dtype, buffer=seg.buf,
                       offset=ref.offset)[...] = arr
        self.fingerprints_sent += len(fps)
        return refs

    # ------------------------------------------------------------ protocol
    def _send(self, worker: _Worker, *body) -> int:
        """Send request ``(id, *body)``; returns the id."""
        rid = next(self._rids)
        try:
            worker.req.send((rid, *body))
        except OSError as exc:
            raise self._dead(worker) from exc
        return rid

    def _dead(self, worker: _Worker) -> WorkerCrashedError:
        worker.process.join()  # EOF on its channel: it is gone, or going
        return WorkerCrashedError(
            f"worker process {worker.process.pid} died "
            f"(exit code {worker.process.exitcode})")

    def _receive(self, timeout: Optional[float] = None) -> List[tuple]:
        """Block until a worker has something; return the records read.

        Records of one-window requests are filed for their
        :class:`_Reply`; the rest go to the caller, whose round they
        belong to — or do not.  A dead worker's channel reads EOF.
        """
        ready = self._selector.select(timeout)
        if not ready:
            raise TimeoutError(f"no record from any worker in {timeout} s")
        records = []
        for key, _events in ready:
            try:
                record = key.fileobj.recv()
            except EOFError:
                raise self._dead(key.data) from None
            if record[0] in self._singles:
                self._singles[record[0]] = record[2:]
            else:
                records.append(record)
        return records

    def round(self, wired: bytes, fp, n2: int,
              q_starts: Sequence[int]) -> Iterator[tuple]:
        """Run one round's windows on the pool's graph; yield ``(t,
        (value, stamps, mdelta))`` as each finishes, in completion order —
        :meth:`batch` of the one round, window ``t`` starting at iteration
        ``q_starts[t]``."""
        for t, (values, *rest) in self.batch(self._graph_wire, wired, [fp], n2,
                                             [(q, 0, 1) for q in q_starts]):
            yield t, (values[0], *rest)

    def batch(self, graph: tuple, wired: bytes, fps: Sequence, n2: int,
              windows: Sequence[Tuple[int, int, int]]) -> Iterator[tuple]:
        """Run a round batch's windows on the graph of wire ``graph``
        (:meth:`wire_graph`); yield ``(w, (values, stamps, mdelta))`` as
        each finishes, in completion order.

        Window ``w = (q_start, r0, r1)`` evaluates iterations
        ``[q_start, q_start + n2)`` of the rounds of ``fps[r0:r1]`` side
        by side, and ``values`` holds one raw value per such round.  The
        windows go out as one request per worker, equal contiguous shares
        (windows of one stage cost the same); with fewer windows than
        workers the rest of the fleet hears nothing.  Closing the
        generator before it is exhausted cancels the batch: each worker
        stops before its next window and whatever it still sends is
        discarded by id.  A worker that dies raises
        :class:`~repro.errors.WorkerCrashedError`.
        """
        n = len(windows)
        serving = self._fleet[:min(self.workers, n)]
        v, y = self._publish_fingerprints(fps)
        rids = {}
        pending = n
        try:
            for i, worker in enumerate(serving):
                lo, hi = n * i // len(serving), n * (i + 1) // len(serving)
                share = [(w, *windows[w]) for w in range(lo, hi)]
                rids[self._send(worker, graph, wired, fps[0].k, v, y, n2,
                                share)] = worker
                self.requests_sent += 1
            while pending:
                for rid, t, value, *rest in self._receive():
                    if rid not in rids:
                        self.records_discarded += 1
                    elif isinstance(value, Exception):
                        raise value
                    else:
                        pending -= 1
                        yield t, (value, *rest)
        finally:
            if pending:
                for rid, worker in rids.items():
                    self._tell(worker, rid)

    def submit(self, wired: bytes, fp, q_start: int, n2: int) -> _Reply:
        """Send one window of one round on the pool's graph, fingerprint
        inline, to the next worker in turn; ``result()`` is its
        ``(value, stamps, mdelta)``."""
        worker = self._fleet[self.requests_sent % self.workers]
        rid = self._send(worker, self._graph_wire, wired, fp.k, fp.v[None],
                         fp.y[None], n2, [(0, q_start, 0, 1)])
        self.requests_sent += 1
        self._singles[rid] = None
        self.fingerprints_sent += 1
        return _Reply(self, rid)

    @staticmethod
    def _tell(worker: _Worker, msg) -> None:
        try:
            worker.req.send(msg)
        except OSError:  # it is dead already
            pass

    def close(self) -> None:
        # the workers leave before their segments do: one still attaching
        # would otherwise open a name that is already gone.  A worker in
        # the middle of a window finishes that window, not its share.
        with self._driving:
            self.closed = True
            for worker in self._fleet:
                self._tell(worker, None)
            self._selector.close()
            with _MP_STATE_LOCK:
                for worker in self._fleet:
                    worker.req.close()
                    worker.res.close()
                    _PARENT_ENDS.difference_update((worker.req, worker.res))
            for worker in self._fleet:
                if worker.process.pid is not None:  # else: its start failed
                    worker.process.join()
            self._fleet = []
            super().close()
            self._fp_segment = None
            self._singles = {}


# ------------------------------------------------------- the warm fleet
# The interpreter's one fleet for mode="process" engines, and its key
# (workers, start method).  Guarded by _FLEET_LOCK.
_FLEET: Optional[ProcessPhasePool] = None
_FLEET_LOCK = threading.Lock()


def fleet(workers: int, start_method: Optional[str] = None) -> ProcessPhasePool:
    """The interpreter's warm fleet of ``workers`` processes started by
    ``start_method``, starting it on first use.

    A different key closes the fleet there was (after the batch driving
    it, if any) and starts a new one.
    """
    global _FLEET
    key = (int(workers), get_context(start_method).get_start_method())
    with _FLEET_LOCK:
        if _FLEET is not None and (_FLEET.closed or _FLEET.key != key):
            _FLEET.close()
            _FLEET = None
        if _FLEET is None:
            _FLEET = ProcessPhasePool(None, workers, start_method)
            if parent_process() is not None:
                # a multiprocessing child leaves through os._exit, past
                # atexit, but runs its finalizers first
                mp_util.Finalize(None, close_fleet, exitpriority=0)
        return _FLEET


@contextmanager
def driving(workers: int, start_method: Optional[str] = None
            ) -> Iterator[ProcessPhasePool]:
    """The warm fleet (:func:`fleet`), held by this thread for one batch:
    one thread drives the fleet at a time, and a fleet closed by another
    thread in the meantime is replaced."""
    while True:
        pool = fleet(workers, start_method)
        pool._driving.acquire()
        if not pool.closed:
            break
        pool._driving.release()
    try:
        yield pool
    finally:
        pool._driving.release()


def close_fleet(pool: Optional[ProcessPhasePool] = None) -> None:
    """Close the warm fleet: its workers leave, its segment is unlinked.

    With ``pool``, only if that is still the fleet (a worker of it died,
    and another thread may have rebuilt it already).  Also runs at
    interpreter exit.
    """
    global _FLEET
    with _FLEET_LOCK:
        if _FLEET is None or (pool is not None and pool is not _FLEET):
            return
        closing, _FLEET = _FLEET, None
        closing.close()


def _forget_parent() -> None:
    """In a forked child: the parent's fleet and channels are the
    parent's.  Close the inherited channel ends (EOF must mean the
    parent is gone), forget the fleet, and renew the locks, which a
    parent thread may have held at the fork."""
    global _FLEET, _FLEET_LOCK, _MP_STATE_LOCK
    for conn in _PARENT_ENDS:
        conn.close()
    _PARENT_ENDS.clear()
    _FLEET = None
    _FLEET_LOCK = threading.Lock()
    _MP_STATE_LOCK = threading.Lock()


os.register_at_fork(after_in_child=_forget_parent)
atexit.register(close_fleet)


@dataclass(eq=False)
class Slot:
    """One of a :class:`QueryFleet`'s ``workers`` places: what a caller
    holds while it computes, and the worker that answers its calls
    (None until a call needs one, or after the last one died)."""

    worker: Optional[_Worker] = None


class _Waiter:
    """A caller in line for a slot; ``lock`` opens when one is handed over."""

    __slots__ = ("lock", "slot")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.lock.acquire()
        self.slot: Optional[Slot] = None


class QueryFleet(ProcessPhasePool):
    """``workers`` long-lived worker processes answering whole calls for
    any number of threads — the detection service's fleet.

    A caller takes a :class:`Slot` (:meth:`acquire`), runs whole calls on
    its worker (:meth:`call`: the caller's thread sends the request and
    waits for the one record back) and gives the slot back
    (:meth:`release`).  The idle slots are the only gate: at most
    ``workers`` callers hold one, and :meth:`release` hands the slot to
    whoever has waited longest — left up for grabs, it goes back to the
    thread that released it, which asks again before the one it woke
    holds the GIL (a busy service's second client then waits seconds).
    A slot's worker starts at the first call that needs one, so a caller
    that only holds the place forks nothing.  Each call names its graph,
    which reaches the workers through shared memory, published at the
    first call that names it (:meth:`wire_graph`).
    """

    _starts_lazily = True

    def __init__(self, workers: int, start_method: Optional[str] = None) -> None:
        super().__init__(None, workers, start_method)
        self._gate = threading.Lock()
        self._idle: List[Slot] = [Slot() for _ in range(self.workers)]
        self._waiting: "deque[_Waiter]" = deque()  # oldest first

    def acquire(self, timeout: Optional[float] = None) -> Optional[Slot]:
        """An idle slot, first come first served; None after ``timeout``."""
        with self._gate:
            if self._idle:
                return self._idle.pop()  # the last released: its worker is warm
            me = _Waiter()
            self._waiting.append(me)
        try:
            if me.lock.acquire(timeout=-1 if timeout is None else max(timeout, 0)):
                return me.slot
        except BaseException:  # Ctrl-C while in line: leave no ghost in it
            if not self._leave(me):
                self.release(me.slot)
            raise
        return None if self._leave(me) else me.slot

    def _leave(self, me: _Waiter) -> bool:
        """Step out of line; False when a slot was handed over meanwhile."""
        with self._gate:
            if me in self._waiting:
                self._waiting.remove(me)
                return True
            return False

    def release(self, slot: Slot) -> None:
        with self._gate:
            if self._waiting:
                me = self._waiting.popleft()
                me.slot = slot
                me.lock.release()
            else:
                self._idle.append(slot)

    def call(self, slot: Slot, fn, graph: CSRGraph, args: tuple):
        """``fn(wired, *args, cancelled)`` run whole on ``slot``'s worker,
        where :func:`attach_graph` turns ``wired`` into ``graph`` there;
        returns ``(value, mdelta)``, or raises what ``fn`` raised.

        ``fn`` must be importable by name (it is pickled by reference).
        When an exception lands in the waiting caller (Ctrl-C), the call
        is cancelled and its reply read before the exception goes on, so
        the slot goes back with a quiet pipe — the worker stops between
        two windows; if that reply cannot be read, the worker is killed.
        A worker that dies raises :class:`~repro.errors.WorkerCrashedError`.
        Either way the slot's next call starts a new one.
        """
        wired = self.wire_graph(graph)
        if slot.worker is None:
            with _MP_STATE_LOCK:
                slot.worker = self._start_worker()
        worker, rid = slot.worker, None
        try:
            rid = self._send(worker, fn, (wired, *args))
            record = self._reply(worker, rid)
        except WorkerCrashedError:
            self._retire(slot)
            raise
        except BaseException:
            if rid is not None:
                try:
                    self._tell(worker, rid)
                    self._reply(worker, rid)
                except BaseException:
                    self._retire(slot)
            raise
        value, mdelta = record[2], record[4]
        if isinstance(value, Exception):
            raise value
        return value, mdelta

    def _reply(self, worker: _Worker, rid: int) -> tuple:
        """Read ``worker``'s records up to request ``rid``'s."""
        while True:
            wait([worker.res])  # an exception lands here, not mid-record
            try:
                record = worker.res.recv()
            except EOFError:
                raise self._dead(worker) from None
            if record[0] == rid:
                return record

    def pids(self) -> set:
        """The pids of the fleet's live workers."""
        with _MP_STATE_LOCK:
            return {worker.process.pid for worker in self._fleet}

    def _retire(self, slot: Slot) -> None:
        """Kill ``slot``'s worker — dead, or with a pipe nobody can read —
        and forget it."""
        worker, slot.worker = slot.worker, None
        worker.process.kill()
        with _MP_STATE_LOCK:
            self._selector.unregister(worker.res)
            worker.req.close()
            worker.res.close()
            _PARENT_ENDS.difference_update((worker.req, worker.res))
            self._fleet.remove(worker)
        worker.process.join()


__all__ = ["ProcessPhasePool", "QueryFleet", "SharedArrays", "ShmArray", "Slot",
           "attach_graph", "close_fleet", "driving", "fleet", "publish_array"]
