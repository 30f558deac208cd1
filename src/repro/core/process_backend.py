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
  weights) are published **once** via ``multiprocessing.shared_memory``
  — workers attach zero-copy, nothing is pickled per phase;
* problem specs hold closures (the recurrence) and cannot cross a
  process boundary, so workers compile them from the spec's picklable
  :class:`~repro.core.mld.MLDCircuit` (:func:`repro.core.problems.compile`),
  its weights in shared memory, caching per wire descriptor;
* a round batch is **one request per worker**: the parent copies the
  batch's fingerprints, stacked ``(R, n)`` and ``(R, n, levels)``, into a
  segment it reuses from batch to batch and sends each worker
  ``(id, spec key, k, v, y, n2, share)`` — ``v``/``y`` as references into
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

The parent owns every shared segment's lifecycle: workers only attach
(the resource tracker is shared with the parent under every start
method, so attach-registration is idempotent) and the pool unlinks
every segment on close, after the workers have left.
"""

from __future__ import annotations

import itertools
import os
import pickle
import selectors
import signal
import threading
from collections import deque
from dataclasses import dataclass, replace
from multiprocessing import get_context, shared_memory
from multiprocessing.connection import wait
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

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
# _MP_STATE_LOCK).  A forked worker inherits all of them — its own fleet's
# and those of sibling threads' pools — and closes its copies first thing:
# a channel only reaches EOF once its last writer is gone, and EOF is how a
# worker learns that its parent was killed.  Empty in a spawned worker.
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


# --------------------------------------------------------------- worker side
# Per-worker caches, populated lazily.  Under the default fork start method
# these start empty in each child; under spawn the module is re-imported.
_ATTACHED: Dict[str, shared_memory.SharedMemory] = {}
_WORKER_GRAPH: Optional[CSRGraph] = None
_SPEC_CACHE: Dict[bytes, Any] = {}
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


def _worker_init(graph_args: Optional[tuple]) -> None:
    """Attach the pool's graph, once (a :class:`QueryFleet` worker has
    none: each call names its own)."""
    global _WORKER_GRAPH
    from repro.obs.metrics import reset_default_registry

    # a forked worker inherits the parent's default registry: its counts
    # (the parent has them already) and its locks, any of which a sibling
    # thread of the parent may have held at the fork — for ever, here.  The
    # worker counts into a registry of its own and ships all of it.
    reset_default_registry()
    if graph_args is not None:
        _WORKER_GRAPH = attach_graph(graph_args)


def _spec_for(wired: bytes):
    """Compile (and cache) the problem spec of a pickled wire descriptor."""
    spec = _SPEC_CACHE.get(wired)
    if spec is None:
        from repro.ff.gf2m import GF2m

        circuit, (m, modulus, kernel) = pickle.loads(wired)
        if circuit.weights is not None:
            circuit = replace(circuit, weights=_materialize(circuit.weights))
        spec = _SPEC_CACHE[wired] = compile(
            circuit, GF2m(m, modulus=modulus, kernel_strategy=kernel))
    return spec


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

    rid, wired, k, v, y, n2, share = request
    if inbox.cancelled(rid):
        return
    build = () if wired in _SPEC_CACHE else (perf_counter(),)
    spec = _spec_for(wired)
    if build:
        build += (perf_counter(),)
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
        values = spec.phase_values(_WORKER_GRAPH, fps[r0:r1], q_start, n2)
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


def _worker_main(req, res, graph_args) -> None:
    """A fleet worker: serve requests until the channel says to leave."""
    for conn in _PARENT_ENDS:  # fork only: see _PARENT_ENDS
        conn.close()
    # a terminal's Ctrl-C reaches the whole process group; the parent
    # decides what it stops (a cancel, None, EOF), so the work it is still
    # waiting for — a served query while the service drains — finishes
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        _worker_init(graph_args)
        inbox = _Inbox(req)
        while True:
            request = inbox.next()
            if request is None:
                return
            if isinstance(request, int):  # a cancel that came late
                continue
            try:
                # a batch's share (id, spec, k, v, y, n2, windows) or a
                # whole call (id, fn, args)
                (_serve if len(request) == 7 else _serve_call)(inbox, res,
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


class ProcessPhasePool:
    """A fleet of worker processes sharing one published graph.

    ``wire_spec`` converts a :class:`ProblemSpec` into a picklable wire
    descriptor (its circuit's weights are swapped for a :class:`ShmArray`
    reference, published on first sight).  :meth:`batch` runs a round
    batch's windows — one request per worker, records streamed back as
    windows finish; :meth:`round` is its one-round form and
    :meth:`submit` the one-window form.  ``close``
    sends the workers home and unlinks every segment.

    One thread drives a pool's rounds and windows.  ``requests_sent``,
    ``fingerprints_sent`` and ``records_discarded`` count what crossed
    the process boundary for them.  With ``graph=None`` no worker starts
    here: that is the :class:`QueryFleet` base, whose workers start as
    calls need them, and whose calls — from any number of threads, each
    on its own worker — these counters leave out.
    """

    def __init__(self, graph: Optional[CSRGraph], workers: int,
                 start_method: Optional[str] = None) -> None:
        if workers < 1:
            raise ConfigurationError(f"process pool needs >= 1 worker, got {workers}")
        self.graph = graph
        self.workers = int(workers)
        self.requests_sent = 0
        self.fingerprints_sent = 0
        self.records_discarded = 0
        self._segments = []  # SharedMemory handles we own
        self._published: Dict[int, ShmArray] = {}  # id(arr) -> ref
        self._keepalive = []  # source arrays, so the id() keys stay valid
        # id(spec) -> (spec, wire descriptor); the spec is pinned so a
        # freed spec's id can never alias a cache entry (scan drivers
        # build one short-lived spec per grid cell)
        self._wire_cache: Dict[int, Tuple[Any, bytes]] = {}
        self._fp_segment: Optional[shared_memory.SharedMemory] = None
        self._rids = itertools.count(1)
        # one-window requests in flight: rid -> None, then its record
        self._singles: Dict[int, Any] = {}
        self._fleet: List[_Worker] = []
        self._selector = selectors.DefaultSelector()
        self._ctx = get_context(start_method)
        if graph is None:  # a QueryFleet: workers start as calls need them
            return
        graph_args = self.wire_graph(graph)
        try:
            with _MP_STATE_LOCK:  # every fork of this process happens in here
                for _ in range(self.workers):
                    self._start_worker(graph_args)
        except BaseException:  # no fork, no memory, Ctrl-C: leave nothing
            self.close()
            raise

    def _start_worker(self, graph_args) -> _Worker:
        """Start one worker (under ``_MP_STATE_LOCK``, like every fork)."""
        ctx = self._ctx
        req_r, req_w = ctx.Pipe(duplex=False)
        res_r, res_w = ctx.Pipe(duplex=False)
        _PARENT_ENDS.update((req_w, res_r))
        worker = _Worker(ctx.Process(target=_worker_main, daemon=True,
                                     args=(req_r, res_w, graph_args)),
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

    def _publish_fingerprints(self, fps) -> Tuple[ShmArray, ShmArray]:
        """Copy a round batch's ``v`` and ``y``, stacked ``(R, n)`` and
        ``(R, n, levels)``, into the fingerprint segment.

        The segment is reused from batch to batch — safe because a batch
        only starts once the previous one is complete or cancelled, and a
        cancelled batch's records are never folded.  Fingerprints that do
        not fit get a new segment of at least twice the size; the old one
        stays until ``close`` (a worker may not have looked yet).
        """
        v = np.stack([fp.v for fp in fps])
        y = np.stack([fp.y for fp in fps])
        y_at = -(-v.nbytes // 8) * 8
        need = y_at + y.nbytes
        seg = self._fp_segment
        if seg is None or seg.size < need:
            size = max(need, 2 * seg.size if seg is not None else 1)
            with _MP_STATE_LOCK:
                seg = shared_memory.SharedMemory(create=True, size=size)
            self._segments.append(seg)
            self._fp_segment = seg
        refs = (ShmArray(seg.name, v.shape, v.dtype.str),
                ShmArray(seg.name, y.shape, y.dtype.str, offset=y_at))
        for ref, arr in zip(refs, (v, y)):
            np.ndarray(arr.shape, dtype=arr.dtype, buffer=seg.buf,
                       offset=ref.offset)[...] = arr
        self.fingerprints_sent += len(fps)
        return refs

    def wire_spec(self, spec) -> bytes:
        """Pickle a spec's circuit and field, the circuit's weights in
        shared memory."""
        cached = self._wire_cache.get(id(spec))
        if cached is not None:
            return cached[1]
        circuit = spec.circuit
        if circuit is None:
            raise ConfigurationError(
                f"problem {spec.name!r} carries no circuit; a hand-built spec "
                "cannot run on mode='process' (its recurrence is a closure, "
                "which does not cross a process boundary) — compile an "
                "MLDCircuit with repro.core.problems.compile"
            )
        if circuit.weights is not None:
            circuit = replace(circuit, weights=self._publish(circuit.weights))
        f = spec.field
        wired = pickle.dumps((circuit, (f.m, f.modulus, f.kernel_strategy)),
                             protocol=pickle.HIGHEST_PROTOCOL)
        self._wire_cache[id(spec)] = (spec, wired)
        return wired

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
        """Run one round's windows; yield ``(t, (value, stamps, mdelta))``
        as each finishes, in completion order — :meth:`batch` of the one
        round, window ``t`` starting at iteration ``q_starts[t]``."""
        for t, (values, *rest) in self.batch(wired, [fp], n2,
                                             [(q, 0, 1) for q in q_starts]):
            yield t, (values[0], *rest)

    def batch(self, wired: bytes, fps: Sequence, n2: int,
              windows: Sequence[Tuple[int, int, int]]) -> Iterator[tuple]:
        """Run a round batch's windows; yield ``(w, (values, stamps,
        mdelta))`` as each finishes, in completion order.

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
                rids[self._send(worker, wired, fps[0].k, v, y, n2, share)] = worker
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
        """Send one window of one round, fingerprint inline, to the next
        worker in turn; ``result()`` is its ``(value, stamps, mdelta)``."""
        worker = self._fleet[self.requests_sent % self.workers]
        rid = self._send(worker, wired, fp.k, fp.v[None], fp.y[None], n2,
                         [(0, q_start, 0, 1)])
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
        for shm in self._segments:
            try:
                shm.close()
                with _MP_STATE_LOCK:
                    shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self._segments = []
        self._fp_segment = None
        self._published = {}
        self._keepalive = []
        self._wire_cache = {}
        self._singles = {}


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
                slot.worker = self._start_worker(None)
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


__all__ = ["ProcessPhasePool", "QueryFleet", "ShmArray", "Slot", "attach_graph",
           "publish_array"]
