"""Deterministic SPMD simulator.

Runs ``N`` *rank programs* — generator functions over a :class:`RankContext`
— with real message delivery and virtual clocks:

* scheduling is deterministic round-robin: each rank runs until it blocks
  (in a ``Collect`` whose next message has not been sent, or in the
  ``AllReduce``), so a given program produces the same transcript on
  every run;
* compute segments (the Python/numpy work between two yields) are measured
  with ``perf_counter`` and charged to the rank's virtual clock scaled by
  the machine's ``c_scale`` (programs can instead/additionally yield
  :class:`~repro.runtime.comm.Charge` for fully modeled segments);
* communication advances clocks per the :class:`~repro.runtime.costmodel.
  CostModel`: an ``Exchange`` sends each of its messages eagerly, costing
  the sender an injection overhead, and each arrives at ``sender_clock +
  alpha + bytes*beta``; its ``Collect`` waits for the arrival timestamps
  in ``recv_from`` order; an all-reduce synchronizes everyone to the max
  clock plus a log-tree cost.

Fault semantics (see :mod:`repro.runtime.faults`): a seeded injector can
crash ranks at op/time boundaries (between two messages, too), drop/
duplicate/delay messages, fail sends transiently, and slow stragglers.
Crashed ranks stop executing; anything waiting on them — or on a dropped
message — raises a typed :class:`~repro.errors.RankFailedError` rather
than hanging.

Deadlocks (all live ranks blocked with nothing in flight, and no fault to
blame) raise :class:`~repro.errors.DeadlockError` with a per-rank
diagnosis — blocked op, inbox depth, and undelivered in-flight messages —
instead of hanging the test-suite.
"""

from __future__ import annotations

import copy as _copy
import functools
import operator
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

import numpy as np

from repro.errors import (
    DeadlockError,
    RankFailedError,
    RuntimeSimulationError,
    SendFailedError,
)
from repro.runtime.comm import AllReduce, Charge, Collect, Exchange
from repro.runtime.costmodel import CostModel, LAPTOP_NODE
from repro.runtime.faults import RunInjector, as_run_injector
from repro.runtime.tracing import TraceRecorder, TraceSummary


@dataclass(frozen=True)
class RankContext:
    """Read-only identity handed to each rank program.

    ``tracer`` is the simulator's recorder when tracing is enabled (else
    ``None``); programs refine event attribution with :meth:`annotate`.
    Guard with ``if ctx.tracer is not None`` so the disabled path costs a
    single attribute check.
    """

    rank: int
    nranks: int
    tracer: Optional[TraceRecorder] = None

    def annotate(self, label: str) -> None:
        """Tag this rank's subsequent trace events (e.g. ``"level3"``)."""
        if self.tracer is not None:
            self.tracer.set_rank_label(self.rank, label)


@dataclass
class _Message:
    payload: Any
    arrive: float
    sender: int
    t_send: float  # sender's clock at send start (dependency origin)


def _annotate_rank(exc: BaseException, rank: int) -> None:
    """Attach the raising rank as a PEP-678 note (args stay untouched)."""
    note = f"[rank {rank}] raised inside the simulated rank program"
    add_note = getattr(exc, "add_note", None)
    if add_note is not None:
        add_note(note)
    else:  # Python < 3.11: emulate the attribute PEP 678 defines
        notes = getattr(exc, "__notes__", None)
        if isinstance(notes, list):
            notes.append(note)
        else:
            exc.__notes__ = [note]


class _RankState:
    __slots__ = ("rank", "gen", "clock", "finished", "crashed", "result",
                 "exchanges", "posted", "collecting", "rows", "pending_collective",
                 "collective_idx", "resume", "ops_done", "c_factor", "inbox")

    def __init__(self, rank: int, gen: Generator) -> None:
        self.rank = rank
        self.gen = gen
        self.clock = 0.0
        self.finished = False
        self.crashed = False
        self.result: Any = None
        self.exchanges = 0  # ordinal of the next Exchange: its messages' tag
        self.posted: deque = deque()  # (tag, recv_from) awaiting a Collect
        # (tag, recv_from) of the Collect in progress, and its rows so far
        self.collecting: Optional[Tuple[int, Tuple[int, ...]]] = None
        self.rows: List[Any] = []
        self.pending_collective: Optional[AllReduce] = None
        self.collective_idx = 0
        self.resume: Tuple[Callable, Any] = (gen.send, None)  # or (gen.throw, exc)
        self.ops_done = 0
        self.c_factor = 1.0
        self.inbox: Dict[Tuple[int, int], List[_Message]] = {}  # copies of one message

    def awaited(self) -> Tuple[int, int]:
        """``(src, tag)`` of the message the current ``Collect`` needs next."""
        tag, peers = self.collecting
        return peers[len(self.rows)], tag

    def blocked(self) -> bool:
        """In a ``Collect`` whose next message has not been sent yet."""
        return self.collecting is not None and self.awaited() not in self.inbox


@dataclass
class SimResult:
    """Outcome of a simulated SPMD run."""

    results: List[Any]
    clocks: np.ndarray
    summary: TraceSummary
    crashed_ranks: Tuple[int, ...] = ()

    @property
    def makespan(self) -> float:
        """Virtual seconds until the last rank finished."""
        return float(self.clocks.max()) if len(self.clocks) else 0.0


class Simulator:
    """Execute rank programs on a virtual machine.

    Parameters
    ----------
    nranks:
        Communicator size.
    cost_model:
        Network/compute cost model; defaults to a single laptop node.
    measure_compute:
        Charge measured wall time (scaled by ``c_scale``) for compute
        segments.  Disable for fully modeled timing via ``Charge`` ops.
    trace:
        Record a timeline (on by default; cheap).
    faults:
        A :class:`~repro.runtime.faults.FaultPlan`,
        :class:`~repro.runtime.faults.FaultInjector`, or
        :class:`~repro.runtime.faults.RunInjector` describing faults to
        inject into this run (``None`` = perfect machine).
    sanitizer:
        A :class:`~repro.sanitize.CommSanitizer` to consult on every
        yielded op (``None`` = no checking).  Hooks charge no virtual
        time, so a sanitized run has identical clocks to a bare one.
    """

    def __init__(
        self,
        nranks: int,
        cost_model: Optional[CostModel] = None,
        measure_compute: bool = True,
        trace: bool = True,
        faults=None,
        sanitizer=None,
        heartbeat: Optional[Callable[[], None]] = None,
    ) -> None:
        if nranks < 1:
            raise RuntimeSimulationError(f"need >= 1 rank, got {nranks}")
        self.nranks = nranks
        self.cost = cost_model if cost_model is not None else CostModel(LAPTOP_NODE)
        self.measure_compute = measure_compute
        self.trace = TraceRecorder(enabled=trace)
        self.faults: Optional[RunInjector] = as_run_injector(faults)
        self.sanitizer = sanitizer
        self.heartbeat = heartbeat
        self._states: List[_RankState] = []

    # ---------------------------------------------------------------- run
    def run(self, program: Callable[[RankContext], Generator]) -> SimResult:
        """Run ``program(ctx)`` on every rank to completion."""
        tracer = self.trace if self.trace.enabled else None
        states = [
            _RankState(r, program(RankContext(r, self.nranks, tracer)))
            for r in range(self.nranks)
        ]
        self._states = states
        if self.sanitizer is not None:
            self.sanitizer.begin_run()
        c_scale = self.cost.spec.c_scale
        if self.faults is not None:
            rank_node = self.cost.rank_node
            for st in states:
                node = int(rank_node[st.rank]) if rank_node is not None else st.rank
                st.c_factor = self.faults.compute_factor(st.rank, node)
        unfinished = self.nranks

        while unfinished > 0:
            if self.heartbeat is not None:
                # liveness tick per scheduler sweep, so a long phase on a
                # wide machine keeps refreshing the live run's heartbeat
                self.heartbeat()
            progressed = False
            for st in states:
                if st.finished or st.pending_collective is not None or st.blocked():
                    continue
                progressed = True
                self._run_until_blocked(st, states, c_scale)
            # complete a pending collective if everyone alive reached it
            if self._try_complete_collective(states):
                progressed = True
            unfinished = sum(1 for st in states if not st.finished)
            if not progressed and unfinished > 0:
                self._raise_stalled(states)

        if self.sanitizer is not None:
            fired = self.faults is not None and self.faults.any_fired
            self.sanitizer.on_run_end(states, fired)
        clocks = np.array([st.clock for st in states])
        return SimResult(
            results=[st.result for st in states],
            clocks=clocks,
            summary=self.trace.summary(self.nranks),
            crashed_ranks=tuple(st.rank for st in states if st.crashed),
        )

    @property
    def partial_clocks(self) -> np.ndarray:
        """Virtual clocks of the (possibly aborted) current/last run.

        Lets a fault-tolerant driver account the virtual time lost in an
        attempt that died with a :class:`~repro.errors.FaultInjectedError`.
        """
        return np.array([st.clock for st in self._states])

    # ------------------------------------------------------------ internals
    def _check_crash(self, st: _RankState) -> bool:
        """Crash ``st`` here if the injector says so; True when it fired."""
        inj = self.faults
        if inj is None or st.crashed:
            return st.crashed
        spec = inj.crash_for(st.rank)
        if spec is None:
            return False
        due = (spec.after_ops is not None and st.ops_done >= spec.after_ops) or (
            spec.at_time is not None and st.clock >= spec.at_time
        )
        if not due or not inj.consume_crash(st.rank):
            return False
        st.crashed = st.finished = True
        st.collecting = st.pending_collective = None
        st.gen.close()
        self.trace.record(st.rank, "fault", st.clock, st.clock, info="crash")
        return True

    def _run_until_blocked(self, st: _RankState, states: List[_RankState], c_scale: float) -> None:
        while True:
            if self._check_crash(st):
                return
            if st.collecting is not None:
                # a Collect resumed once its awaited message arrived
                if not self._collect(st):
                    return
                continue
            resume, arg = st.resume
            st.resume = (st.gen.send, None)
            t0 = time.perf_counter()
            try:
                op = resume(arg)
            except StopIteration as stop:
                self._charge_compute(st, time.perf_counter() - t0, c_scale)
                st.finished = True
                st.result = getattr(stop, "value", None)
                return
            except Exception as exc:
                # annotate which rank blew up; args and traceback preserved
                _annotate_rank(exc, st.rank)
                raise
            self._charge_compute(st, time.perf_counter() - t0, c_scale)
            if self.sanitizer is not None:
                self.sanitizer.on_op(st.rank, op, st.collective_idx)

            if isinstance(op, Exchange):
                self._exchange(st, states, op)
                continue
            if isinstance(op, Collect):
                if not st.posted:
                    raise RuntimeSimulationError(
                        f"rank {st.rank} yielded Collect() with no Exchange posted")
                st.collecting = st.posted.popleft()
                if not self._collect(st):
                    return
                continue
            if isinstance(op, Charge):
                st.ops_done += 1
                t = st.clock
                st.clock += max(0.0, op.seconds) * st.c_factor
                if self.trace.enabled:
                    self.trace.record(st.rank, "charge", t, st.clock)
                continue
            if isinstance(op, AllReduce):
                st.ops_done += 1
                st.pending_collective = op
                return
            raise RuntimeSimulationError(
                f"rank {st.rank} yielded {op!r}, which is not a communication op"
            )

    def _charge_compute(self, st: _RankState, wall: float, c_scale: float) -> None:
        if self.measure_compute and wall > 0:
            t = st.clock
            st.clock += wall * c_scale * st.c_factor
            if self.trace.enabled:
                self.trace.record(st.rank, "compute", t, st.clock)

    def _exchange(self, st: _RankState, states: List[_RankState], op: Exchange) -> None:
        """Send every message of ``op`` and post it for a ``Collect``: one
        loop over the messages, each copied, charged, traced and (under a
        fault plan) crashed before, failed, dropped, delayed or duplicated
        in it."""
        for peer in (*op.sends, *op.recv_from):
            if peer == st.rank or not 0 <= peer < self.nranks:
                raise RuntimeSimulationError(f"rank {st.rank} exchanged with invalid "
                                             f"rank {peer} of {self.nranks}")
        faults, trace, send_cost = self.faults, self.trace, self.cost.send_cost
        tag = st.exchanges
        for i, (dst, rows) in enumerate(op.sends.items()):
            # one op per message: a due crash fires between two of them
            if i and faults is not None and self._check_crash(st):
                return
            st.ops_done += 1
            verdict = None if faults is None else faults.on_send(st.rank, dst, tag)
            if verdict is not None and verdict.fail:
                # transient injection failure: thrown at the Exchange yield,
                # after the earlier messages went and before any clock
                # charge for this one, so the program can just retry
                trace.record(st.rank, "fault", st.clock, st.clock, info=f"send-fail->{dst}")
                st.resume = (st.gen.throw, SendFailedError(
                    f"injected transient send failure "
                    f"(rank {st.rank} -> {dst}, tag {tag!r})",
                    rank=st.rank, dst=dst, tag=tag,
                ))
                return
            payload = rows.copy() if isinstance(rows, np.ndarray) else _copy.deepcopy(rows)
            nbytes = op.wire_bytes(rows)
            flight, occupancy = send_cost(st.rank, dst, nbytes)
            t = st.clock
            arrive = t + flight
            st.clock += occupancy
            if trace.enabled:
                trace.record(st.rank, "send", t, st.clock, info=f"->{dst}", nbytes=nbytes)
            copies = 1
            if verdict is not None:
                if not verdict.deliver:
                    trace.record(st.rank, "fault", st.clock, st.clock, info=f"drop->{dst}")
                    continue
                copies = verdict.copies
                if verdict.extra_delay > 0:
                    arrive += verdict.extra_delay
                    trace.record(st.rank, "fault", st.clock, st.clock, info=f"delay->{dst}")
                if copies > 1:
                    trace.record(st.rank, "fault", st.clock, st.clock,
                                 info=f"duplicate->{dst}")
            states[dst].inbox.setdefault((st.rank, tag), []).extend(
                [_Message(payload, arrive, st.rank, t)] * copies)
        st.exchanges += 1
        st.posted.append((tag, tuple(op.recv_from)))

    def _collect(self, st: _RankState) -> bool:
        """Receive the current ``Collect``'s messages in ``recv_from`` order,
        discarding each one's duplicate copies with its queue: one loop,
        each message waited for, traced and (under a fault plan) crashed
        after; False when the rank blocks (or crashes) before the last."""
        tag, peers = st.collecting
        rows, inbox, trace = st.rows, st.inbox, self.trace
        faults = self.faults
        while len(rows) < len(peers):
            src = peers[len(rows)]
            queue = inbox.pop((src, tag), None)
            if queue is None:
                return False
            msg = queue[0]
            if msg.arrive > st.clock:
                if trace.enabled:
                    trace.record(st.rank, "wait", st.clock, msg.arrive, info=f"<-{src}")
                    # the arrival bound this rank: a critical-path dependency
                    # from the sender's clock at send start to the arrival
                    trace.record_edge(
                        "message", msg.sender, msg.t_send, st.rank, msg.arrive,
                        info=f"tag={tag!r}",
                    )
                st.clock = msg.arrive
            if trace.enabled:
                trace.record(st.rank, "recv", st.clock, st.clock, info=f"<-{src}")
            rows.append(msg.payload)
            st.ops_done += 1
            # one op per message: a due crash fires between two of them
            if faults is not None and len(rows) < len(peers) and self._check_crash(st):
                return False
        st.resume = (st.gen.send, rows)
        st.collecting, st.rows = None, []
        return True

    def _try_complete_collective(self, states: List[_RankState]) -> bool:
        if any(st.pending_collective is None for st in states):
            return False
        ops = [st.pending_collective for st in states]
        t_sync = max(st.clock for st in states)
        nbytes = max(o.wire_bytes() for o in ops)
        acc = functools.reduce(operator.xor, (o.value for o in ops))
        # every rank gets its own copy: no rank may alias another's result
        results = [acc.copy() if isinstance(acc, np.ndarray) else _copy.deepcopy(acc)
                   for _ in states]
        cost = self.cost.allreduce_cost(self.nranks, nbytes)

        if self.trace.enabled:
            # the join is bound by the latest-entering rank (ties -> lowest)
            latest = min(
                (st.rank for st in states if st.clock == t_sync),
                default=states[0].rank,
            )
            for st in states:
                self.trace.record_edge(
                    "collective", latest, t_sync, st.rank, t_sync + cost,
                    info="AllReduce",
                )
        for st, res in zip(states, results):
            if self.trace.enabled:
                self.trace.record(
                    st.rank, "collective", st.clock, t_sync + cost,
                    info="AllReduce", nbytes=nbytes,
                )
            st.clock = t_sync + cost
            st.resume = (st.gen.send, res)
            st.pending_collective = None
            st.collective_idx += 1
        return True

    # ----------------------------------------------------------- diagnosis
    def _diagnose(self, states: List[_RankState]) -> str:
        """Per-rank stall diagnosis: status, inbox depth, in-flight mail."""
        lines = []
        for st in states:
            if st.crashed:
                status = f"CRASHED at t={st.clock:.6g}"
            elif st.finished:
                status = "finished"
            elif st.collecting is not None:
                status = "blocked in Collect(src={}, exchange={})".format(*st.awaited())
            elif st.pending_collective is not None:
                status = "waiting in AllReduce"
            else:
                status = "runnable(?)"
            depth = sum(len(q) for q in st.inbox.values())
            lines.append(f"  rank {st.rank}: {status}  (inbox: {depth} undelivered)")
            for (src, tag), q in sorted(st.inbox.items()):
                for msg in q:
                    lines.append(
                        f"    in flight: {src}->{st.rank} tag={tag!r} "
                        f"arrives t={msg.arrive:.6g}"
                    )
        if self.faults is not None and self.faults.dropped:
            lines.append("  injected drops: " + ", ".join(
                f"{s}->{d} tag={t!r}" for s, d, t in self.faults.dropped
            ))
        return "\n".join(lines)

    def _raise_stalled(self, states: List[_RankState]) -> None:
        """No rank can progress: raise the most specific typed error."""
        crashed = [st.rank for st in states if st.crashed]
        diagnosis = self._diagnose(states)
        if crashed:
            raise RankFailedError(
                f"simulated run stalled on crashed rank(s) {crashed}:\n" + diagnosis,
                ranks=crashed,
            )
        if self.faults is not None and self.faults.dropped:
            raise RankFailedError(
                "simulated run stalled after injected message drops:\n" + diagnosis,
                lost_messages=self.faults.dropped,
            )
        waiting = [st.rank for st in states if st.pending_collective is not None]
        exited = [st.rank for st in states if st.finished]
        if self.sanitizer is not None and waiting and len(waiting) + len(exited) == len(states):
            # ranks exited while the others wait in an all-reduce
            self.sanitizer.on_collective_abandoned(waiting, exited)
        raise DeadlockError("simulated SPMD program deadlocked:\n" + diagnosis)
