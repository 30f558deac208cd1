"""Timeline recording for simulated runs, and its one cost split.

Every scheduler event (compute segment, send, recv wait, collective) is
appended as a :class:`TraceEvent`.  :data:`COMPONENT` decides which
component of Theorem 2's split each event kind is charged to — compute
(``MAXLOAD``), communication (``MAXDEG``) or idle — and
:func:`split_timeline` is the one pass that sums a recording by it: per
rank (:class:`TraceSummary`) and per ``(round, phase)``
(:class:`PhaseCost`).  :class:`repro.obs.report.RunReport`,
:func:`repro.obs.analyze.analyze_run` and the Chrome export all read
that split; none classifies events itself.

Events carry a structured :class:`Scope` — the (round, batch, phase,
iteration-window) coordinates of the MIDAS schedule plus a free-form
label for finer attribution (DP level, collective algorithm, ...).  The
scope is what lets :mod:`repro.obs.chrome_trace` draw a per-phase
timeline and :mod:`repro.obs.report` answer "which phase is over model,
on which ranks, compute or comm?".
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class Scope:
    """Structured attribution of a trace event to the MIDAS schedule.

    All coordinates are optional so partial scopes compose: the driver
    stamps ``(round, batch, phase, q0, q1)`` while a rank program adds a
    ``label`` for its current DP level (see ``RankContext.annotate``).
    """

    round: Optional[int] = None
    batch: Optional[int] = None
    phase: Optional[int] = None
    q0: Optional[int] = None  # iteration window [q0, q1)
    q1: Optional[int] = None
    label: str = ""

    def merged(self, other: Optional["Scope"]) -> "Scope":
        """Overlay ``other``'s non-empty fields onto this scope.

        Labels compose ("outer inner") rather than overwrite, so a
        driver-level label (``size3``, ``failed-attempt1``) survives a
        rank program's finer annotation (``level2``).
        """
        if other is None:
            return self
        updates = {}
        for f in ("round", "batch", "phase", "q0", "q1"):
            v = getattr(other, f)
            if v is not None:
                updates[f] = v
        if other.label:
            updates["label"] = (
                f"{self.label} {other.label}" if self.label else other.label
            )
        return replace(self, **updates) if updates else self

    def describe(self) -> str:
        """Compact human form, e.g. ``r0 b1 p3 [q64:96] level2``."""
        parts = []
        if self.round is not None:
            parts.append(f"r{self.round}")
        if self.batch is not None:
            parts.append(f"b{self.batch}")
        if self.phase is not None:
            parts.append(f"p{self.phase}")
        if self.q0 is not None and self.q1 is not None:
            parts.append(f"[q{self.q0}:{self.q1}]")
        if self.label:
            parts.append(self.label)
        return " ".join(parts)

    def to_dict(self) -> dict:
        d = {}
        for f in ("round", "batch", "phase", "q0", "q1"):
            v = getattr(self, f)
            if v is not None:
                d[f] = int(v)
        if self.label:
            d["label"] = self.label
        return d

    @staticmethod
    def from_dict(d: dict) -> "Scope":
        return Scope(
            round=d.get("round"), batch=d.get("batch"), phase=d.get("phase"),
            q0=d.get("q0"), q1=d.get("q1"), label=d.get("label", ""),
        )


@dataclass(frozen=True)
class TraceEvent:
    rank: int
    kind: str  # "compute" | "send" | "recv" | "wait" | "collective" | "charge"
    t_start: float
    t_end: float
    info: str = ""
    nbytes: int = 0  # wire bytes (send/collective events)
    scope: Optional[Scope] = None

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


@dataclass(frozen=True)
class DepEdge:
    """A happens-before edge between two rank timelines.

    ``(src_rank, t_src)`` is where the dependency left its source (e.g.
    the sender's clock at send start); ``(dst_rank, t_dst)`` is where it
    *bound* the destination (e.g. the message arrival a blocked receiver
    resumed at).  ``t_dst - t_src`` is therefore the modeled cost carried
    by the edge itself — network flight time for messages, the log-tree
    cost for collectives, zero for pure ordering barriers.

    Kinds: ``"message"`` (send -> blocking recv/wait), ``"collective"``
    (latest-entering rank -> every participant's completion),
    ``"barrier"`` (phase/batch/round joins recorded by the engine).

    Only *binding* dependencies are recorded: a message delivered to a
    rank that had already passed its arrival time constrains nothing and
    produces no edge.  This is exactly the set the critical-path
    extraction in :mod:`repro.obs.analyze` needs.
    """

    kind: str  # "message" | "collective" | "barrier"
    src_rank: int
    t_src: float
    dst_rank: int
    t_dst: float
    info: str = ""

    @property
    def weight(self) -> float:
        return self.t_dst - self.t_src


class TraceRecorder:
    """Collects :class:`TraceEvent`s; cheap to disable.

    A *current scope* can be set (:meth:`set_scope`) and is stamped onto
    every subsequently recorded event; per-rank labels set through
    :meth:`set_rank_label` (usually via ``RankContext.annotate``) refine
    it with e.g. the DP level the rank is currently computing.

    Call sites should guard on :attr:`enabled` before doing any work
    (string formatting, byte counting) purely for the recorder's benefit;
    :meth:`record` is itself a no-op when disabled, so the guarded path
    costs one attribute check.
    """

    __slots__ = ("enabled", "events", "edges", "_scope", "_rank_labels")

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.events: List[TraceEvent] = []
        self.edges: List[DepEdge] = []
        self._scope: Optional[Scope] = None
        self._rank_labels: Dict[int, str] = {}

    # ------------------------------------------------------------ scoping
    def set_scope(self, scope: Optional[Scope]) -> None:
        """Set the scope stamped onto subsequent events (None to clear)."""
        self._scope = scope

    def set_rank_label(self, rank: int, label: str) -> None:
        """Tag rank's next events with ``label`` (e.g. ``"level3"``)."""
        if self.enabled:
            self._rank_labels[rank] = label

    # ---------------------------------------------------------- recording
    def record(
        self,
        rank: int,
        kind: str,
        t_start: float,
        t_end: float,
        info: str = "",
        nbytes: int = 0,
        scope: Optional[Scope] = None,
    ) -> None:
        if self.enabled and t_end >= t_start:
            if scope is None:
                scope = self._scope
            label = self._rank_labels.get(rank)
            if label:
                scope = Scope(label=label) if scope is None else (
                    scope if scope.label else replace(scope, label=label)
                )
            self.events.append(TraceEvent(rank, kind, t_start, t_end, info, nbytes, scope))

    def record_edge(
        self,
        kind: str,
        src_rank: int,
        t_src: float,
        dst_rank: int,
        t_dst: float,
        info: str = "",
    ) -> None:
        """Record a happens-before edge (no-op when disabled)."""
        if self.enabled and t_dst >= t_src:
            self.edges.append(DepEdge(kind, src_rank, t_src, dst_rank, t_dst, info))

    def extend(
        self,
        events: Iterable[TraceEvent],
        t_shift: float = 0.0,
        rank_offset: int = 0,
        scope: Optional[Scope] = None,
        edges: Iterable[DepEdge] = (),
    ) -> None:
        """Append another recording, shifted in time/rank and re-scoped.

        Used by the driver to splice each per-phase simulator timeline
        (clocks starting at 0, ranks ``0..N1-1``) into the run-level
        timeline: ``t_shift`` places the batch on the global clock,
        ``rank_offset`` maps the phase's processor group onto global
        ranks, and ``scope`` stamps the schedule coordinates (merged with
        any finer scope the event already carries, e.g. a DP-level
        label).  ``edges`` carries the phase recording's happens-before
        edges, shifted onto the same global clock and ranks.
        """
        if not self.enabled:
            return
        for e in events:
            merged = scope.merged(e.scope) if scope is not None else e.scope
            self.events.append(
                TraceEvent(
                    e.rank + rank_offset if e.rank >= 0 else e.rank,
                    e.kind,
                    e.t_start + t_shift,
                    e.t_end + t_shift,
                    e.info,
                    e.nbytes,
                    merged,
                )
            )
        for d in edges:
            self.edges.append(
                DepEdge(
                    d.kind,
                    d.src_rank + rank_offset if d.src_rank >= 0 else d.src_rank,
                    d.t_src + t_shift,
                    d.dst_rank + rank_offset if d.dst_rank >= 0 else d.dst_rank,
                    d.t_dst + t_shift,
                    d.info,
                )
            )

    def clear(self) -> None:
        self.events.clear()
        self.edges.clear()
        self._rank_labels.clear()
        self._scope = None

    def summary(self, nranks: int) -> "TraceSummary":
        return TraceSummary.from_events(self.events, nranks)


#: event kind -> the component of the cost split it is charged to; other
#: kinds (``fault`` markers) are charged to none
COMPONENT = {"compute": "compute", "charge": "compute", "send": "comm",
             "recv": "comm", "collective": "comm", "wait": "idle"}


class PhaseCost:
    """The cost split of one ``(round, phase)`` scope, ``-1`` standing for
    a coordinate the scope leaves out (the round-final reduce's phase).

    ``total`` sums every rank, the coordinator included; ``by_rank``
    splits each rank ``>= 0`` with a compute, comm or idle event there,
    in order of first appearance; ``busy`` sums, in event order, the
    compute + comm seconds of each rank with a compute or comm event.
    """

    def __init__(self, key: Tuple[int, int], first: TraceEvent) -> None:
        self.round, self.phase = key
        self.scope, self.t0, self.t1 = first.scope, first.t_start, first.t_end
        self.total = dict.fromkeys(("compute", "comm", "idle"), 0.0)
        self.bytes = 0
        self.by_rank: Dict[int, Dict[str, float]] = {}
        self.busy: Dict[int, float] = {}

    def add(self, e: TraceEvent, comp: Optional[str], duration: float) -> None:
        self.t0, self.t1 = min(self.t0, e.t_start), max(self.t1, e.t_end)
        if comp is None:
            return
        self.total[comp] += duration
        if e.rank >= 0:
            self.by_rank.setdefault(int(e.rank), dict.fromkeys(self.total, 0.0))[comp] += duration
            if comp != "idle":
                self.busy[e.rank] = self.busy.get(e.rank, 0.0) + duration
        if e.kind == "send" and e.nbytes:
            self.bytes += e.nbytes

    def to_dict(self) -> dict:
        """The ``RunReport.phases`` row.  Its ``worst_rank`` has the most
        compute + comm, the first to appear winning a tie."""
        worst = max(self.by_rank, default=None,
                    key=lambda r: self.by_rank[r]["compute"] + self.by_rank[r]["comm"])
        s = self.scope
        return {"round": self.round, "phase": self.phase, "batch": s.batch,
                "q0": s.q0, "q1": s.q1, "t0": self.t0, "t1": self.t1,
                **self.total, "bytes": self.bytes, "by_rank": self.by_rank,
                "span": self.t1 - self.t0, "worst_rank": worst}

    def imbalance(self) -> dict:
        """The analysis row: ``t_max / t_avg`` over ``busy``.  Its
        ``worst_rank`` is the lowest rank at ``t_max``."""
        t_max = max(self.busy.values())
        t_avg = sum(self.busy.values()) / len(self.busy)
        return {"round": self.round, "phase": self.phase, "t_max": t_max,
                "t_avg": t_avg, "ratio": t_max / t_avg if t_avg > 0 else 1.0,
                "worst_rank": max(self.busy, key=lambda r: (self.busy[r], -r)),
                "nranks_active": len(self.busy)}


def split_timeline(events: Sequence[TraceEvent], nranks: int,
                   by_phase: bool = True) -> Tuple["TraceSummary", List[PhaseCost]]:
    """Split a recording by :data:`COMPONENT` in one pass: per rank in
    ``[0, nranks)`` and, with ``by_phase``, per ``(round, phase)`` scope
    (sorted; an event with neither coordinate belongs to no row)."""
    per_rank = {comp: [0.0] * nranks for comp in ("compute", "comm", "idle")}
    sent = [0] * nranks
    other = makespan = 0.0
    rows: Dict[Tuple[int, int], PhaseCost] = {}
    for e in events:
        duration = e.t_end - e.t_start
        makespan = max(makespan, e.t_end)
        comp = COMPONENT.get(e.kind)
        if 0 <= e.rank < nranks:
            if comp is not None:
                per_rank[comp][e.rank] += duration
            if e.nbytes and e.kind == "send":
                sent[e.rank] += e.nbytes
        else:
            other += duration
        s = e.scope
        if by_phase and s is not None and (s.round is not None or s.phase is not None):
            key = (-1 if s.round is None else s.round, -1 if s.phase is None else s.phase)
            if key not in rows:
                rows[key] = PhaseCost(key, e)
            rows[key].add(e, comp, duration)
    summary = TraceSummary(nranks, *(np.array(v, dtype=np.float64) for v in per_rank.values()),
                           makespan, np.array(sent, dtype=np.int64), other)
    return summary, [rows[key] for key in sorted(rows)]


@dataclass
class TraceSummary:
    """Aggregate per-rank time split and overall makespan.

    ``other`` collects busy time charged to ranks outside ``[0, nranks)``
    — e.g. the rank ``-1`` coordinator charge of the round-final reduce —
    so no recorded time silently vanishes from the split.
    """

    nranks: int
    compute: np.ndarray
    comm: np.ndarray
    idle: np.ndarray
    makespan: float
    bytes_sent: np.ndarray  # per-rank wire bytes (send events)
    other: float = 0.0  # busy seconds on out-of-range ranks

    @staticmethod
    def from_events(events: List[TraceEvent], nranks: int) -> "TraceSummary":
        return split_timeline(events, nranks, by_phase=False)[0]

    @property
    def total_compute(self) -> float:
        return float(self.compute.sum())

    @property
    def total_comm(self) -> float:
        return float(self.comm.sum())

    @property
    def total_bytes(self) -> int:
        return int(self.bytes_sent.sum())

    @property
    def comm_fraction(self) -> float:
        busy = self.total_compute + self.total_comm
        return self.total_comm / busy if busy > 0 else 0.0

    def report(self) -> str:
        lines = [
            f"makespan: {self.makespan:.6f}s  "
            f"(compute {self.total_compute:.6f}s, comm {self.total_comm:.6f}s, "
            f"comm-frac {self.comm_fraction:.1%})"
        ]
        for r in range(self.nranks):
            lines.append(
                f"  rank {r:4d}: compute {self.compute[r]:.6f}s  "
                f"comm {self.comm[r]:.6f}s  idle {self.idle[r]:.6f}s"
            )
        if self.other > 0:
            lines.append(f"  other (out-of-range ranks): {self.other:.6f}s")
        return "\n".join(lines)
