"""Performance analytics: critical path, makespan blame, load imbalance.

The paper's empirical story is about *where time goes at scale* — which
phase bounds the makespan, whether a run is compute- or
communication-bound, and which ranks straggle.  PR 1's raw timelines
record what happened; this module explains it:

* :func:`extract_critical_path` walks the happens-before structure of a
  recorded run — program order within each rank plus the
  :class:`~repro.runtime.tracing.DepEdge` dependencies the simulator and
  the engine record (message arrivals that unblocked a receiver,
  collective joins, phase barriers) — and returns the longest weighted
  chain of causally ordered segments.  On a deadlock-free simulated run
  the chain tiles virtual time exactly, so its length equals the
  makespan (property-tested in ``tests/test_critical_path.py``).
* :meth:`CriticalPath.blame` attributes the makespan per
  ``(rank, phase, op-kind)`` — the direct answer to "what bounded this
  run?".
* :func:`slack_histogram` summarizes how much headroom everything *off*
  the path had before it would have delayed its rank's next critical
  involvement.
* :func:`analyze_run` bundles the path with per-rank
  compute/comm/idle decomposition, an nranks x nranks communication
  matrix (messages and bytes), per-phase imbalance ratios
  ``t_max/t_avg``, and straggler identification that cross-references an
  injected :class:`~repro.runtime.faults.FaultPlan` so deliberately
  slowed ranks are not blamed on the program.

The per-rank split, the per-phase rows and the overall imbalance are
read from :func:`repro.runtime.tracing.split_timeline`, which owns the
compute/comm/idle split.  The result, :class:`RunAnalysis`, serializes
to the ``analysis`` section of :class:`~repro.obs.report.RunReport`,
whose :meth:`~repro.obs.report.RunReport.text` renders it.
"""

from __future__ import annotations

import bisect
import re
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.runtime.tracing import DepEdge, Scope, TraceEvent, TraceSummary, split_timeline

#: relative tolerance for "these virtual timestamps coincide"
_REL_EPS = 1e-9

_PEER_RE = re.compile(r"^->(\d+)$")


@dataclass(frozen=True)
class PathSegment:
    """One tile of the critical path.

    ``via`` says what kind of element covers the interval: ``"event"``
    (a recorded rank-local event), ``"edge"`` (a cross-rank dependency —
    message flight, collective join, barrier), or ``"gap"`` (virtual
    time no recorded element accounts for, e.g. retry backoff).
    """

    rank: int
    kind: str
    t_start: float
    t_end: float
    via: str = "event"
    round: Optional[int] = None
    phase: Optional[int] = None
    label: str = ""
    info: str = ""

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    def to_dict(self) -> dict:
        d = {
            "rank": self.rank,
            "kind": self.kind,
            "t_start": self.t_start,
            "t_end": self.t_end,
            "duration": self.duration,
            "via": self.via,
        }
        if self.round is not None:
            d["round"] = self.round
        if self.phase is not None:
            d["phase"] = self.phase
        if self.label:
            d["label"] = self.label
        if self.info:
            d["info"] = self.info
        return d


@dataclass
class CriticalPath:
    """The longest weighted dependency chain through one recording."""

    segments: List[PathSegment] = field(default_factory=list)
    makespan: float = 0.0

    @property
    def length(self) -> float:
        """Sum of segment weights — equals the makespan when the
        recording's dependency structure is complete."""
        return float(sum(s.duration for s in self.segments))

    @property
    def coverage(self) -> float:
        """Fraction of the makespan the path explains (1.0 = exact)."""
        return self.length / self.makespan if self.makespan > 0 else 1.0

    def blame(self) -> List[dict]:
        """Makespan attribution per ``(rank, phase, kind)``, descending.

        Edge segments are charged to their source rank (a message's
        flight time is the sender's doing); gaps keep the rank the walk
        was on when it hit them.
        """
        agg: Dict[Tuple, float] = defaultdict(float)
        for s in self.segments:
            agg[(s.rank, s.phase, s.kind)] += s.duration
        rows = [
            {
                "rank": r,
                "phase": p,
                "kind": k,
                "seconds": sec,
                "fraction": sec / self.makespan if self.makespan > 0 else 0.0,
            }
            for (r, p, k), sec in agg.items()
        ]
        rows.sort(key=lambda row: (-row["seconds"], str(row["kind"]),
                                   row["rank"] if row["rank"] is not None else -9))
        return rows

    def to_dict(self, max_segments: int = 200) -> dict:
        return {
            "makespan": self.makespan,
            "length": self.length,
            "coverage": self.coverage,
            "n_segments": len(self.segments),
            "segments": [s.to_dict() for s in self.segments[:max_segments]],
            "blame": self.blame(),
        }


def extract_critical_path(
    events: Sequence[TraceEvent],
    edges: Sequence[DepEdge] = (),
    max_steps: Optional[int] = None,
) -> CriticalPath:
    """Extract the longest weighted dependency chain from a recording.

    Walks backward from the event that ends at the makespan.  At each
    point ``(rank, t)`` the binding element is, in order of preference:

    1. an unused :class:`~repro.runtime.tracing.DepEdge` into ``rank``
       ending at ``t`` (crossing to its source rank at ``t_src``) —
       cross-rank dependencies always bind tighter than the local
       timeline, because the local event ending at ``t`` (a ``wait``, a
       collective) merely *observed* the dependency;
    2. the positive-duration event on ``rank`` ending at ``t``
       (program order);
    3. a ``gap`` down to the latest earlier element — first on the same
       rank, then anywhere (spliced timelines without a recorded
       barrier, retry backoff).

    Each step moves strictly backward in time or consumes an edge (each
    edge binds at most once), so the walk terminates.  On a single
    simulated run every virtual-clock advance is a recorded event and
    every unblock is a recorded edge, so the tiles cover ``[0,
    makespan]`` exactly and ``length == makespan``.
    """
    timed = [e for e in events if e.duration > 0]
    if not events or (not timed and not edges):
        return CriticalPath([], 0.0)
    makespan = max(e.t_end for e in events)
    eps = _REL_EPS * max(1.0, makespan)

    by_rank: Dict[int, List[TraceEvent]] = defaultdict(list)
    for e in timed:
        by_rank[e.rank].append(e)
    ends: Dict[int, List[float]] = {}
    for r, evs in by_rank.items():
        evs.sort(key=lambda e: (e.t_end, e.t_start))
        ends[r] = [e.t_end for e in evs]

    edges_in: Dict[int, List[Tuple[float, int]]] = defaultdict(list)
    for i, d in enumerate(edges):
        edges_in[d.dst_rank].append((d.t_dst, i))
    for lst in edges_in.values():
        lst.sort()
    used = set()

    def edge_at(rank: int, t: float) -> Optional[DepEdge]:
        """An unused edge into ``rank`` ending at ~``t`` (binding first)."""
        lst = edges_in.get(rank)
        if not lst:
            return None
        hi = bisect.bisect_right(lst, (t + eps, len(edges)))
        best = None
        for j in range(hi - 1, -1, -1):
            t_dst, i = lst[j]
            if t_dst < t - eps:
                break
            if i in used:
                continue
            d = edges[i]
            # a zero-weight self edge neither moves time nor changes rank
            if d.src_rank == rank and d.weight <= eps:
                continue
            # prefer the earliest-originating edge (it carries the most
            # weight and therefore explains the most of the interval)
            if best is None or d.t_src < best[1].t_src:
                best = (i, d)
        if best is None:
            return None
        used.add(best[0])
        return best[1]

    def event_at(rank: int, t: float) -> Optional[TraceEvent]:
        """The positive-duration event on ``rank`` ending at ~``t``."""
        lst = ends.get(rank)
        if not lst:
            return None
        hi = bisect.bisect_right(lst, t + eps)
        for j in range(hi - 1, -1, -1):
            if lst[j] < t - eps:
                break
            return by_rank[rank][j]
        return None

    def latest_before(rank: int, t: float) -> Optional[Tuple[int, float]]:
        """The latest element ending strictly before ``t``: same rank
        first, then globally.  Returns ``(rank, t_end)`` or ``None``."""
        best = None
        lst = ends.get(rank)
        if lst:
            j = bisect.bisect_left(lst, t - eps)
            if j > 0:
                best = (rank, lst[j - 1])
        if best is None:
            for r2, lst2 in ends.items():
                j = bisect.bisect_left(lst2, t - eps)
                if j > 0 and (best is None or lst2[j - 1] > best[1]):
                    best = (r2, lst2[j - 1])
        return best

    start = max(timed, key=lambda e: e.t_end) if timed else None
    if start is not None and start.t_end >= makespan - eps:
        rank, t = start.rank, start.t_end
    else:
        # all time lives on edges (degenerate); start at the latest edge
        d = max(edges, key=lambda d: d.t_dst)
        rank, t = d.dst_rank, d.t_dst

    segments: List[PathSegment] = []
    budget = max_steps if max_steps is not None else 4 * (len(timed) + len(edges)) + 64
    while t > eps and budget > 0:
        budget -= 1
        d = edge_at(rank, t)
        if d is not None:
            if d.weight > eps:
                segments.append(PathSegment(
                    rank=d.src_rank, kind=d.kind, t_start=d.t_src, t_end=t,
                    via="edge", info=d.info,
                ))
            rank, t = d.src_rank, d.t_src
            continue
        e = event_at(rank, t)
        if e is not None:
            sc = e.scope or Scope()
            segments.append(PathSegment(
                rank=rank, kind=e.kind, t_start=e.t_start, t_end=t, via="event",
                round=sc.round, phase=sc.phase, label=sc.label, info=e.info,
            ))
            t = e.t_start
            continue
        anchor = latest_before(rank, t)
        if anchor is None:
            # nothing earlier anywhere: unexplained leading time
            segments.append(PathSegment(rank=rank, kind="gap", t_start=0.0,
                                        t_end=t, via="gap"))
            t = 0.0
            break
        r2, t2 = anchor
        segments.append(PathSegment(rank=rank, kind="gap", t_start=t2,
                                    t_end=t, via="gap"))
        rank, t = r2, t2
    segments.reverse()
    return CriticalPath(segments, makespan)


def slack_histogram(
    events: Sequence[TraceEvent],
    path: CriticalPath,
    n_bins: int = 10,
) -> dict:
    """Local slack of everything *off* the critical path.

    For an off-path event the slack is the headroom before its rank's
    next on-path involvement (or the makespan when the rank never
    becomes critical again): how much later the event could have
    finished without delaying the chain that bounds the run.  Returns
    bin counts over ``[0, makespan]`` plus summary statistics.
    """
    makespan = path.makespan
    on_path: Dict[Tuple[int, float, float], bool] = {
        (s.rank, round(s.t_start, 12), round(s.t_end, 12)): True
        for s in path.segments
    }
    crit_starts: Dict[int, List[float]] = defaultdict(list)
    for s in path.segments:
        crit_starts[s.rank].append(s.t_start)
    for lst in crit_starts.values():
        lst.sort()

    slacks = []
    for e in events:
        if e.duration <= 0:
            continue
        if (e.rank, round(e.t_start, 12), round(e.t_end, 12)) in on_path:
            continue
        lst = crit_starts.get(e.rank, [])
        j = bisect.bisect_left(lst, e.t_end)
        nxt = lst[j] if j < len(lst) else makespan
        slacks.append(max(0.0, nxt - e.t_end))
    if not slacks:
        return {"count": 0, "mean": 0.0, "p50": 0.0, "p90": 0.0, "max": 0.0,
                "bin_width": 0.0, "bins": []}
    arr = np.asarray(slacks)
    width = makespan / n_bins if makespan > 0 else 1.0
    idx = np.minimum((arr / width).astype(int), n_bins - 1) if width > 0 else 0
    bins = np.bincount(idx, minlength=n_bins)
    return {
        "count": int(arr.size),
        "mean": float(arr.mean()),
        "p50": float(np.percentile(arr, 50)),
        "p90": float(np.percentile(arr, 90)),
        "max": float(arr.max()),
        "bin_width": width,
        "bins": bins.tolist(),
    }


# --------------------------------------------------------------- analytics
def communication_matrix(events: Sequence[TraceEvent], nranks: int) -> dict:
    """nranks x nranks message counts and wire bytes, from send events."""
    msgs = np.zeros((nranks, nranks), dtype=np.int64)
    byts = np.zeros((nranks, nranks), dtype=np.int64)
    for e in events:
        if e.kind != "send" or not (0 <= e.rank < nranks):
            continue
        m = _PEER_RE.match(e.info)
        if m is None:
            continue
        dst = int(m.group(1))
        if 0 <= dst < nranks:
            msgs[e.rank, dst] += 1
            byts[e.rank, dst] += e.nbytes
    return {"messages": msgs.tolist(), "bytes": byts.tolist()}


def _stragglers(
    summary: TraceSummary,
    events: Sequence[TraceEvent],
    fault_plan=None,
    n1: Optional[int] = None,
    threshold: float = 1.5,
) -> List[dict]:
    """Ranks whose busy time exceeds ``threshold`` x the median.

    Cross-references the injected fault plan: a straggler that matches a
    ``straggler``/``crash`` fault spec (by local sim rank when ``n1`` is
    given) is marked ``injected`` so real infrastructure slowness is not
    blamed on the program.
    """
    busy = summary.compute + summary.comm
    active = busy[busy > 0]
    if active.size == 0:
        return []
    med = float(np.median(active))
    if med <= 0:
        return []
    fault_ranks: Dict[int, List[str]] = defaultdict(list)
    for e in events:
        if e.kind == "fault" and e.rank >= 0:
            fault_ranks[e.rank].append(e.info)
    slow_specs = []
    if fault_plan is not None:
        slow_specs = [s for s in getattr(fault_plan, "specs", ())
                      if s.kind in ("straggler", "crash")]

    def injected_by_plan(rank: int) -> Optional[str]:
        local = rank % n1 if n1 else rank
        for s in slow_specs:
            if s.rank is None or s.rank in (rank, local):
                return s.kind
        return None

    rows = []
    for r in range(summary.nranks):
        if busy[r] <= threshold * med:
            continue
        kind = injected_by_plan(r)
        rows.append({
            "rank": r,
            "busy_seconds": float(busy[r]),
            "ratio_to_median": float(busy[r] / med),
            "injected": kind is not None or bool(fault_ranks.get(r)),
            "fault_kind": kind,
            "fault_events": fault_ranks.get(r, [])[:4],
        })
    rows.sort(key=lambda row: -row["ratio_to_median"])
    return rows


@dataclass
class RunAnalysis:
    """Joined performance analytics of one run (see module docs)."""

    nranks: int
    makespan: float
    critical_path: CriticalPath
    slack: dict
    per_rank: List[dict]
    phase_imbalance: List[dict]
    imbalance_ratio: float
    comm_matrix: dict
    stragglers: List[dict]

    def to_dict(self, max_segments: int = 200) -> dict:
        return {**vars(self),
                "critical_path": self.critical_path.to_dict(max_segments)}


def analyze_run(
    events: Sequence[TraceEvent],
    edges: Sequence[DepEdge] = (),
    nranks: Optional[int] = None,
    fault_plan=None,
    n1: Optional[int] = None,
) -> RunAnalysis:
    """Full performance analytics for one recording (see module docs)."""
    events = list(events)
    if nranks is None:
        nranks = max((e.rank + 1 for e in events if e.rank >= 0), default=1)
    summary, phases = split_timeline(events, nranks)
    path = extract_critical_path(events, edges)
    busy = summary.compute + summary.comm
    avg = float(busy.mean()) if nranks else 0.0
    per_rank = [
        {
            "rank": r,
            "compute": float(summary.compute[r]),
            "comm": float(summary.comm[r]),
            "idle": float(summary.idle[r]),
            "busy_fraction": (float(busy[r] / summary.makespan)
                              if summary.makespan > 0 else 0.0),
        }
        for r in range(nranks)
    ]
    return RunAnalysis(
        nranks=nranks,
        makespan=summary.makespan,
        critical_path=path,
        slack=slack_histogram(events, path),
        per_rank=per_rank,
        phase_imbalance=[p.imbalance() for p in phases if p.busy],
        imbalance_ratio=float(busy.max() / avg) if avg > 0 else 1.0,
        comm_matrix=communication_matrix(events, nranks),
        stragglers=_stragglers(summary, events, fault_plan, n1),
    )


__all__ = [
    "CriticalPath",
    "PathSegment",
    "RunAnalysis",
    "analyze_run",
    "communication_matrix",
    "extract_critical_path",
    "slack_histogram",
]
