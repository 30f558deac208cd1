"""The ledger's own in-memory span recorder.

The benchmark measures every layer *from outside*: a span is opened
around each call the driver makes into a public function of the program
(``detect_path``, ``path_eval_phase``, ``LocalClient.query``, ...) and
nothing under ``src/`` is touched.  Spans are kept in memory and written
out once, when the run ends.

A span is ``(id, parent, name, layer, op, t0, t1, counts)``; spans opened
on one thread nest by a per-thread stack, so a child always lies inside
its parent.  A span's *self time* is its duration minus the part of that
interval its children cover, which makes the self times of a tree add up
to the root's duration — the tiling ``test_ledger.py`` checks.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class Span:
    __slots__ = ("sid", "parent", "name", "layer", "op", "t0", "t1", "counts")

    def __init__(self, sid: int, parent: Optional[int], name: str, layer: str,
                 op: Optional[int]) -> None:
        self.sid = sid
        self.parent = parent
        self.name = name
        self.layer = layer
        self.op = op
        self.t0 = time.perf_counter()
        self.t1 = self.t0
        self.counts: Dict[str, float] = {}

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    def count(self, **counts: float) -> None:
        """Add to the work counts recorded at this boundary."""
        for key, val in counts.items():
            self.counts[key] = self.counts.get(key, 0) + val

    def to_dict(self) -> dict:
        return {"id": self.sid, "parent": self.parent, "name": self.name,
                "layer": self.layer, "op": self.op, "t0": self.t0,
                "t1": self.t1, "counts": self.counts}


class Recorder:
    """Collects spans for one workload run; safe to use from many threads."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._stack = threading.local()

    @contextmanager
    def span(self, name: str, layer: str, op: Optional[int] = None) -> Iterator[Span]:
        stack = self._stack.__dict__.setdefault("spans", [])
        parent = stack[-1] if stack else None
        with self._lock:
            sp = Span(len(self.spans), parent.sid if parent else None, name,
                      layer, op if op is not None else (parent.op if parent else None))
            self.spans.append(sp)
        stack.append(sp)
        try:
            yield sp
        finally:
            sp.t1 = time.perf_counter()
            stack.pop()

    # ------------------------------------------------------------ analysis
    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the interval its children cover."""
        children: Dict[int, List[Span]] = {}
        for sp in self.spans:
            if sp.parent is not None:
                children.setdefault(sp.parent, []).append(sp)
        out = {}
        for sp in self.spans:
            covered, edge = 0.0, sp.t0
            for ch in sorted(children.get(sp.sid, ()), key=lambda c: c.t0):
                lo, hi = max(ch.t0, edge), min(ch.t1, sp.t1)
                if hi > lo:
                    covered += hi - lo
                    edge = hi
            out[sp.sid] = sp.duration - covered
        return out

    def roots(self) -> List[Span]:
        return [sp for sp in self.spans if sp.parent is None]

    def tree_self_total(self, root: Span, selfs: Dict[int, float]) -> float:
        """Sum of self times over ``root``'s whole subtree."""
        members = {root.sid}
        for sp in self.spans:  # ids ascend, so parents come first
            if sp.parent in members:
                members.add(sp.sid)
        return sum(selfs[sid] for sid in members)

    def layer_summary(self) -> Dict[str, dict]:
        """Per layer: span count, self seconds, and summed work counts."""
        selfs = self.self_times()
        out: Dict[str, dict] = {}
        for sp in self.spans:
            row = out.setdefault(sp.layer, {"spans": 0, "self_s": 0.0, "counts": {}})
            row["spans"] += 1
            row["self_s"] += selfs[sp.sid]
            for key, val in sp.counts.items():
                row["counts"][key] = row["counts"].get(key, 0) + val
        return out

    def to_dict(self) -> dict:
        return {"workload": self.workload,
                "layers": self.layer_summary(),
                "spans": [sp.to_dict() for sp in self.spans]}

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh)


class _NullSpan:
    """What an untraced run gets: same surface, records nothing."""

    def count(self, **counts: float) -> None:
        pass


class NullRecorder:
    _span = _NullSpan()

    @contextmanager
    def span(self, name: str, layer: str, op: Optional[int] = None) -> Iterator[_NullSpan]:
        yield self._span
