"""Preloaded-graph registry for the detection service.

Graphs are identified by **content**:
:func:`~repro.graph.csr.graph_sha` hashes the CSR arrays, so the same
edge set registered twice (or uploaded by two tenants) lands on one entry, one set of cached
:class:`~repro.core.engine.EngineSession` prepared state, and one slice
of the result cache.  Names are optional conveniences layered on top —
queries may reference a graph by name, full sha, or unambiguous sha
prefix.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional

from repro.core.engine import EngineSession, MidasRuntime
from repro.errors import ConfigurationError, UnknownGraphError
from repro.graph.csr import CSRGraph, graph_sha
from repro.obs.qtrace import get_flight_recorder


class GraphEntry:
    """One registered graph: its content sha, optional name, a
    per-decomposition :class:`EngineSession` cache (:meth:`session_for`;
    a fleet worker keeps its own), and what the service's fleet workers
    last said about the sessions each of them keeps for it."""

    __slots__ = ("sha", "graph", "name", "_sessions", "_fleet_sessions",
                 "_lock")

    def __init__(self, sha: str, graph: CSRGraph, name: str = "") -> None:
        self.sha = sha
        self.graph = graph
        self.name = name
        # (n1, partition_method) -> EngineSession
        self._sessions: Dict[tuple, EngineSession] = {}
        # (worker pid, n1, partition_method) -> that worker's
        # EngineSession.describe(), pid included
        self._fleet_sessions: Dict[tuple, dict] = {}
        self._lock = threading.Lock()

    def session_for(self, rt: MidasRuntime) -> EngineSession:
        """The cached session matching ``rt``'s decomposition knobs
        (created on first use; shared by every later compatible query)."""
        key = (rt.n1, rt.partition_method)
        with self._lock:
            sess = self._sessions.get(key)
            if sess is None:
                sess = self._sessions[key] = EngineSession.for_runtime(
                    self.graph, rt
                )
            return sess

    def note_fleet_session(self, desc: dict) -> None:
        """Record a fleet worker's description of its session for this
        graph (``desc["pid"]`` names the worker)."""
        key = (desc["pid"], desc["n1"], desc["partition_method"])
        with self._lock:
            self._fleet_sessions[key] = desc

    def forget_fleet_sessions(self, live: Callable[[], set]) -> None:
        """Drop the sessions of fleet workers no longer alive.  ``live()``
        — the live workers' pids — is read under this entry's lock, so a
        worker whose session was noted before the read is in it."""
        with self._lock:
            alive = live()
            for key in [k for k in self._fleet_sessions if k[0] not in alive]:
                del self._fleet_sessions[key]

    def session_count(self) -> int:
        with self._lock:
            return len(self._sessions) + len(self._fleet_sessions)

    def describe(self) -> dict:
        """JSON-safe entry summary for ``/api/graphs``: this process's
        sessions, then the fleet workers' (each with its ``pid``)."""
        with self._lock:
            sessions = [s.describe() for s in self._sessions.values()]
            sessions += self._fleet_sessions.values()
        return {
            "sha": self.sha,
            "name": self.name,
            "nodes": self.graph.n,
            "edges": self.graph.num_edges,
            "sessions": sessions,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = self.name or self.sha[:12]
        return f"GraphEntry({label}, n={self.graph.n})"


class GraphRegistry:
    """Thread-safe name/sha -> :class:`GraphEntry` map (see module docs)."""

    def __init__(self) -> None:
        self._by_sha: Dict[str, GraphEntry] = {}
        self._names: Dict[str, str] = {}  # name -> sha
        self._lock = threading.Lock()

    def register(self, graph: CSRGraph, name: Optional[str] = None) -> GraphEntry:
        """Add ``graph`` (idempotent by content); returns its entry.

        Re-registering the same content is a no-op apart from attaching
        a new name alias; re-binding an existing name to *different*
        content raises :class:`~repro.errors.ConfigurationError` — a
        silent rebind would serve cached results for the wrong graph.
        """
        sha = graph_sha(graph)
        with self._lock:
            entry = self._by_sha.get(sha)
            if entry is None:
                entry = self._by_sha[sha] = GraphEntry(
                    sha, graph, name=name or graph.name or ""
                )
                get_flight_recorder().record(
                    "graph_registered",
                    sha=sha[:12],
                    name=name or graph.name or "",
                    n=int(graph.n),
                    edges=int(graph.num_edges),
                )
            if name:
                bound = self._names.get(name)
                if bound is not None and bound != sha:
                    raise ConfigurationError(
                        f"graph name {name!r} is already bound to "
                        f"{bound[:12]}..., refusing to rebind to {sha[:12]}..."
                    )
                self._names[name] = sha
                if not entry.name:
                    entry.name = name
            return entry

    def resolve(self, ref: str) -> GraphEntry:
        """Look up by name, full sha, or sha prefix (>= 8 hex chars).

        Raises :class:`~repro.errors.UnknownGraphError` when nothing (or
        more than one prefix candidate) matches.
        """
        if not isinstance(ref, str) or not ref:
            raise UnknownGraphError(ref)
        with self._lock:
            sha = self._names.get(ref)
            if sha is not None:
                return self._by_sha[sha]
            entry = self._by_sha.get(ref)
            if entry is not None:
                return entry
            if len(ref) >= 8:
                hits = [e for s, e in self._by_sha.items() if s.startswith(ref)]
                if len(hits) == 1:
                    return hits[0]
        raise UnknownGraphError(ref)

    def entries(self) -> List[GraphEntry]:
        with self._lock:
            return list(self._by_sha.values())

    def session_count(self) -> int:
        return sum(e.session_count() for e in self.entries())

    def forget_fleet_sessions(self, live: Callable[[], set]) -> None:
        """:meth:`GraphEntry.forget_fleet_sessions` on every entry."""
        for entry in self.entries():
            entry.forget_fleet_sessions(live)

    def __len__(self) -> int:
        with self._lock:
            return len(self._by_sha)

    def describe(self) -> List[dict]:
        return [e.describe() for e in self.entries()]


__all__ = ["GraphEntry", "GraphRegistry", "graph_sha"]
