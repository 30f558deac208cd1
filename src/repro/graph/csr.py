"""Immutable CSR (compressed sparse row) graph storage.

The DP inner loop of every evaluator is "for each node, XOR-accumulate a
field product over its neighbours".  The adjacency is stored as CSR and
*summed* through :class:`JaggedDiagonals` — the same edges re-laid once
per graph so that the sum is a handful of contiguous gather-XORs
(``acc[:count_s] ^= take(state, slot_s)``, one per neighbour slot) plus
one :func:`xor_segment_reduce` over the short jagged tail.  No
Python-level per-node loop ever runs, and no ``(nnz, ...)`` copy of the
state is ever made.

Graphs are simple and undirected: both ``(u, v)`` and ``(v, u)`` are stored,
self-loops and duplicates are dropped at construction.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Tuple

import numpy as np

from repro.errors import GraphError
from repro.util.layout import memory_order


def xor_segment_reduce(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """XOR-reduce ``values`` over CSR segments defined by ``indptr``.

    ``values`` has logical shape ``(nnz, ...)`` in any memory order; the
    result has shape ``(len(indptr) - 1, ...)`` in the same order, where
    row ``i`` is the XOR of ``values[indptr[i]:indptr[i+1]]`` (zeros for
    empty segments).

    This is GF(2^m) summation over CSR segments as one
    ``np.bitwise_xor.reduceat`` — the reducer of a neighbour sum's jagged
    tail (:class:`JaggedDiagonals`) and of the scan-statistics baseline
    grid.  XOR cares neither about the word size nor about the axis
    order, so the pass runs at machine width: a C-contiguous array of
    narrower elements whose rows are whole 64-bit words is reduced through
    its uint64 view, and any other array along its row axis *as it lies in
    memory* (for plane-major bit-planes, along contiguous words).  Empty
    segments (isolated vertices) need repair, paid only when ``indptr``
    has one — a tail never does.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    n, nnz = len(indptr) - 1, values.shape[0]
    if indptr[-1] != nnz:
        raise GraphError(
            f"indptr[-1] (={indptr[-1]}) must equal len(values) (={nnz})"
        )
    nonempty = indptr[:-1] < indptr[1:]
    if not nonempty.any():
        return np.zeros((n,) + values.shape[1:], dtype=values.dtype)
    # reduceat over non-empty starts only: consecutive non-empty starts
    # are exactly the segment boundaries (empty segments in between do
    # not advance indptr), so each reduction covers one segment.
    full = bool(nonempty.all())
    starts = indptr[:-1] if full else indptr[:-1][nonempty]
    order, inverse = memory_order(values)
    block, axis = values.transpose(order), order.index(0)
    if (axis == 0 and block.flags.c_contiguous and values.itemsize < 8
            and values.nbytes // nnz % 8 == 0):
        out = np.bitwise_xor.reduceat(
            block.reshape(nnz, -1).view(np.uint64), starts, axis=0
        ).view(values.dtype).reshape((len(starts),) + block.shape[1:])
    else:
        out = np.bitwise_xor.reduceat(block, starts, axis=axis)
    if not full:
        # row i takes the reduction of the last non-empty row <= i, then
        # the (few) empty rows are zeroed: a row copy, not a scatter of all
        out = np.take(out, np.cumsum(nonempty) - 1, axis=axis)
        out[(slice(None),) * axis + (np.flatnonzero(~nonempty),)] = 0
    return out.transpose(inverse)


class JaggedDiagonals:
    """A CSR adjacency re-laid for the neighbour sum (Saad's JDS, over GF(2)).

    Rows are sorted once by descending degree (stably), and *slot* ``s``
    holds the column of the ``s``-th neighbour of every row that has one —
    the first ``len(slots[s])`` rows of that order.  A neighbour sum is
    then ``acc[:len(slot)] ^= take(state, slot)`` per slot: contiguous
    prefixes, no per-segment reducer, no ``(nnz, ...)`` temporary and no
    empty-row repair (``leveldp.neighbour_sum``).

    A pure slot walk costs one numpy call per unit of *maximum* degree, so
    the walk stops at the first slot held by fewer than
    ``max(n_rows / 8, 128)`` rows — a function of the degree sequence
    alone — and what lies beyond (the *jagged tail*: ≈ 1–3 % of the
    entries on Erdős–Rényi, the hubs' excess on a power law, everything on
    a rank's view of a few dozen rows) stays CSR over the leading
    ``n_tail`` rows, each of which has at least one tail entry, for one
    gather + :func:`xor_segment_reduce`.  The call count therefore follows
    the average degree, never the maximum.

    Attributes
    ----------
    order:
        ``(n_rows,)`` — row ``p`` of a sum is CSR row ``order[p]``.
    rank:
        The inverse permutation: ``take(summed, rank)`` restores CSR order.
    slots:
        The head, one int64 column array per slot, lengths non-increasing.
    tail_indptr, tail_indices:
        CSR of the remaining entries over rows ``[:len(tail_indptr) - 1]``.
    indptr, indices, n_columns:
        The whole adjacency as CSR in this row order (row ``p`` is CSR row
        ``order[p]``), read in one pass by the compiled gather-XOR
        (:func:`repro.ff.native.gather_xor`), and one more than its
        largest column: a state needs that many rows.

    With ``renumber=True`` (square adjacencies only) the columns are
    renumbered by ``rank`` too, so a state *kept* in ``order`` is summed in
    place and nothing is ever un-permuted — what the whole-graph driver
    does for a whole phase window.
    """

    __slots__ = ("order", "rank", "slots", "tail_indptr", "tail_indices", "indptr",
                 "indices", "n_columns", "_linked")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray,
                 renumber: bool = False) -> None:
        degrees = np.diff(indptr)
        n = len(degrees)
        self._linked = None
        self.order = np.argsort(-degrees, kind="stable")
        self.rank = np.empty(n, dtype=np.int64)
        self.rank[self.order] = np.arange(n)
        columns = self.rank[indices] if renumber else indices
        falling = -degrees[self.order]
        starts = indptr[:-1][self.order]
        # rows holding a neighbour in slot s: those with degree > s, a prefix
        max_degree = -int(falling[0]) if n else 0
        counts = np.searchsorted(falling, -np.arange(max_degree))
        cut = int(np.searchsorted(-counts, -max(n / 8, 128), side="right"))
        self.slots = tuple(columns[starts[:c] + s]
                           for s, c in enumerate(counts[:cut].tolist()))
        n_tail = int(counts[cut]) if cut < max_degree else 0
        self.tail_indptr = np.zeros(n_tail + 1, dtype=np.int64)
        np.cumsum(-falling[:n_tail] - cut, out=self.tail_indptr[1:])
        # entry j of tail row p sits at starts[p] + cut + (j - tail_indptr[p])
        first = starts[:n_tail] + cut - self.tail_indptr[:-1]
        self.tail_indices = columns[
            np.repeat(first, np.diff(self.tail_indptr))
            + np.arange(self.tail_indptr[-1])
        ]
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(-falling, out=self.indptr[1:])
        self.indices = columns[np.repeat(starts - self.indptr[:-1], -falling)
                               + np.arange(self.indptr[-1])].astype(np.int64, copy=False)
        self.n_columns = int(columns.max()) + 1 if len(columns) else 0

    def linked(self) -> "JaggedDiagonals":
        """The same sum over the rows with at least one neighbour alone — a
        prefix of :attr:`order`, so slots, tail and columns are unchanged
        (a renumbered column is a row with a neighbour).  Built once."""
        if self._linked is None:
            n_linked = len(self.slots[0]) if self.slots else len(self.tail_indptr) - 1
            linked = object.__new__(JaggedDiagonals)
            for name in ("rank", "slots", "tail_indptr", "tail_indices", "indices",
                         "n_columns"):
                setattr(linked, name, getattr(self, name))
            linked.order, linked._linked = self.order[:n_linked], linked
            linked.indptr = self.indptr[:n_linked + 1]
            self._linked = linked
        return self._linked


class CSRGraph:
    """A simple undirected graph in CSR form.

    Attributes
    ----------
    n:
        Number of vertices (ids ``0..n-1``).
    indptr:
        int64 array of length ``n + 1``.
    indices:
        int64 array of neighbour ids, sorted within each row; length is
        ``2m`` for ``m`` undirected edges.
    """

    __slots__ = ("n", "indptr", "indices", "name", "_jagged")

    def __init__(self, n: int, indptr: np.ndarray, indices: np.ndarray, name: str = "") -> None:
        self.n = int(n)
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        self.name = name
        self._jagged = None
        self._validate()

    def _validate(self) -> None:
        if self.n < 0:
            raise GraphError(f"vertex count must be non-negative, got {self.n}")
        if self.indptr.shape != (self.n + 1,):
            raise GraphError(
                f"indptr must have length n+1={self.n + 1}, got {self.indptr.shape}"
            )
        if self.indptr[0] != 0 or self.indptr[-1] != len(self.indices):
            raise GraphError("indptr must start at 0 and end at len(indices)")
        if np.any(np.diff(self.indptr) < 0):
            raise GraphError("indptr must be non-decreasing")
        if len(self.indices) and (
            self.indices.min() < 0 or self.indices.max() >= self.n
        ):
            raise GraphError("neighbour ids out of range")

    # ------------------------------------------------------------ factories
    @staticmethod
    def from_edges(
        n: int, edges: "np.ndarray | Iterable[Tuple[int, int]]", name: str = ""
    ) -> "CSRGraph":
        """Build from an iterable/array of (u, v) pairs.

        Self-loops and duplicate edges (in either orientation) are dropped.
        """
        e = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges, dtype=np.int64)
        if e.size == 0:
            return CSRGraph(n, np.zeros(n + 1, dtype=np.int64), np.zeros(0, dtype=np.int64), name)
        if e.ndim != 2 or e.shape[1] != 2:
            raise GraphError(f"edges must be (m, 2), got shape {e.shape}")
        if e.min() < 0 or e.max() >= n:
            raise GraphError("edge endpoint out of range")
        u = np.minimum(e[:, 0], e[:, 1])
        v = np.maximum(e[:, 0], e[:, 1])
        keep = u != v  # drop self loops
        u, v = u[keep], v[keep]
        key = u * n + v
        _, first = np.unique(key, return_index=True)
        u, v = u[first], v[first]
        src = np.concatenate([u, v])
        dst = np.concatenate([v, u])
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.add.at(indptr, src + 1, 1)
        np.cumsum(indptr, out=indptr)
        return CSRGraph(n, indptr, dst, name)

    @staticmethod
    def from_networkx(g, name: str = "") -> "CSRGraph":
        """Build from a networkx graph with integer-convertible node labels."""
        import networkx as nx

        nodes = list(g.nodes())
        relabel = {u: i for i, u in enumerate(nodes)}
        edges = np.array(
            [(relabel[a], relabel[b]) for a, b in g.edges()], dtype=np.int64
        ).reshape(-1, 2)
        return CSRGraph.from_edges(len(nodes), edges, name=name or str(getattr(g, "name", "")))

    # -------------------------------------------------------------- queries
    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return len(self.indices) // 2

    def degrees(self) -> np.ndarray:
        """Degree of every vertex, as int64."""
        return np.diff(self.indptr)

    def jagged(self) -> JaggedDiagonals:
        """The adjacency as renumbered :class:`JaggedDiagonals` — vertex
        ``order[p]`` is row *and* column ``p`` — built on first use and kept
        (the graph is immutable)."""
        if self._jagged is None:
            self._jagged = JaggedDiagonals(self.indptr, self.indices, renumber=True)
        return self._jagged

    def neighbors(self, i: int) -> np.ndarray:
        """Sorted neighbour ids of vertex ``i`` (a view, do not mutate)."""
        if not (0 <= i < self.n):
            raise GraphError(f"vertex {i} out of range")
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        nb = self.neighbors(u)
        pos = np.searchsorted(nb, v)
        return pos < len(nb) and nb[pos] == v

    def edges(self) -> np.ndarray:
        """All undirected edges as an (m, 2) array with u < v."""
        src = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees())
        mask = src < self.indices
        return np.stack([src[mask], self.indices[mask]], axis=1)

    # ---------------------------------------------------------- transforms
    def subgraph(self, nodes: np.ndarray) -> Tuple["CSRGraph", np.ndarray]:
        """Induced subgraph on ``nodes``; returns (graph, old_ids) where the
        new graph's vertex ``i`` corresponds to ``old_ids[i]``."""
        nodes = np.unique(np.asarray(nodes, dtype=np.int64))
        if len(nodes) and (nodes[0] < 0 or nodes[-1] >= self.n):
            raise GraphError("subgraph nodes out of range")
        relabel = -np.ones(self.n, dtype=np.int64)
        relabel[nodes] = np.arange(len(nodes))
        e = self.edges()
        keep = (relabel[e[:, 0]] >= 0) & (relabel[e[:, 1]] >= 0)
        new_edges = relabel[e[keep]]
        return CSRGraph.from_edges(len(nodes), new_edges, name=f"{self.name}|sub"), nodes

    def relabel(self, perm: np.ndarray) -> "CSRGraph":
        """Relabel vertices: new id of old vertex ``i`` is ``perm[i]``."""
        perm = np.asarray(perm, dtype=np.int64)
        if sorted(perm.tolist()) != list(range(self.n)):
            raise GraphError("perm must be a permutation of 0..n-1")
        e = self.edges()
        return CSRGraph.from_edges(self.n, perm[e], name=self.name)

    def to_networkx(self):
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.n))
        g.add_edges_from(map(tuple, self.edges()))
        return g

    # ----------------------------------------------------------- traversal
    def connected_components(self) -> np.ndarray:
        """Component label per vertex (BFS; labels are 0-based, dense)."""
        labels = -np.ones(self.n, dtype=np.int64)
        comp = 0
        for start in range(self.n):
            if labels[start] >= 0:
                continue
            frontier = np.array([start], dtype=np.int64)
            labels[start] = comp
            while len(frontier):
                nxt = []
                for u in frontier:
                    nb = self.neighbors(int(u))
                    fresh = nb[labels[nb] < 0]
                    labels[fresh] = comp
                    nxt.append(fresh)
                frontier = np.concatenate(nxt) if nxt else np.zeros(0, dtype=np.int64)
            comp += 1
        return labels

    def memory_bytes(self) -> int:
        """Resident bytes of the CSR arrays (for the cost model)."""
        return self.indptr.nbytes + self.indices.nbytes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" {self.name!r}" if self.name else ""
        return f"CSRGraph(n={self.n}, m={self.num_edges}{label})"


def graph_sha(graph: CSRGraph) -> str:
    """Content identity of a CSR graph: sha256 over ``(n, indptr, indices)``.

    CSR construction canonicalizes edge order (sorted rows, deduped,
    both orientations), so two graphs built from the same edge set in
    any order hash identically — the property the service result cache
    and a checkpoint's stage identity rely on.
    """
    h = hashlib.sha256()
    h.update(str(int(graph.n)).encode())
    h.update(b"|")
    h.update(graph.indptr.tobytes())
    h.update(b"|")
    h.update(graph.indices.tobytes())
    return h.hexdigest()
