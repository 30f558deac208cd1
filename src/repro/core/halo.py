"""Per-rank partitioned graph views with halo (ghost) exchange lists.

Algorithm 3's message pattern is: after each DP level, every vertex with a
neighbour on another processor sends its fresh polynomial value there.  A
:class:`HaloView` precomputes, for one rank:

* ``own`` — the global ids this rank owns (its partition part, sorted);
* ``ghost`` — global ids of off-part neighbours of owned vertices;
* a local CSR over owned rows whose column indices point into the
  concatenated ``[own | ghost]`` local id space — so a DP level is the same
  neighbour sum as the sequential kernel (:meth:`HaloView.jagged`), just
  on local arrays;
* ``send_lists[peer]`` — positions (into ``own``) of the vertices whose
  values must go to ``peer`` each level;
* ``recv_lists[peer]`` — positions (into ``ghost``) where values arriving
  from ``peer`` land;
* both kinds of list concatenated in peer order (:meth:`HaloView.flat_lists`),
  so an exchange is one gather of every outgoing row and one scatter of
  every arriving one.

Both sides order a given peer's list by global vertex id, so a received
buffer scatters with one fancy-indexed assignment and the exchange is
deterministic.  All views are built together from whole-graph arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.errors import PartitionError
from repro.graph.csr import CSRGraph, JaggedDiagonals
from repro.graph.partition import Partition


@dataclass
class HaloView:
    """One rank's local slice of a partitioned graph (see module docs)."""

    rank: int
    own: np.ndarray  # (n_own,) global ids, sorted
    ghost: np.ndarray  # (n_ghost,) global ids, sorted
    indptr: np.ndarray  # (n_own + 1,) local CSR
    indices: np.ndarray  # local column ids: < n_own own, >= n_own ghost
    send_lists: Dict[int, np.ndarray]  # peer -> positions into own
    recv_lists: Dict[int, np.ndarray]  # peer -> positions into ghost

    @property
    def n_own(self) -> int:
        return len(self.own)

    @property
    def n_ghost(self) -> int:
        return len(self.ghost)

    @property
    def n_local(self) -> int:
        return self.n_own + self.n_ghost

    @property
    def peers(self) -> List[int]:
        """Ranks this rank exchanges halo data with, sorted."""
        return sorted(set(self.send_lists) | set(self.recv_lists))

    def boundary_out_entries(self) -> int:
        """Total (vertex, peer) send slots per level — the modeled message volume."""
        return sum(len(v) for v in self.send_lists.values())

    def split_adjacency(self):
        """Split the local CSR into local-column and ghost-column halves.

        Returns ``(indptr_own, indices_own, indptr_ghost, indices_ghost)``
        where the *own* half keeps column ids into ``own`` (< n_own) and
        the *ghost* half's ids are re-based into ``ghost`` (0-based).

        Because GF addition is XOR, a row's neighbour sum decomposes as
        ``reduce(own half) XOR reduce(ghost half)`` — the own half can be
        computed before any message arrives, which is what the
        communication-overlapping evaluator exploits.  Computed lazily and
        cached on the instance.
        """
        cached = getattr(self, "_split", None)
        if cached is not None:
            return cached
        n_own = self.n_own
        is_own = self.indices < n_own
        counts_own = np.zeros(n_own, dtype=np.int64)
        counts_ghost = np.zeros(n_own, dtype=np.int64)
        row_of = np.repeat(np.arange(n_own), np.diff(self.indptr))
        np.add.at(counts_own, row_of[is_own], 1)
        np.add.at(counts_ghost, row_of[~is_own], 1)
        indptr_own = np.zeros(n_own + 1, dtype=np.int64)
        np.cumsum(counts_own, out=indptr_own[1:])
        indptr_ghost = np.zeros(n_own + 1, dtype=np.int64)
        np.cumsum(counts_ghost, out=indptr_ghost[1:])
        # within-row order is preserved by the stable boolean selection
        indices_own = self.indices[is_own]
        indices_ghost = self.indices[~is_own] - n_own
        split = (indptr_own, indices_own, indptr_ghost, indices_ghost)
        object.__setattr__(self, "_split", split)
        return split

    def jagged(self) -> JaggedDiagonals:
        """The local CSR laid out for ``neighbour_sum`` over the
        ``[own | ghost]`` buffer; built on first use and kept."""
        cached = getattr(self, "_jagged", None)
        if cached is None:
            cached = JaggedDiagonals(self.indptr, self.indices)
            object.__setattr__(self, "_jagged", cached)
        return cached

    def flat_lists(self):
        """``(send, slices, recv)``: the send lists concatenated in peer
        order (one gather takes every outgoing row) with each peer's slice
        of them, and the receive lists concatenated in peer order (one
        scatter lands every ghost row); built on first use and kept."""
        cached = getattr(self, "_flat", None)
        if cached is None:
            empty = np.zeros(0, np.int64)
            ends = np.cumsum([len(v) for v in self.send_lists.values()]).tolist()
            cached = (np.concatenate([empty, *self.send_lists.values()]),
                      [slice(a, b) for a, b in zip([0] + ends, ends)],
                      np.concatenate([empty, *self.recv_lists.values()]))
            object.__setattr__(self, "_flat", cached)
        return cached

    def split_jagged(self):
        """``(own half, ghost half)`` of :meth:`split_adjacency`, each laid
        out for ``neighbour_sum`` (over the own rows and over the ghost
        rows alone); built on first use and kept."""
        cached = getattr(self, "_split_jagged", None)
        if cached is None:
            iptr_own, idx_own, iptr_ghost, idx_ghost = self.split_adjacency()
            cached = (JaggedDiagonals(iptr_own, idx_own),
                      JaggedDiagonals(iptr_ghost, idx_ghost))
            object.__setattr__(self, "_split_jagged", cached)
        return cached


def build_halo_views(graph: CSRGraph, partition: Partition) -> List[HaloView]:
    """Build every rank's :class:`HaloView` from whole-graph arrays: one
    sort of the (receiver, vertex) halo pairs and one stable regrouping
    per side, then each rank's and each peer's slice of them."""
    # imported here, not at module top: repro.obs must stay import-light
    # from the hot core modules (see obs.metrics module docs)
    import time

    from repro.obs.metrics import get_default_registry

    if partition.graph is not graph and partition.graph.n != graph.n:
        raise PartitionError("partition does not match graph")
    t0 = time.perf_counter()
    p, n = partition.n_parts, graph.n
    owner = partition.owner
    e = graph.edges()
    ou = owner[e[:, 0]]
    ov = owner[e[:, 1]]
    cut = ou != ov

    # (dst_rank, vertex) pairs, unique and sorted: each endpoint of a cut
    # edge must be sent to the other endpoint's owner, and a rank's pairs
    # are its ghosts in order
    pairs = np.sort(np.concatenate([ov[cut], ou[cut]]).astype(np.int64) * n
                    + np.concatenate([e[cut, 0], e[cut, 1]]))
    pairs = pairs[np.diff(pairs, prepend=-1) != 0]
    send_to, send_v = pairs // n, pairs % n
    send_from = owner[send_v]
    ghost_start = np.concatenate([[0], np.cumsum(np.bincount(send_to, minlength=p))])

    # vertices by (owner, id): each rank's own rows, and their positions
    order = np.argsort(owner, kind="stable")
    n_own = np.bincount(owner, minlength=p)
    own_start = np.concatenate([[0], np.cumsum(n_own)])
    own_pos = np.empty(n, dtype=np.int64)
    own_pos[order] = np.arange(n) - own_start[owner[order]]

    # every rank's local CSR back to back, its neighbour lists gathered by
    # one index: a column is an own position, or n_own + a ghost position
    deg = np.diff(graph.indptr)[order]
    ptr = np.concatenate([[0], np.cumsum(deg)])
    cols = graph.indices[np.repeat(graph.indptr[order] - ptr[:-1], deg)
                         + np.arange(ptr[-1])]
    rank = np.repeat(owner[order], deg)
    foreign, key = owner[cols] != rank, rank * n + cols
    at = np.searchsorted(pairs, key)
    if np.any(pairs.take(at[foreign], mode="clip") != key[foreign]):  # pragma: no cover
        raise PartitionError("halo construction missed a neighbour (internal error)")
    local_cols = np.where(foreign, n_own[rank] - ghost_start[rank] + at, own_pos[cols])

    def lists(rank, peer, values):
        """``[{peer: values}]`` a rank, peers ascending, each list in the
        pairs' (vertex) order."""
        by = np.argsort(rank * p + peer, kind="stable")
        key, values = (rank * p + peer)[by], values[by]
        starts = np.flatnonzero(np.diff(key, prepend=-1))
        ends = np.append(starts[1:], len(key))
        out = [{} for _ in range(p)]
        for k, a, b in zip(key[starts].tolist(), starts.tolist(), ends.tolist()):
            out[k // p][k % p] = values[a:b]
        return out

    # send lists: positions into own, ordered by global id (matching the
    # receiver's sorted ghost layout); recv lists: where each peer's
    # buffer lands in the ghost array
    send_lists = lists(send_from, send_to, own_pos[send_v])
    recv_lists = lists(send_to, send_from, np.arange(len(pairs)) - ghost_start[send_to])
    views: List[HaloView] = []
    for r in range(p):
        lo, hi = own_start[r], own_start[r + 1]
        views.append(HaloView(
            rank=r, own=order[lo:hi], ghost=send_v[ghost_start[r]:ghost_start[r + 1]],
            indptr=ptr[lo:hi + 1] - ptr[lo], indices=local_cols[ptr[lo]:ptr[hi]],
            send_lists=send_lists[r], recv_lists=recv_lists[r],
        ))

    reg = get_default_registry()
    reg.counter("midas_halo_builds_total", "Halo-view constructions").inc()
    reg.histogram(
        "midas_halo_build_seconds", "Wall time of build_halo_views"
    ).labels(n1=p).observe(time.perf_counter() - t0)
    reg.gauge(
        "midas_halo_ghost_nodes", "Total ghost slots across ranks (last build)"
    ).labels(n1=p).set(sum(v.n_ghost for v in views))
    reg.gauge(
        "midas_halo_boundary_nodes", "Distinct boundary vertices (last build)"
    ).labels(n1=p).set(int(np.count_nonzero(np.bincount(send_v, minlength=n))))
    return views
