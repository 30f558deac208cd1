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
  from ``peer`` land.

Both sides order a given peer's list by global vertex id, so a received
buffer scatters with one fancy-indexed assignment and the exchange is
deterministic.  All views are built in one pass over the edge list.
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
    """Build every rank's :class:`HaloView` in one pass over the edges."""
    # imported here, not at module top: repro.obs must stay import-light
    # from the hot core modules (see obs.metrics module docs)
    import time

    from repro.obs.metrics import get_default_registry

    if partition.graph is not graph and partition.graph.n != graph.n:
        raise PartitionError("partition does not match graph")
    t0 = time.perf_counter()
    p = partition.n_parts
    owner = partition.owner
    e = graph.edges()
    ou = owner[e[:, 0]]
    ov = owner[e[:, 1]]
    cut = ou != ov

    # (vertex, dst_rank) pairs: each endpoint of a cut edge must be sent to
    # the other endpoint's owner.
    send_v = np.concatenate([e[cut, 0], e[cut, 1]])
    send_to = np.concatenate([ov[cut], ou[cut]])
    if len(send_v):
        key = send_v * p + send_to
        uniq = np.unique(key)
        send_v = uniq // p
        send_to = uniq % p
    views: List[HaloView] = []
    for r in range(p):
        own = partition.part_nodes(r)
        pos_of_global = -np.ones(graph.n, dtype=np.int64)
        pos_of_global[own] = np.arange(len(own))

        # ghosts of r: vertices sent *to* r
        mask_in = send_to == r
        ghost = np.sort(send_v[mask_in])
        ghost_pos = {}
        if len(ghost):
            pos_of_global[ghost] = len(own) + np.arange(len(ghost))

        # local CSR over own rows
        deg = graph.indptr[own + 1] - graph.indptr[own]
        indptr = np.zeros(len(own) + 1, dtype=np.int64)
        np.cumsum(deg, out=indptr[1:])
        cols = np.empty(indptr[-1], dtype=np.int64)
        for li, g in enumerate(own):
            cols[indptr[li] : indptr[li + 1]] = graph.indices[
                graph.indptr[g] : graph.indptr[g + 1]
            ]
        local_cols = pos_of_global[cols]
        if np.any(local_cols < 0):  # pragma: no cover - invariant
            raise PartitionError("halo construction missed a neighbour (internal error)")

        # send lists: my vertices that must go to each peer, ordered by
        # global id (matching the receiver's sorted ghost layout)
        mask_out = (owner[send_v] == r) if len(send_v) else np.zeros(0, dtype=bool)
        sv = send_v[mask_out]
        st = send_to[mask_out]
        send_lists: Dict[int, np.ndarray] = {}
        for peer in np.unique(st):
            vs = np.sort(sv[st == peer])
            send_lists[int(peer)] = pos_of_global[vs]  # positions into own

        # recv lists: where each peer's (sorted) buffer lands in my ghost array
        recv_lists: Dict[int, np.ndarray] = {}
        gv = send_v[mask_in]
        gfrom = owner[gv] if len(gv) else np.zeros(0, dtype=np.int64)
        for peer in np.unique(gfrom):
            vs = np.sort(gv[gfrom == peer])
            recv_lists[int(peer)] = pos_of_global[vs] - len(own)  # positions into ghost

        views.append(
            HaloView(
                rank=r,
                own=own,
                ghost=ghost,
                indptr=indptr,
                indices=local_cols,
                send_lists=send_lists,
                recv_lists=recv_lists,
            )
        )

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
    ).labels(n1=p).set(int(len(np.unique(send_v))) if len(send_v) else 0)
    return views
