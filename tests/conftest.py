"""Shared fixtures and brute-force oracles for the test-suite.

The oracles here are deliberately naive (DFS enumeration) — they define
ground truth on small graphs that the Monte Carlo algorithms are checked
against.  Detection tests exploit one-sidedness: a "found" answer must
always be backed by the oracle; "not found" answers are only checked
statistically (with generous seeds) because false negatives are allowed at
rate eps.
"""

from __future__ import annotations

import itertools
import sys

import numpy as np
import pytest

from repro.graph.csr import CSRGraph
from repro.graph.generators import erdos_renyi, grid2d
from repro.util.rng import RngStream


@pytest.fixture(autouse=True)
def _no_warm_fleet():
    """Every test starts without the interpreter's warm process fleet.

    ``mode="process"`` keeps one fleet alive between calls
    (``repro.core.process_backend.fleet``); a test that counts child
    processes or ``/dev/shm`` segments must not see one a previous test
    left warm.
    """
    yield
    backend = sys.modules.get("repro.core.process_backend")
    if backend is not None:
        backend.close_fleet()


@pytest.fixture
def rng():
    return RngStream(20260706, name="test")


@pytest.fixture
def small_er():
    """A 60-node sparse random graph (fixed seed)."""
    return erdos_renyi(60, m=110, rng=RngStream(101))


@pytest.fixture
def tiny_grid():
    return grid2d(3, 4)


@pytest.fixture
def star_graph():
    """A star: has 3-paths but no 4-path."""
    return CSRGraph.from_edges(12, [(0, i) for i in range(1, 12)], name="star12")


# ---------------------------------------------------------------- oracles
def count_path_mappings(graph: CSRGraph, k: int) -> int:
    """Number of ordered simple paths on k vertices (each path counted twice
    for k >= 2, once per direction)."""
    if k == 1:
        return graph.n
    count = 0

    def dfs(path):
        nonlocal count
        if len(path) == k:
            count += 1
            return
        for u in graph.neighbors(path[-1]):
            if u not in path:
                dfs(path + [int(u)])

    for s in range(graph.n):
        dfs([s])
    return count


def has_k_path(graph: CSRGraph, k: int) -> bool:
    if k == 1:
        return graph.n > 0

    found = False

    def dfs(path):
        nonlocal found
        if found:
            return
        if len(path) == k:
            found = True
            return
        for u in graph.neighbors(path[-1]):
            if not found and u not in path:
                dfs(path + [int(u)])

    for s in range(graph.n):
        if found:
            break
        dfs([s])
    return found


def count_tree_mappings(graph: CSRGraph, template) -> int:
    """Number of injective homomorphisms of the template into the graph."""
    k = template.k
    # order template nodes so each (after the first) attaches to a placed one
    order = [template.root]
    placed = {template.root}
    attach = {}
    while len(order) < k:
        for a, b in template.edges:
            if a in placed and b not in placed:
                attach[b] = a
                order.append(b)
                placed.add(b)
            elif b in placed and a not in placed:
                attach[a] = b
                order.append(a)
                placed.add(a)
    count = 0

    def rec(pos, mapping):
        nonlocal count
        if pos == k:
            count += 1
            return
        t = order[pos]
        host = mapping[attach[t]]
        for u in graph.neighbors(host):
            u = int(u)
            if u not in mapping.values():
                mapping[t] = u
                rec(pos + 1, mapping)
                del mapping[t]

    for v in range(graph.n):
        rec(1, {template.root: v})
    return count


def connected_subgraph_cells(graph: CSRGraph, weights: np.ndarray, k: int):
    """All realizable (size, total weight) cells, by exhaustive enumeration."""
    nxg = graph.to_networkx()
    import networkx as nx

    cells = set()
    nodes = list(range(graph.n))
    for size in range(1, k + 1):
        for combo in itertools.combinations(nodes, size):
            sub = nxg.subgraph(combo)
            if nx.is_connected(sub):
                cells.add((size, int(np.asarray(weights)[list(combo)].sum())))
    return cells
