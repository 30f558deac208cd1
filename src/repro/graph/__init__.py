"""Graph substrate: storage, generators, partitioning, tree templates.

Everything MIDAS needs from a graph is (a) a CSR adjacency it can sum
neighbour DP values through (slot by slot: :class:`JaggedDiagonals`), and (b) a partition into ``N_1`` parts with the
load/degree metrics that Theorem 2 of the paper bounds runtime in terms of.
"""

from repro.graph.csr import CSRGraph, JaggedDiagonals, xor_segment_reduce
from repro.graph.datasets import DATASETS, DatasetSpec, load_dataset
from repro.graph.generators import (
    barabasi_albert,
    chung_lu,
    erdos_renyi,
    grid2d,
    miami_like,
    orkut_like,
    plant_clique,
    plant_cluster,
    plant_path,
    plant_tree,
    random_tree_graph,
    watts_strogatz,
)
from repro.graph.partition import (
    Partition,
    bfs_partition,
    block_partition,
    greedy_partition,
    random_partition,
    make_partition,
)
from repro.graph.templates import TreeTemplate, SubtreeSpec, decompose_template

__all__ = [
    "CSRGraph",
    "JaggedDiagonals",
    "xor_segment_reduce",
    "DATASETS",
    "DatasetSpec",
    "load_dataset",
    "barabasi_albert",
    "chung_lu",
    "erdos_renyi",
    "grid2d",
    "miami_like",
    "orkut_like",
    "plant_clique",
    "plant_cluster",
    "plant_path",
    "plant_tree",
    "random_tree_graph",
    "watts_strogatz",
    "Partition",
    "bfs_partition",
    "block_partition",
    "greedy_partition",
    "random_partition",
    "make_partition",
    "TreeTemplate",
    "SubtreeSpec",
    "decompose_template",
]
