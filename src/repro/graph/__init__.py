"""Graph substrate: storage, generators, partitioning, tree templates.

Everything MIDAS needs from a graph is (a) a CSR adjacency it can sum
neighbour DP values through (slot by slot: :class:`JaggedDiagonals`), and (b) a partition into ``N_1`` parts with the
load/degree metrics that Theorem 2 of the paper bounds runtime in terms of.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "csr": ("CSRGraph", "JaggedDiagonals", "xor_segment_reduce"),
    "datasets": ("DATASETS", "DatasetSpec", "load_dataset"),
    "generators": ("barabasi_albert", "chung_lu", "erdos_renyi", "grid2d",
                   "miami_like", "orkut_like", "plant_clique", "plant_cluster",
                   "plant_path", "plant_tree", "random_tree_graph", "watts_strogatz"),
    "partition": ("Partition", "bfs_partition", "block_partition", "greedy_partition",
                  "random_partition", "make_partition"),
    "templates": ("TreeTemplate", "SubtreeSpec", "decompose_template"),
})
