"""Tests for edge-list I/O and the Table II dataset registry."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph.csr import CSRGraph
from repro.graph.datasets import DATASETS, load_dataset, table2_rows
from repro.graph.generators import erdos_renyi
from repro.graph.io import read_edge_list, write_edge_list
from repro.util.rng import RngStream


class TestEdgeListIO:
    def test_roundtrip(self, tmp_path):
        g = erdos_renyi(40, m=60, rng=RngStream(0))
        p = tmp_path / "g.txt"
        write_edge_list(g, p)
        h = read_edge_list(p, n=g.n)
        assert np.array_equal(g.edges(), h.edges())

    def test_roundtrip_gzip(self, tmp_path):
        g = erdos_renyi(30, m=40, rng=RngStream(1))
        p = tmp_path / "g.txt.gz"
        write_edge_list(g, p, header="synthetic test graph")
        h = read_edge_list(p, n=g.n)
        assert h.num_edges == g.num_edges

    def test_compaction_without_n(self, tmp_path):
        p = tmp_path / "sparse_ids.txt"
        p.write_text("# comment\n100 200\n200 300\n")
        g = read_edge_list(p)
        assert g.n == 3
        assert g.num_edges == 2

    def test_comments_and_percent(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("% matrix-market style\n# snap style\n0 1\n\n1 2\n")
        g = read_edge_list(p, n=3)
        assert g.num_edges == 2

    def test_malformed_rejected(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("0\n")
        with pytest.raises(GraphError, match="expected"):
            read_edge_list(p)


class TestDatasets:
    def test_registry_has_paper_rows(self):
        assert set(DATASETS) == {"miami", "com-Orkut", "random-1e6", "random-1e7"}
        assert DATASETS["com-Orkut"].paper_edges == 234_300_000
        assert DATASETS["random-1e6"].paper_nodes == 1_000_000
        # the random family is exactly reproducible: m = n ln n
        for name in ("random-1e6", "random-1e7"):
            n = DATASETS[name].paper_nodes
            assert DATASETS[name].paper_edges == pytest.approx(n * np.log(n), rel=0.02)

    def test_load_scaled(self):
        g = load_dataset("random-1e6", scale=0.002, rng=RngStream(2))
        assert 1900 <= g.n <= 2100
        # density should track n ln n
        assert abs(g.num_edges - g.n * np.log(g.n)) / g.num_edges < 0.05

    def test_unknown_rejected(self):
        with pytest.raises(GraphError):
            load_dataset("twitter")

    def test_bad_scale_rejected(self):
        with pytest.raises(GraphError):
            load_dataset("miami", scale=0)

    def test_table2_rows_paper_columns(self):
        rows = list(table2_rows())
        assert len(rows) == 4
        orkut = next(r for r in rows if r["dataset"] == "com-Orkut")
        assert orkut["paper_nodes_x1e6"] == pytest.approx(3.1)
        assert orkut["paper_edges_x1e6"] == pytest.approx(234.3)

    def test_table2_rows_generated(self):
        rows = list(table2_rows(scale=0.001, rng=RngStream(3)))
        for r in rows:
            assert r["generated_nodes"] >= 16
            assert r["generated_edges"] > 0
        # the stand-ins keep the paper's density ordering
        dens = {r["dataset"]: r["generated_avg_degree"] for r in rows}
        assert dens["com-Orkut"] > dens["miami"] > dens["random-1e6"]

    def test_deterministic_given_seed(self):
        a = load_dataset("miami", scale=0.002, rng=RngStream(5))
        b = load_dataset("miami", scale=0.002, rng=RngStream(5))
        assert a.num_edges == b.num_edges
