"""Tests for graph generators and the dataset catalog (Table 4 analog)."""

import pytest

from repro.workloads.graph500 import _RMATDataset
from repro.workloads.graphs import (
    CATALOG,
    Dataset,
    dataset,
    power_law_graph,
    rmat_graph,
    road_graph,
    synthetic_dataset,
    uniform_graph,
)


def check_csr(graph):
    assert len(graph.row) == graph.n + 1
    assert graph.row[0] == 0
    assert graph.row[-1] == graph.m
    assert all(a <= b for a, b in zip(graph.row, graph.row[1:]))
    assert all(0 <= v < graph.n for v in graph.col)


class TestGenerators:
    def test_uniform_degree(self):
        graph = uniform_graph(1000, 4.0, seed=1)
        check_csr(graph)
        assert graph.avg_degree == pytest.approx(4.0, rel=0.1)

    def test_power_law_skew(self):
        graph = power_law_graph(2000, 6.0, seed=2)
        check_csr(graph)
        assert graph.avg_degree == pytest.approx(6.0, rel=0.25)
        degrees = sorted(
            (graph.out_degree(u) for u in range(graph.n)), reverse=True
        )
        # Heavy tail: the top vertex far exceeds the average.
        assert degrees[0] > 4 * graph.avg_degree

    def test_road_low_degree_high_locality(self):
        graph = road_graph(2500, seed=3)
        check_csr(graph)
        assert graph.avg_degree < 2.5
        # Most edges connect nearby vertex ids (grid structure).
        local = sum(
            1
            for u in range(graph.n)
            for j in range(graph.row[u], graph.row[u + 1])
            if abs(graph.col[j] - u) <= 51
        )
        assert local / max(graph.m, 1) > 0.9

    def test_rmat_shape(self):
        graph = rmat_graph(scale=8, edgefactor=4, seed=4)
        check_csr(graph)
        assert graph.n == 256
        assert graph.m == 1024
        degrees = sorted(
            (graph.out_degree(u) for u in range(graph.n)), reverse=True
        )
        assert degrees[0] > 3 * graph.avg_degree  # skewed

    def test_determinism(self):
        a = uniform_graph(500, 3.0, seed=9)
        b = uniform_graph(500, 3.0, seed=9)
        assert a.col == b.col
        c = uniform_graph(500, 3.0, seed=10)
        assert a.col != c.col


class TestCatalog:
    def test_all_entries_build(self):
        for name, entry in CATALOG.items():
            graph = entry.build()
            check_csr(graph)
            assert graph.n == entry.vertices
            if entry.kind != "road":
                assert graph.avg_degree == pytest.approx(
                    entry.avg_degree, rel=0.3
                )

    def test_table4_metadata_preserved(self):
        wg = dataset("web-Google")
        assert wg.original_vertices == 875_713
        assert wg.original_edges == 5_105_039
        ca = dataset("roadNet-CA")
        assert ca.original_vertices == 1_965_206

    def test_eight_table4_datasets(self):
        assert len(CATALOG) == 8

    def test_unknown_dataset(self):
        with pytest.raises(KeyError):
            dataset("web-Unknown")

    def test_synthetic_dataset(self):
        entry = synthetic_dataset(1000, 8, seed=5)
        graph = entry.build()
        check_csr(graph)
        assert graph.n == 1000
        assert "synth" in entry.name

    @pytest.mark.parametrize(
        "entry",
        [
            synthetic_dataset(1000, 8, seed=5),
            Dataset("power-small", 1500, 5.5, "power", 11),
            Dataset("road-small", 900, 1.4, "road", 12),
            _RMATDataset(8, 4, seed=13),
        ],
        ids=["uniform", "power", "road", "rmat"],
    )
    def test_shape_matches_the_generated_graph(self, entry):
        # The shape comes from the degree phase alone (road: the full
        # generation); the graph continues that phase's RNG.
        assert entry.shape() == (entry.build().n, entry.build().m)
