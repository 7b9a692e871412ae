"""Tests for the connectivity-graph generators."""


import networkx as nx
import pytest

from oracles import as_networkx
from repro.devices import (
    FIG13_TOPOLOGY_NAMES,
    all_to_all_graph,
    express_1d,
    express_2d,
    grid_coordinates,
    grid_graph,
    heavy_hex_graph,
    linear_graph,
    ring_graph,
    topology_by_name,
)


class TestGrid:
    @pytest.mark.parametrize("n,edges", [(4, 4), (9, 12), (16, 24), (25, 40)])
    def test_grid_edge_count(self, n, edges):
        graph = grid_graph(n)
        assert graph.number_of_nodes() == n
        assert graph.number_of_edges() == edges

    def test_grid_is_bipartite(self):
        assert nx.is_bipartite(as_networkx(grid_graph(25)))

    def test_grid_requires_square(self):
        with pytest.raises(ValueError):
            grid_graph(12)

    def test_grid_coordinates(self):
        coords = grid_coordinates(9)
        assert coords[0] == (0, 0)
        assert coords[4] == (1, 1)
        assert coords[8] == (2, 2)

    def test_grid_max_degree_is_four(self):
        assert max(dict(grid_graph(25).degree).values()) == 4


class TestLinearAndRing:
    def test_linear_edge_count(self):
        assert linear_graph(10).number_of_edges() == 9

    def test_ring_edge_count(self):
        assert ring_graph(10).number_of_edges() == 10

    def test_linear_is_connected(self):
        assert nx.is_connected(as_networkx(linear_graph(16)))


class TestExpressCubes:
    def test_1d_express_adds_links(self):
        base = linear_graph(16).number_of_edges()
        expressed = express_1d(16, 4).number_of_edges()
        assert expressed > base

    def test_1d_express_density_increases_with_smaller_k(self):
        counts = [express_1d(16, k).number_of_edges() for k in (5, 4, 3, 2)]
        assert counts == sorted(counts)

    def test_2d_express_adds_links(self):
        base = grid_graph(16).number_of_edges()
        expressed = express_2d(16, 2).number_of_edges()
        assert expressed > base

    def test_2d_express_density_increases_with_smaller_k(self):
        counts = [express_2d(25, k).number_of_edges() for k in (4, 3, 2)]
        assert counts == sorted(counts)

    def test_express_requires_k_at_least_two(self):
        with pytest.raises(ValueError):
            express_1d(16, 1)
        with pytest.raises(ValueError):
            express_2d(16, 0)

    def test_express_preserves_node_count(self):
        assert express_1d(16, 3).number_of_nodes() == 16
        assert express_2d(16, 3).number_of_nodes() == 16


class TestOtherTopologies:
    def test_all_to_all(self):
        graph = all_to_all_graph(6)
        assert graph.number_of_edges() == 15

    def test_heavy_hex_has_degree_at_most_three(self):
        graph = heavy_hex_graph(2)
        assert max(dict(graph.degree).values()) <= 3

    def test_heavy_hex_rejects_bad_distance(self):
        with pytest.raises(ValueError):
            heavy_hex_graph(0)


class TestTopologyByName:
    @pytest.mark.parametrize("name", FIG13_TOPOLOGY_NAMES)
    def test_every_fig13_name_builds(self, name):
        graph = topology_by_name(name, 16)
        assert graph.number_of_nodes() == 16
        assert nx.is_connected(as_networkx(graph))

    def test_fig13_density_is_monotone_over_the_name_order(self):
        counts = [topology_by_name(name, 16).number_of_edges() for name in FIG13_TOPOLOGY_NAMES]
        # The express-cube family is ordered from sparse to dense in Fig. 13.
        assert counts[0] == min(counts)
        assert counts[-1] == max(counts)
        assert counts[5] == grid_graph(16).number_of_edges()

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            topology_by_name("torus", 16)

    def test_ring_and_all_to_all_names(self):
        assert topology_by_name("ring", 8).number_of_edges() == 8
        assert topology_by_name("all-to-all", 5).number_of_edges() == 10
