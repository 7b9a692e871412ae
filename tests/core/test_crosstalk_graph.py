"""Tests for crosstalk-graph construction (Algorithm 2)."""

import pytest

from oracles import active_subgraph
from repro.core import (
    build_crosstalk_graph,
    crosstalk_neighbours,
    mesh_crosstalk_chromatic_bound,
    welsh_powell_coloring,
    num_colors,
    validate_coloring,
)
from repro.devices import grid_graph, linear_graph


class TestConstruction:
    def test_vertices_are_device_couplings(self):
        mesh = grid_graph(9)
        crosstalk = build_crosstalk_graph(mesh)
        assert crosstalk.number_of_nodes() == mesh.number_of_edges()
        assert all(isinstance(v, tuple) and v[0] < v[1] for v in crosstalk.nodes)

    def test_contains_line_graph_edges(self):
        mesh = grid_graph(9)
        crosstalk = build_crosstalk_graph(mesh)
        # Couplings sharing qubit 1 must conflict.
        assert crosstalk.has_edge((0, 1), (1, 2))
        assert crosstalk.has_edge((0, 1), (1, 4))

    def test_distance_one_neighbour_couplings_conflict(self):
        mesh = grid_graph(16)
        crosstalk = build_crosstalk_graph(mesh, distance=1)
        # (0,1) and (2,3): endpoints 1 and 2 are adjacent -> conflict.
        assert crosstalk.has_edge((0, 1), (2, 3))
        # (0,1) and (8,9): closest endpoints are two hops apart -> no conflict.
        assert not crosstalk.has_edge((0, 1), (8, 9))

    def test_distance_two_graph_is_denser(self):
        mesh = grid_graph(16)
        d1 = build_crosstalk_graph(mesh, distance=1)
        d2 = build_crosstalk_graph(mesh, distance=2)
        assert d2.number_of_edges() > d1.number_of_edges()
        assert set(d1.edges) <= set(d2.edges)
        assert d2.has_edge((0, 1), (8, 9))

    def test_invalid_distance_rejected(self):
        with pytest.raises(ValueError):
            build_crosstalk_graph(grid_graph(4), distance=0)

    def test_linear_chain_crosstalk(self):
        chain = linear_graph(5)
        crosstalk = build_crosstalk_graph(chain)
        assert crosstalk.has_edge((0, 1), (1, 2))
        assert crosstalk.has_edge((0, 1), (2, 3))
        assert not crosstalk.has_edge((0, 1), (3, 4))


class TestColoringOfMesh:
    def test_mesh_crosstalk_graph_needs_few_colors(self):
        """Fig. 7: a small, size-independent number of colors suffices."""
        mesh = grid_graph(25)
        crosstalk = build_crosstalk_graph(mesh)
        coloring = welsh_powell_coloring(crosstalk)
        assert validate_coloring(crosstalk, coloring)
        assert num_colors(coloring) <= mesh_crosstalk_chromatic_bound() + 2

    def test_color_count_does_not_grow_with_mesh_size(self):
        """Crosstalk is localised: crowding does not worsen with device size."""
        counts = []
        for n in (16, 25, 36):
            crosstalk = build_crosstalk_graph(grid_graph(n))
            counts.append(num_colors(welsh_powell_coloring(crosstalk)))
        assert max(counts) - min(counts) <= 1

    def test_connectivity_graph_of_mesh_is_two_colorable(self):
        coloring = welsh_powell_coloring(grid_graph(25))
        assert num_colors(coloring) == 2


class TestActiveSubgraph:
    def test_subgraph_restricts_to_active_couplings(self):
        crosstalk = build_crosstalk_graph(grid_graph(16))
        active = [(0, 1), (2, 3), (8, 9)]
        sub = active_subgraph(crosstalk, active)
        assert set(sub.nodes) == set(active)
        assert sub.has_edge((0, 1), (2, 3))
        assert not sub.has_edge((0, 1), (8, 9))

    def test_unknown_coupling_rejected(self):
        crosstalk = build_crosstalk_graph(grid_graph(9))
        with pytest.raises(KeyError):
            active_subgraph(crosstalk, [(0, 8)])

    def test_neighbours_lookup(self):
        crosstalk = build_crosstalk_graph(grid_graph(9))
        neighbours = crosstalk_neighbours(crosstalk, (1, 0))
        assert (1, 2) in neighbours
        with pytest.raises(KeyError):
            crosstalk_neighbours(crosstalk, (0, 8))
