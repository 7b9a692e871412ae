"""Tests for the Device model."""

import networkx as nx
import pytest

from repro.devices import DEFAULT_COUPLING_GHZ, Device, TransmonParams, linear_graph
from repro.graph import Graph


class TestConstruction:
    def test_grid_factory(self, device16):
        assert device16.num_qubits == 16
        assert device16.graph.number_of_edges() == 24
        assert not device16.tunable_couplers

    def test_seeded_construction_is_reproducible(self):
        a = Device.grid(9, seed=42)
        b = Device.grid(9, seed=42)
        assert [q.params.omega_max for q in a.qubits] == [q.params.omega_max for q in b.qubits]

    def test_different_seeds_differ(self):
        a = Device.grid(9, seed=1)
        b = Device.grid(9, seed=2)
        assert [q.params.omega_max for q in a.qubits] != [q.params.omega_max for q in b.qubits]

    def test_omega_max_sampling_near_mean(self):
        device = Device.grid(25, omega_max_mean=6.5, omega_max_std=0.05, seed=3)
        values = [q.params.omega_max for q in device.qubits]
        assert 6.3 < sum(values) / len(values) < 6.7

    def test_from_topology_name(self):
        device = Device.from_topology_name("1EX-3", 9, seed=0)
        assert device.num_qubits == 9
        assert device.name.startswith("1EX-3")

    def test_from_graph_relabels_nodes(self):
        graph = Graph([("c", "d"), ("a", "b"), ("b", "c")])
        device = Device.from_graph(graph, seed=0)
        assert list(device.graph.nodes) == [2, 3, 0, 1]
        assert device.edges() == [(0, 1), (1, 2), (2, 3)]

    def test_from_graph_accepts_a_networkx_graph(self):
        graph = nx.relabel_nodes(nx.path_graph(4), {0: "a", 1: "b", 2: "c", 3: "d"})
        device = Device.from_graph(graph, seed=0)
        assert device.edges() == Device.from_graph(linear_graph(4), seed=0).edges()

    def test_base_params_are_propagated(self):
        base = TransmonParams(t1_ns=5000.0, t2_ns=6000.0)
        device = Device.grid(4, base_params=base, seed=0)
        assert all(q.params.t1_ns == 5000.0 for q in device.qubits)

    def test_missing_coupling_rejected(self, device4):
        with pytest.raises(ValueError):
            Device(graph=device4.graph, qubits=device4.qubits, couplings={})


class TestQueries:
    def test_edges_are_sorted_pairs(self, device9):
        for a, b in device9.edges():
            assert a < b

    def test_neighbors(self, device9):
        assert device9.neighbors(4) == [1, 3, 5, 7]

    def test_coupling_strength_default(self, device9):
        assert device9.coupling_strength(0, 1) == pytest.approx(DEFAULT_COUPLING_GHZ)

    def test_coupling_strength_unknown_pair_raises(self, device9):
        with pytest.raises(KeyError):
            device9.coupling_strength(0, 8)

    def test_distance(self, device9):
        assert device9.distance(0, 8) == 4
        assert device9.distance(0, 1) == 1

    def test_distance_between_components_raises_value_error(self):
        device = Device.from_graph(Graph([(0, 1), (2, 3)]), seed=0)
        with pytest.raises(ValueError, match="qubits 0 and 3 are not connected"):
            device.distance(0, 3)

    def test_common_tunable_range_is_intersection(self, device9):
        low, high = device9.common_tunable_range()
        assert low == pytest.approx(max(q.tunable_range[0] for q in device9.qubits))
        assert high == pytest.approx(min(q.tunable_range[1] for q in device9.qubits))
        assert low < high

    def test_coordinates_on_grid(self, device9):
        coords = device9.coordinates()
        assert coords is not None
        assert coords[4] == (1, 1)

    def test_coordinates_on_non_square_device(self):
        device = Device.from_graph(linear_graph(5), seed=0)
        assert device.coordinates() is None

    def test_with_tunable_couplers(self, device4):
        gmon = device4.with_tunable_couplers()
        assert gmon.tunable_couplers
        assert not device4.tunable_couplers
        assert gmon.num_qubits == device4.num_qubits
