"""Routing tests: after SWAP insertion every two-qubit gate must be local."""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from oracles import as_networkx
from repro.circuits import Circuit, initial_layout, route_circuit
from repro.devices import grid_graph, linear_graph
from repro.graph import Graph


def _check_routed(routed, coupling):
    for gate in routed.circuit:
        if gate.is_two_qubit:
            assert coupling.has_edge(*gate.qubits), gate


class TestInitialLayout:
    def test_layout_is_injective(self):
        circuit = Circuit(4).cx(0, 1).cx(2, 3).cx(0, 3)
        layout = initial_layout(circuit, grid_graph(9))
        assert len(set(layout.values())) == len(layout)

    def test_layout_covers_all_logical_qubits(self):
        circuit = Circuit(5).cx(0, 4)
        layout = initial_layout(circuit, grid_graph(9))
        assert set(layout.keys()) == set(range(5))

    def test_too_many_qubits_raises(self):
        circuit = Circuit(10).h(9)
        with pytest.raises(ValueError):
            initial_layout(circuit, grid_graph(9))

    def test_interacting_qubits_are_placed_adjacently_when_possible(self):
        circuit = Circuit(2).cx(0, 1).cx(0, 1).cx(0, 1)
        coupling = grid_graph(9)
        layout = initial_layout(circuit, coupling)
        assert nx.shortest_path_length(as_networkx(coupling), layout[0], layout[1]) == 1


class TestRouting:
    def test_local_circuit_needs_no_swaps(self):
        coupling = linear_graph(3)
        circuit = Circuit(3).cx(0, 1).cx(1, 2)
        routed = route_circuit(circuit, coupling, layout={0: 0, 1: 1, 2: 2})
        assert routed.num_swaps == 0
        _check_routed(routed, coupling)

    def test_distant_gate_inserts_swaps(self):
        coupling = linear_graph(4)
        circuit = Circuit(4).cx(0, 3)
        routed = route_circuit(circuit, coupling, layout={i: i for i in range(4)})
        assert routed.num_swaps >= 1
        _check_routed(routed, coupling)

    def test_unreachable_qubits_raise_value_error(self):
        coupling = Graph([(0, 1), (2, 3)])
        circuit = Circuit(4).cx(0, 3)
        with pytest.raises(ValueError, match="physical qubits 0 and 3 are not connected"):
            route_circuit(circuit, coupling, layout={i: i for i in range(4)})

    def test_single_qubit_gates_follow_the_layout(self):
        coupling = linear_graph(3)
        circuit = Circuit(2).h(0).h(1)
        routed = route_circuit(circuit, coupling, layout={0: 2, 1: 0})
        assert {g.qubits[0] for g in routed.circuit} == {0, 2}

    def test_final_layout_tracks_swaps(self):
        coupling = linear_graph(3)
        circuit = Circuit(2).cx(0, 1)
        routed = route_circuit(circuit, coupling, layout={0: 0, 1: 2})
        _check_routed(routed, coupling)
        assert set(routed.final_layout.values()) <= set(coupling.nodes)
        assert len(set(routed.final_layout.values())) == 2

    def test_gate_count_preserved_modulo_swaps(self):
        coupling = linear_graph(5)
        circuit = Circuit(5).cx(0, 4).h(2).cx(1, 3)
        routed = route_circuit(circuit, coupling)
        non_swap = [g for g in routed.circuit if g.name != "swap"]
        assert len(non_swap) == len(circuit)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 500))
    def test_random_circuits_route_onto_linear_chain(self, seed):
        import random

        rng = random.Random(seed)
        circuit = Circuit(5)
        for _ in range(12):
            a, b = rng.sample(range(5), 2)
            circuit.cx(a, b)
        coupling = linear_graph(6)
        routed = route_circuit(circuit, coupling)
        _check_routed(routed, coupling)

    def test_routing_onto_grid_preserves_two_qubit_count_order(self):
        coupling = grid_graph(9)
        circuit = Circuit(4).cx(0, 3).cx(1, 2).cx(0, 2)
        routed = route_circuit(circuit, coupling)
        _check_routed(routed, coupling)
        routed_cx = [g for g in routed.circuit if g.name == "cx"]
        assert len(routed_cx) == 3
