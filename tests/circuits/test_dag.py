"""Unit tests for the circuit dependency DAG and criticality analysis.

``build_dag`` is the networkx DAG the oracles keep; production derives the
same dependencies as flat lists (``gate_dependencies``).
"""

import networkx as nx
import pytest

from oracles import build_dag
from repro.circuits import Circuit, criticality, critical_path_length, gate_dependencies


class TestBuildDag:
    def test_bell_dependencies(self, bell_circuit):
        dag = build_dag(bell_circuit)
        assert list(dag.graph.edges) == [(0, 1)]

    def test_independent_gates_have_no_edges(self):
        circuit = Circuit(4).h(0).h(1).h(2).h(3)
        dag = build_dag(circuit)
        assert dag.graph.number_of_edges() == 0

    def test_front_layer(self, ghz4_circuit):
        dag = build_dag(ghz4_circuit)
        assert dag.front_layer() == [0]

    def test_dag_is_acyclic(self, ghz4_circuit):
        dag = build_dag(ghz4_circuit)
        assert nx.is_directed_acyclic_graph(dag.graph)

    def test_topological_layers_match_asap_depth(self, ghz4_circuit):
        dag = build_dag(ghz4_circuit)
        assert len(dag.topological_layers()) == ghz4_circuit.depth()

    def test_predecessors_and_successors(self, ghz4_circuit):
        dag = build_dag(ghz4_circuit)
        assert dag.predecessors(2) == [1]
        assert dag.successors(1) == [2]

    def test_gate_dependencies_match_dag(self, ghz4_circuit):
        circuit = Circuit(3).h(0).cz(0, 1).cz(0, 1).h(2).cz(1, 2).h(0)
        for subject in (ghz4_circuit, circuit):
            dag = build_dag(subject)
            successors, indegree = gate_dependencies(subject)
            assert successors == [dag.successors(i) for i in range(len(subject.gates))]
            assert indegree == [dag.graph.in_degree(i) for i in range(len(subject.gates))]


class TestCriticality:
    def test_unweighted_criticality_counts_chain_length(self, ghz4_circuit):
        scores = criticality(ghz4_circuit, weighted=False)
        assert scores[0] == 4  # h is followed by three dependent CNOTs
        assert scores[3] == 1  # last CNOT has nothing after it

    def test_weighted_criticality_uses_durations(self, bell_circuit):
        scores = criticality(bell_circuit, weighted=True)
        h, cx = bell_circuit[0], bell_circuit[1]
        assert scores[1] == pytest.approx(cx.duration_ns)
        assert scores[0] == pytest.approx(h.duration_ns + cx.duration_ns)

    def test_critical_path_unweighted_equals_depth(self, ghz4_circuit):
        assert critical_path_length(ghz4_circuit, weighted=False) == ghz4_circuit.depth()

    def test_critical_path_of_empty_circuit_is_zero(self):
        assert critical_path_length(Circuit(2)) == 0.0

    def test_criticality_decreases_along_chain(self, ghz4_circuit):
        scores = criticality(ghz4_circuit, weighted=False)
        assert scores[0] > scores[1] > scores[2] > scores[3]
