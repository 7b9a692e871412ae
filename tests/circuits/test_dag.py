"""Unit tests for the circuit dependency DAG and criticality analysis.

``build_dag`` is the networkx DAG the oracles keep; production lowers a
circuit to a ``GateTable`` holding the same dependencies as CSR lists.
"""

import networkx as nx
import pytest

from oracles import build_dag
from oracles import criticality as oracle_criticality
from repro.circuits import Circuit, GateTable


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
            table = GateTable(subject)
            offsets = table.successor_offsets
            successors = [
                table.successors[offsets[i] : offsets[i + 1]] for i in range(len(subject.gates))
            ]
            assert successors == [dag.successors(i) for i in range(len(subject.gates))]
            assert table.indegree == [dag.graph.in_degree(i) for i in range(len(subject.gates))]


class TestCriticality:
    """``GateTable.criticality``: the remaining critical path of every gate, in ns."""

    def test_criticality_sums_the_chain_durations(self, ghz4_circuit):
        durations = [gate.duration_ns for gate in ghz4_circuit.gates]
        scores = GateTable(ghz4_circuit).criticality
        assert scores[0] == pytest.approx(sum(durations))  # h, then three dependent CNOTs
        assert scores[3] == durations[3]  # last CNOT has nothing after it

    def test_weighted_criticality_uses_durations(self, bell_circuit):
        scores = GateTable(bell_circuit).criticality
        h, cx = bell_circuit[0], bell_circuit[1]
        assert scores[1] == pytest.approx(cx.duration_ns)
        assert scores[0] == pytest.approx(h.duration_ns + cx.duration_ns)

    def test_criticality_matches_the_dag_oracle(self, ghz4_circuit):
        circuit = Circuit(3).h(0).cz(0, 1).cz(0, 1).h(2).cz(1, 2).h(0)
        for subject in (ghz4_circuit, circuit):
            expected = oracle_criticality(subject, weighted=True)
            assert list(GateTable(subject).criticality) == [expected[i] for i in range(len(subject))]

    def test_empty_circuit_has_no_roots(self):
        table = GateTable(Circuit(2))
        assert list(table.criticality) == [] and table.roots == []

    def test_criticality_decreases_along_chain(self, ghz4_circuit):
        scores = GateTable(ghz4_circuit).criticality
        assert scores[0] > scores[1] > scores[2] > scores[3]
