"""Dependency DAG and criticality analysis for circuits.

The noise-aware queueing scheduler in Algorithm 1 sorts the gates of each
layer "by criticality", where the criticality of a gate is its position along
the program critical path (Section V-B6).  This module builds the gate
dependency DAG of a :class:`~repro.circuits.circuit.Circuit` and computes, for
every gate, the length of the longest dependency chain that still hangs off
it (the *remaining critical path*), both in gate counts and in nanoseconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import networkx as nx

from .circuit import Circuit

__all__ = [
    "CircuitDAG",
    "build_dag",
    "gate_dependencies",
    "criticality",
    "criticality_scores",
    "critical_path_length",
]


@dataclass
class CircuitDAG:
    """Gate dependency DAG of a circuit.

    Nodes are gate indices into ``circuit.gates``; an edge ``i -> j`` means
    gate ``j`` must execute after gate ``i`` because they share a qubit and
    ``i`` precedes ``j`` in program order.
    """

    circuit: Circuit
    graph: nx.DiGraph

    def predecessors(self, index: int) -> List[int]:
        return sorted(self.graph.predecessors(index))

    def successors(self, index: int) -> List[int]:
        return sorted(self.graph.successors(index))

    def front_layer(self) -> List[int]:
        """Indices of gates with no predecessors (the first executable layer)."""
        return sorted(n for n in self.graph.nodes if self.graph.in_degree(n) == 0)

    def topological_layers(self) -> List[List[int]]:
        """Return ASAP layers of gate indices."""
        depth: Dict[int, int] = {}
        for node in nx.topological_sort(self.graph):
            preds = list(self.graph.predecessors(node))
            depth[node] = 0 if not preds else 1 + max(depth[p] for p in preds)
        layers: Dict[int, List[int]] = {}
        for node, d in depth.items():
            layers.setdefault(d, []).append(node)
        return [sorted(layers[d]) for d in sorted(layers)]


def build_dag(circuit: Circuit) -> CircuitDAG:
    """Construct the gate dependency DAG of *circuit*.

    Dependencies are derived purely from qubit sharing: for each qubit, the
    gates touching it form a chain in program order.  This is the standard
    conservative (no commutation analysis) dependency model the paper uses.
    """
    graph = nx.DiGraph()
    graph.add_nodes_from(range(len(circuit.gates)))
    last_on_qubit: Dict[int, int] = {}
    for index, gate in enumerate(circuit.gates):
        for qubit in gate.qubits:
            if qubit in last_on_qubit:
                graph.add_edge(last_on_qubit[qubit], index)
            last_on_qubit[qubit] = index
    return CircuitDAG(circuit=circuit, graph=graph)


def gate_dependencies(circuit: Circuit) -> Tuple[List[List[int]], List[int]]:
    """Successor lists and in-degrees of the gate dependency DAG, as flat lists.

    The integer-indexed counterpart of :func:`build_dag`: the same
    qubit-sharing chains, but held as plain Python lists so the scheduler's
    inner loop never touches a networkx structure.  Gate indices are already
    topologically ordered (every edge points forward in program order), which
    downstream consumers exploit.

    Returns ``(successors, indegree)`` where ``successors[i]`` lists the gate
    indices that depend directly on gate ``i``.
    """
    n = len(circuit.gates)
    successors: List[List[int]] = [[] for _ in range(n)]
    indegree: List[int] = [0] * n
    last_on_qubit: Dict[int, int] = {}
    for index, gate in enumerate(circuit.gates):
        for qubit in gate.qubits:
            previous = last_on_qubit.get(qubit)
            if previous is not None and (
                not successors[previous] or successors[previous][-1] != index
            ):
                # A two-qubit gate sharing both qubits with the same
                # predecessor contributes one edge, exactly like nx.add_edge.
                successors[previous].append(index)
                indegree[index] += 1
            last_on_qubit[qubit] = index
    return successors, indegree


def criticality(circuit: Circuit, weighted: bool = True) -> Dict[int, float]:
    """Return the remaining-critical-path length for every gate index.

    ``criticality[i]`` is the length of the longest chain of dependent gates
    starting at gate ``i`` (inclusive).  When ``weighted`` is ``True`` the
    chain length is measured in nanoseconds of gate duration; otherwise it
    counts gates.  Gates with larger criticality are scheduled first by the
    noise-aware queueing scheduler so that serialization decisions do not
    stretch the program critical path.

    The sweep runs over :func:`gate_dependencies` in reverse program order
    (gate indices are topologically sorted by construction), never building
    a graph object.
    """
    successors, _ = gate_dependencies(circuit)
    scores_list = criticality_scores(successors, circuit.gates, weighted=weighted)
    return {index: scores_list[index] for index in range(len(circuit.gates))}


def criticality_scores(
    successors: Sequence[Sequence[int]],
    gates: Sequence,
    weighted: bool = True,
) -> List[float]:
    """Remaining-critical-path sweep over pre-computed successor lists.

    The flat-list core of :func:`criticality`, shared with the scheduler so
    one :func:`gate_dependencies` pass serves both the readiness tracking
    and the criticality ordering.  ``successors[i]`` must only contain
    indices greater than ``i`` (guaranteed by :func:`gate_dependencies`).
    """
    n = len(gates)
    scores: List[float] = [0.0] * n
    for node in range(n - 1, -1, -1):
        best = 0.0
        for successor in successors[node]:
            value = scores[successor]
            if value > best:
                best = value
        scores[node] = (gates[node].duration_ns if weighted else 1.0) + best
    return scores


def critical_path_length(circuit: Circuit, weighted: bool = True) -> float:
    """Return the length of the circuit's critical path.

    With ``weighted=False`` this equals the ASAP circuit depth; with
    ``weighted=True`` it is the minimum wall-clock execution time assuming
    unlimited parallelism.
    """
    if not circuit.gates:
        return 0.0
    scores = criticality(circuit, weighted=weighted)
    return max(scores.values())
