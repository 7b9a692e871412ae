"""The gate dependency DAG and criticality, lowered to integer tables.

The noise-aware queueing scheduler in Algorithm 1 sorts the gates of each
layer "by criticality", where the criticality of a gate is its position along
the program critical path (Section V-B6): the length of the longest chain of
dependent gates that still hangs off it.  :class:`GateTable` lowers a
circuit once into the per-gate tables the scheduling loop reads, so it never
touches a :class:`~repro.circuits.gates.Gate`.
"""

from __future__ import annotations

from itertools import accumulate, chain
from typing import Dict, List, Optional, Tuple

from .circuit import Circuit
from .gates import gate_spec

__all__ = ["GateTable"]

Coupling = Tuple[int, int]


class GateTable:
    """A circuit lowered to the integer tables the compile loop reads.

    Read-only; the compile pipeline builds one per prepared circuit.  Per
    gate ``i``: ``name_ids[i]`` (into ``names``, first-appearance order),
    ``qubit_runs[i]``, ``param_runs[i]``, ``duration[i]`` (ns), ``pair[i]``
    (the sorted pair of a two-qubit gate, else ``None``), ``kind[i]`` (one
    id per distinct two-qubit ``(pair, name)``, else ``-1``) and
    ``criticality[i]`` (remaining critical path, ns).  The dependency DAG
    (each qubit's gates chain in program order, the paper's conservative
    no-commutation model) is CSR: gate ``i``'s successors are
    ``successors[successor_offsets[i]:successor_offsets[i + 1]]``, with
    ``indegree[i]`` predecessors; ``roots`` have none.  ``coupling_ids``
    maps a crosstalk :class:`~repro.core.coloring.GraphIndex` to each
    gate's coupling id (``None`` if not two-qubit), filled by the scheduler.
    """

    def __init__(self, circuit: Circuit) -> None:
        self.circuit = circuit
        gates = circuit.gates
        gate_names = [gate.name for gate in gates]
        ids = {name: i for i, name in enumerate(dict.fromkeys(gate_names))}
        specs = [gate_spec(name) for name in ids]
        name_ids = [ids[name] for name in gate_names]
        qubit_runs = [gate.qubits for gate in gates]
        param_runs = [gate.params for gate in gates]
        two_qubit = [spec.num_qubits == 2 for spec in specs]
        kinds: Dict[Tuple[Coupling, int], int] = {}
        pair: List[Optional[Coupling]] = []
        kind: List[int] = []
        for name_id, qubits in zip(name_ids, qubit_runs):
            if two_qubit[name_id]:
                a, b = qubits
                coupling = (a, b) if a < b else (b, a)
                pair.append(coupling)
                kind.append(kinds.setdefault((coupling, name_id), len(kinds)))
            else:
                pair.append(None)
                kind.append(-1)

        # Each qubit's gates chain in program order; a two-qubit gate
        # sharing both qubits with the same predecessor is one edge.
        successor_lists: List[List[int]] = [[] for _ in gates]
        indegree = [0] * len(gates)
        last_on_qubit = [-1] * circuit.num_qubits
        for index, qubits in enumerate(qubit_runs):
            for qubit in qubits:
                previous = last_on_qubit[qubit]
                if previous >= 0:
                    successors = successor_lists[previous]
                    if not successors or successors[-1] != index:
                        successors.append(index)
                        indegree[index] += 1
                last_on_qubit[qubit] = index

        duration_by_id = [spec.duration_ns for spec in specs]
        duration = [duration_by_id[i] for i in name_ids]
        # Every edge points forward in program order, so one sweep in
        # reverse order gives each gate its longest chain of successors.
        criticality = [0.0] * len(gates)
        for node in range(len(gates) - 1, -1, -1):
            best = 0.0
            for successor in successor_lists[node]:
                if criticality[successor] > best:
                    best = criticality[successor]
            criticality[node] = duration[node] + best
        self.names: Tuple[str, ...] = tuple(ids)
        self.name_ids = name_ids
        self.qubit_runs = qubit_runs
        self.param_runs = param_runs
        self.pair = pair
        self.kind = kind
        self.duration = duration
        self.successor_offsets = list(accumulate(map(len, successor_lists), initial=0))
        self.successors = list(chain.from_iterable(successor_lists))
        self.indegree = indegree
        self.criticality = criticality
        self.roots = [i for i, degree in enumerate(indegree) if degree == 0]
        self.coupling_ids: Dict[object, List[Optional[int]]] = {}
