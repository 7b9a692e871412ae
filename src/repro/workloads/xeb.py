"""Cross-entropy benchmarking circuits (Table II, "XEB(n, p)").

XEB circuits (Arute et al., Nature 2019 — reference [2]) interleave ``p``
cycles of random single-qubit gates on every qubit with layers of
simultaneous two-qubit gates applied along a rotating pattern of couplings.
They maximise two-qubit-gate parallelism by construction, which is why the
paper uses them both as a crosstalk stress test (Fig. 9/10) and for the
simultaneous-gate calibration experiments (Fig. 14).

On an ``sqrt(n) x sqrt(n)`` grid, the coupling patterns are the four
Sycamore-style edge sets (horizontal even/odd, vertical even/odd); the
generator also accepts an arbitrary coupling graph, in which case a greedy
edge coloring provides the patterns.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from ..circuits import Circuit
from ..devices.topologies import grid_graph
from ..graph import Graph, line_graph_coloring

__all__ = ["xeb_circuit", "xeb", "xeb_patterns"]

Coupling = Tuple[int, int]

#: Random single-qubit gate alphabet used between entangling layers
#: (sqrt(X), sqrt(Y) and sqrt(W)-like rotations, as in the supremacy experiment).
_SINGLE_QUBIT_CHOICES = ("sx", "sy", "sw")


def xeb_patterns(coupling_graph: Graph) -> List[List[Coupling]]:
    """Partition a coupling graph's edges into simultaneously executable patterns."""
    n = coupling_graph.number_of_nodes()
    side = int(round(math.sqrt(n)))
    if side * side == n and set(coupling_graph.edges) >= set(grid_graph(n).edges):
        patterns: dict = {"A": [], "B": [], "C": [], "D": []}
        for a, b in sorted(tuple(sorted(e)) for e in grid_graph(n).edges):
            ra, ca = divmod(a, side)
            rb, cb = divmod(b, side)
            if ra == rb:
                key = "A" if min(ca, cb) % 2 == 0 else "B"
            else:
                key = "C" if min(ra, rb) % 2 == 0 else "D"
            patterns[key].append((a, b))
        return [p for p in patterns.values() if p]
    classes: dict = {}
    for edge, color in line_graph_coloring(coupling_graph).items():
        classes.setdefault(color, []).append(tuple(sorted(edge)))
    return [sorted(classes[c]) for c in sorted(classes)]


def _random_single_qubit_layer(circuit: Circuit, rng: np.random.Generator) -> None:
    for qubit in range(circuit.num_qubits):
        choice = _SINGLE_QUBIT_CHOICES[int(rng.integers(len(_SINGLE_QUBIT_CHOICES)))]
        if choice == "sx":
            circuit.rx(np.pi / 2.0, qubit)
        elif choice == "sy":
            circuit.ry(np.pi / 2.0, qubit)
        else:  # sqrt(W): a rotation about the (X+Y)/sqrt(2) axis
            circuit.rz(-np.pi / 4.0, qubit)
            circuit.rx(np.pi / 2.0, qubit)
            circuit.rz(np.pi / 4.0, qubit)


def xeb_circuit(
    num_qubits: int,
    cycles: int,
    two_qubit_gate: str = "iswap",
    seed: Optional[int] = None,
    coupling_graph: Optional[Graph] = None,
) -> Circuit:
    """Build an XEB circuit with ``cycles`` entangling cycles.

    Parameters
    ----------
    num_qubits:
        Number of qubits; a perfect square uses the grid patterns, otherwise
        pass an explicit ``coupling_graph``.
    cycles:
        Number of (single-qubit layer + two-qubit pattern) cycles ``p``.
    two_qubit_gate:
        Native entangling gate applied along the pattern (``"iswap"``,
        ``"sqrt_iswap"`` or ``"cz"``).
    seed:
        RNG seed for the random single-qubit layers.
    coupling_graph:
        Optional explicit coupling graph defining the entangling patterns.
    """
    if cycles < 1:
        raise ValueError("XEB needs at least one cycle")
    if coupling_graph is None:
        side = int(round(math.sqrt(num_qubits)))
        if side * side != num_qubits:
            raise ValueError(
                "num_qubits must be a perfect square unless coupling_graph is given"
            )
        coupling_graph = grid_graph(num_qubits)
    if two_qubit_gate not in {"iswap", "sqrt_iswap", "cz"}:
        raise ValueError("two_qubit_gate must be iswap, sqrt_iswap or cz")

    rng = np.random.default_rng(seed if seed is not None else 2020)
    patterns = xeb_patterns(coupling_graph)
    circuit = Circuit(num_qubits, name=f"xeb({num_qubits},{cycles})")

    for cycle in range(cycles):
        _random_single_qubit_layer(circuit, rng)
        for a, b in patterns[cycle % len(patterns)]:
            circuit.add(two_qubit_gate, a, b)
    _random_single_qubit_layer(circuit, rng)
    return circuit


def xeb(num_qubits: int, cycles: int, seed: Optional[int] = None) -> Circuit:
    """Shorthand used by the benchmark suite registry."""
    return xeb_circuit(num_qubits, cycles, seed=seed)
