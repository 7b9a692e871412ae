"""Qubit mapping and SWAP-insertion routing.

The paper assumes circuits are already "device mapped" (Fig. 6b); however the
connectivity study in Section VII-F runs benchmarks on sparse topologies
(linear chains, express cubes) where program two-qubit gates are frequently
non-adjacent.  This module provides the mapping/routing substrate:

* :func:`initial_layout` — a simple connectivity-aware placement that puts
  frequently-interacting program qubits on adjacent physical qubits.
* :func:`route_circuit` — greedy SWAP-insertion routing: gates are processed
  in dependency order and, when a two-qubit gate spans non-adjacent physical
  qubits, SWAPs are inserted along a shortest path to bring them together.

The router works on an arbitrary :class:`~repro.graph.Graph` coupling graph
so it stays decoupled from :mod:`repro.devices` (which wraps it with
device-aware helpers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..graph import Graph, bfs_distances, shortest_path
from .circuit import Circuit
from .gates import Gate

__all__ = ["RoutedCircuit", "initial_layout", "route_circuit"]


@dataclass
class RoutedCircuit:
    """Result of routing a logical circuit onto a coupling graph.

    Attributes
    ----------
    circuit:
        The physical circuit; every two-qubit gate acts on an edge of the
        coupling graph.  Inserted SWAPs appear as ``swap`` gates (they are
        decomposed into natives later by the compiler).
    initial_layout:
        Mapping from logical qubit index to physical qubit index used at the
        start of the circuit.
    final_layout:
        Mapping from logical qubit index to physical qubit index at the end
        (SWAPs permute the layout).
    num_swaps:
        Number of SWAP gates inserted by the router.
    """

    circuit: Circuit
    initial_layout: Dict[int, int]
    final_layout: Dict[int, int]
    num_swaps: int


def _interaction_weights(circuit: Circuit) -> Dict[Tuple[int, int], int]:
    weights: Dict[Tuple[int, int], int] = {}
    for gate in circuit:
        if gate.is_two_qubit:
            key = tuple(sorted(gate.qubits))
            weights[key] = weights.get(key, 0) + 1
    return weights


def initial_layout(circuit: Circuit, coupling: Graph) -> Dict[int, int]:
    """Choose an initial logical→physical placement.

    A greedy heuristic: logical qubits are placed in decreasing order of
    interaction degree, each next to the already-placed partner with which it
    interacts most, on the free physical qubit closest to that partner.  The
    heuristic is deliberately simple — routing quality is not the subject of
    the paper — but it avoids pathological placements on sparse topologies.
    """
    physical_nodes = sorted(coupling.nodes)
    if circuit.num_qubits > len(physical_nodes):
        raise ValueError(
            f"circuit needs {circuit.num_qubits} qubits but device has only "
            f"{len(physical_nodes)}"
        )

    weights = _interaction_weights(circuit)
    degree: Dict[int, int] = {q: 0 for q in range(circuit.num_qubits)}
    for (a, b), w in weights.items():
        degree[a] += w
        degree[b] += w

    order = sorted(range(circuit.num_qubits), key=lambda q: -degree[q])
    layout: Dict[int, int] = {}
    free = set(physical_nodes)
    physical_degree = dict(coupling.degree)

    for logical in order:
        if not layout:
            # Seed with the highest-degree physical node so neighbours exist.
            seed = max(free, key=physical_degree.__getitem__)
            layout[logical] = seed
            free.discard(seed)
            continue
        # Find the placed partner with the strongest interaction.
        partners = [
            (w, other)
            for (a, b), w in weights.items()
            for other in ((b,) if a == logical else (a,) if b == logical else ())
            if other in layout
        ]
        if partners:
            _, anchor_logical = max(partners)
            anchor = layout[anchor_logical]
        else:
            anchor = next(iter(layout.values()))
        lengths = bfs_distances(coupling, anchor)
        best = min(free, key=lambda n: lengths.get(n, len(physical_nodes)))
        layout[logical] = best
        free.discard(best)
    return layout


def route_circuit(
    circuit: Circuit,
    coupling: Graph,
    layout: Optional[Dict[int, int]] = None,
) -> RoutedCircuit:
    """Insert SWAPs so every two-qubit gate acts on adjacent physical qubits.

    Parameters
    ----------
    circuit:
        Logical circuit to route.
    coupling:
        Device coupling graph; nodes are physical qubit indices.
    layout:
        Optional initial logical→physical mapping; computed by
        :func:`initial_layout` when omitted.

    Returns
    -------
    RoutedCircuit
        The physical circuit (sized to the device) plus layout bookkeeping.
    """
    if layout is None:
        layout = initial_layout(circuit, coupling)
    logical_to_physical = dict(layout)

    num_physical = max(coupling.nodes) + 1 if coupling.nodes else circuit.num_qubits
    routed = Circuit(num_physical, name=f"{circuit.name}[routed]")
    num_swaps = 0

    for gate in circuit:
        if not gate.is_two_qubit:
            phys = tuple(logical_to_physical[q] for q in gate.qubits)
            routed.append(Gate(gate.name, phys, gate.params))
            continue

        a, b = gate.qubits
        pa, pb = logical_to_physical[a], logical_to_physical[b]
        if not coupling.has_edge(pa, pb):
            try:
                path = shortest_path(coupling, pa, pb)
            except ValueError:
                raise ValueError(
                    f"cannot route {gate.name} on logical qubits {a} and {b}: physical "
                    f"qubits {pa} and {pb} are not connected"
                ) from None
            # Walk qubit `a` along the path until it neighbours `b`.
            for hop in path[1:-1]:
                routed.append(Gate("swap", (logical_to_physical[a], hop)))
                num_swaps += 1
                # Update the logical qubit (if any) occupying `hop`.
                displaced = [
                    logical
                    for logical, physical in logical_to_physical.items()
                    if physical == hop
                ]
                logical_to_physical[a], previous = hop, logical_to_physical[a]
                for logical in displaced:
                    logical_to_physical[logical] = previous
            pa, pb = logical_to_physical[a], logical_to_physical[b]
        routed.append(Gate(gate.name, (pa, pb), gate.params))

    return RoutedCircuit(
        circuit=routed,
        initial_layout=dict(layout),
        final_layout=logical_to_physical,
        num_swaps=num_swaps,
    )
