"""Seeded random generators for the differential production-vs-oracles suites.

Every generator is a pure function of its ``seed`` so failures replay
exactly; tests name the seed in their parametrization, giving well over a
hundred independently generated cases across the suite.
"""

from __future__ import annotations

import random
from typing import List, Tuple

import networkx as nx

from repro.circuits import Circuit
from repro.core.crosstalk_graph import build_crosstalk_graph
from repro.devices import Device, grid_graph

Coupling = Tuple[int, int]


def random_connectivity(seed: int) -> nx.Graph:
    """A random connected device-like graph: a grid with edges dropped/added."""
    rng = random.Random(seed)
    side = rng.choice([2, 3, 4, 5, 6])
    graph = grid_graph(side * side)
    edges = sorted(graph.edges)
    rng.shuffle(edges)
    for edge in edges[: rng.randrange(0, max(1, len(edges) // 4))]:
        graph.remove_edge(*edge)
        if not nx.is_connected(graph):
            graph.add_edge(*edge)
    nodes = sorted(graph.nodes)
    for _ in range(rng.randrange(0, 4)):  # a few express links
        a, b = rng.sample(nodes, 2)
        graph.add_edge(*sorted((a, b)))
    return graph


def random_crosstalk_graph(seed: int) -> nx.Graph:
    """Crosstalk graph of a random connectivity at distance 1 or 2."""
    rng = random.Random(seed ^ 0x5EED)
    return build_crosstalk_graph(random_connectivity(seed), distance=rng.choice([1, 1, 2]))


def random_active_subset(graph: nx.Graph, seed: int) -> List[Coupling]:
    """A random non-empty subset of the graph's vertices (couplings)."""
    rng = random.Random(seed ^ 0xAC7)
    nodes = sorted(graph.nodes)
    return rng.sample(nodes, rng.randint(1, len(nodes)))


def random_device(seed: int) -> Device:
    """A seeded grid device of random size."""
    rng = random.Random(seed ^ 0xD3)
    side = rng.choice([2, 3, 4])
    return Device.grid(side * side, seed=rng.randrange(10_000))


def random_circuit(num_qubits: int, seed: int) -> Circuit:
    """A random circuit over the device's qubits (mixed 1q/2q/virtual gates)."""
    rng = random.Random(seed ^ 0xC1C)
    circuit = Circuit(num_qubits, name=f"diff-{seed}")
    num_gates = rng.randint(5, 60)
    one_qubit = ["h", "x", "sx", "z", "t", "rz", "rx"]
    two_qubit = ["cz", "cx", "iswap", "sqrt_iswap", "swap", "rzz", "cphase"]
    for _ in range(num_gates):
        if rng.random() < 0.45 and num_qubits >= 2:
            a, b = rng.sample(range(num_qubits), 2)
            name = rng.choice(two_qubit)
            if name in ("rzz", "cphase"):
                circuit.add(name, a, b, params=(rng.uniform(0.1, 3.0),))
            else:
                circuit.add(name, a, b)
        else:
            q = rng.randrange(num_qubits)
            name = rng.choice(one_qubit)
            if name in ("rz", "rx"):
                circuit.add(name, q, params=(rng.uniform(0.1, 3.0),))
            else:
                circuit.add(name, q)
    if rng.random() < 0.5:
        circuit.measure_all()
    return circuit




def random_native_circuit(device: Device, seed: int) -> Circuit:
    """A native-gate circuit whose two-qubit gates all sit on device edges."""
    rng = random.Random(seed ^ 0xDA7)
    circuit = Circuit(device.num_qubits, name=f"native-{seed}")
    edges = sorted(tuple(sorted(e)) for e in device.edges())
    for _ in range(rng.randint(10, 80)):
        if rng.random() < 0.5 and edges:
            a, b = rng.choice(edges)
            circuit.add(rng.choice(["cz", "iswap", "sqrt_iswap"]), a, b)
        else:
            q = rng.randrange(device.num_qubits)
            name = rng.choice(["h", "x", "sx", "z", "rz"])
            if name == "rz":
                circuit.add(name, q, params=(rng.uniform(0.1, 3.0),))
            else:
                circuit.add(name, q)
    return circuit
