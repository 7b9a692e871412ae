"""QAOA MAX-CUT benchmark circuits (Table II, "QAOA(n)").

The Quantum Approximate Optimization Algorithm for MAX-CUT on an
Erdős–Rényi random graph ``G(n, p_edge)``: an initial layer of Hadamards,
then ``p`` rounds of the cost unitary (one ``ZZ`` rotation per graph edge)
followed by the mixer (an ``RX`` rotation on every qubit).  The ``ZZ``
rotations on a dense random graph create heavy two-qubit-gate pressure with
little structure, which is what makes QAOA a difficult benchmark for
crosstalk (qaoa(16) is dropped from Fig. 9 for exactly that reason).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..circuits import Circuit
from ..devices.topologies import ring_graph
from ..graph import Graph, gnp_edges

__all__ = ["qaoa_maxcut", "qaoa", "random_maxcut_graph"]


def random_maxcut_graph(
    num_vertices: int, edge_probability: float = 0.5, seed: int = 2020
) -> Graph:
    """Erdős–Rényi instance ``G(n, p)`` used as the MAX-CUT problem graph."""
    edges = gnp_edges(num_vertices, edge_probability, seed)
    if not edges:  # degenerate draw: fall back to a ring
        return ring_graph(num_vertices)
    graph = Graph(name=f"gnp-{num_vertices}")
    graph.add_nodes_from(range(num_vertices))
    graph.add_edges_from(edges)
    return graph


def qaoa_maxcut(
    num_qubits: int,
    rounds: int = 1,
    edge_probability: float = 0.5,
    gammas: Optional[Sequence[float]] = None,
    betas: Optional[Sequence[float]] = None,
    seed: Optional[int] = None,
    problem_graph: Optional[Graph] = None,
) -> Circuit:
    """Build a ``p``-round QAOA MAX-CUT circuit on ``num_qubits`` qubits.

    Parameters
    ----------
    num_qubits:
        Number of problem vertices / qubits.
    rounds:
        Number of alternating cost/mixer rounds ``p``.
    edge_probability:
        Density of the Erdős–Rényi problem graph.
    gammas, betas:
        Variational angles per round; seeded-random values when omitted
        (the compilation problem does not depend on the specific angles).
    seed:
        RNG seed for the problem graph and angles; omitting it falls back
        to a fixed seed (2020) so repeated builds stay bit-identical.
    problem_graph:
        Pass an explicit problem graph instead of sampling one.
    """
    if num_qubits < 2:
        raise ValueError("QAOA needs at least 2 qubits")
    resolved_seed = seed if seed is not None else 2020
    rng = np.random.default_rng(resolved_seed)
    graph = problem_graph if problem_graph is not None else random_maxcut_graph(
        num_qubits, edge_probability, seed=resolved_seed
    )
    if graph.number_of_nodes() > num_qubits:
        raise ValueError("problem graph has more vertices than qubits")
    if gammas is None:
        gammas = rng.uniform(0.1, np.pi, size=rounds).tolist()
    if betas is None:
        betas = rng.uniform(0.1, np.pi, size=rounds).tolist()
    if len(gammas) != rounds or len(betas) != rounds:
        raise ValueError("gammas and betas must each have one entry per round")

    circuit = Circuit(num_qubits, name=f"qaoa({num_qubits})")
    for qubit in range(num_qubits):
        circuit.h(qubit)
    for layer in range(rounds):
        gamma, beta = gammas[layer], betas[layer]
        for u, v in sorted(graph.edges):
            circuit.rzz(2.0 * gamma, u, v)
        for qubit in range(num_qubits):
            circuit.rx(2.0 * beta, qubit)
    return circuit


def qaoa(num_qubits: int, seed: Optional[int] = None) -> Circuit:
    """Shorthand used by the benchmark suite registry (single round)."""
    return qaoa_maxcut(num_qubits, rounds=1, seed=seed if seed is not None else 7)
