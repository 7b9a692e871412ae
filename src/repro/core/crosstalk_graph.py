"""Crosstalk graph construction (Section IV-C and Algorithm 2 of the paper).

The *crosstalk graph* ``Gx`` of a device connectivity graph ``Gc`` has one
vertex per coupling (edge of ``Gc``); two vertices are adjacent when the two
couplings could interfere if driven at nearby interaction frequencies — i.e.
when the corresponding edges of ``Gc`` share a qubit or are connected by a
short path.  Coloring ``Gx`` therefore yields sets of couplings that may
safely share an interaction frequency.

The distance-``d`` generalisation ``Gx^(d)`` connects two couplings whenever
the closest pair of their endpoints is at distance ``<= d`` in ``Gc``
(``d = 1`` reproduces the nearest-neighbour construction; larger ``d``
captures next-neighbour crosstalk through residual coupling chains).

Vertices of the crosstalk graph are represented as sorted qubit pairs
``(a, b)`` so they can be looked up directly from gate qubits.
"""

from __future__ import annotations

from typing import Iterable, List, Set, Tuple

from ..graph import Graph, bfs_distances

__all__ = [
    "build_crosstalk_graph",
    "crosstalk_neighbours",
    "mesh_crosstalk_chromatic_bound",
]

Coupling = Tuple[int, int]


def _edge_key(edge: Iterable[int]) -> Coupling:
    a, b = edge
    return (a, b) if a <= b else (b, a)


def build_crosstalk_graph(connectivity: Graph, distance: int = 1) -> Graph:
    """Construct the distance-``d`` crosstalk graph of a connectivity graph.

    Implementation of Algorithm 2: two couplings sharing a qubit are always
    in conflict (the line graph of ``Gc``), and two couplings are
    additionally connected when any pair of their endpoints is within
    ``distance`` hops of each other in ``Gc``.  Both reduce to one test:
    the closest pair of endpoints is at most ``distance`` hops apart.

    Parameters
    ----------
    connectivity:
        The device connectivity graph ``Gc``.
    distance:
        Crosstalk range ``d >= 1``.  ``d = 1`` is the paper's default:
        couplings sharing a qubit *or* joined by a single third edge
        conflict.

    Returns
    -------
    Graph
        Graph whose nodes are sorted qubit pairs; an edge means the two
        couplings must not share an interaction frequency.
    """
    if distance < 1:
        raise ValueError("crosstalk distance must be >= 1")

    # Every qubit within ``distance`` hops of each qubit (itself included).
    near = {
        node: set(bfs_distances(connectivity, node, cutoff=distance))
        for node in connectivity.nodes
    }
    crosstalk = Graph()
    crosstalk.add_nodes_from(_edge_key(edge) for edge in connectivity.edges)
    couplings: List[Coupling] = sorted(crosstalk.nodes)
    for i, (u1, v1) in enumerate(couplings):
        reach = near[u1] | near[v1]
        for u2, v2 in couplings[i + 1 :]:
            if u2 in reach or v2 in reach:
                crosstalk.add_edge((u1, v1), (u2, v2))
    return crosstalk


def crosstalk_neighbours(crosstalk: Graph, coupling: Coupling) -> Set[Coupling]:
    """The couplings that conflict with *coupling* (its crosstalk-graph neighbours)."""
    key = _edge_key(coupling)
    if key not in crosstalk:
        raise KeyError(f"coupling {key} is not an edge of the device")
    return set(crosstalk.neighbors(key))


def mesh_crosstalk_chromatic_bound() -> int:
    """The number of colors needed for the distance-1 crosstalk graph of a 2-D mesh.

    Section IV-C2 reports that 8 colors are necessary and sufficient for any
    ``N x N`` mesh; the value is exposed as a named constant-producing
    function so tests and documentation reference a single source of truth.
    """
    return 8
