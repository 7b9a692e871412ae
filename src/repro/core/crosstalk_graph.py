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

import networkx as nx

__all__ = [
    "build_crosstalk_graph",
    "crosstalk_neighbours",
    "mesh_crosstalk_chromatic_bound",
]

Coupling = Tuple[int, int]


def _edge_key(edge: Iterable[int]) -> Coupling:
    a, b = edge
    return (a, b) if a <= b else (b, a)


def build_crosstalk_graph(connectivity: nx.Graph, distance: int = 1) -> nx.Graph:
    """Construct the distance-``d`` crosstalk graph of a connectivity graph.

    Implementation of Algorithm 2: start from the line graph of ``Gc`` (two
    couplings sharing a qubit are always in conflict) and additionally
    connect two couplings when any pair of their endpoints is within
    ``distance`` hops of each other in ``Gc``.

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
    networkx.Graph
        Graph whose nodes are sorted qubit pairs; an edge means the two
        couplings must not share an interaction frequency.
    """
    if distance < 1:
        raise ValueError("crosstalk distance must be >= 1")

    line = nx.line_graph(connectivity)
    crosstalk = nx.Graph()
    crosstalk.add_nodes_from(_edge_key(edge) for edge in connectivity.edges)
    for u, v in line.edges:
        crosstalk.add_edge(_edge_key(u), _edge_key(v))

    # Pre-compute shortest-path distances up to the cutoff once.
    lengths = dict(nx.all_pairs_shortest_path_length(connectivity, cutoff=distance))

    couplings: List[Coupling] = sorted(crosstalk.nodes)
    extra: List[Tuple[Coupling, Coupling]] = []
    for i, e1 in enumerate(couplings):
        for e2 in couplings[i + 1 :]:
            if crosstalk.has_edge(e1, e2):
                continue
            u1, v1 = e1
            u2, v2 = e2
            close = (
                lengths.get(u1, {}).get(u2, distance + 1) <= distance
                or lengths.get(u1, {}).get(v2, distance + 1) <= distance
                or lengths.get(v1, {}).get(u2, distance + 1) <= distance
                or lengths.get(v1, {}).get(v2, distance + 1) <= distance
            )
            if close:
                extra.append((e1, e2))
    crosstalk.add_edges_from(extra)
    return crosstalk


def crosstalk_neighbours(crosstalk: nx.Graph, coupling: Coupling) -> Set[Coupling]:
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
