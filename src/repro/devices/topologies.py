"""Device connectivity graphs used in the paper's evaluation.

Section IV explores a 2-D mesh; Section VII-F (Fig. 13) additionally studies
a family of topologies with increasing density built from *express cubes*
(Dally, 1991): a base 1-D path or 2-D grid augmented with express channels
that connect every ``k``-th node.  This module generates all of them as
:class:`~repro.graph.Graph` objects with integer node labels ``0..n-1``,
built in the node and edge order of the reference generators pinned by
``tests/differential`` (node and neighbour order reach compiled programs
through routing and edge colorings).

The graph-name vocabulary matches Fig. 13's x-axis:

``linear``, ``1EX-5``, ``1EX-4``, ``1EX-3``, ``1EX-2``, ``grid``,
``2EX-5``, ``2EX-4``, ``2EX-3``, ``2EX-2``
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Dict, Tuple

from ..graph import Graph

__all__ = [
    "grid_graph",
    "linear_graph",
    "ring_graph",
    "express_1d",
    "express_2d",
    "heavy_hex_graph",
    "all_to_all_graph",
    "topology_by_name",
    "FIG13_TOPOLOGY_NAMES",
    "grid_coordinates",
]

FIG13_TOPOLOGY_NAMES: Tuple[str, ...] = (
    "linear",
    "1EX-5",
    "1EX-4",
    "1EX-3",
    "1EX-2",
    "grid",
    "2EX-5",
    "2EX-4",
    "2EX-3",
    "2EX-2",
)


def _validated_square_side(num_qubits: int) -> int:
    side = int(round(math.sqrt(num_qubits)))
    if side * side != num_qubits:
        raise ValueError(f"grid topologies need a square qubit count, got {num_qubits}")
    return side


def grid_coordinates(num_qubits: int) -> Dict[int, Tuple[int, int]]:
    """Return the (row, col) coordinate of each qubit in a square grid."""
    side = _validated_square_side(num_qubits)
    return {r * side + c: (r, c) for r in range(side) for c in range(side)}


def grid_graph(num_qubits: int) -> Graph:
    """N x N nearest-neighbour mesh (the paper's default topology)."""
    side = _validated_square_side(num_qubits)
    graph = Graph(name=f"grid-{side}x{side}")
    graph.add_nodes_from(range(num_qubits))
    for r in range(side):
        for c in range(side):
            node = r * side + c
            if c + 1 < side:
                graph.add_edge(node, node + 1)
            if r + 1 < side:
                graph.add_edge(node, node + side)
    return graph


def linear_graph(num_qubits: int) -> Graph:
    """1-D chain of qubits."""
    graph = Graph(name=f"linear-{num_qubits}")
    graph.add_nodes_from(range(num_qubits))
    graph.add_edges_from((q, q + 1) for q in range(num_qubits - 1))
    return graph


def ring_graph(num_qubits: int) -> Graph:
    """1-D ring (used by some QAOA hardware demonstrations)."""
    graph = linear_graph(num_qubits)
    graph.name = f"ring-{num_qubits}"
    if num_qubits > 1:
        graph.add_edge(num_qubits - 1, 0)
    return graph


def express_1d(num_qubits: int, k: int) -> Graph:
    """1-D express cube: a path plus express links between every k-th node.

    Following Dally's express-cube construction, interchange nodes are placed
    every ``k`` positions along the path and consecutive interchanges are
    connected by an express channel, letting traffic (here: crosstalk-free
    interactions and SWAP routes) skip over ``k`` local hops.
    """
    if k < 2:
        raise ValueError("express spacing k must be at least 2")
    graph = linear_graph(num_qubits)
    graph.name = f"1EX-{k}-{num_qubits}"
    for start in range(0, num_qubits - k, k):
        graph.add_edge(start, start + k)
    return graph


def express_2d(num_qubits: int, k: int) -> Graph:
    """2-D express cube: a mesh plus express links every k-th node per row/column."""
    if k < 2:
        raise ValueError("express spacing k must be at least 2")
    side = _validated_square_side(num_qubits)
    graph = grid_graph(num_qubits)
    graph.name = f"2EX-{k}-{side}x{side}"
    for r in range(side):
        for c in range(0, side - k, k):
            graph.add_edge(r * side + c, r * side + c + k)
    for c in range(side):
        for r in range(0, side - k, k):
            graph.add_edge(r * side + c, (r + k) * side + c)
    return graph


def heavy_hex_graph(distance: int = 3) -> Graph:
    """IBM-style heavy-hexagon lattice (for context; not used in Fig. 13).

    The construction follows the heavy-hex unit cell: a hexagonal lattice
    where every edge carries an additional degree-2 qubit.  ``distance``
    controls the number of hexagon rows/columns.
    """
    if distance < 1:
        raise ValueError("distance must be at least 1")
    hex_lattice = _hexagonal_lattice(distance, distance)
    # Relabel the (row, col) tuples to consecutive integers.
    mapping = {node: i for i, node in enumerate(sorted(hex_lattice.nodes))}
    base = Graph()
    base.add_nodes_from(mapping[node] for node in hex_lattice.nodes)
    base.add_edges_from((mapping[u], mapping[v]) for u, v in hex_lattice.edges)
    heavy = Graph(name=f"heavy-hex-{distance}")
    heavy.add_nodes_from(base.nodes)
    next_node = base.number_of_nodes()
    for u, v in base.edges:
        heavy.add_node(next_node)
        heavy.add_edge(u, next_node)
        heavy.add_edge(next_node, v)
        next_node += 1
    return heavy


def _hexagonal_lattice(rows: int, cols: int) -> Graph:
    """Hexagonal lattice of ``rows x cols`` hexagons; nodes are ``(col, row)``.

    Column edges first, then row edges.  The two corner nodes with a single
    edge are left out; the reference generator adds and then deletes them,
    which leaves every other node and neighbour in the same order.
    """
    height = 2 * rows
    corners = {(0, height + 1), (cols, (height + 1) * (cols % 2))}
    col_edges = (((i, j), (i, j + 1)) for i in range(cols + 1) for j in range(height + 1))
    row_edges = (
        ((i, j), (i + 1, j)) for i in range(cols) for j in range(height + 2) if i % 2 == j % 2
    )
    lattice = Graph()
    for edges in (col_edges, row_edges):
        lattice.add_edges_from((u, v) for u, v in edges if u not in corners and v not in corners)
    return lattice


def all_to_all_graph(num_qubits: int) -> Graph:
    """Complete graph — an idealised (trapped-ion-like) connectivity reference."""
    graph = Graph(name=f"all-to-all-{num_qubits}")
    graph.add_nodes_from(range(num_qubits))
    graph.add_edges_from(combinations(range(num_qubits), 2))
    return graph


def topology_by_name(name: str, num_qubits: int) -> Graph:
    """Build a topology from its Fig. 13 name (case-insensitive).

    Parameters
    ----------
    name:
        One of :data:`FIG13_TOPOLOGY_NAMES`, or ``"ring"``, ``"heavy-hex"``,
        ``"all-to-all"``.
    num_qubits:
        Number of qubits; must be a perfect square for grid-based names.
    """
    key = name.strip().lower().replace("_", "-")
    if key == "linear":
        return linear_graph(num_qubits)
    if key == "grid" or key == "mesh":
        return grid_graph(num_qubits)
    if key == "ring":
        return ring_graph(num_qubits)
    if key == "all-to-all":
        return all_to_all_graph(num_qubits)
    if key == "heavy-hex":
        return heavy_hex_graph(max(1, int(round(math.sqrt(num_qubits))) // 2))
    if key.startswith("1ex-"):
        return express_1d(num_qubits, int(key.split("-")[1]))
    if key.startswith("2ex-"):
        return express_2d(num_qubits, int(key.split("-")[1]))
    raise ValueError(
        f"unknown topology {name!r}; expected one of {FIG13_TOPOLOGY_NAMES} "
        "or ring/heavy-hex/all-to-all"
    )
