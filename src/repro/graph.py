"""A small undirected graph and the few graph algorithms the compiler needs.

Every graph in this package is small — a device's connectivity graph ``Gc``,
its crosstalk graph ``Gx`` (Section IV-C), a QAOA problem graph — with at
most a few hundred vertices.  :class:`Graph` holds one as insertion-ordered
adjacency dicts with the familiar graph-library member names (``nodes``,
``edges``, ``adj``, ``neighbors``, ``degree``, ``has_edge``, ``add_edge``,
``number_of_nodes`` ...).  The functions below read only those members, so
they accept any graph object that has them.

Iteration order is part of the contract: nodes in insertion order, each
node's neighbours in the order its edges were added, and ``edges`` walking
nodes in order and yielding each edge once from its first endpoint.  Three
functions reproduce reference algorithms whose *tie-breaking* reaches
compiled programs, so they follow them step for step:

* :func:`shortest_path` — a bidirectional BFS whose choice among equally
  short paths decides the SWAPs the router inserts;
* :func:`line_graph_coloring` — the largest-first greedy coloring of the
  line graph, the edge coloring behind Baseline G's tiling patterns and
  the non-grid XEB patterns;
* :func:`gnp_edges` — the ``random.Random(seed)`` draws of the Erdős–Rényi
  generator that picks QAOA's problem graphs.

The reference formulations live in ``tests/differential/oracles.py``; the
differential suite checks each function against them, and the pinned
golden programs check the compiled output.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Dict, Hashable, Iterable, Iterator, KeysView, List, Optional, Set, Tuple

__all__ = [
    "Graph",
    "bfs_distances",
    "shortest_path",
    "line_graph_coloring",
    "largest_first_coloring",
    "gnp_edges",
]

Node = Hashable
Edge = Tuple[Node, Node]


class Graph:
    """Undirected simple graph whose iteration order is insertion order.

    ``adj`` maps each node to an insertion-ordered dict of its neighbours
    (values are ``None``: the dict is an ordered set).  ``name`` is a
    free-form label.
    """

    __slots__ = ("adj", "name")

    def __init__(self, edges: Iterable[Edge] = (), name: str = "") -> None:
        self.adj: Dict[Node, Dict[Node, None]] = {}
        self.name = name
        self.add_edges_from(edges)

    def add_node(self, node: Node) -> None:
        if node not in self.adj:
            self.adj[node] = {}

    def add_nodes_from(self, nodes: Iterable[Node]) -> None:
        for node in nodes:
            self.add_node(node)

    def add_edge(self, u: Node, v: Node) -> None:
        self.add_node(u)
        self.add_node(v)
        self.adj[u][v] = None
        self.adj[v][u] = None

    def add_edges_from(self, edges: Iterable[Edge]) -> None:
        for u, v in edges:
            self.add_edge(u, v)

    @property
    def nodes(self) -> KeysView:
        return self.adj.keys()

    @property
    def edges(self) -> List[Edge]:
        """Each edge once, as ``(node, neighbour)`` from whichever endpoint comes first."""
        seen: Set[Node] = set()
        edges: List[Edge] = []
        for node, neighbours in self.adj.items():
            edges.extend((node, other) for other in neighbours if other not in seen)
            seen.add(node)
        return edges

    @property
    def degree(self) -> Dict[Node, int]:
        """``{node: degree}``; hoist it out of loops (it is rebuilt per access)."""
        return {node: len(neighbours) for node, neighbours in self.adj.items()}

    def neighbors(self, node: Node) -> Iterator[Node]:
        return iter(self.adj[node])

    def has_edge(self, u: Node, v: Node) -> bool:
        return v in self.adj.get(u, ())

    def number_of_nodes(self) -> int:
        return len(self.adj)

    def number_of_edges(self) -> int:
        return sum(len(neighbours) for neighbours in self.adj.values()) // 2

    def copy(self) -> "Graph":
        """A copy: the nodes in order, then every adjacency entry as an edge.

        Re-adding edges node by node can reorder a node's neighbours (those
        on earlier nodes come first); the reference ``copy`` does the same,
        and device copies must keep its order.
        """
        graph = Graph(name=self.name)
        graph.add_nodes_from(self.adj)
        graph.add_edges_from((u, v) for u, neighbours in self.adj.items() for v in neighbours)
        return graph

    def __contains__(self, node: object) -> bool:
        return node in self.adj

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(name={self.name!r}, nodes={len(self.adj)}, edges={self.number_of_edges()})"


def bfs_distances(graph, source: Node, cutoff: Optional[int] = None) -> Dict[Node, int]:
    """Hop distance from *source* to every node reachable within *cutoff* hops."""
    distances = {source: 0}
    frontier = [source]
    depth = 0
    while frontier and (cutoff is None or depth < cutoff):
        depth += 1
        next_frontier = []
        for node in frontier:
            for other in graph.adj[node]:
                if other not in distances:
                    distances[other] = depth
                    next_frontier.append(other)
        frontier = next_frontier
    return distances


def shortest_path(graph, source: Node, target: Node) -> List[Node]:
    """A shortest path from *source* to *target* by bidirectional BFS.

    The smaller frontier (the forward one on ties) grows one level at a
    time, in adjacency order, and the search stops at the first node the
    two searches share; that fixes which of several shortest paths comes
    back.  Raises ``ValueError`` when *target* is unreachable.
    """
    for node in (source, target):
        if node not in graph.adj:
            raise ValueError(f"node {node!r} is not in the graph")
    pred: Dict[Node, Optional[Node]] = {source: None}
    succ: Dict[Node, Optional[Node]] = {target: None}
    forward, reverse = [source], [target]
    meet = source if source == target else None
    while meet is None and forward and reverse:
        if len(forward) <= len(reverse):
            forward, meet = _grow(graph.adj, forward, pred, succ)
        else:
            reverse, meet = _grow(graph.adj, reverse, succ, pred)
    if meet is None:
        raise ValueError(f"no path between {source!r} and {target!r}")
    path: List[Node] = []
    node: Optional[Node] = meet
    while node is not None:
        path.append(node)
        node = pred[node]
    path.reverse()
    node = succ[path[-1]]
    while node is not None:
        path.append(node)
        node = succ[node]
    return path


def _grow(adj, level: List[Node], parents: Dict, other: Dict) -> Tuple[List[Node], Optional[Node]]:
    """Expand one BFS level, recording parents; stop at a node *other* has seen.

    Returns the next level and the meeting node (``None`` if none yet).
    """
    frontier: List[Node] = []
    for v in level:
        for w in adj[v]:
            if w not in parents:
                parents[w] = v
                frontier.append(w)
            if w in other:
                return frontier, w
    return frontier, None


def line_graph_coloring(graph) -> Dict[Edge, int]:
    """Largest-first greedy coloring of *graph*'s line graph: an edge coloring.

    Edges are keyed ``(u, v)`` with ``u`` the endpoint inserted first, and
    visited by decreasing line-graph degree (:func:`largest_first_coloring`).
    Ties keep the line graph's node order: edges at a degree-1 node come
    first, in node order, then the rest in the iteration order of a ``set``
    of adjacent edge pairs.  The set is built with the
    same insertions as the reference line graph's, so it iterates in the
    same order (hashes of int tuples do not depend on ``PYTHONHASHSEED``).
    """
    node_index = {node: i for i, node in enumerate(graph.adj)}

    def pair_key(edge: Edge) -> Tuple[int, int]:
        return node_index[edge[0]], node_index[edge[1]]

    line = Graph()
    pairs: Set[Tuple[Edge, Edge]] = set()
    for u in graph.adj:
        incident = [tuple(sorted((u, v), key=node_index.get)) for v in graph.adj[u]]
        if len(incident) == 1:
            line.add_node(incident[0])
        for i, a in enumerate(incident):
            pairs.update([tuple(sorted((a, b), key=pair_key)) for b in incident[i + 1 :]])
    for a, b in pairs:  # repro-lint: determinism-ok(the reference line graph takes its node order from iterating this same set; int-tuple hashes are seed-free)
        line.add_edge(a, b)
    return largest_first_coloring(line)


def largest_first_coloring(graph) -> Dict[Node, int]:
    """Greedy coloring in decreasing-degree order, ties in node order.

    Each vertex takes the smallest color none of its already-colored
    neighbours has.  The dict is in visiting order.
    """
    degree = dict(graph.degree)
    colors: Dict[Node, int] = {}
    for node in sorted(graph.adj, key=degree.__getitem__, reverse=True):
        taken = {colors[other] for other in graph.adj[node] if other in colors}
        color = 0
        while color in taken:
            color += 1
        colors[node] = color
    return colors


def gnp_edges(num_nodes: int, probability: float, seed: int) -> List[Tuple[int, int]]:
    """Edges of the Erdős–Rényi graph ``G(n, p)`` drawn for *seed*.

    One ``random.Random(seed).random()`` draw per pair of
    ``combinations(range(n), 2)``, keeping the pair when the draw is below
    ``p``; ``p >= 1`` is the complete graph and ``p <= 0`` the empty one,
    with no draws.
    """
    pairs = combinations(range(num_nodes), 2)
    if probability >= 1:
        return list(pairs)
    if probability <= 0:
        return []
    rng = random.Random(seed)
    return [pair for pair in pairs if rng.random() < probability]
