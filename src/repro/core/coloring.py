"""Graph-coloring routines used by the frequency-aware compiler.

Two colorings appear in the paper (Section IV-C):

* the **connectivity graph** coloring, which determines how many distinct
  *idle/parking* frequencies are needed so that no two coupled qubits idle on
  resonance (a 2-D mesh is bipartite, hence 2 colors suffice), and
* the **crosstalk graph** coloring (full graph for the static Baseline S,
  active subgraph per time step for ColorDynamic), which determines how many
  distinct *interaction* frequencies are needed for the simultaneously
  executing two-qubit gates.

The paper uses the polynomial-time Welsh–Powell greedy heuristic; we
implement it directly (rather than delegating to networkx) so the ordering
rule is explicit and deterministic.  :class:`GraphIndex` re-runs it, plus
the ``max_colors``-bounded variant used by the tunability study of Fig. 11,
as bitset kernels over subsets of one frozen graph.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

import networkx as nx

__all__ = [
    "GraphIndex",
    "welsh_powell_coloring",
    "greedy_coloring",
    "num_colors",
    "validate_coloring",
    "color_classes",
]


def _degree_order(graph: nx.Graph) -> List[Hashable]:
    """Vertices by decreasing degree, ties broken naturally.

    Degree ties are broken by the vertices' own ordering — ``(1, 2)`` sorts
    before ``(1, 10)`` for the coupling vertices of a crosstalk graph, and
    qubit indices sort numerically — so colorings are deterministic *and*
    consistent across devices.  (A ``str(v)`` tie-break would order
    ``(1, 10)`` before ``(1, 2)`` lexicographically.)  Graphs mixing
    incomparable vertex types fall back to the string ordering.
    """
    try:
        return sorted(graph.nodes, key=lambda v: (-graph.degree[v], v))
    except TypeError:
        return sorted(graph.nodes, key=lambda v: (-graph.degree[v], str(v)))


def welsh_powell_coloring(graph: nx.Graph) -> Dict[Hashable, int]:
    """Color *graph* with the Welsh–Powell heuristic.

    Vertices are processed in order of decreasing degree (ties broken by the
    vertex's natural ordering for determinism); each color class is filled
    with every remaining vertex not adjacent to the class before moving to
    the next color.  Runs in ``O(V^2)`` and uses at most ``max_degree + 1``
    colors.
    """
    order = _degree_order(graph)
    coloring: Dict[Hashable, int] = {}
    color = 0
    remaining = [v for v in order]
    while remaining:
        members: List[Hashable] = []
        blocked: Set[Hashable] = set()
        for vertex in remaining:
            if vertex in blocked:
                continue
            members.append(vertex)
            blocked.update(graph.neighbors(vertex))
            blocked.add(vertex)
        for vertex in members:
            coloring[vertex] = color
        member_set = set(members)
        remaining = [v for v in remaining if v not in member_set]
        color += 1
    return coloring


def greedy_coloring(graph: nx.Graph, strategy: str = "welsh_powell") -> Dict[Hashable, int]:
    """Color *graph* with the requested heuristic.

    ``"welsh_powell"`` (default) uses this module's implementation; any other
    strategy string is forwarded to :func:`networkx.coloring.greedy_color`
    (e.g. ``"largest_first"``, ``"DSATUR"``) so alternative orderings can be
    compared in ablation benchmarks.
    """
    if strategy == "welsh_powell":
        return welsh_powell_coloring(graph)
    return dict(nx.coloring.greedy_color(graph, strategy=strategy))


class GraphIndex:
    """Integer-indexed coloring kernels over a frozen graph.

    The compiler colors *subsets* of one fixed graph over and over — the
    active couplings of every time step, plus one candidate subset per
    ``noise_conflict`` probe in the scheduler's inner loop.  Building an
    ``nx`` subgraph and walking adjacency dicts per call dominates the cold
    compile path, so this class indexes the graph once — vertices become
    dense integers in natural sort order, adjacency becomes one Python-int
    bitset per vertex — and runs Welsh–Powell and a budgeted greedy
    coloring as pure integer/bit operations.

    Every kernel is **behaviour-identical** to a networkx formulation on
    the induced subgraph (same ordering rule, same tie-breaks, same output),
    which ``tests/differential`` enforces case by case against the oracles
    in ``tests/differential/oracles.py``:

    * :meth:`welsh_powell` ==
      ``welsh_powell_coloring(graph.subgraph(active))``
    * :meth:`bounded` == the budgeted greedy coloring of
      ``graph.subgraph(active)`` with ``k`` colors.

    Vertex ids follow the natural (falling back to string) vertex order, so
    the id order *is* the :func:`_degree_order` tie-break order.
    """

    def __init__(self, graph: nx.Graph) -> None:
        try:
            vertices = sorted(graph.nodes)
        except TypeError:  # incomparable vertex types
            vertices = sorted(graph.nodes, key=str)
        self.vertices: List[Hashable] = vertices
        self.vertex_id: Dict[Hashable, int] = {v: i for i, v in enumerate(vertices)}
        self.adjacency: List[int] = [0] * len(vertices)
        for u, v in graph.edges:
            iu, iv = self.vertex_id[u], self.vertex_id[v]
            self.adjacency[iu] |= 1 << iv
            self.adjacency[iv] |= 1 << iu

    # ------------------------------------------------------------------
    def __contains__(self, vertex: Hashable) -> bool:
        return vertex in self.vertex_id

    def __len__(self) -> int:
        return len(self.vertices)

    def ids_of(self, vertices: Iterable[Hashable]) -> List[int]:
        """Map vertices to their integer ids (raises ``KeyError`` on strangers)."""
        return [self.vertex_id[v] for v in vertices]

    def mask_of(self, ids: Iterable[int]) -> int:
        """Bitset with the given vertex ids set."""
        mask = 0
        for i in ids:
            mask |= 1 << i
        return mask

    def neighbor_count(self, vertex_id: int, mask: int) -> int:
        """Number of neighbours of ``vertex_id`` inside the bitset ``mask``."""
        return (self.adjacency[vertex_id] & mask).bit_count()

    # ------------------------------------------------------------------
    def _active_order(self, ids: Sequence[int], mask: int) -> List[int]:
        """Active ids by decreasing subgraph degree, ties by natural order.

        Mirrors :func:`_degree_order` on the induced subgraph: degrees are
        counted *within* the active set, and id order equals the vertices'
        natural order by construction.
        """
        adjacency = self.adjacency
        return sorted(ids, key=lambda i: (-(adjacency[i] & mask).bit_count(), i))

    def welsh_powell(self, active: Optional[Iterable[Hashable]] = None) -> Dict[Hashable, int]:
        """Welsh–Powell coloring of the induced subgraph, as a vertex→color dict.

        ``active=None`` colors the whole graph.  Identical output to
        :func:`welsh_powell_coloring` on ``graph.subgraph(active)``.
        """
        if active is None:
            ids = list(range(len(self.vertices)))
        else:
            ids = sorted({self.vertex_id[v] for v in active})
        mask = self.mask_of(ids)
        remaining = self._active_order(ids, mask)
        adjacency = self.adjacency
        coloring_ids: Dict[int, int] = {}
        color = 0
        while remaining:
            blocked = 0
            members = 0
            for vertex in remaining:
                if (blocked >> vertex) & 1:
                    continue
                members |= 1 << vertex
                blocked |= adjacency[vertex] | (1 << vertex)
            next_remaining = []
            for vertex in remaining:
                if (members >> vertex) & 1:
                    coloring_ids[vertex] = color
                else:
                    next_remaining.append(vertex)
            remaining = next_remaining
            color += 1
        return {self.vertices[i]: c for i, c in coloring_ids.items()}

    def bounded(
        self,
        max_colors: int,
        active: Optional[Iterable[Hashable]] = None,
        priority: Optional[Dict[Hashable, float]] = None,
    ) -> Tuple[Dict[Hashable, int], List[Hashable]]:
        """Color as much of the induced subgraph as ``max_colors`` colors allow.

        Vertices are visited by decreasing (*priority*, then) subgraph
        degree, ties in natural order, and each takes the smallest color
        none of its colored neighbours has.  Vertices left without a color
        are returned in the deferral list — the scheduler postpones the
        corresponding gates to a later time step, which is how ColorDynamic
        trades parallelism for tunability (Fig. 11).

        Returns ``(coloring, deferred)``: colored vertices mapped to
        ``0..max_colors-1``, and the vertices left uncolored.
        """
        if max_colors < 1:
            raise ValueError("max_colors must be at least 1")
        if active is None:
            ids = list(range(len(self.vertices)))
        else:
            ids = sorted({self.vertex_id[v] for v in active})
        mask = self.mask_of(ids)
        adjacency = self.adjacency
        if priority is None:
            order = self._active_order(ids, mask)
        else:
            order = sorted(
                ids,
                key=lambda i: (
                    -priority.get(self.vertices[i], 0.0),
                    -(adjacency[i] & mask).bit_count(),
                    i,
                ),
            )
        # One bitset of already-colored vertices per color.
        color_masks: List[int] = [0] * max_colors
        coloring_ids: Dict[int, int] = {}
        deferred: List[Hashable] = []
        for vertex in order:
            adj = adjacency[vertex]
            for color in range(max_colors):
                if not (color_masks[color] & adj):
                    coloring_ids[vertex] = color
                    color_masks[color] |= 1 << vertex
                    break
            else:
                deferred.append(self.vertices[vertex])
        return {self.vertices[i]: c for i, c in coloring_ids.items()}, deferred


def num_colors(coloring: Dict[Hashable, int]) -> int:
    """Number of distinct colors used by a coloring."""
    return len(set(coloring.values())) if coloring else 0


def validate_coloring(graph: nx.Graph, coloring: Dict[Hashable, int]) -> bool:
    """Return ``True`` when no edge of *graph* joins two same-colored vertices."""
    return not any(
        u in coloring and v in coloring and coloring[u] == coloring[v]
        for u, v in graph.edges
    )


def color_classes(coloring: Dict[Hashable, int]) -> Dict[int, List[Hashable]]:
    """Group vertices by color."""
    classes: Dict[int, List[Hashable]] = {}
    for vertex, color in coloring.items():
        classes.setdefault(color, []).append(vertex)
    for members in classes.values():
        try:
            members.sort()
        except TypeError:  # incomparable vertex types
            members.sort(key=str)
    return classes
