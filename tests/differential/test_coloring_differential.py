"""Differential: bitset coloring kernels vs the networkx oracles.

Seeded random crosstalk graphs and random active subsets drive
:class:`repro.core.GraphIndex` against ``welsh_powell_coloring`` and the
oracles' ``bounded_coloring`` on ``active_subgraph``.  The
acceptance bar from the issue — the fast coloring must be *valid* and use no
more colors than reference Welsh–Powell — is asserted explicitly, and on top
of that the kernels are held to exact output equality (the compiler's
frequency assignments consume the colorings, so bit-identical compiled
programs require identical colorings, not merely equally good ones).
"""

from __future__ import annotations

import pytest

from oracles import active_subgraph, bounded_coloring
from repro.core.coloring import (
    GraphIndex,
    num_colors,
    validate_coloring,
    welsh_powell_coloring,
)

from diffgen import random_active_subset, random_crosstalk_graph

SEEDS = range(60)


@pytest.mark.differential
@pytest.mark.parametrize("seed", SEEDS)
def test_indexed_welsh_powell_matches_reference(seed):
    graph = random_crosstalk_graph(seed)
    index = GraphIndex(graph)
    active = random_active_subset(graph, seed)
    subgraph = active_subgraph(graph, active)

    fast = index.welsh_powell(active)
    reference = welsh_powell_coloring(subgraph)

    # Issue acceptance bar: valid coloring, color count <= reference.
    assert validate_coloring(subgraph, fast)
    assert set(fast) == set(subgraph.nodes)
    assert num_colors(fast) <= num_colors(reference)
    # Stronger: the kernels are exact twins.
    assert fast == reference


@pytest.mark.differential
@pytest.mark.parametrize("seed", SEEDS)
def test_indexed_welsh_powell_full_graph(seed):
    graph = random_crosstalk_graph(seed)
    index = GraphIndex(graph)
    fast = index.welsh_powell()
    reference = welsh_powell_coloring(graph)
    assert validate_coloring(graph, fast)
    assert fast == reference


@pytest.mark.differential
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("max_colors", [1, 2, 3, 4])
def test_indexed_bounded_coloring_matches_reference(seed, max_colors):
    graph = random_crosstalk_graph(seed)
    index = GraphIndex(graph)
    active = random_active_subset(graph, seed)
    subgraph = active_subgraph(graph, active)

    fast_coloring, fast_deferred = index.bounded(max_colors, active)
    ref_coloring, ref_deferred = bounded_coloring(subgraph, max_colors)

    assert validate_coloring(subgraph, fast_coloring)
    assert all(color < max_colors for color in fast_coloring.values())
    assert fast_coloring == ref_coloring
    assert fast_deferred == ref_deferred


@pytest.mark.differential
def test_indexed_bounded_respects_priority(rng_for):
    graph = random_crosstalk_graph(7)
    index = GraphIndex(graph)
    nodes = sorted(graph.nodes)
    priority = {node: rng_for.uniform(0.0, 10.0) for node in nodes}
    fast = index.bounded(2, nodes, priority=priority)
    reference = bounded_coloring(graph, 2, priority=priority)
    assert fast == reference


@pytest.mark.differential
def test_index_rejects_unknown_vertices():
    graph = random_crosstalk_graph(3)
    index = GraphIndex(graph)
    with pytest.raises(KeyError):
        index.welsh_powell([(998, 999)])
