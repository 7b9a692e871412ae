"""Differential: the in-tree graph code (``repro.graph``) vs networkx.

Compiled programs depend on more than graph *structure*: the router's
choice among equally short SWAP paths, the order in which the line-graph
edge coloring visits degree ties, and the Erdős–Rényi draws behind QAOA all
follow networkx's iteration orders.  Each in-tree replay is held here to
exact equality with the networkx call it replaces (``oracles.py``), on the
seeded random connectivities of ``diffgen`` and on every device topology.
"""

from __future__ import annotations

import itertools

import pytest

import oracles
from diffgen import random_connectivity
from repro.core.coloring import greedy_coloring
from repro.core.crosstalk_graph import build_crosstalk_graph
from repro.devices import Device, topology_by_name
from repro.graph import (
    bfs_distances,
    gnp_edges,
    line_graph_coloring,
    shortest_path,
)

SEEDS = range(200)

TOPOLOGIES = [
    (name, n)
    for name in ("linear", "ring", "1EX-5", "1EX-3", "1EX-2", "all-to-all")
    for n in (2, 3, 6, 9, 16)
] + [
    (name, n)
    for name in ("grid", "2EX-5", "2EX-4", "2EX-3", "2EX-2", "heavy-hex")
    for n in (4, 9, 16, 25, 36, 64)
]


def _snapshot(graph):
    """Node order, per-node neighbour order, edge order and name."""
    return (
        list(graph.nodes),
        [list(graph.adj[node]) for node in graph.nodes],
        list(graph.edges),
        graph.name,
    )


@pytest.mark.differential
@pytest.mark.parametrize("name,num_qubits", TOPOLOGIES)
def test_topologies_match_networkx_builders(name, num_qubits):
    built = topology_by_name(name, num_qubits)
    reference = oracles.topology(name, num_qubits)
    assert _snapshot(built) == _snapshot(reference)
    # Devices relabel and (Baseline G) copy their graph; both keep the order.
    device = Device.from_graph(built, seed=0)
    reference_relabelled = oracles.device_graph(reference)
    assert _snapshot(device.graph) == _snapshot(reference_relabelled)
    assert _snapshot(device.graph.copy()) == _snapshot(reference_relabelled.copy())


@pytest.mark.differential
@pytest.mark.parametrize("seed", SEEDS)
def test_line_graph_colorings_are_equal_ordered_dicts(seed):
    reference_graph = random_connectivity(seed)
    graph = oracles.as_graph(reference_graph)
    assert _snapshot(graph) == _snapshot(reference_graph)
    assert list(line_graph_coloring(graph).items()) == list(
        oracles.line_graph_coloring(reference_graph).items()
    )


@pytest.mark.differential
@pytest.mark.parametrize("name,num_qubits", TOPOLOGIES)
def test_topology_edge_colorings_are_equal_ordered_dicts(name, num_qubits):
    graph = Device.from_topology_name(name, num_qubits, seed=0).graph
    reference = oracles.device_graph(oracles.topology(name, num_qubits)).copy()
    assert list(line_graph_coloring(graph.copy()).items()) == list(
        oracles.line_graph_coloring(reference).items()
    )


@pytest.mark.differential
@pytest.mark.parametrize("seed", range(50))
def test_largest_first_coloring_matches_networkx(seed):
    reference_graph = oracles.as_networkx(build_crosstalk_graph(random_connectivity(seed)))
    graph = oracles.as_graph(reference_graph)
    assert list(greedy_coloring(graph, "largest_first").items()) == list(
        oracles.largest_first_coloring(reference_graph).items()
    )


@pytest.mark.differential
@pytest.mark.parametrize("seed", SEEDS)
def test_shortest_paths_are_equal(seed):
    reference_graph = random_connectivity(seed)
    graph = oracles.as_graph(reference_graph)
    for source, target in itertools.permutations(sorted(reference_graph.nodes), 2):
        assert shortest_path(graph, source, target) == oracles.shortest_path(
            reference_graph, source, target
        )


@pytest.mark.differential
@pytest.mark.parametrize("seed", SEEDS)
def test_bfs_distances_are_equal(seed):
    reference_graph = random_connectivity(seed)
    graph = oracles.as_graph(reference_graph)
    for source in reference_graph.nodes:
        for cutoff in (None, 1, 2, 3):
            assert bfs_distances(graph, source, cutoff) == oracles.bfs_distances(
                reference_graph, source, cutoff
            )


@pytest.mark.differential
@pytest.mark.parametrize("probability", [0.0, 0.1, 0.5, 0.9, 1.0])
def test_gnp_edge_lists_are_equal(probability):
    for num_nodes in range(2, 21):
        for seed in range(50):
            assert gnp_edges(num_nodes, probability, seed) == oracles.gnp_edges(
                num_nodes, probability, seed
            )


@pytest.mark.differential
@pytest.mark.parametrize("seed", SEEDS)
def test_crosstalk_graphs_are_equal(seed):
    reference_graph = random_connectivity(seed)
    graph = oracles.as_graph(reference_graph)
    for distance in (1, 2, 3):
        built = build_crosstalk_graph(graph, distance)
        reference = oracles.build_crosstalk_graph(reference_graph, distance)
        assert sorted(built.nodes) == sorted(reference.nodes)
        assert {frozenset(e) for e in built.edges} == {frozenset(e) for e in reference.edges}
