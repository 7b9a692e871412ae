"""Tests for the graph-coloring heuristics."""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    GraphIndex,
    color_classes,
    greedy_coloring,
    num_colors,
    validate_coloring,
    welsh_powell_coloring,
)


def bounded_coloring(graph, max_colors, priority=None):
    """The scheduler's budgeted coloring probe over a whole graph."""
    return GraphIndex(graph).bounded(max_colors, priority=priority)


class TestWelshPowell:
    def test_empty_graph(self):
        assert welsh_powell_coloring(nx.Graph()) == {}

    def test_single_vertex(self):
        graph = nx.Graph()
        graph.add_node("a")
        assert welsh_powell_coloring(graph) == {"a": 0}

    def test_complete_graph_needs_n_colors(self):
        graph = nx.complete_graph(5)
        coloring = welsh_powell_coloring(graph)
        assert num_colors(coloring) == 5
        assert validate_coloring(graph, coloring)

    def test_bipartite_graph_uses_two_colors(self):
        graph = nx.complete_bipartite_graph(4, 5)
        coloring = welsh_powell_coloring(graph)
        assert num_colors(coloring) == 2

    def test_cycle_coloring(self):
        even = welsh_powell_coloring(nx.cycle_graph(6))
        odd = welsh_powell_coloring(nx.cycle_graph(7))
        assert num_colors(even) == 2
        assert num_colors(odd) == 3

    def test_deterministic(self):
        graph = nx.erdos_renyi_graph(20, 0.3, seed=5)
        assert welsh_powell_coloring(graph) == welsh_powell_coloring(graph)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 25), p=st.floats(0.05, 0.9), seed=st.integers(0, 999))
    def test_random_graphs_get_proper_colorings(self, n, p, seed):
        graph = nx.erdos_renyi_graph(n, p, seed=seed)
        coloring = welsh_powell_coloring(graph)
        assert set(coloring) == set(graph.nodes)
        assert validate_coloring(graph, coloring)
        assert num_colors(coloring) <= max(dict(graph.degree).values() or [0]) + 1


class TestDeterministicOrdering:
    """Degree ties must break by *natural* vertex order, not ``str(v)``.

    Crosstalk-graph vertices are coupling tuples; under string ordering
    ``(1, 10)`` sorts before ``(1, 2)``, which made colorings depend on the
    lexicographic accident rather than the qubit indices.
    """

    def test_coupling_vertex_ties_use_tuple_order(self):
        graph = nx.Graph()
        graph.add_edge((1, 2), (1, 10))
        coloring = welsh_powell_coloring(graph)
        # (1, 2) < (1, 10) naturally, so it seeds the first color class;
        # str ordering would have put "(1, 10)" first.
        assert coloring == {(1, 2): 0, (1, 10): 1}

    def test_integer_vertex_ties_use_numeric_order(self):
        graph = nx.Graph()
        graph.add_edge(2, 10)
        coloring = welsh_powell_coloring(graph)
        assert coloring == {2: 0, 10: 1}  # str ordering would start at "10"

    def test_bounded_coloring_colors_naturally_smallest_first(self):
        graph = nx.Graph()
        for a in [(1, 2), (1, 3), (1, 10)]:
            for b in [(1, 2), (1, 3), (1, 10)]:
                if a < b:
                    graph.add_edge(a, b)
        coloring, deferred = bounded_coloring(graph, 1)
        assert coloring == {(1, 2): 0}
        assert deferred == [(1, 3), (1, 10)]

    def test_incomparable_vertex_types_fall_back_to_string_order(self):
        graph = nx.Graph()
        graph.add_edge("a", (1, 2))
        graph.add_node(3)
        coloring = welsh_powell_coloring(graph)
        assert validate_coloring(graph, coloring)
        assert set(coloring) == set(graph.nodes)

    def test_color_classes_sorted_naturally(self):
        coloring = {(1, 10): 0, (1, 2): 0, (1, 3): 1}
        classes = color_classes(coloring)
        assert classes[0] == [(1, 2), (1, 10)]


class TestGreedyStrategies:
    def test_welsh_powell_is_default(self):
        graph = nx.cycle_graph(8)
        assert greedy_coloring(graph) == welsh_powell_coloring(graph)

    def test_networkx_strategies_are_forwarded(self):
        graph = nx.erdos_renyi_graph(15, 0.4, seed=1)
        coloring = greedy_coloring(graph, strategy="largest_first")
        assert validate_coloring(graph, coloring)


class TestBoundedColoring:
    def test_enough_colors_defers_nothing(self):
        graph = nx.cycle_graph(6)
        coloring, deferred = bounded_coloring(graph, 3)
        assert deferred == []
        assert validate_coloring(graph, coloring)

    def test_too_few_colors_defers_vertices(self):
        graph = nx.complete_graph(5)
        coloring, deferred = bounded_coloring(graph, 2)
        assert len(coloring) == 2
        assert len(deferred) == 3
        assert validate_coloring(graph, coloring)

    def test_priority_controls_who_gets_colored(self):
        graph = nx.complete_graph(3)
        priority = {0: 0.0, 1: 5.0, 2: 10.0}
        coloring, deferred = bounded_coloring(graph, 1, priority=priority)
        assert list(coloring) == [2]
        assert set(deferred) == {0, 1}

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError):
            bounded_coloring(nx.Graph(), 0)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 20), p=st.floats(0.1, 0.9), k=st.integers(1, 4), seed=st.integers(0, 99))
    def test_bounded_coloring_never_exceeds_budget(self, n, p, k, seed):
        graph = nx.erdos_renyi_graph(n, p, seed=seed)
        coloring, deferred = bounded_coloring(graph, k)
        assert num_colors(coloring) <= k
        assert validate_coloring(graph, coloring)
        assert set(coloring) | set(deferred) == set(graph.nodes)


class TestHelpers:
    def test_color_classes_groups_vertices(self):
        coloring = {"a": 0, "b": 1, "c": 0}
        classes = color_classes(coloring)
        assert classes[0] == ["a", "c"]
        assert classes[1] == ["b"]

    def test_num_colors_of_empty_coloring(self):
        assert num_colors({}) == 0

    def test_validate_detects_conflicts(self):
        graph = nx.path_graph(3)
        assert not validate_coloring(graph, {0: 0, 1: 0, 2: 1})
        assert validate_coloring(graph, {0: 0, 1: 1, 2: 0})
