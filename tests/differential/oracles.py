"""Frozen reference implementations of the compile and estimate stages.

``src/`` runs each hot stage once, as an optimized rewrite: bitset coloring
kernels, a NumPy solver scan, flat-list scheduling, a pre-indexed step
frequency assigner and a dense NumPy Eq. (4) estimator.  This module keeps
the original, straightforward formulation of each one — networkx graphs,
scalar loops — as a test oracle:

* :class:`CircuitDAG`/:func:`build_dag` and :func:`criticality` — the
  networkx gate dependency DAG and its longest-path sweep;
* :func:`bounded_coloring` and :func:`active_subgraph` — the networkx
  coloring probe;
* :func:`noise_conflict`, :func:`schedule_reference` and
  :func:`schedule_admission_reference` — the networkx scheduling loop and
  the policy-driven loop (:class:`OracleScheduler` plugs them into a
  scheduler);
* :func:`greedy_place`, :func:`solve_max_separation` and
  :func:`assign_color_frequencies` — the scalar max-separation solver;
* :func:`step_frequencies` — per-step qubit frequencies, resolved through
  the device every call;
* :func:`estimate_success` — the scalar triple loop of Eq. (4);
* :func:`from_steps` — the columns of a :class:`~repro.program.TimeStep`
  list, built step by step (the compile pipeline emits columns directly;
  :func:`program_from_steps` wraps hand-built steps into a program);
* the networkx formulations of the in-tree graph code (:mod:`repro.graph`,
  the topology builders, :func:`build_crosstalk_graph`): line graph plus
  ``largest_first`` greedy coloring, ``shortest_path``, BFS distances,
  ``gnp_random_graph`` and the generators behind each topology.

The oracles are frozen: they wrote ``perfbench/expected_fig09_seed2020.json``
and must keep reproducing it exactly.  The differential suites compare
production against them; production changes, the oracles do not.

:func:`make_oracle_compiler` builds a strategy whose kernels are these
oracles.  It overrides the strategy's hooks only — scheduler, interaction
frequencies, step frequencies — and runs the production compile pipeline.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Mapping, Optional, Sequence, Set, Tuple

import networkx as nx
import numpy as np

from repro.baselines import BaselineGmon, BaselineNaive, BaselineStatic, BaselineUniform
from repro.circuits import Circuit, GateTable
from repro.core.admission import StepAdmission
from repro.core.coloring import num_colors, welsh_powell_coloring
from repro.core.compiler import ColorDynamic
from repro.core.frequencies import clamp_to_range
from repro.core.scheduler import NoiseAwareScheduler, ScheduledStep
from repro.core.solver import FrequencySolution
from repro.devices import Device
from repro.graph import Graph
from repro.noise.crosstalk import spectator_error
from repro.noise.decoherence import combined_qubit_error
from repro.noise.flux import flux_dephasing_rate
from repro.noise.leakage import leakage_probability
from repro.noise.metrics import (
    NoiseModel,
    SuccessReport,
    _gate_floor_errors,
    spectator_geometry,
)
from repro.program import _BUFFER_DTYPES, CompiledProgram, Interaction, ProgramColumns, TimeStep

Coupling = Tuple[int, int]


# ---------------------------------------------------------------------------
# graphs: conversions and the networkx formulations of repro.graph
# ---------------------------------------------------------------------------
def as_networkx(graph) -> nx.Graph:
    """*graph* as a networkx graph: nodes in order, then edges in order.

    A networkx graph is returned as is.  Rebuilding from ``edges`` keeps
    every adjacency order that edge-order construction produces, which
    covers the topology builders and ``Device.from_graph``.
    """
    if isinstance(graph, nx.Graph):
        return graph
    converted = nx.Graph(name=graph.name)
    converted.add_nodes_from(graph.nodes)
    converted.add_edges_from(graph.edges)
    return converted


def as_graph(nx_graph: nx.Graph) -> Graph:
    """An in-tree :class:`Graph` with *nx_graph*'s node and adjacency order."""
    graph = Graph(name=nx_graph.name)
    for node, neighbours in nx_graph.adj.items():
        graph.adj[node] = dict.fromkeys(neighbours)
    return graph


def line_graph_coloring(graph: nx.Graph) -> Dict[Tuple, int]:
    """Largest-first greedy coloring of the line graph (an edge coloring)."""
    return nx.coloring.greedy_color(nx.line_graph(graph), strategy="largest_first")


def largest_first_coloring(graph: nx.Graph) -> Dict[Hashable, int]:
    return nx.coloring.greedy_color(graph, strategy="largest_first")


def shortest_path(graph: nx.Graph, source, target) -> List:
    return nx.shortest_path(graph, source, target)


def bfs_distances(graph: nx.Graph, source, cutoff: Optional[int] = None) -> Dict:
    return dict(nx.single_source_shortest_path_length(graph, source, cutoff=cutoff))


def gnp_edges(num_nodes: int, probability: float, seed: int) -> List[Tuple[int, int]]:
    return list(nx.gnp_random_graph(num_nodes, probability, seed=seed).edges)


def device_graph(graph: nx.Graph) -> nx.Graph:
    """The connectivity graph ``Device.from_graph`` derives from *graph*."""
    return nx.convert_node_labels_to_integers(graph, ordering="sorted")


def build_crosstalk_graph(connectivity: nx.Graph, distance: int = 1) -> nx.Graph:
    """Algorithm 2 as a line graph plus all-pairs BFS distances."""
    line = nx.line_graph(connectivity)
    crosstalk = nx.Graph()
    crosstalk.add_nodes_from(tuple(sorted(edge)) for edge in connectivity.edges)
    for u, v in line.edges:
        crosstalk.add_edge(tuple(sorted(u)), tuple(sorted(v)))
    lengths = dict(nx.all_pairs_shortest_path_length(connectivity, cutoff=distance))
    couplings = sorted(crosstalk.nodes)
    for i, (u1, v1) in enumerate(couplings):
        for u2, v2 in couplings[i + 1 :]:
            if any(
                lengths[a].get(b, distance + 1) <= distance
                for a in (u1, v1)
                for b in (u2, v2)
            ):
                crosstalk.add_edge((u1, v1), (u2, v2))
    return crosstalk


def _grid(num_qubits: int) -> nx.Graph:
    side = int(round(math.sqrt(num_qubits)))
    graph = nx.Graph(name=f"grid-{side}x{side}")
    graph.add_nodes_from(range(num_qubits))
    for r in range(side):
        for c in range(side):
            node = r * side + c
            if c + 1 < side:
                graph.add_edge(node, node + 1)
            if r + 1 < side:
                graph.add_edge(node, node + side)
    return graph


def topology(name: str, num_qubits: int) -> nx.Graph:
    """The networkx construction of each ``topology_by_name`` topology."""
    key = name.lower()
    side = int(round(math.sqrt(num_qubits)))
    if key in ("linear", "ring", "all-to-all") or key.startswith("1ex-"):
        if key == "ring":
            graph = nx.cycle_graph(num_qubits)
        elif key == "all-to-all":
            graph = nx.complete_graph(num_qubits)
        else:
            graph = nx.path_graph(num_qubits)
        if key.startswith("1ex-"):
            k = int(key.split("-")[1])
            for start in range(0, num_qubits - k, k):
                graph.add_edge(start, start + k)
            graph.name = f"1EX-{k}-{num_qubits}"
        else:
            graph.name = f"{key}-{num_qubits}"
        return graph
    if key == "grid":
        return _grid(num_qubits)
    if key.startswith("2ex-"):
        k = int(key.split("-")[1])
        graph = _grid(num_qubits)
        graph.name = f"2EX-{k}-{side}x{side}"
        for r in range(side):
            for c in range(0, side - k, k):
                graph.add_edge(r * side + c, r * side + c + k)
        for c in range(side):
            for r in range(0, side - k, k):
                graph.add_edge(r * side + c, (r + k) * side + c)
        return graph
    if key == "heavy-hex":
        distance = max(1, side // 2)
        lattice = nx.hexagonal_lattice_graph(distance, distance)
        mapping = {node: i for i, node in enumerate(sorted(lattice.nodes))}
        base = nx.relabel_nodes(lattice, mapping)
        heavy = nx.Graph(name=f"heavy-hex-{distance}")
        heavy.add_nodes_from(base.nodes)
        next_node = base.number_of_nodes()
        for u, v in base.edges:
            heavy.add_node(next_node)
            heavy.add_edge(u, next_node)
            heavy.add_edge(next_node, v)
            next_node += 1
        return heavy
    raise ValueError(f"no networkx construction for topology {name!r}")


# ---------------------------------------------------------------------------
# criticality
# ---------------------------------------------------------------------------
@dataclass
class CircuitDAG:
    """Gate dependency DAG of a circuit.

    Nodes are gate indices into ``circuit.gates``; an edge ``i -> j`` means
    gate ``j`` must execute after gate ``i`` because they share a qubit and
    ``i`` precedes ``j`` in program order.
    """

    circuit: Circuit
    graph: nx.DiGraph

    def predecessors(self, index: int) -> List[int]:
        return sorted(self.graph.predecessors(index))

    def successors(self, index: int) -> List[int]:
        return sorted(self.graph.successors(index))

    def front_layer(self) -> List[int]:
        """Indices of gates with no predecessors (the first executable layer)."""
        return sorted(n for n in self.graph.nodes if self.graph.in_degree(n) == 0)

    def topological_layers(self) -> List[List[int]]:
        """Return ASAP layers of gate indices."""
        depth: Dict[int, int] = {}
        for node in nx.topological_sort(self.graph):
            preds = list(self.graph.predecessors(node))
            depth[node] = 0 if not preds else 1 + max(depth[p] for p in preds)
        layers: Dict[int, List[int]] = {}
        for node, d in depth.items():
            layers.setdefault(d, []).append(node)
        return [sorted(layers[d]) for d in sorted(layers)]


def build_dag(circuit: Circuit) -> CircuitDAG:
    """Construct the gate dependency DAG of *circuit*.

    Dependencies are derived purely from qubit sharing: for each qubit, the
    gates touching it form a chain in program order (no commutation
    analysis), the model ``repro.circuits.gate_dependencies`` flattens.
    """
    graph = nx.DiGraph()
    graph.add_nodes_from(range(len(circuit.gates)))
    last_on_qubit: Dict[int, int] = {}
    for index, gate in enumerate(circuit.gates):
        for qubit in gate.qubits:
            if qubit in last_on_qubit:
                graph.add_edge(last_on_qubit[qubit], index)
            last_on_qubit[qubit] = index
    return CircuitDAG(circuit=circuit, graph=graph)


def criticality(circuit: Circuit, weighted: bool = True) -> Dict[int, float]:
    """Remaining-critical-path length per gate, over a networkx DAG."""
    dag = build_dag(circuit)
    scores: Dict[int, float] = {}
    for node in reversed(list(nx.topological_sort(dag.graph))):
        gate = circuit.gates[node]
        own = gate.duration_ns if weighted else 1.0
        succs = list(dag.graph.successors(node))
        scores[node] = own + (max(scores[s] for s in succs) if succs else 0.0)
    return scores


# ---------------------------------------------------------------------------
# coloring
# ---------------------------------------------------------------------------
def _degree_order(
    graph: nx.Graph, priority: Optional[Dict[Hashable, float]] = None
) -> List[Hashable]:
    """Vertices by decreasing (priority,) degree, ties broken naturally."""
    if priority is None:
        keys = [lambda v: (-graph.degree[v], v), lambda v: (-graph.degree[v], str(v))]
    else:
        keys = [
            lambda v: (-priority.get(v, 0.0), -graph.degree[v], v),
            lambda v: (-priority.get(v, 0.0), -graph.degree[v], str(v)),
        ]
    try:
        return sorted(graph.nodes, key=keys[0])
    except TypeError:
        return sorted(graph.nodes, key=keys[1])


def bounded_coloring(
    graph: nx.Graph,
    max_colors: int,
    priority: Optional[Dict[Hashable, float]] = None,
) -> Tuple[Dict[Hashable, int], List[Hashable]]:
    """Color as many vertices as possible using at most ``max_colors`` colors.

    Returns ``(coloring, deferred)``: colored vertices mapped to
    ``0..max_colors-1`` and the vertices left uncolored.
    """
    if max_colors < 1:
        raise ValueError("max_colors must be at least 1")

    order = _degree_order(graph, priority)

    coloring: Dict[Hashable, int] = {}
    deferred: List[Hashable] = []
    for vertex in order:
        used = {coloring[n] for n in graph.neighbors(vertex) if n in coloring}
        available = [c for c in range(max_colors) if c not in used]
        if available:
            coloring[vertex] = available[0]
        else:
            deferred.append(vertex)
    return coloring, deferred


def active_subgraph(crosstalk, active_couplings) -> nx.Graph:
    """Induced subgraph of the couplings active in one time step.

    Couplings not present in the crosstalk graph raise ``KeyError``.
    """
    keys = [tuple(sorted(c)) for c in active_couplings]
    for key in keys:
        if key not in crosstalk:
            raise KeyError(f"coupling {key} is not an edge of the device")
    return as_networkx(crosstalk).subgraph(keys).copy()


# ---------------------------------------------------------------------------
# scheduler
# ---------------------------------------------------------------------------
def noise_conflict(
    scheduler: NoiseAwareScheduler, coupling: Coupling, active: Sequence[Coupling]
) -> bool:
    """Whether admitting *coupling* alongside *active* risks crosstalk."""
    if scheduler.crosstalk_graph is None:
        return False
    key = tuple(sorted(coupling))
    active_keys = [tuple(sorted(c)) for c in active]

    if scheduler.conflict_threshold is not None:
        neighbours = (
            set(scheduler.crosstalk_graph.neighbors(key))
            if key in scheduler.crosstalk_graph
            else set()
        )
        crowded = sum(1 for c in active_keys if c in neighbours)
        if crowded >= scheduler.conflict_threshold:
            return True

    if scheduler.max_colors is not None:
        subgraph = active_subgraph(scheduler.crosstalk_graph, active_keys + [key])
        _, deferred = bounded_coloring(subgraph, scheduler.max_colors)
        if deferred:
            return True
    return False


def schedule_reference(
    scheduler: NoiseAwareScheduler,
    circuit: Circuit,
    on_step: Optional[Callable[[ScheduledStep], None]] = None,
) -> List[ScheduledStep]:
    """The networkx scheduling loop, configured by *scheduler*'s knobs."""
    dag = build_dag(circuit)
    scores = criticality(circuit, weighted=True)

    indegree: Dict[int, int] = {node: dag.graph.in_degree(node) for node in dag.graph.nodes}
    ready: Set[int] = {node for node, deg in indegree.items() if deg == 0}
    steps: List[ScheduledStep] = []
    step_index = 0

    while ready:
        ordered = sorted(ready, key=lambda idx: (-scores[idx], idx))
        step = ScheduledStep([], [], [])
        busy_qubits: Set[int] = set()
        allowed = (
            scheduler.allowed_couplings(step_index)
            if scheduler.allowed_couplings is not None
            else None
        )

        for index in ordered:
            gate = circuit.gates[index]
            if set(gate.qubits) & busy_qubits:
                continue
            if gate.is_two_qubit:
                coupling = tuple(sorted(gate.qubits))
                if allowed is not None and coupling not in allowed:
                    continue
                if (
                    scheduler.max_parallel_interactions is not None
                    and len(step.couplings) >= scheduler.max_parallel_interactions
                ):
                    continue
                if noise_conflict(scheduler, coupling, step.couplings):
                    continue
                step.couplings.append(coupling)
                step.interacting.append(index)
            step.indices.append(index)
            busy_qubits.update(gate.qubits)

        if not step.indices:
            if allowed is None:
                raise RuntimeError("scheduler made no progress; circular conflict")
            step_index += 1
            continue

        step.base_duration_ns = max(
            (circuit.gates[i].duration_ns for i in step.indices), default=0.0
        )
        steps.append(step)
        if on_step is not None:
            on_step(step)
        for index in step.indices:
            ready.discard(index)
            for successor in dag.graph.successors(index):
                indegree[successor] -= 1
                if indegree[successor] == 0:
                    ready.add(successor)
        step_index += 1

    return steps


def schedule_admission_reference(
    scheduler: NoiseAwareScheduler,
    circuit: Circuit,
    on_step: Optional[Callable[[ScheduledStep], None]],
    policy: StepAdmission,
) -> List[ScheduledStep]:
    """The policy-driven scheduling loop, configured by *scheduler*'s knobs.

    Single-qubit gates are admitted in criticality order first.  For the
    two-qubit placement, up to ``policy.beam`` complete candidate
    compositions are assembled — composition 0 fills the step in
    criticality order, each further one admits a *leader* first and fills
    the rest around it — and the policy chooses which one the cycle emits.
    Leaders are the gates composition 0 deferred, then its admitted gates
    after the first; a leader that is itself inadmissible yields no
    composition, and duplicate compositions are skipped.
    """
    gates = circuit.gates
    scores = criticality(circuit, weighted=True)
    dag = build_dag(circuit)
    indegree: Dict[int, int] = {node: dag.graph.in_degree(node) for node in dag.graph.nodes}
    ready: Set[int] = {node for node, deg in indegree.items() if deg == 0}

    def sort_key(index: int) -> Tuple[float, int]:
        return (-scores[index], index)

    coupling_of = [
        tuple(sorted(gate.qubits)) if gate.spec.num_qubits == 2 else None for gate in gates
    ]
    max_parallel = scheduler.max_parallel_interactions
    beam = max(1, policy.beam)
    steps: List[ScheduledStep] = []
    step_index = 0

    while ready:
        ordered = sorted(ready, key=sort_key)
        busy_qubits: Set[int] = set()
        allowed = (
            scheduler.allowed_couplings(step_index)
            if scheduler.allowed_couplings is not None
            else None
        )

        single_qubit: List[int] = []
        pending: List[int] = []
        for candidate in ordered:
            if set(gates[candidate].qubits) & busy_qubits:
                continue
            if coupling_of[candidate] is not None:
                pending.append(candidate)
                continue
            single_qubit.append(candidate)
            busy_qubits.update(gates[candidate].qubits)

        def compose(leader: Optional[int]) -> Optional[List[int]]:
            admitted: List[int] = []
            couplings: List[Coupling] = []
            busy = set(busy_qubits)
            order = pending if leader is None else [leader] + [i for i in pending if i != leader]
            for candidate in order:
                if max_parallel is not None and len(couplings) >= max_parallel:
                    break
                gate = gates[candidate]
                if set(gate.qubits) & busy:
                    continue
                coupling = coupling_of[candidate]
                if (allowed is not None and coupling not in allowed) or noise_conflict(
                    scheduler, coupling, couplings
                ):
                    if candidate == leader:
                        return None
                    continue
                admitted.append(candidate)
                couplings.append(coupling)
                busy.update(gate.qubits)
            return admitted

        def assemble(two_qubit: List[int]) -> ScheduledStep:
            indices = sorted(single_qubit + two_qubit, key=sort_key)
            interacting = [i for i in indices if coupling_of[i] is not None]
            return ScheduledStep(
                indices,
                [coupling_of[i] for i in interacting],
                interacting,
                max((gates[i].duration_ns for i in indices), default=0.0),
            )

        structural = compose(None)
        candidates: List[ScheduledStep] = []
        if structural:
            candidates.append(assemble(structural))
            seen = {tuple(sorted(structural))}
            deferred = [i for i in pending if i not in set(structural)]
            for leader in deferred + structural[1:]:
                if len(candidates) >= beam:
                    break
                alternative = compose(leader)
                if alternative is None:
                    continue
                key = tuple(sorted(alternative))
                if key in seen:
                    continue
                seen.add(key)
                candidates.append(assemble(alternative))

        if candidates:
            pick = 0 if len(candidates) == 1 else policy.choose(candidates)
            step = candidates[pick]
        else:
            step = assemble([])

        if not step.indices:
            if allowed is None:
                raise RuntimeError("scheduler made no progress; circular conflict")
            step_index += 1
            continue

        steps.append(step)
        if on_step is not None:
            on_step(step)
        for index in step.indices:
            ready.discard(index)
            for successor in dag.graph.successors(index):
                indegree[successor] -= 1
                if indegree[successor] == 0:
                    ready.add(successor)
        step_index += 1

    return steps


class OracleScheduler(NoiseAwareScheduler):
    """A scheduler whose crosstalk checks and scheduling loops are the oracles.

    Without a policy (or with a ``"structural"`` one) it runs
    :func:`schedule_reference`; any other policy runs
    :func:`schedule_admission_reference`.
    """

    @classmethod
    def like(cls, scheduler: NoiseAwareScheduler) -> "OracleScheduler":
        """An oracle scheduler with *scheduler*'s configuration."""
        return cls(
            crosstalk_graph=scheduler.crosstalk_graph,
            max_colors=scheduler.max_colors,
            conflict_threshold=scheduler.conflict_threshold,
            allowed_couplings=scheduler.allowed_couplings,
            max_parallel_interactions=scheduler.max_parallel_interactions,
        )

    def schedule(self, circuit, on_step=None, admission=None):
        if isinstance(circuit, GateTable):
            circuit = circuit.circuit
        if admission is None or admission.name == "structural":
            return schedule_reference(self, circuit, on_step)
        return schedule_admission_reference(self, circuit, on_step, admission)


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------
def greedy_place(
    count: int, low: float, high: float, delta: float, alpha: float
) -> Optional[List[float]]:
    """Place ``count`` values bottom-up honouring the solver's constraints."""
    placements: List[float] = []
    candidate = low
    alpha_mag = abs(alpha)
    for _ in range(count):
        moved = True
        while moved:
            moved = False
            for p in placements:
                if candidate < p + delta - 1e-12:
                    candidate = p + delta
                    moved = True
                for multiple in (1, 2):
                    lower = p + multiple * alpha_mag - delta
                    upper = p + multiple * alpha_mag + delta
                    if lower - 1e-12 < candidate < upper - 1e-12:
                        candidate = upper
                        moved = True
        if candidate > high + 1e-9:
            return None
        placements.append(candidate)
    return placements


def solve_max_separation(
    count: int,
    low: float,
    high: float,
    anharmonicity: float = -0.2,
    min_separation: float = 1e-4,
    tolerance: float = 1e-5,
    center: bool = True,
) -> FrequencySolution:
    """Binary search for the largest separation :func:`greedy_place` fits."""
    if count <= 0:
        return FrequencySolution(frequencies=(), separation=float("inf"), feasible=True)
    if high < low:
        raise ValueError("frequency band is empty (high < low)")
    if count == 1:
        midpoint = (low + high) / 2.0
        return FrequencySolution((midpoint,), separation=high - low, feasible=True)

    lo_delta, hi_delta = 0.0, (high - low)
    best = greedy_place(count, low, high, min_separation, anharmonicity)
    if best is None:
        spread = [low + (high - low) * i / (count - 1) for i in range(count)]
        return FrequencySolution(tuple(spread), separation=0.0, feasible=False)

    best_delta = min_separation
    lo_delta = min_separation
    while hi_delta - lo_delta > tolerance:
        mid = (lo_delta + hi_delta) / 2.0
        attempt = greedy_place(count, low, high, mid, anharmonicity)
        if attempt is not None:
            best, best_delta, lo_delta = attempt, mid, mid
        else:
            hi_delta = mid

    if center:
        shift = (high - best[-1]) / 2.0
        best = [value + shift for value in best]

    return FrequencySolution(tuple(best), separation=best_delta, feasible=True)


def assign_color_frequencies(
    coloring: Mapping[Hashable, int],
    low: float,
    high: float,
    anharmonicity: float = -0.2,
) -> Tuple[Dict[int, float], FrequencySolution]:
    """Solve, then give the most used colors the highest frequencies."""
    colors = sorted(set(coloring.values()))
    if not colors:
        return {}, FrequencySolution((), float("inf"), True)
    usage_counts: Dict[int, int] = {c: 0 for c in colors}
    for color in coloring.values():
        usage_counts[color] += 1
    solution = solve_max_separation(len(colors), low, high, anharmonicity)
    ordered_colors = sorted(colors, key=lambda c: (-usage_counts[c], c))
    ordered_freqs = sorted(solution.frequencies, reverse=True)
    return dict(zip(ordered_colors, ordered_freqs)), solution


# ---------------------------------------------------------------------------
# step frequencies
# ---------------------------------------------------------------------------
def step_frequencies(
    device: Device,
    idle_frequencies: Mapping[int, float],
    interactions: Sequence[Interaction],
) -> Dict[int, float]:
    """Per-qubit 0-1 frequencies for one time step."""
    frequencies: Dict[int, float] = dict(idle_frequencies)
    for interaction in interactions:
        a, b = interaction.pair
        omega = interaction.frequency
        if interaction.gate_name == "cz":
            freq_a = omega
            freq_b = omega - device.qubits[b].params.anharmonicity
        else:
            freq_a = omega
            freq_b = omega
        frequencies[a] = clamp_to_range(freq_a, device.tunable_range(a))
        frequencies[b] = clamp_to_range(freq_b, device.tunable_range(b))
    return frequencies


# ---------------------------------------------------------------------------
# Eq. (4) estimator
# ---------------------------------------------------------------------------
def _step_spectator_errors(
    step: TimeStep,
    program: CompiledProgram,
    model: NoiseModel,
    pairs: List[Tuple[Coupling, float, int]],
) -> List[float]:
    """Spectator-channel errors for one time step (one value per noisy channel)."""
    device = program.device
    interacting = step.interacting_pairs()
    busy = step.interacting_qubits()
    errors: List[float] = []
    duration = step.duration_ns
    if duration <= 0:
        return errors
    for pair, bare_coupling, _distance in pairs:
        if pair in interacting:
            continue
        a, b = pair
        if a not in step.frequencies or b not in step.frequencies:
            continue
        if not model.idle_idle_crosstalk and a not in busy and b not in busy:
            if abs(step.frequencies[a] - step.frequencies[b]) > model.parking_collision_threshold:
                continue
        coupling = bare_coupling
        if not step.coupler_is_active(pair):
            coupling = bare_coupling * model.residual_coupler_factor
        if coupling <= 0.0:
            continue
        omega_a = step.frequencies[a]
        omega_b = step.frequencies[b]
        alpha_a = device.qubits[a].params.anharmonicity
        alpha_b = device.qubits[b].params.anharmonicity

        exchange = spectator_error(coupling, omega_a - omega_b, duration, worst_case=model.worst_case)
        errors.append(min(exchange, model.spectator_error_cap))
        if model.include_leakage:
            for detuning in (
                abs(omega_a - (omega_b + alpha_b)),
                abs((omega_a + alpha_a) - omega_b),
            ):
                leak = leakage_probability(coupling, detuning, duration, worst_case=model.worst_case)
                errors.append(min(leak, model.spectator_error_cap))
    return errors


def _decoherence_errors(program: CompiledProgram, model: NoiseModel) -> Dict[int, float]:
    """Per-qubit decoherence error over the full program duration."""
    device = program.device
    total = program.total_duration_ns
    if total <= 0:
        return {q: 0.0 for q in range(device.num_qubits)}

    extra_rate: Dict[int, float] = {q: 0.0 for q in range(device.num_qubits)}
    if model.include_flux_noise:
        for step in program.steps:
            if step.duration_ns <= 0:
                continue
            weight = step.duration_ns / total
            for qubit, frequency in step.frequencies.items():
                rate = flux_dephasing_rate(device.qubits[qubit], frequency, model.flux_noise_amplitude)
                extra_rate[qubit] += weight * rate

    errors: Dict[int, float] = {}
    for qubit in range(device.num_qubits):
        params = device.qubits[qubit].params
        errors[qubit] = combined_qubit_error(
            total, params.t1_ns, params.t2_ns, extra_rate.get(qubit, 0.0)
        )
    return errors


def estimate_success(
    program: CompiledProgram, model: Optional[NoiseModel] = None
) -> SuccessReport:
    """Eq. (4) by walking every step, spectator pair and channel in turn."""
    model = model or NoiseModel()
    geometry = spectator_geometry(program.device, model)
    gate_fidelity, n2q, n1q, nvirtual = _gate_floor_errors(program, model)

    crosstalk_fidelity = 1.0
    crosstalk_total = 0.0
    worst_spectator = 0.0
    for step in program.steps:
        for err in _step_spectator_errors(step, program, model, geometry.pairs):
            crosstalk_fidelity *= 1.0 - err
            crosstalk_total += err
            worst_spectator = max(worst_spectator, err)
    decoherence = _decoherence_errors(program, model)

    decoherence_fidelity = 1.0
    for err in decoherence.values():
        decoherence_fidelity *= 1.0 - err

    return SuccessReport(
        success_rate=gate_fidelity * crosstalk_fidelity * decoherence_fidelity,
        gate_fidelity_product=gate_fidelity,
        crosstalk_fidelity_product=crosstalk_fidelity,
        decoherence_fidelity_product=decoherence_fidelity,
        crosstalk_error_total=crosstalk_total,
        decoherence_error_per_qubit=decoherence,
        worst_spectator_error=worst_spectator,
        depth=program.depth,
        duration_ns=program.total_duration_ns,
        num_two_qubit_gates=n2q,
        num_single_qubit_gates=n1q,
        num_virtual_single_qubit_gates=nvirtual,
    )


# ---------------------------------------------------------------------------
# program columns from a TimeStep list
# ---------------------------------------------------------------------------
def from_steps(steps: Sequence[TimeStep], num_qubits: int) -> ProgramColumns:
    """Columns of *steps* on a *num_qubits*-qubit device.

    Steps share a frequency row when their frequency items — qubits in
    dict order and the raw bits of the values — are identical, so
    ``-0.0`` and ``0.0`` never merge.  A carried NaN frequency is a
    ``ValueError``: NaN marks the frequencies a row does not carry.
    """
    ids: Dict[str, int] = {}
    durations: List[float] = []
    row_ids: Dict[Tuple[Tuple[int, ...], bytes], int] = {}
    frequency_index: List[int] = []
    row_counts: List[int] = []
    row_qubits: List[int] = []
    row_values = bytearray()
    gate_offsets, gate_names, gate_qubits, gate_params = [0], [], [], []
    inter_offsets, inter_pairs, inter_names, inter_freqs = [0], [], [], []
    coupler_steps, coupler_offsets, coupler_pairs = [], [0], []
    for step in steps:
        durations.append(step.duration_ns)
        frequencies = step.frequencies
        qubits = tuple(frequencies)
        values = struct.pack(f"<{len(qubits)}d", *frequencies.values())
        row = row_ids.get((qubits, values))
        if row is None:
            row = row_ids[qubits, values] = len(row_counts)
            row_counts.append(len(qubits))
            row_qubits.extend(qubits)
            row_values += values
        frequency_index.append(row)
        for gate in step.gates:
            gate_names.append(ids.setdefault(gate.name, len(ids)))
            gate_qubits.extend(gate.qubits)
            gate_params.extend(gate.params)
        gate_offsets.append(len(gate_names))
        for interaction in step.interactions:
            inter_pairs.append(interaction.pair)
            inter_names.append(ids.setdefault(interaction.gate_name, len(ids)))
            inter_freqs.append(interaction.frequency)
        inter_offsets.append(len(inter_names))
        active = step.active_couplers
        coupler_steps.append(active is not None)
        if active is not None:
            coupler_pairs.extend(sorted(active))
        coupler_offsets.append(len(coupler_pairs))

    num_rows = len(row_counts)
    row_of = np.repeat(np.arange(num_rows), row_counts)
    cols = np.array(row_qubits, dtype=np.intp)
    values = np.frombuffer(row_values, dtype=_BUFFER_DTYPES["frequency_rows"])
    if np.isnan(values).any():
        raise ValueError("a step carries a NaN frequency")
    frequency_rows = np.full((num_rows, num_qubits), np.nan)
    frequency_rows[row_of, cols] = values
    index = np.array(frequency_index, dtype=_BUFFER_DTYPES["frequency_index"])
    gmon = any(coupler_steps)

    def column(key: str, values) -> np.ndarray:
        return np.array(values, dtype=_BUFFER_DTYPES[key])

    return ProgramColumns(
        names=tuple(ids),
        frequency_rows=frequency_rows,
        frequency_index=index,
        durations=column("durations", durations),
        gate_offsets=column("gate_offsets", gate_offsets),
        gate_names=column("gate_names", gate_names),
        gate_qubits=column("gate_qubits", gate_qubits),
        gate_params=column("gate_params", gate_params),
        interaction_offsets=column("interaction_offsets", inter_offsets),
        interaction_pairs=column("interaction_pairs", inter_pairs).reshape(-1, 2),
        interaction_names=column("interaction_names", inter_names),
        interaction_frequencies=column("interaction_frequencies", inter_freqs),
        coupler_steps=np.array(coupler_steps, dtype=bool) if gmon else None,
        coupler_offsets=column("coupler_offsets", coupler_offsets) if gmon else None,
        coupler_pairs=column("coupler_pairs", coupler_pairs).reshape(-1, 2) if gmon else None,
    )


def program_from_steps(device: Device, steps: Sequence[TimeStep], **fields) -> CompiledProgram:
    """A :class:`CompiledProgram` holding hand-built *steps* (via :func:`from_steps`)."""
    return CompiledProgram(device=device, columns=from_steps(steps, device.num_qubits), **fields)


# ---------------------------------------------------------------------------
# oracle compilers: production pipeline, oracle kernels
# ---------------------------------------------------------------------------
class _OracleKernels:
    """Mixin swapping a strategy's scheduler and step frequencies for oracles."""

    def __init__(self, device: Device, **kwargs) -> None:
        super().__init__(device, **kwargs)
        self._assign_step_frequencies = functools.partial(
            step_frequencies, self.device, dict(self.idle_assignment.qubit_frequencies)
        )

    def _make_scheduler(self) -> NoiseAwareScheduler:
        return OracleScheduler.like(super()._make_scheduler())


class OracleNaive(_OracleKernels, BaselineNaive):
    pass


class OracleGmon(_OracleKernels, BaselineGmon):
    pass


class OracleUniform(_OracleKernels, BaselineUniform):
    pass


class OracleStatic(_OracleKernels, BaselineStatic):
    """Baseline S with the full-graph coloring and solve done by the oracles."""

    def __init__(self, device: Device, **kwargs) -> None:
        super().__init__(device, **kwargs)
        self._static_coloring = welsh_powell_coloring(self.crosstalk_graph)
        self._static_frequencies, _ = assign_color_frequencies(
            self._static_coloring,
            self.partition.interaction_low,
            self.partition.interaction_high,
            anharmonicity=device.qubits[0].params.anharmonicity,
        )


class OracleColorDynamic(_OracleKernels, ColorDynamic):
    """ColorDynamic coloring each step's networkx subgraph, no memo."""

    def _interaction_frequencies(self, couplings):
        if not couplings:
            return {}, 0, float("inf")
        coloring = welsh_powell_coloring(active_subgraph(self.crosstalk_graph, couplings))
        freq_by_color, solution = assign_color_frequencies(
            coloring,
            self.partition.interaction_low,
            self.partition.interaction_high,
            anharmonicity=self.device.qubits[0].params.anharmonicity,
        )
        frequencies = {c: freq_by_color[coloring[c]] for c in couplings}
        return frequencies, num_colors(coloring), solution.separation


ORACLE_COMPILERS = {
    "Baseline N": OracleNaive,
    "Baseline G": OracleGmon,
    "Baseline U": OracleUniform,
    "Baseline S": OracleStatic,
    "ColorDynamic": OracleColorDynamic,
}


def make_oracle_compiler(
    strategy: str,
    device: Device,
    max_colors: Optional[int] = None,
    admission: str = "structural",
):
    """The oracle counterpart of :func:`repro.service.make_compiler`."""
    cls = ORACLE_COMPILERS[strategy]
    if strategy == "ColorDynamic":
        return cls(device, max_colors=max_colors, admission=admission)
    return cls(device, admission=admission)
