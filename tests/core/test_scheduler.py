"""Tests for the noise-aware queueing scheduler."""

import pytest

from diffgen import random_circuit, random_device
from repro.analysis.experiments import STRATEGIES
from repro.circuits import Circuit, decompose_circuit
from repro.core import ADMISSION_POLICIES, NoiseAwareScheduler, build_crosstalk_graph
from repro.devices import grid_graph
from repro.service import make_compiler
from repro.workloads import xeb_circuit


def _schedule_respects_dependencies(circuit, steps):
    position = {}
    for index, step in enumerate(steps):
        for gate_index in step.indices:
            position[gate_index] = index
    last_on_qubit = {}
    for gate_index, gate in enumerate(circuit.gates):
        step_index = position[gate_index]
        for qubit in gate.qubits:
            if qubit in last_on_qubit:
                assert step_index >= last_on_qubit[qubit]
            last_on_qubit[qubit] = step_index


class TestBasicScheduling:
    def test_all_gates_are_scheduled_exactly_once(self):
        circuit = decompose_circuit(xeb_circuit(9, 2, seed=1))
        scheduler = NoiseAwareScheduler()
        steps = scheduler.schedule(circuit)
        assert sorted(i for s in steps for i in s.indices) == list(range(len(circuit)))

    @pytest.mark.parametrize(
        "strategy, admission, seed",
        [(None, None, None)]
        + [
            (strategy, admission, seed)
            for strategy in STRATEGIES
            for admission in ADMISSION_POLICIES
            for seed in range(12)
        ],
    )
    def test_no_qubit_is_used_twice_in_a_step(self, strategy, admission, seed):
        """Ready gates never share a qubit, so no step does either: with
        the bare scheduler on XEB, and with every strategy's scheduler under
        both admission policies on random circuits and devices."""
        if strategy is None:
            circuit = decompose_circuit(xeb_circuit(9, 3, seed=2))
            steps = [
                [circuit.gates[i] for i in step.indices]
                for step in NoiseAwareScheduler().schedule(circuit)
            ]
        else:
            device = random_device(seed)
            circuit = random_circuit(device.num_qubits, seed)
            compiler = make_compiler(strategy, device, admission=admission)
            steps = [step.gates for step in compiler.compile(circuit).program.steps]
        for gates in steps:
            qubits = [q for g in gates for q in g.qubits]
            assert len(qubits) == len(set(qubits))

    def test_dependencies_are_preserved(self):
        circuit = decompose_circuit(xeb_circuit(9, 2, seed=3))
        steps = NoiseAwareScheduler().schedule(circuit)
        _schedule_respects_dependencies(circuit, steps)

    def test_unconstrained_schedule_matches_asap_depth(self):
        circuit = Circuit(4).h(0).h(1).h(2).h(3).cz(0, 1).cz(2, 3)
        steps = NoiseAwareScheduler().schedule(circuit)
        assert len(steps) == circuit.depth()

    def test_empty_circuit_gives_empty_schedule(self):
        assert NoiseAwareScheduler().schedule(Circuit(3)) == []


class TestConflictThrottling:
    def test_serial_mode_allows_one_interaction_per_step(self):
        mesh = grid_graph(9)
        circuit = Circuit(9).cz(0, 1).cz(3, 4).cz(6, 7)
        scheduler = NoiseAwareScheduler(
            crosstalk_graph=build_crosstalk_graph(mesh), max_parallel_interactions=1
        )
        steps = scheduler.schedule(circuit)
        assert all(len(s.couplings) <= 1 for s in steps)
        assert len(steps) == 3

    def test_max_colors_limits_simultaneous_conflicting_gates(self):
        mesh = grid_graph(16)
        crosstalk = build_crosstalk_graph(mesh)
        # Four mutually conflicting couplings around the same corner region.
        circuit = Circuit(16).cz(0, 1).cz(1, 2).cz(4, 5).cz(5, 6)
        bounded = NoiseAwareScheduler(crosstalk_graph=crosstalk, max_colors=1, conflict_threshold=None)
        free = NoiseAwareScheduler(crosstalk_graph=crosstalk, conflict_threshold=None)
        assert len(bounded.schedule(circuit)) > len(free.schedule(circuit))

    def test_conflict_threshold_postpones_crowded_gates(self):
        mesh = grid_graph(16)
        crosstalk = build_crosstalk_graph(mesh)
        circuit = Circuit(16)
        # Many parallel gates crowded into one corner of the mesh.
        for pair in [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11)]:
            circuit.cz(*pair)
        tight = NoiseAwareScheduler(crosstalk_graph=crosstalk, conflict_threshold=1)
        loose = NoiseAwareScheduler(crosstalk_graph=crosstalk, conflict_threshold=None)
        assert len(tight.schedule(circuit)) > len(loose.schedule(circuit))

    def test_noise_conflict_with_no_graph_never_fires(self):
        # Crowded enough to trip any crosstalk check, but there is no graph.
        circuit = Circuit(16).cz(0, 1).cz(2, 3).cz(4, 5).cz(6, 7)
        scheduler = NoiseAwareScheduler(crosstalk_graph=None, max_colors=1, conflict_threshold=1)
        steps = scheduler.schedule(circuit)
        assert len(steps) == 1
        assert len(steps[0].couplings) == 4

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            NoiseAwareScheduler(max_colors=0)
        with pytest.raises(ValueError):
            NoiseAwareScheduler(conflict_threshold=0)
        with pytest.raises(ValueError):
            NoiseAwareScheduler(max_parallel_interactions=0)


class TestTilingPatterns:
    def test_allowed_couplings_gate_execution(self):
        mesh = grid_graph(9)
        patterns = [{(0, 1)}, {(3, 4)}]
        circuit = Circuit(9).cz(0, 1).cz(3, 4)
        scheduler = NoiseAwareScheduler(allowed_couplings=lambda i: patterns[i % 2])
        steps = scheduler.schedule(circuit)
        assert all(len(s.couplings) <= 1 for s in steps)
        scheduled_pairs = [c for s in steps for c in s.couplings]
        assert set(scheduled_pairs) == {(0, 1), (3, 4)}

    def test_coupling_outside_every_pattern_raises(self):
        """A ready coupling that no tiling pattern allows is an error, not
        an endless run of empty cycles."""
        patterns = [{(0, 1)}, {(3, 4)}]
        calls = 0

        def allowed(step_index):
            nonlocal calls
            calls += 1
            if calls > 1000:
                raise AssertionError("scheduler kept cycling through the patterns")
            return patterns[step_index % 2]

        circuit = Circuit(9).h(0).cz(0, 1).cz(0, 8)
        scheduler = NoiseAwareScheduler(conflict_threshold=None, allowed_couplings=allowed)
        with pytest.raises(RuntimeError, match=r"\(0, 8\)"):
            scheduler.schedule(circuit)

    def test_criticality_prefers_long_chains(self):
        # Gate on (0,1) heads a long dependent chain; (2,3) is isolated.  With
        # only one interaction allowed per step the critical gate goes first.
        circuit = Circuit(4).cz(0, 1).cz(2, 3).cz(0, 1).cz(0, 1)
        scheduler = NoiseAwareScheduler(max_parallel_interactions=1)
        steps = scheduler.schedule(circuit)
        assert steps[0].couplings == [(0, 1)]
