"""Tests for the Table I baseline compilation strategies."""

import pytest

from repro import (
    BaselineGmon,
    BaselineNaive,
    BaselineStatic,
    BaselineUniform,
    ColorDynamic,
    STRATEGY_REGISTRY,
    benchmark_circuit,
)
from repro.baselines.gmon import tiling_patterns
from repro.circuits import NATIVE_TWO_QUBIT_GATES
from repro.devices import Device


ALL_BASELINES = [BaselineNaive, BaselineGmon, BaselineUniform, BaselineStatic]


class TestCommonBehaviour:
    @pytest.mark.parametrize("cls", ALL_BASELINES)
    def test_every_baseline_compiles_xeb(self, device9, cls):
        circuit = benchmark_circuit("xeb(9,3)", seed=4)
        result = cls(device9).compile(circuit)
        program = result.program
        assert program.depth > 0
        assert len(program.all_gates()) >= len(circuit)
        for step in program.steps:
            for gate in step.gates:
                if gate.is_two_qubit:
                    assert program.device.has_edge(*gate.qubits)
                    assert gate.name in NATIVE_TWO_QUBIT_GATES

    @pytest.mark.parametrize("cls", ALL_BASELINES)
    def test_strategy_names_match_table1(self, device9, cls):
        result = cls(device9).compile(benchmark_circuit("bv(9)", seed=4))
        assert result.program.strategy.startswith("Baseline")

    def test_registry_contains_all_five_strategies(self):
        assert set(STRATEGY_REGISTRY) == {
            "Baseline N",
            "Baseline G",
            "Baseline U",
            "Baseline S",
            "ColorDynamic",
        }


class TestBaselineNaive:
    def test_naive_schedule_is_maximally_parallel(self, device16):
        circuit = benchmark_circuit("xeb(16,3)", seed=4)
        naive = BaselineNaive(device16).compile(circuit)
        aware = ColorDynamic(device16, conflict_threshold=1).compile(circuit)
        assert naive.program.depth <= aware.program.depth

    def test_naive_interaction_frequencies_are_uncoordinated(self, device16):
        circuit = benchmark_circuit("xeb(16,3)", seed=4)
        result = BaselineNaive(device16).compile(circuit)
        # Adjacent simultaneous gates frequently end up within a few tens of
        # MHz of each other — the defining failure mode of Baseline N.
        min_gap = float("inf")
        for step in result.program.steps:
            interactions = step.interactions
            for i in range(len(interactions)):
                for j in range(i + 1, len(interactions)):
                    gap = abs(interactions[i].frequency - interactions[j].frequency)
                    min_gap = min(min_gap, gap)
        assert min_gap < 0.15


class TestBaselineUniform:
    def test_single_interaction_frequency(self, device16):
        circuit = benchmark_circuit("xeb(16,3)", seed=4)
        result = BaselineUniform(device16).compile(circuit)
        frequencies = {
            round(i.frequency, 9) for s in result.program.steps for i in s.interactions
        }
        assert len(frequencies) == 1

    def test_two_qubit_gates_are_serialised(self, device16):
        circuit = benchmark_circuit("xeb(16,3)", seed=4)
        result = BaselineUniform(device16).compile(circuit)
        assert all(len(s.interactions) <= 1 for s in result.program.steps)

    def test_serialisation_costs_depth(self, device16):
        circuit = benchmark_circuit("xeb(16,3)", seed=4)
        uniform = BaselineUniform(device16).compile(circuit)
        dynamic = ColorDynamic(device16).compile(circuit)
        assert uniform.program.depth > dynamic.program.depth

    def test_custom_interaction_frequency(self, device9):
        result = BaselineUniform(device9, interaction_frequency=6.25).compile(
            benchmark_circuit("ising(9)", seed=4)
        )
        frequencies = {i.frequency for s in result.program.steps for i in s.interactions}
        assert frequencies == {6.25}


class TestBaselineGmon:
    def test_tiling_patterns_cover_all_grid_couplings(self, device16):
        patterns = tiling_patterns(device16)
        covered = set().union(*patterns)
        assert covered == set(device16.edges())
        # Patterns are disjoint and no pattern contains two couplings that
        # share a qubit.
        for pattern in patterns:
            qubits = [q for pair in pattern for q in pair]
            assert len(qubits) == len(set(qubits))

    def test_grid_uses_four_sycamore_patterns(self, device16):
        assert len(tiling_patterns(device16)) == 4

    def test_non_grid_topology_falls_back_to_edge_coloring(self):
        device = Device.from_topology_name("linear", 8, seed=0)
        patterns = tiling_patterns(device)
        assert set().union(*patterns) == set(device.edges())

    def test_active_couplers_recorded_per_step(self, device16):
        circuit = benchmark_circuit("xeb(16,3)", seed=4)
        result = BaselineGmon(device16).compile(circuit)
        for step in result.program.steps:
            assert step.active_couplers is not None
            assert step.active_couplers == step.interacting_pairs()

    def test_gmon_device_flag_is_set(self, device16):
        result = BaselineGmon(device16).compile(benchmark_circuit("bv(16)", seed=4))
        assert result.program.device.tunable_couplers

    def test_step_gates_respect_the_tiling(self, device16):
        circuit = benchmark_circuit("xeb(16,3)", seed=4)
        compiler = BaselineGmon(device16)
        result = compiler.compile(circuit)
        patterns = [frozenset(p) for p in compiler.patterns]
        for step in result.program.steps:
            pairs = step.interacting_pairs()
            if not pairs:
                continue
            assert any(pairs <= pattern for pattern in patterns)


class TestBaselineStatic:
    def test_static_strategy_label(self, device16):
        result = BaselineStatic(device16).compile(benchmark_circuit("bv(16)", seed=4))
        assert result.program.strategy == "Baseline S"

    def test_static_assignment_is_program_independent(self, device16):
        compiler = BaselineStatic(device16)
        freq_sets = []
        for benchmark in ("xeb(16,2)", "ising(16)"):
            result = compiler.compile(benchmark_circuit(benchmark, seed=4))
            freq_sets.append(
                {round(i.frequency, 6) for s in result.program.steps for i in s.interactions}
            )
        # Every program draws its interaction frequencies from one shared palette.
        palette = set(compiler._static_frequencies.values())
        rounded = {round(f, 6) for f in palette}
        for used in freq_sets:
            assert used <= rounded
