"""Tests for the ColorDynamic compiler (Algorithm 1)."""

import pytest

from oracles import active_subgraph
from repro import BaselineStatic, ColorDynamic, Device, benchmark_circuit
from repro.baselines import BaselineNaive, BaselineUniform
from repro.circuits import Circuit, NATIVE_TWO_QUBIT_GATES
from repro.core import compiler as compiler_module
from repro.core import validate_coloring
from repro.analysis.experiments import STRATEGIES, SweepJob, SweepRunner, clear_sweep_caches
from repro.core.compiler import prepare_gate_table, prepare_native_circuit
from repro.devices.device import PREPARED_CACHE_ATTR
from repro.noise import clear_spectator_cache
from repro.obs import get_metrics
from repro.service import service_override
from repro.workloads import fig09_benchmarks


def _program_invariants(result, device):
    """Shared structural checks every compiled program must satisfy."""
    program = result.program
    # Every gate scheduled exactly once and on device edges.
    for step in program.steps:
        qubits = [q for g in step.gates for q in g.qubits]
        assert len(qubits) == len(set(qubits))
        for gate in step.gates:
            if gate.is_two_qubit:
                assert device.has_edge(*gate.qubits)
                assert gate.name in NATIVE_TWO_QUBIT_GATES
        # Every qubit has a frequency inside its tunable range.
        assert set(step.frequencies) == set(range(device.num_qubits))
        for qubit, freq in step.frequencies.items():
            low, high = device.tunable_range(qubit)
            assert low - 1e-6 <= freq <= high + 1e-6
        # Interactions correspond to the step's two-qubit gates.
        pairs = {tuple(sorted(g.qubits)) for g in step.gates if g.is_two_qubit}
        assert step.interacting_pairs() == pairs


class TestCompilation:
    def test_bell_circuit_compiles(self, device4, bell_circuit):
        result = ColorDynamic(device4).compile(bell_circuit)
        _program_invariants(result, device4)
        assert result.program.strategy == "ColorDynamic"
        assert result.program.depth >= 2

    @pytest.mark.parametrize("bench_name", ["bv(9)", "ising(9)", "xeb(9,3)", "qgan(9)"])
    def test_benchmarks_compile_with_valid_invariants(self, device9, bench_name):
        circuit = benchmark_circuit(bench_name, seed=5)
        result = ColorDynamic(device9).compile(circuit)
        _program_invariants(result, device9)

    def test_gate_count_is_preserved_up_to_decomposition(self, device9):
        circuit = benchmark_circuit("xeb(9,3)", seed=5)
        result = ColorDynamic(device9).compile(circuit)
        # XEB uses only native gates, so counts must match exactly.
        assert len(result.program.all_gates()) == len(circuit)

    def test_two_qubit_gates_use_interaction_region(self, device16):
        compiler = ColorDynamic(device16)
        circuit = benchmark_circuit("xeb(16,3)", seed=5)
        result = compiler.compile(circuit)
        for step in result.program.steps:
            for interaction in step.interactions:
                assert compiler.partition.in_interaction(interaction.frequency)

    def test_idle_qubits_stay_in_parking_region(self, device16):
        compiler = ColorDynamic(device16)
        circuit = benchmark_circuit("xeb(16,3)", seed=5)
        result = compiler.compile(circuit)
        for step in result.program.steps:
            busy = step.interacting_qubits()
            for qubit, freq in step.frequencies.items():
                if qubit not in busy:
                    assert compiler.partition.in_parking(freq)

    def test_per_step_coloring_is_proper(self, device16):
        compiler = ColorDynamic(device16)
        result = compiler.compile(benchmark_circuit("xeb(16,3)", seed=5))
        for step in result.program.steps:
            pairs = list(step.interacting_pairs())
            if len(pairs) < 2:
                continue
            sub = active_subgraph(compiler.crosstalk_graph, pairs)
            freq_of = {i.pair: round(i.frequency, 6) for i in step.interactions}
            for a, b in sub.edges:
                assert freq_of[a] != freq_of[b], "conflicting gates share a frequency"

    def test_max_colors_budget_is_respected(self, device16):
        compiler = ColorDynamic(device16, max_colors=2)
        result = compiler.compile(benchmark_circuit("xeb(16,4)", seed=5))
        assert result.max_colors_used <= 2
        assert result.program.colors_used() <= 2

    def test_reducing_colors_increases_depth(self, device16):
        circuit = benchmark_circuit("xeb(16,4)", seed=5)
        deep = ColorDynamic(device16, max_colors=1).compile(circuit)
        shallow = ColorDynamic(device16, max_colors=4).compile(circuit)
        assert deep.program.depth >= shallow.program.depth

    def test_routing_is_applied_when_needed(self, device9):
        # A triangle of interactions cannot be embedded in a square mesh, so
        # at least one pair must be routed through SWAP insertion.
        circuit = Circuit(9).cx(0, 1).cx(1, 2).cx(0, 2)
        result = ColorDynamic(device9).compile(circuit)
        _program_invariants(result, device9)
        assert result.program.num_two_qubit_gates() > 3  # SWAPs were inserted

    def test_smaller_circuit_is_padded_to_device_size(self, device9):
        circuit = Circuit(2).h(0).cx(0, 1)
        result = ColorDynamic(device9).compile(circuit)
        assert set(result.program.steps[0].frequencies) == set(range(9))

    def test_compile_records_metadata(self, device9):
        result = ColorDynamic(device9, max_colors=3).compile(benchmark_circuit("bv(9)", seed=1))
        meta = result.program.metadata
        assert meta["max_colors"] == 3
        assert meta["dynamic"] is True
        assert result.compile_time_s > 0

    def test_flux_retuning_overhead_is_charged(self, device4, bell_circuit):
        result = ColorDynamic(device4).compile(bell_circuit)
        durations = [s.duration_ns for s in result.program.steps]
        # The step where frequencies move to the interaction point carries the
        # extra flux settle time on top of the gate duration.
        assert any(d > max(g.duration_ns for g in s.gates) for d, s in zip(durations, result.program.steps) if s.gates)


class TestStaticMode:
    def test_static_mode_reuses_one_assignment(self, device16):
        compiler = BaselineStatic(device16)
        result = compiler.compile(benchmark_circuit("xeb(16,3)", seed=5))
        frequencies = set()
        for step in result.program.steps:
            for interaction in step.interactions:
                frequencies.add(round(interaction.frequency, 6))
        # The static palette is bounded by the full crosstalk-graph coloring.
        static_colors = len(set(compiler._static_coloring.values()))
        assert len(frequencies) <= static_colors

    def test_static_coloring_is_proper_on_full_graph(self, device16):
        compiler = BaselineStatic(device16)
        assert validate_coloring(compiler.crosstalk_graph, compiler._static_coloring)


class TestPrepareMemo:
    """The device-held memo of routed + decomposed circuits."""

    @staticmethod
    def _fresh_device():
        return Device.grid(9, seed=2020)

    def test_one_device_decomposes_each_benchmark_once(self, monkeypatch):
        calls = []
        real = compiler_module.decompose_circuit

        def counting(circuit, strategy):
            calls.append(circuit.name)
            return real(circuit, strategy)

        monkeypatch.setattr(compiler_module, "decompose_circuit", counting)
        device = self._fresh_device()
        circuit = benchmark_circuit("xeb(9,3)", seed=2020)
        for cls in (BaselineNaive, BaselineUniform, BaselineStatic, ColorDynamic):
            cls(device).compile(circuit)
        assert len(calls) == 1

    def test_preparation_knobs_never_share_an_entry(self):
        device = self._fresh_device()
        # A triangle needs routing, so use_routing changes the result too.
        circuit = Circuit(9).cx(0, 1).cx(1, 2).cx(0, 2)
        knobs = [("hybrid", True), ("cz", True), ("iswap", True), ("hybrid", False)]
        prepared = {k: prepare_native_circuit(device, circuit, *k) for k in knobs}
        assert len(getattr(device, PREPARED_CACHE_ATTR)) == len(knobs)
        for knob, native in prepared.items():
            assert native.gates == prepare_native_circuit(
                self._fresh_device(), circuit, *knob
            ).gates
        assert len({tuple(native.gates) for native in prepared.values()}) == len(knobs)

    def test_memo_hit_equals_uncached_prepare(self):
        device = self._fresh_device()
        circuit = benchmark_circuit("qaoa(9)", seed=2020)
        first = prepare_native_circuit(device, circuit, "hybrid", True)
        hit = prepare_native_circuit(device, circuit.copy(), "hybrid", True)
        assert hit is first
        clear_spectator_cache(device)
        uncached = prepare_native_circuit(device, circuit, "hybrid", True)
        assert uncached is not first
        assert uncached.gates == hit.gates
        assert uncached.num_qubits == hit.num_qubits
        assert uncached.name == hit.name

    def test_lowering_lives_beside_the_prepared_circuit(self):
        device = self._fresh_device()
        circuit = benchmark_circuit("qaoa(9)", seed=2020)
        table = prepare_gate_table(device, circuit, "hybrid", True)
        assert table.circuit is prepare_native_circuit(device, circuit, "hybrid", True)
        assert prepare_gate_table(device, circuit.copy(), "hybrid", True) is table
        clear_spectator_cache(device)
        assert prepare_gate_table(device, circuit, "hybrid", True) is not table

    def test_fig09_sweep_lowers_each_prepared_circuit_once(self):
        """A fresh service's fig09 sweep prepares and lowers 44 circuits
        (22 benchmarks on the grid device and on Baseline G's coupler
        device) and serves the other 66 compiles from the memo."""
        counter = get_metrics().counter("repro_compile_memo_total", "", ("memo", "outcome"))
        before = {o: counter.value(memo="prepare", outcome=o) for o in ("hit", "miss")}
        clear_sweep_caches()
        with service_override(enabled=False, remote_cache="", remote_compile=""):
            jobs = [SweepJob(b, s) for b in fig09_benchmarks() for s in STRATEGIES]
            assert len(SweepRunner(max_workers=1).run(jobs)) == 110
        clear_sweep_caches()
        delta = {o: counter.value(memo="prepare", outcome=o) - before[o] for o in before}
        assert delta == {"hit": 66, "miss": 44}
