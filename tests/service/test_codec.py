"""CompiledProgram / CompilationResult serialization round-trip tests."""

import json
import math

import pytest

from repro import Device, benchmark_circuit, estimate_success
from repro.circuits import Gate
from repro.core.compiler import CompilationResult
from repro.noise import NoiseModel
from repro.program import PROGRAM_CODEC_VERSION, CompiledProgram, Interaction, TimeStep
from repro.service import make_compiler

from codecfaults import FAULTS
from oracles import estimate_success as scalar_estimate

STRATEGIES = ["Baseline N", "Baseline G", "Baseline U", "Baseline S", "ColorDynamic"]


def _compile(strategy: str, benchmark: str = "xeb(9,3)", seed: int = 2020):
    device = Device.grid(9, seed=seed)
    circuit = benchmark_circuit(benchmark, seed=seed)
    return make_compiler(strategy, device).compile(circuit)


def _json_round_trip(result: CompilationResult) -> CompilationResult:
    """Full wire round trip: to_dict -> JSON text -> dict -> from_dict."""
    return CompilationResult.from_dict(json.loads(json.dumps(result.to_dict())))


class TestProgramRoundTrip:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_program_structure_survives(self, strategy):
        result = _compile(strategy)
        back = _json_round_trip(result)
        program, restored = result.program, back.program

        assert restored.name == program.name
        assert restored.strategy == program.strategy
        assert restored.depth == program.depth
        assert restored.idle_frequencies == program.idle_frequencies
        assert restored.metadata == program.metadata
        for original, copy in zip(program.steps, restored.steps):
            assert copy.frequencies == original.frequencies
            assert copy.duration_ns == original.duration_ns
            assert copy.interactions == original.interactions
            assert copy.active_couplers == original.active_couplers
            assert [g.to_dict() for g in copy.gates] == [
                g.to_dict() for g in original.gates
            ]

    def test_device_physics_survive(self):
        result = _compile("ColorDynamic")
        device = result.program.device
        restored = _json_round_trip(result).program.device
        assert restored.num_qubits == device.num_qubits
        assert restored.edges() == device.edges()
        assert restored.couplings == device.couplings
        assert restored.tunable_couplers == device.tunable_couplers
        for a, b in zip(restored.qubits, device.qubits):
            assert a.params == b.params

    def test_gmon_active_couplers_survive(self):
        result = _compile("Baseline G")
        assert any(s.active_couplers is not None for s in result.program.steps)
        restored = _json_round_trip(result).program
        for original, copy in zip(result.program.steps, restored.steps):
            assert copy.active_couplers == original.active_couplers

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_bit_identical_estimator_output(self, strategy):
        """The acceptance bar: Eq. (4) on a deserialized program is bit-exact."""
        result = _compile(strategy)
        restored = _json_round_trip(result)
        for model in (NoiseModel(), NoiseModel(crosstalk_distance=2)):
            fresh = estimate_success(result.program, model)
            loaded = estimate_success(restored.program, model)
            assert loaded.success_rate == fresh.success_rate
            assert loaded.gate_fidelity_product == fresh.gate_fidelity_product
            assert loaded.crosstalk_fidelity_product == fresh.crosstalk_fidelity_product
            assert (
                loaded.decoherence_fidelity_product
                == fresh.decoherence_fidelity_product
            )
            assert loaded.decoherence_error_per_qubit == fresh.decoherence_error_per_qubit

    def test_gate_tallies_preserve_virtual_z_split(self):
        """Physical vs virtual-Z single-qubit tallies match after the round trip."""
        result = _compile("ColorDynamic", benchmark="qaoa(9)")
        fresh = estimate_success(result.program, NoiseModel())
        loaded = estimate_success(_json_round_trip(result).program, NoiseModel())
        assert fresh.num_virtual_single_qubit_gates > 0
        assert loaded.num_single_qubit_gates == fresh.num_single_qubit_gates
        assert (
            loaded.num_virtual_single_qubit_gates
            == fresh.num_virtual_single_qubit_gates
        )
        assert loaded.num_two_qubit_gates == fresh.num_two_qubit_gates


class TestResultRoundTrip:
    def test_compile_statistics_survive(self):
        result = _compile("ColorDynamic")
        back = _json_round_trip(result)
        assert back.compile_time_s == result.compile_time_s
        assert back.max_colors_used == result.max_colors_used
        assert back.colors_per_step == result.colors_per_step
        assert back.separations == result.separations

    def test_load_provenance_not_stored(self):
        result = _compile("ColorDynamic")
        result.cache_hit = True
        result.load_time_s = 1.0
        back = _json_round_trip(result)
        assert back.cache_hit is False
        assert back.load_time_s == 0.0

    def test_nan_separations_survive(self):
        """Baseline S reports NaN separations; they must round-trip."""
        import math

        result = _compile("Baseline S")
        assert any(math.isnan(s) for s in result.separations)
        back = _json_round_trip(result)
        assert len(back.separations) == len(result.separations)
        for a, b in zip(back.separations, result.separations):
            assert a == b or (math.isnan(a) and math.isnan(b))


class TestCodecVersioning:
    def test_payload_carries_codec_version(self):
        payload = _compile("ColorDynamic").program.to_dict()
        assert payload["codec_version"] == PROGRAM_CODEC_VERSION

    def test_other_codec_version_rejected(self):
        payload = _compile("ColorDynamic").program.to_dict()
        payload["codec_version"] = PROGRAM_CODEC_VERSION + 1
        with pytest.raises(ValueError, match="codec version"):
            CompiledProgram.from_dict(payload)


def _program_round_trip(program: CompiledProgram) -> CompiledProgram:
    return CompiledProgram.from_dict(json.loads(json.dumps(program.to_dict())))


def _assert_same_program(restored: CompiledProgram, program: CompiledProgram) -> None:
    assert restored.steps == program.steps
    assert restored.depth == program.depth
    assert restored.total_duration_ns == program.total_duration_ns
    for estimate in (estimate_success, scalar_estimate):
        assert estimate(restored) == estimate(program)


class TestColumnarRoundTrip:
    """Programs that exercise every optional part of the columnar block."""

    def test_partial_coverage_keeps_absent_frequencies_absent(self, device4):
        steps = [
            TimeStep(
                gates=[Gate("h", (0,))],
                frequencies={0: 5.1, 2: 5.3},
                duration_ns=25.0,
            ),
            TimeStep(
                gates=[Gate("cz", (0, 1))],
                frequencies={0: 6.4, 1: 6.6, 2: 5.3, 3: 5.7},
                interactions=[Interaction(pair=(0, 1), gate_name="cz", frequency=6.4)],
                duration_ns=50.0,
            ),
        ]
        program = CompiledProgram(device=device4, steps=steps, name="partial")
        assert "present" in program.to_dict()["steps"]
        restored = _program_round_trip(program)
        _assert_same_program(restored, program)
        assert set(restored.steps[0].frequencies) == {0, 2}
        assert math.isnan(restored.columns.frequencies[0, 1])

    def test_full_coverage_writes_no_presence_mask(self):
        program = _compile("ColorDynamic").program
        assert "present" not in program.to_dict()["steps"]

    def test_parameterized_gates(self, device4):
        steps = [
            TimeStep(
                gates=[Gate("rx", (0,), (0.25,)), Gate("rz", (1,), (-2.5,))],
                frequencies={q: 5.0 + q / 10 for q in range(4)},
                duration_ns=25.0,
            ),
            TimeStep(
                gates=[Gate("cphase", (2, 3), (math.pi / 3,)), Gate("h", (0,))],
                frequencies={q: 5.5 for q in range(4)},
                duration_ns=50.0,
            ),
        ]
        program = CompiledProgram(device=device4, steps=steps, name="params")
        restored = _program_round_trip(program)
        _assert_same_program(restored, program)
        assert restored.steps[1].gates[0].params == (math.pi / 3,)

    def test_gmon_program(self):
        program = _compile("Baseline G", benchmark="qaoa(9)").program
        assert "coupler_offsets" in program.to_dict()["steps"]
        _assert_same_program(_program_round_trip(program), program)

    def test_mixed_fixed_and_gmon_steps(self, device4):
        frequencies = {q: 5.0 for q in range(4)}
        steps = [
            TimeStep(gates=[Gate("h", (0,))], frequencies=frequencies, duration_ns=25.0),
            TimeStep(
                gates=[Gate("iswap", (0, 1))],
                frequencies=dict(frequencies),
                interactions=[Interaction(pair=(0, 1), gate_name="iswap", frequency=5.0)],
                duration_ns=50.0,
                active_couplers={(0, 1)},
            ),
            TimeStep(frequencies=dict(frequencies), duration_ns=10.0, active_couplers=set()),
        ]
        program = CompiledProgram(device=device4, steps=steps, name="mixed")
        assert "coupler_steps" in program.to_dict()["steps"]
        restored = _program_round_trip(program)
        _assert_same_program(restored, program)
        assert [s.active_couplers for s in restored.steps] == [None, {(0, 1)}, set()]

    def test_zero_step_program(self, device4):
        program = CompiledProgram(device=device4, steps=[], name="empty")
        restored = _program_round_trip(program)
        _assert_same_program(restored, program)
        assert restored.depth == 0
        assert restored.total_duration_ns == 0

    def test_decoded_program_builds_steps_lazily(self):
        result = _compile("ColorDynamic")
        restored = _json_round_trip(result).program
        report = estimate_success(restored)
        assert restored._steps is None  # the estimate read the columns only
        assert report == estimate_success(result.program)
        assert restored.steps == result.program.steps

    def test_assigning_steps_drops_derived_columns(self, device4):
        program = CompiledProgram(device=device4, steps=[], name="grow")
        assert program.depth == 0
        program.steps = [TimeStep(frequencies={q: 5.0 for q in range(4)}, duration_ns=25.0)]
        assert program.depth == 1
        assert program.total_duration_ns == 25.0


class TestCorruptColumns:
    """A bad block fails at decode time with ValueError — never later."""

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_fault_is_rejected_at_load(self, fault):
        payload = _compile("ColorDynamic").program.to_dict()
        FAULTS[fault](payload["steps"])
        with pytest.raises(ValueError):
            CompiledProgram.from_dict(payload)

    def test_unregistered_gate_name_is_rejected(self):
        payload = _compile("ColorDynamic").program.to_dict()
        payload["steps"]["names"][0] = "not-a-gate"
        with pytest.raises(ValueError, match="registered gate"):
            CompiledProgram.from_dict(payload)

    def test_device_qubit_count_mismatch_is_rejected(self):
        payload = _compile("ColorDynamic").program.to_dict()
        with pytest.raises(ValueError, match="qubits"):
            CompiledProgram.from_dict(payload, device=Device.grid(4, seed=2020))
