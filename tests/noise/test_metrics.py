"""Tests for the worst-case success-rate estimator (Eq. (4))."""

import pytest

from repro import ColorDynamic, NoiseModel, benchmark_circuit
from repro.circuits import Gate
from repro.noise import estimate_success, success_rate
from oracles import program_from_steps
from repro.program import Interaction, TimeStep


def _single_step_program(device, frequencies, interactions=(), gates=(), duration=50.0):
    step = TimeStep(
        gates=list(gates),
        frequencies=dict(frequencies),
        interactions=list(interactions),
        duration_ns=duration,
    )
    return program_from_steps(device, [step], name="manual", strategy="manual")


class TestEstimatorBasics:
    def test_empty_program_has_unit_success(self, device4):
        program = program_from_steps(device4, [], name="empty")
        report = estimate_success(program)
        assert report.success_rate == pytest.approx(1.0)

    def test_gate_floor_applied_per_gate(self, device4):
        idle = {q: 5.0 + 0.7 * (q % 2) for q in range(4)}
        program = _single_step_program(
            device4, idle, gates=[Gate("h", (0,)), Gate("h", (1,))], duration=25.0
        )
        model = NoiseModel(single_qubit_error=0.01, include_flux_noise=False)
        report = estimate_success(program, model)
        assert report.gate_fidelity_product == pytest.approx(0.99 ** 2)
        assert report.num_single_qubit_gates == 2

    def test_virtual_z_gates_counted_separately(self, device4):
        """Zero-duration frame updates are free and must not inflate the physical tally."""
        idle = {q: 5.0 + 0.7 * (q % 2) for q in range(4)}
        gates = [Gate("h", (0,)), Gate("rz", (1,), (0.5,)), Gate("z", (2,))]
        program = _single_step_program(device4, idle, gates=gates, duration=25.0)
        model = NoiseModel(single_qubit_error=0.01, include_flux_noise=False)
        report = estimate_success(program, model)
        assert report.num_single_qubit_gates == 1  # only the physical h pulse
        assert report.num_virtual_single_qubit_gates == 2  # rz + z
        assert report.gate_fidelity_product == pytest.approx(0.99)

    def test_measurement_uses_readout_error(self, device4):
        idle = {q: 5.0 + 0.7 * (q % 2) for q in range(4)}
        program = _single_step_program(device4, idle, gates=[Gate("measure", (0,))], duration=300.0)
        model = NoiseModel(readout_error=0.05, include_flux_noise=False)
        report = estimate_success(program, model)
        assert report.gate_fidelity_product == pytest.approx(0.95)

    def test_decoherence_error_grows_with_duration(self, device4):
        idle = {q: 5.0 + 0.7 * (q % 2) for q in range(4)}
        short = _single_step_program(device4, idle, duration=50.0)
        long = _single_step_program(device4, idle, duration=5000.0)
        assert (
            estimate_success(long).decoherence_fidelity_product
            < estimate_success(short).decoherence_fidelity_product
        )

    def test_success_rate_wrapper_matches_report(self, device9):
        program = ColorDynamic(device9).compile(benchmark_circuit("ising(9)", seed=1)).program
        assert success_rate(program) == pytest.approx(estimate_success(program).success_rate)


class TestCrosstalkSensitivity:
    def test_colliding_parallel_gates_are_penalised(self, device4):
        """Two adjacent interactions at the same frequency must crater the estimate."""
        idle = {q: 5.0 for q in range(4)}
        colliding = [
            Interaction(pair=(0, 1), gate_name="iswap", frequency=6.5),
            Interaction(pair=(2, 3), gate_name="iswap", frequency=6.5),
        ]
        separated = [
            Interaction(pair=(0, 1), gate_name="iswap", frequency=6.8),
            Interaction(pair=(2, 3), gate_name="iswap", frequency=6.2),
        ]
        freq_collide = {0: 6.5, 1: 6.5, 2: 6.5, 3: 6.5}
        freq_separate = {0: 6.8, 1: 6.8, 2: 6.2, 3: 6.2}
        gates = [Gate("iswap", (0, 1)), Gate("iswap", (2, 3))]
        bad = _single_step_program(device4, freq_collide, colliding, gates)
        good = _single_step_program(device4, freq_separate, separated, gates)
        model = NoiseModel(include_flux_noise=False)
        assert estimate_success(bad, model).crosstalk_fidelity_product < 0.2
        assert estimate_success(good, model).crosstalk_fidelity_product > 0.9

    def test_intended_pair_not_charged_as_spectator(self, device4):
        idle = {0: 6.5, 1: 6.5, 2: 5.0, 3: 5.7}
        interactions = [Interaction(pair=(0, 1), gate_name="iswap", frequency=6.5)]
        program = _single_step_program(device4, idle, interactions, [Gate("iswap", (0, 1))])
        model = NoiseModel(include_flux_noise=False)
        report = estimate_success(program, model)
        assert report.crosstalk_fidelity_product > 0.9

    def test_parking_collision_is_charged_even_when_idle(self, device4):
        frequencies = {0: 5.40, 1: 5.41, 2: 5.0, 3: 5.7}  # qubits 0-1 parked on top of each other
        program = _single_step_program(device4, frequencies)
        model = NoiseModel(include_flux_noise=False)
        report = estimate_success(program, model)
        assert report.crosstalk_fidelity_product < 0.9

    def test_safe_parking_is_not_charged(self, device4):
        frequencies = {0: 5.0, 1: 5.7, 2: 5.7, 3: 5.0}
        program = _single_step_program(device4, frequencies)
        model = NoiseModel(include_flux_noise=False)
        report = estimate_success(program, model)
        assert report.crosstalk_fidelity_product == pytest.approx(1.0)

    def test_idle_idle_crosstalk_flag_charges_everything(self, device4):
        frequencies = {0: 5.0, 1: 5.7, 2: 5.7, 3: 5.0}
        program = _single_step_program(device4, frequencies)
        strict = NoiseModel(idle_idle_crosstalk=True, include_flux_noise=False)
        lax = NoiseModel(idle_idle_crosstalk=False, include_flux_noise=False)
        assert (
            estimate_success(program, strict).crosstalk_fidelity_product
            <= estimate_success(program, lax).crosstalk_fidelity_product
        )

    def test_residual_coupler_factor_controls_gmon_crosstalk(self, device4):
        frequencies = {0: 6.5, 1: 6.5, 2: 6.5, 3: 6.5}
        interactions = [
            Interaction(pair=(0, 1), gate_name="iswap", frequency=6.5),
            Interaction(pair=(2, 3), gate_name="iswap", frequency=6.5),
        ]
        gates = [Gate("iswap", (0, 1)), Gate("iswap", (2, 3))]
        step = TimeStep(
            gates=gates,
            frequencies=frequencies,
            interactions=interactions,
            duration_ns=50.0,
            active_couplers={(0, 1), (2, 3)},
        )
        program = program_from_steps(device4, [step], name="gmon-like")
        perfect = NoiseModel(residual_coupler_factor=0.0, include_flux_noise=False)
        leaky = NoiseModel(residual_coupler_factor=0.5, include_flux_noise=False)
        assert estimate_success(program, perfect).crosstalk_fidelity_product == pytest.approx(1.0)
        assert estimate_success(program, leaky).crosstalk_fidelity_product < 0.9

    def test_distance_two_crosstalk_optional(self, device9):
        program = ColorDynamic(device9).compile(benchmark_circuit("xeb(9,3)", seed=1)).program
        near = NoiseModel(crosstalk_distance=1)
        far = NoiseModel(crosstalk_distance=2, next_neighbour_factor=0.1)
        assert (
            estimate_success(program, far).crosstalk_fidelity_product
            <= estimate_success(program, near).crosstalk_fidelity_product
        )


class TestNoiseModelHelpers:
    def test_with_residual_coupling_copies_other_fields(self):
        model = NoiseModel(two_qubit_error=0.01)
        copy = model.with_residual_coupling(0.3)
        assert copy.residual_coupler_factor == 0.3
        assert copy.two_qubit_error == 0.01

    def test_report_mean_decoherence(self, device9):
        program = ColorDynamic(device9).compile(benchmark_circuit("bv(9)", seed=1)).program
        report = estimate_success(program)
        values = list(report.decoherence_error_per_qubit.values())
        assert report.mean_decoherence_error == pytest.approx(sum(values) / len(values))
