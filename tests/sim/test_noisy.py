"""Tests for the Monte-Carlo noisy simulator and heuristic validation."""

import pytest

from repro import ColorDynamic, Device, benchmark_circuit
from repro.devices import TransmonParams
from repro.sim import ideal_final_state, simulate_noisy_program, validate_heuristic
from oracles import program_from_steps


@pytest.fixture(scope="module")
def small_program():
    device = Device.grid(4, seed=11)
    circuit = benchmark_circuit("xeb(4,2)", seed=11)
    return ColorDynamic(device).compile(circuit).program


class TestNoisySimulation:
    def test_noiseless_program_has_unit_fidelity(self, small_program):
        result = simulate_noisy_program(
            small_program, trajectories=3, seed=1, include_decoherence=False
        )
        # Only coherent crosstalk remains and it is small for ColorDynamic.
        assert result.mean_fidelity > 0.9

    def test_decoherence_reduces_fidelity(self, small_program):
        clean = simulate_noisy_program(
            small_program, trajectories=5, seed=1, include_decoherence=False
        )
        noisy = simulate_noisy_program(
            small_program, trajectories=5, seed=1, include_decoherence=True
        )
        assert noisy.mean_fidelity <= clean.mean_fidelity + 1e-9

    def test_short_coherence_times_hurt(self):
        params = TransmonParams(t1_ns=2_000.0, t2_ns=2_000.0)
        device = Device.grid(4, base_params=params, seed=11)
        program = ColorDynamic(device).compile(benchmark_circuit("xeb(4,2)", seed=11)).program
        result = simulate_noisy_program(program, trajectories=5, seed=1)
        long_device = Device.grid(4, seed=11)
        long_program = ColorDynamic(long_device).compile(benchmark_circuit("xeb(4,2)", seed=11)).program
        long_result = simulate_noisy_program(long_program, trajectories=5, seed=1)
        assert result.mean_fidelity < long_result.mean_fidelity

    def test_large_devices_are_rejected(self):
        device = Device.grid(16, seed=1)
        program = program_from_steps(device, [], name="too-big")
        with pytest.raises(ValueError):
            simulate_noisy_program(program)

    def test_fidelities_are_probabilities(self, small_program):
        result = simulate_noisy_program(small_program, trajectories=4, seed=3)
        assert all(0.0 <= f <= 1.0 + 1e-9 for f in result.fidelities)
        assert result.trajectories == 4

    def test_ideal_state_is_normalised(self, small_program):
        import numpy as np

        state = ideal_final_state(small_program)
        assert np.linalg.norm(state) == pytest.approx(1.0)


class TestHeuristicValidation:
    def test_heuristic_is_conservative_on_small_circuit(self, small_program):
        validation = validate_heuristic(small_program, trajectories=8, seed=5, slack=0.25)
        assert 0.0 <= validation.heuristic_success <= 1.0
        assert 0.0 <= validation.simulated_fidelity <= 1.0
        # Eq. (4) is a worst-case estimate: simulation should not be (much) worse.
        assert validation.conservative

    def test_validation_ratio(self, small_program):
        validation = validate_heuristic(small_program, trajectories=4, seed=5)
        assert validation.ratio >= 0.0
