"""Tests for idle-frequency assignment and per-step frequency construction."""

import pytest

from repro.core import assign_idle_frequencies, default_partition, clamp_to_range
from repro.core.frequencies import StepFrequencyAssigner
from repro.program import Interaction


def step_frequencies(device, idle, interactions):
    return StepFrequencyAssigner(device, idle)(interactions)


class TestIdleAssignment:
    def test_idle_coloring_is_proper(self, device16):
        partition = default_partition(device16)
        assignment = assign_idle_frequencies(device16, partition)
        for a, b in device16.edges():
            assert assignment.coloring[a] != assignment.coloring[b]

    def test_mesh_uses_two_parking_frequencies(self, device16):
        partition = default_partition(device16)
        assignment = assign_idle_frequencies(device16, partition)
        assert assignment.num_colors == 2

    def test_coupled_qubits_park_apart(self, device16):
        partition = default_partition(device16)
        assignment = assign_idle_frequencies(device16, partition)
        for a, b in device16.edges():
            separation = abs(
                assignment.qubit_frequencies[a] - assignment.qubit_frequencies[b]
            )
            assert separation > 0.1

    def test_idle_frequencies_live_in_parking_region(self, device16):
        partition = default_partition(device16)
        assignment = assign_idle_frequencies(device16, partition)
        for freq in assignment.qubit_frequencies.values():
            assert partition.parking_low - 1e-6 <= freq <= partition.parking_high + 1e-6

    def test_idle_frequencies_within_each_qubits_range(self, device16):
        partition = default_partition(device16)
        assignment = assign_idle_frequencies(device16, partition)
        for qubit, freq in assignment.qubit_frequencies.items():
            low, high = device16.tunable_range(qubit)
            assert low - 1e-6 <= freq <= high + 1e-6


class TestStepFrequencies:
    def test_idle_qubits_keep_parking_frequency(self, device4):
        idle = {0: 5.0, 1: 5.7, 2: 5.0, 3: 5.7}
        freqs = step_frequencies(device4, idle, [])
        assert freqs == idle

    def test_iswap_places_both_qubits_on_resonance(self, device4):
        idle = {0: 5.0, 1: 5.7, 2: 5.0, 3: 5.7}
        interaction = Interaction(pair=(0, 1), gate_name="iswap", frequency=6.4)
        freqs = step_frequencies(device4, idle, [interaction])
        assert freqs[0] == pytest.approx(6.4)
        assert freqs[1] == pytest.approx(6.4)
        assert freqs[2] == idle[2]

    def test_cz_offsets_partner_by_anharmonicity(self, device4):
        idle = {0: 5.0, 1: 5.7, 2: 5.0, 3: 5.7}
        interaction = Interaction(pair=(0, 1), gate_name="cz", frequency=6.3)
        freqs = step_frequencies(device4, idle, [interaction])
        alpha = device4.qubits[1].params.anharmonicity
        assert freqs[0] == pytest.approx(6.3)
        assert freqs[1] == pytest.approx(6.3 - alpha)
        # The partner's 1-2 transition lands on the interaction frequency.
        assert freqs[1] + alpha == pytest.approx(6.3)

    def test_frequencies_are_clamped_to_tunable_range(self, device4):
        idle = {0: 5.0, 1: 5.7, 2: 5.0, 3: 5.7}
        interaction = Interaction(pair=(0, 1), gate_name="iswap", frequency=9.5)
        freqs = step_frequencies(device4, idle, [interaction])
        assert freqs[0] <= device4.tunable_range(0)[1] + 1e-9
        assert freqs[1] <= device4.tunable_range(1)[1] + 1e-9

    def test_clamp_helper(self):
        assert clamp_to_range(5.0, (6.0, 7.0)) == 6.0
        assert clamp_to_range(7.5, (6.0, 7.0)) == 7.0
        assert clamp_to_range(6.5, (6.0, 7.0)) == 6.5
