"""Tests for the shared compiled-program representation."""

import pytest

from repro.circuits import Gate
from oracles import program_from_steps
from repro.program import Interaction, TimeStep


class TestInteraction:
    def test_pair_is_normalised(self):
        interaction = Interaction(pair=(3, 1), gate_name="cz", frequency=6.4)
        assert interaction.pair == (1, 3)


class TestTimeStep:
    def test_qubits_and_interacting_sets(self):
        step = TimeStep(
            gates=[Gate("cz", (0, 1)), Gate("h", (2,))],
            frequencies={0: 6.4, 1: 6.6, 2: 5.0, 3: 5.7},
            interactions=[Interaction(pair=(0, 1), gate_name="cz", frequency=6.4)],
            duration_ns=50.0,
        )
        assert step.qubits() == {0, 1, 2}
        assert step.interacting_pairs() == {(0, 1)}
        assert step.interacting_qubits() == {0, 1}

    def test_fixed_couplers_are_always_active(self):
        step = TimeStep(active_couplers=None)
        assert step.coupler_is_active((0, 1))

    def test_gmon_couplers_respect_the_active_set(self):
        step = TimeStep(active_couplers={(0, 1)})
        assert step.coupler_is_active((1, 0))
        assert not step.coupler_is_active((2, 3))


class TestCompiledProgram:
    def _program(self, device):
        steps = [
            TimeStep(
                gates=[Gate("h", (0,))],
                frequencies={q: 5.0 for q in range(device.num_qubits)},
                duration_ns=25.0,
            ),
            TimeStep(
                gates=[Gate("cz", (0, 1)), Gate("cz", (2, 3))],
                frequencies={0: 6.4, 1: 6.6, 2: 6.0, 3: 6.2},
                interactions=[
                    Interaction(pair=(0, 1), gate_name="cz", frequency=6.4),
                    Interaction(pair=(2, 3), gate_name="cz", frequency=6.0),
                ],
                duration_ns=50.0,
            ),
        ]
        return program_from_steps(device, steps, name="toy", strategy="manual")

    def test_depth_and_duration(self, device4):
        program = self._program(device4)
        assert program.depth == 2
        assert program.total_duration_ns == pytest.approx(75.0)

    def test_gate_aggregation(self, device4):
        program = self._program(device4)
        assert len(program.all_gates()) == 3
        assert program.num_two_qubit_gates() == 2

    def test_max_parallel_interactions_and_colors(self, device4):
        program = self._program(device4)
        assert program.max_parallel_interactions() == 2
        assert program.colors_used() == 2

    def test_to_circuit_preserves_order(self, device4):
        program = self._program(device4)
        flat = program.to_circuit()
        assert [g.name for g in flat] == ["h", "cz", "cz"]
        assert flat.num_qubits == device4.num_qubits

    def test_qubit_busy_time_covers_whole_program(self, device4):
        program = self._program(device4)
        busy = program.qubit_busy_time_ns()
        assert all(v == pytest.approx(75.0) for v in busy.values())
        assert set(busy) == set(range(device4.num_qubits))
