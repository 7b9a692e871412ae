"""Unit tests for the Circuit container and moment slicing."""

import pytest
from hypothesis import given, strategies as st

from repro.circuits import Circuit, Gate, Moment


class TestConstruction:
    def test_requires_positive_qubits(self):
        with pytest.raises(ValueError):
            Circuit(0)

    def test_append_validates_qubit_indices(self):
        circuit = Circuit(2)
        with pytest.raises(ValueError):
            circuit.cx(0, 5)

    def test_add_by_name(self):
        circuit = Circuit(2)
        circuit.add("rx", 0, params=(0.3,))
        assert circuit[0].name == "rx"
        assert circuit[0].params == (0.3,)

    def test_named_helpers_chain(self):
        circuit = Circuit(3)
        circuit.h(0).cx(0, 1).rz(0.5, 2).swap(1, 2)
        assert len(circuit) == 4
        assert [g.name for g in circuit] == ["h", "cx", "rz", "swap"]

    def test_extend_and_iter(self):
        gates = [Gate("h", (0,)), Gate("cz", (0, 1))]
        circuit = Circuit(2).extend(gates)
        assert list(circuit) == gates

    def test_copy_is_independent(self):
        original = Circuit(2).h(0)
        clone = original.copy()
        clone.x(1)
        assert len(original) == 1
        assert len(clone) == 2

    def test_measure_all(self):
        circuit = Circuit(3).measure_all()
        assert circuit.gate_counts() == {"measure": 3}


class TestQueries:
    def test_gate_counts(self):
        circuit = Circuit(3).h(0).h(1).cx(0, 1).cx(1, 2)
        assert circuit.gate_counts() == {"h": 2, "cx": 2}

    def test_two_qubit_gate_count(self, ghz4_circuit):
        assert ghz4_circuit.num_two_qubit_gates() == 3
        assert ghz4_circuit.num_single_qubit_gates() == 1

    def test_used_qubits(self):
        circuit = Circuit(5).cx(0, 3)
        assert circuit.used_qubits() == {0, 3}

    def test_couplings(self):
        circuit = Circuit(4).cx(0, 1).cx(1, 0).cz(2, 3)
        assert circuit.couplings() == {(0, 1), (2, 3)}

    def test_unitary_gates_excludes_measure(self):
        circuit = Circuit(1).h(0).measure(0)
        assert [g.name for g in circuit.unitary_gates()] == ["h"]


class TestMoments:
    def test_bell_moments(self, bell_circuit):
        moments = bell_circuit.moments()
        assert len(moments) == 2
        assert [g.name for g in moments[0]] == ["h"]
        assert [g.name for g in moments[1]] == ["cx"]

    def test_parallel_gates_share_a_moment(self):
        circuit = Circuit(4).h(0).h(1).h(2).h(3)
        assert circuit.depth() == 1

    def test_dependent_gates_are_ordered(self, ghz4_circuit):
        assert ghz4_circuit.depth() == 4

    def test_moment_qubits_and_couplings(self):
        moment = Moment([Gate("cz", (0, 1)), Gate("h", (2,))])
        assert moment.qubits() == {0, 1, 2}
        assert moment.couplings() == [(0, 1)]

    def test_moment_rejects_qubit_conflicts(self):
        moment = Moment([Gate("cz", (0, 1))])
        assert not moment.can_add(Gate("h", (1,)))
        with pytest.raises(ValueError):
            moment.add(Gate("h", (1,)))

    def test_moment_duration_is_longest_gate(self):
        moment = Moment([Gate("h", (0,)), Gate("cz", (1, 2))])
        assert moment.duration_ns() == Gate("cz", (1, 2)).duration_ns

    def test_duration_is_sum_of_moment_durations(self, bell_circuit):
        moments = bell_circuit.moments()
        assert bell_circuit.duration_ns() == pytest.approx(
            sum(m.duration_ns() for m in moments)
        )

    def test_parallelism_metric(self):
        circuit = Circuit(4).h(0).h(1).h(2).h(3)
        assert circuit.parallelism() == pytest.approx(4.0)

    @given(num_gates=st.integers(min_value=1, max_value=30), seed=st.integers(0, 1000))
    def test_moments_partition_all_gates(self, num_gates, seed):
        import random

        rng = random.Random(seed)
        circuit = Circuit(5)
        for _ in range(num_gates):
            if rng.random() < 0.5:
                circuit.h(rng.randrange(5))
            else:
                a, b = rng.sample(range(5), 2)
                circuit.cz(a, b)
        moments = circuit.moments()
        assert sum(len(m) for m in moments) == len(circuit)
        # No moment may touch a qubit twice.
        for moment in moments:
            qubits = [q for g in moment for q in g.qubits]
            assert len(qubits) == len(set(qubits))


class TestComposeAndRemap:
    def test_compose_appends_gates(self, bell_circuit):
        other = Circuit(2).x(1)
        bell_circuit.compose(other)
        assert [g.name for g in bell_circuit] == ["h", "cx", "x"]

    def test_compose_rejects_larger_circuit(self):
        with pytest.raises(ValueError):
            Circuit(2).compose(Circuit(3).h(2))

    def test_remap_relabels_qubits(self, bell_circuit):
        remapped = bell_circuit.remap({0: 3, 1: 1}, num_qubits=4)
        assert remapped.num_qubits == 4
        assert remapped[1].qubits == (3, 1)

    def test_remap_preserves_params(self):
        circuit = Circuit(1).rx(0.7, 0)
        remapped = circuit.remap({0: 2}, num_qubits=3)
        assert remapped[0].params == (0.7,)
