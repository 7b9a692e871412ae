"""Unit tests for the step-admission policies (`repro.core.admission`)."""

import pytest

from repro import (
    ADMISSION_POLICIES,
    ColorDynamic,
    Device,
    IncrementalEstimator,
    StepAdmission,
    StructuralAdmission,
    SuccessAdmission,
    benchmark_circuit,
    estimate_success,
)
from repro.baselines import BaselineGmon, BaselineNaive, BaselineStatic, BaselineUniform
from repro.core import NoiseAwareScheduler, build_crosstalk_graph
from repro.core.compiler import prepare_native_circuit

from oracles import OracleScheduler

SEED = 2020
ALL_STRATEGIES = [
    ColorDynamic,
    BaselineNaive,
    BaselineGmon,
    BaselineUniform,
    BaselineStatic,
]


def _device(n=9):
    return Device.grid(n, seed=SEED)


def _native(device, bench="xeb(9,3)"):
    circuit = benchmark_circuit(bench, seed=SEED)
    return prepare_native_circuit(device, circuit, "hybrid", True)


class TestKnobValidation:
    def test_policy_names(self):
        assert ADMISSION_POLICIES == ("structural", "success")

    @pytest.mark.parametrize("cls", ALL_STRATEGIES)
    def test_unknown_admission_rejected(self, cls):
        with pytest.raises(ValueError, match="admission"):
            cls(_device(), admission="greedy")

    @pytest.mark.parametrize("cls", ALL_STRATEGIES)
    def test_beam_must_be_positive(self, cls):
        with pytest.raises(ValueError, match="beam"):
            cls(_device(), admission="success", admission_beam=0)

    def test_success_policy_beam_validated(self):
        device = _device()
        with pytest.raises(ValueError, match="beam"):
            SuccessAdmission(IncrementalEstimator(device), lambda s: None, beam=0)

    @pytest.mark.parametrize("cls", ALL_STRATEGIES)
    def test_signature_carries_admission(self, cls):
        structural = cls(_device()).cache_signature()
        success = cls(_device(), admission="success").cache_signature()
        assert structural["admission"] == "structural"
        assert success["admission"] == "success"
        assert structural != success


class TestStructuralPolicy:
    def test_always_picks_first_candidate(self):
        assert StructuralAdmission().choose([object(), object(), object()]) == 0

    def test_policy_loop_matches_structural_loop(self):
        """A beam-4 policy that always picks candidate 0 emits exactly the
        steps of ``admission=None``.

        Candidate 0 is the plain criticality-order fill pass, so building
        and discarding the alternative compositions must leave no trace.
        The policy is not named ``"structural"`` and really is consulted.
        """
        policy = _FixedPick("always-first", lambda candidates: 0)
        for context, native, scheduler in _policy_grid():
            assert _step_fields(scheduler.schedule(native)) == _step_fields(
                scheduler.schedule(native, admission=policy)
            ), context
        assert policy.calls > 0, "no cycle offered the policy a choice"

    def test_always_last_policy_matches_oracle(self):
        """Always picking the last alternative matches the frozen oracle loop.

        The last alternative usually leads with a deferred gate, so this
        pins which leaders are tried, leaders the tiling rejects (Baseline
        G; the oracle drops them, production skips the step they repeat as
        a duplicate), duplicate skipping and the criticality re-sort of
        each alternative — against ``schedule_admission_reference``.
        """
        policy = _FixedPick("always-last", lambda candidates: len(candidates) - 1)
        deviated = False
        for context, native, scheduler in _policy_grid():
            production = _step_fields(scheduler.schedule(native, admission=policy))
            reference = _step_fields(
                OracleScheduler.like(scheduler).schedule(native, admission=policy)
            )
            assert production == reference, context
            deviated = deviated or production != _step_fields(scheduler.schedule(native))
        assert policy.calls > 0 and deviated, "the policy never changed a step"


def _policy_grid():
    """``(context, native circuit, scheduler)`` over the policy test grid:
    ``max_colors`` x threshold, Baseline U's caps and Baseline G's tiling."""
    for bench, num_qubits in [("xeb(9,3)", 9), ("xeb(16,5)", 16), ("qaoa(16)", 16)]:
        device = _device(num_qubits)
        native = _native(device, bench)
        graph = build_crosstalk_graph(device.graph, 1)
        configs = [
            dict(crosstalk_graph=graph, max_colors=max_colors, conflict_threshold=threshold)
            for max_colors in (None, 1, 2, 3)
            for threshold in (None, 1, 3)
        ]
        # Baseline U's serializing caps and Baseline G's coupler tiling.
        configs.append(
            dict(
                crosstalk_graph=graph,
                max_colors=1,
                conflict_threshold=1,
                max_parallel_interactions=1,
            )
        )
        tiling = BaselineGmon(device)._make_scheduler().allowed_couplings
        configs.append(dict(conflict_threshold=None, allowed_couplings=tiling))
        for config in configs:
            yield f"{bench} {config}", native, NoiseAwareScheduler(**config)


def _step_fields(steps):
    return [
        (s.indices, s.couplings, s.interacting, s.base_duration_ns)
        for s in steps
    ]


class _FixedPick(StepAdmission):
    """A beam-4 policy whose pick is a fixed function of the candidates."""

    beam = 4

    def __init__(self, name, pick):
        self.name = name
        self.pick = pick
        self.calls = 0

    def choose(self, candidates):
        self.calls += 1
        return self.pick(candidates)


class TestSuccessPolicy:
    def test_observe_tracks_program_prefix(self):
        device = _device()
        estimator = IncrementalEstimator(device)
        policy = SuccessAdmission(estimator, lambda s: None)
        result = ColorDynamic(device).compile(benchmark_circuit("bv(9)", seed=SEED))
        for step in result.program.steps:
            policy.observe(step)
        assert len(estimator) == result.program.depth

    def test_choose_returns_preview_argmax(self):
        """choose() picks exactly the composition preview_step ranks best."""
        device = _device()
        compiler = ColorDynamic(device)
        structural = compiler.compile(
            benchmark_circuit("xeb(9,3)", seed=SEED)
        ).program
        interacting = [s for s in structural.steps if s.interactions]
        assert len(interacting) >= 2
        candidates = interacting[:2]

        estimator = IncrementalEstimator(device)
        policy = SuccessAdmission(estimator, lambda step: step, beam=4)
        scores = [estimator.preview_step(step) for step in candidates]
        expected = scores.index(max(scores))
        assert policy.choose(candidates) == expected
        if scores[0] != scores[1]:
            # Reversing the candidate order flips the pick accordingly.
            assert policy.choose(list(reversed(candidates))) == 1 - expected

    def test_success_compile_is_deterministic(self):
        device = _device()
        compiler = ColorDynamic(device, admission="success")
        first = compiler.compile(benchmark_circuit("xeb(9,3)", seed=SEED))
        second = compiler.compile(benchmark_circuit("xeb(9,3)", seed=SEED))
        assert [s.frequencies for s in first.program.steps] == [
            s.frequencies for s in second.program.steps
        ]

    @pytest.mark.parametrize("cls", ALL_STRATEGIES)
    def test_success_schedule_is_a_valid_program(self, cls):
        """Same gate multiset, dependency order preserved, same device."""

        def gate_multiset(program):
            return sorted(
                (g.name, tuple(g.qubits)) for s in program.steps for g in s.gates
            )

        device = _device()
        circuit = benchmark_circuit("xeb(9,3)", seed=SEED)
        structural = cls(device).compile(circuit).program
        success = cls(device, admission="success").compile(circuit).program
        assert gate_multiset(structural) == gate_multiset(success)
        # Per-qubit program order is preserved step by step.
        last_step = {}
        for index, step in enumerate(success.steps):
            for gate in step.gates:
                for qubit in gate.qubits:
                    assert last_step.get(qubit, -1) <= index
                    last_step[qubit] = index

    def test_success_improves_at_least_one_fig09_point(self):
        """The acceptance demonstration, at test scale: qgan(9) improves."""
        device = _device()
        circuit = benchmark_circuit("qgan(9)", seed=SEED)
        structural = ColorDynamic(device).compile(circuit)
        success = ColorDynamic(device, admission="success").compile(circuit)
        structural_rate = estimate_success(structural.program).success_rate
        success_rate = estimate_success(success.program).success_rate
        assert success_rate > structural_rate

    def test_beam_one_degrades_to_structural(self):
        device = _device()
        circuit = benchmark_circuit("xeb(9,3)", seed=SEED)
        structural = ColorDynamic(device).compile(circuit)
        beam_one = ColorDynamic(
            device, admission="success", admission_beam=1
        ).compile(circuit)
        assert [s.frequencies for s in structural.program.steps] == [
            s.frequencies for s in beam_one.program.steps
        ]
