"""Differential: IncrementalEstimator vs from-scratch ``estimate_success``.

The contract under test: after *any* mutation sequence (append / replace /
pop), the estimator's report is bit-identical — every float compared with
``==``, never a tolerance — to a from-scratch vectorized ``estimate_success``
on the program assembled from the same steps.  Exercised for all five
strategies, across noise-model configurations, on seeded random circuits and
seeded random mutation sequences.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.experiments import STRATEGIES
from repro.noise import IncrementalEstimator, NoiseModel, estimate_success
from repro.program import CompiledProgram
from repro.service import make_compiler
from repro.service.compile_service import build_device_for
from repro.workloads import benchmark_circuit

from diffgen import random_circuit, random_device

MODELS = {
    "default": NoiseModel(),
    "distance2": NoiseModel(crosstalk_distance=2),
    "residual": NoiseModel(residual_coupler_factor=0.3),
    "no-flux": NoiseModel(include_flux_noise=False),
    "no-leakage": NoiseModel(include_leakage=False),
    "oscillatory": NoiseModel(worst_case=False),
}


def assert_reports_bit_identical(fast, reference, context=""):
    assert fast.success_rate == reference.success_rate, context
    assert fast.gate_fidelity_product == reference.gate_fidelity_product, context
    assert (
        fast.crosstalk_fidelity_product == reference.crosstalk_fidelity_product
    ), context
    assert (
        fast.decoherence_fidelity_product == reference.decoherence_fidelity_product
    ), context
    assert fast.crosstalk_error_total == reference.crosstalk_error_total, context
    assert fast.worst_spectator_error == reference.worst_spectator_error, context
    assert (
        fast.decoherence_error_per_qubit == reference.decoherence_error_per_qubit
    ), context
    assert fast.depth == reference.depth, context
    assert fast.duration_ns == reference.duration_ns, context
    assert fast.num_two_qubit_gates == reference.num_two_qubit_gates, context
    assert fast.num_single_qubit_gates == reference.num_single_qubit_gates, context
    assert (
        fast.num_virtual_single_qubit_gates
        == reference.num_virtual_single_qubit_gates
    ), context


def _mutate(estimator, steps, donor_steps, rng):
    """Apply one random mutation to both the estimator and the step list."""
    op = rng.choice(["replace", "pop", "append", "append"])
    if op == "replace" and steps:
        i = rng.randrange(len(steps))
        step = rng.choice(donor_steps)
        steps[i] = step
        estimator.set_step(i, step)
    elif op == "pop" and steps:
        steps.pop()
        estimator.pop_step()
    else:
        step = rng.choice(donor_steps)
        steps.append(step)
        estimator.append_step(step)


@pytest.mark.differential
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_full_program_matches_all_models(strategy):
    """Appending a compiled program step by step == one-shot estimation."""
    device = build_device_for("xeb(16,5)")
    circuit = benchmark_circuit("xeb(16,5)", seed=2020)
    program = make_compiler(strategy, device).compile(circuit).program
    for name, model in MODELS.items():
        # program.device: Baseline G compiles on the coupler-wrapped device.
        estimator = IncrementalEstimator(program.device, model).load_program(program)
        assert_reports_bit_identical(
            estimator.report(),
            estimate_success(program, model),
            f"{strategy} [{name}]",
        )


@pytest.mark.differential
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("seed", range(6))
def test_mutation_sequences_match_from_scratch(strategy, seed):
    """Random append/replace/pop sequences stay bit-identical throughout."""
    rng = random.Random(seed * 977 + 13)
    device = random_device(seed)
    circuit = random_circuit(device.num_qubits, seed)
    program = make_compiler(strategy, device).compile(circuit).program
    if not program.steps:
        pytest.skip("degenerate random circuit")
    donor = list(program.steps)

    estimator = IncrementalEstimator(program.device)
    steps = []
    for iteration in range(12):
        _mutate(estimator, steps, donor, rng)
        mutated = CompiledProgram(
            device=program.device, steps=list(steps), name="mutated", strategy=strategy
        )
        assert_reports_bit_identical(
            estimator.report(),
            estimate_success(mutated),
            f"{strategy} seed={seed} it={iteration}",
        )


@pytest.mark.differential
def test_preview_step_does_not_mutate():
    device = build_device_for("xeb(9,2)")
    circuit = benchmark_circuit("xeb(9,2)", seed=2020)
    program = make_compiler("ColorDynamic", device).compile(circuit).program
    estimator = IncrementalEstimator(device).load_program(program)
    before = estimator.report()

    previewed = estimator.preview_step(program.steps[0])
    extended = CompiledProgram(
        device=device,
        steps=list(program.steps) + [program.steps[0]],
        name="preview",
    )
    assert previewed == estimate_success(extended).success_rate
    assert_reports_bit_identical(estimator.report(), before, "post-preview")

    replaced = estimator.preview_step(program.steps[0], index=len(program.steps) - 1)
    swapped = CompiledProgram(
        device=device,
        steps=list(program.steps[:-1]) + [program.steps[0]],
        name="preview2",
    )
    assert replaced == estimate_success(swapped).success_rate
    assert_reports_bit_identical(estimator.report(), before, "post-preview-replace")


@pytest.mark.differential
def test_empty_estimator_matches_empty_program(device4):
    estimator = IncrementalEstimator(device4)
    empty = CompiledProgram(device=device4, steps=[], name="empty")
    assert_reports_bit_identical(estimator.report(), estimate_success(empty))
