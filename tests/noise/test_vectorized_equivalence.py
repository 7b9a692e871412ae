"""Equivalence suite: the vectorized Eq. (4) estimator vs the scalar oracle.

Every strategy x benchmark of the Fig. 9 suite is compiled once and scored by
``estimate_success`` and by the scalar triple loop of ``oracles.py`` under
several noise-model configurations (default, distance-2 crosstalk, residual
coupling, flux noise off).  The success rates must agree to <= 1e-12 — the
vectorized estimator is a pure data-plane rewrite, not a model change.
"""

from __future__ import annotations

import pytest

from oracles import estimate_success as scalar_estimate
from repro.analysis.experiments import STRATEGIES, build_device_for
from repro.noise import NoiseModel, estimate_success
from repro.service import make_compiler
from repro.workloads import benchmark_circuit, fig09_benchmarks

TOLERANCE = 1e-12

#: The model configurations the satellite task calls out explicitly.
MODEL_CONFIGS = {
    "default": NoiseModel(),
    "distance2": NoiseModel(crosstalk_distance=2),
    "residual": NoiseModel(residual_coupler_factor=0.3),
    "no-flux-noise": NoiseModel(include_flux_noise=False),
}

_PROGRAM_CACHE = {}


def _compiled_program(bench_name: str, strategy: str):
    key = (bench_name, strategy)
    if key not in _PROGRAM_CACHE:
        device = build_device_for(bench_name)
        circuit = benchmark_circuit(bench_name, seed=2020)
        compiler = make_compiler(strategy, device)
        _PROGRAM_CACHE[key] = compiler.compile(circuit).program
    return _PROGRAM_CACHE[key]


@pytest.mark.parametrize("bench_name", fig09_benchmarks())
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_vectorized_matches_scalar_on_fig09_suite(bench_name, strategy):
    program = _compiled_program(bench_name, strategy)
    for name, model in MODEL_CONFIGS.items():
        scalar = scalar_estimate(program, model)
        fast = estimate_success(program, model)
        context = f"{strategy} on {bench_name} [{name}]"
        assert abs(fast.success_rate - scalar.success_rate) <= TOLERANCE, context
        assert (
            abs(fast.crosstalk_fidelity_product - scalar.crosstalk_fidelity_product)
            <= TOLERANCE
        ), context
        assert (
            abs(fast.decoherence_fidelity_product - scalar.decoherence_fidelity_product)
            <= TOLERANCE
        ), context
        assert (
            abs(fast.worst_spectator_error - scalar.worst_spectator_error) <= TOLERANCE
        ), context
        assert fast.num_single_qubit_gates == scalar.num_single_qubit_gates
        assert fast.num_virtual_single_qubit_gates == scalar.num_virtual_single_qubit_gates
        assert fast.num_two_qubit_gates == scalar.num_two_qubit_gates


def test_vectorized_handles_gmon_programs():
    """Active-coupler masks (Baseline G) agree across engines including leakage."""
    program = _compiled_program("xeb(16,5)", "Baseline G")
    for factor in (0.0, 0.2, 0.8):
        model = NoiseModel(residual_coupler_factor=factor)
        scalar = scalar_estimate(program, model)
        fast = estimate_success(program, model)
        assert abs(fast.success_rate - scalar.success_rate) <= TOLERANCE


def test_vectorized_handles_empty_program(device4):
    from oracles import program_from_steps

    program = program_from_steps(device4, [], name="empty")
    for estimate in (scalar_estimate, estimate_success):
        assert estimate(program).success_rate == pytest.approx(1.0)


def test_oscillatory_and_idle_idle_modes_agree(device9):
    """Non-default model branches (sin^2 envelope, idle-idle charging) match too."""
    from repro.core import ColorDynamic

    circuit = benchmark_circuit("xeb(9,5)", seed=2020)
    program = ColorDynamic(device9).compile(circuit).program
    model = NoiseModel(worst_case=False, include_leakage=False, idle_idle_crosstalk=True)
    scalar = scalar_estimate(program, model)
    fast = estimate_success(program, model)
    assert abs(fast.success_rate - scalar.success_rate) <= TOLERANCE
