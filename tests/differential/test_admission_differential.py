"""Differential: admission policies vs the structural loop and the oracles.

Three contracts:

* ``admission="structural"`` (the default) is **bit-identical** to a
  compiler constructed without the knob, for every strategy, through the
  versioned codec — the success-aware machinery must not perturb the
  default path at all.
* ``admission="success"`` emits bit-identical programs through the
  production compilers and the oracle compilers (``oracles.py``): the
  policy loop evaluates structural admissibility through the bitset
  kernels or through the oracles' ``noise_conflict``, and those are
  decision-identical, so the estimator-guided choice must be too.
* The policy-driven scheduler loop makes exactly the structural loop's
  decisions when its policy never deviates (covered at the scheduler level
  in ``tests/core/test_admission.py``).
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.experiments import STRATEGIES
from repro.service import make_compiler
from repro.service.compile_service import build_device_for
from repro.workloads import benchmark_circuit

from diffgen import random_circuit, random_device  # noqa: E402 (sys.path via pytest)
from oracles import make_oracle_compiler


def _canonical(result):
    payload = result.to_dict()
    payload.pop("compile_time_s")
    payload["program"]["metadata"].pop("compile_time_s", None)
    return json.dumps(payload, sort_keys=True)


@pytest.mark.differential
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("seed", range(4))
def test_structural_knob_is_bit_identical_to_default(strategy, seed):
    device = random_device(seed)
    circuit = random_circuit(device.num_qubits, seed)
    default = make_compiler(strategy, device).compile(circuit)
    explicit = make_compiler(strategy, device, admission="structural").compile(circuit)
    assert _canonical(default) == _canonical(explicit), (
        f"{strategy} default diverged from admission='structural' on seed {seed}"
    )


@pytest.mark.differential
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("bench", ["xeb(16,5)", "qaoa(16)"])
def test_structural_knob_is_bit_identical_on_benchmarks(strategy, bench):
    device = build_device_for(bench)
    circuit = benchmark_circuit(bench, seed=2020)
    default = make_compiler(strategy, device).compile(circuit)
    explicit = make_compiler(strategy, device, admission="structural").compile(circuit)
    assert _canonical(default) == _canonical(explicit)


@pytest.mark.differential
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("seed", range(4))
def test_success_admission_identical_across_planes(strategy, seed):
    device = random_device(seed)
    circuit = random_circuit(device.num_qubits, seed)
    fast = make_compiler(strategy, device, admission="success").compile(circuit)
    reference = make_oracle_compiler(strategy, device, admission="success").compile(circuit)
    assert _canonical(fast) == _canonical(reference), (
        f"{strategy} success admission diverged across planes on seed {seed}"
    )


@pytest.mark.differential
@pytest.mark.parametrize("strategy", ["ColorDynamic", "Baseline U"])
@pytest.mark.parametrize("bench", ["xeb(16,5)", "qaoa(16)"])
def test_success_admission_identical_across_planes_benchmarks(strategy, bench):
    device = build_device_for(bench)
    circuit = benchmark_circuit(bench, seed=2020)
    fast = make_compiler(strategy, device, admission="success").compile(circuit)
    reference = make_oracle_compiler(strategy, device, admission="success").compile(circuit)
    assert _canonical(fast) == _canonical(reference)


@pytest.mark.differential
@pytest.mark.parametrize("max_colors", [1, 2, 3])
def test_success_admission_respects_color_budgets(max_colors):
    """Binding budgets are where admission order matters most; the emitted
    program must still stay within the budget and match across planes."""
    device = build_device_for("xeb(16,5)")
    circuit = benchmark_circuit("xeb(16,5)", seed=2020)
    fast = make_compiler(
        "ColorDynamic", device, max_colors, admission="success"
    ).compile(circuit)
    reference = make_oracle_compiler(
        "ColorDynamic", device, max_colors, admission="success"
    ).compile(circuit)
    assert fast.max_colors_used <= max_colors
    assert _canonical(fast) == _canonical(reference)
