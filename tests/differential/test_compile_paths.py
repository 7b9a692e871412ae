"""Differential: production compilers vs the oracle compilers, end to end.

Compiles seeded random circuits (and a few real benchmarks) with every
strategy twice — through ``make_compiler`` and through the oracle kernels of
``oracles.make_oracle_compiler`` — and asserts the emitted programs are
bit-identical through the versioned codec: frequencies, durations,
interactions, colorings, everything except the wall-clock
``compile_time_s``.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.experiments import STRATEGIES
from repro.service import make_compiler
from repro.service.compile_service import build_device_for
from repro.workloads import benchmark_circuit

from diffgen import random_circuit, random_device  # noqa: E402 (sys.path via pytest)
from oracles import OracleScheduler, make_oracle_compiler


def _canonical(result):
    payload = result.to_dict()
    payload.pop("compile_time_s")
    payload["program"]["metadata"].pop("compile_time_s", None)
    return json.dumps(payload, sort_keys=True)


def assert_paths_bit_identical(strategy, device, circuit, max_colors=None):
    fast = make_compiler(strategy, device, max_colors)
    reference = make_oracle_compiler(strategy, device, max_colors)
    fast_result = fast.compile(circuit)
    ref_result = reference.compile(circuit)
    assert _canonical(fast_result) == _canonical(ref_result), (
        f"{strategy} diverged on {circuit.name}"
    )


@pytest.mark.differential
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("seed", range(8))
def test_random_circuits_compile_identically(strategy, seed):
    device = random_device(seed)
    circuit = random_circuit(device.num_qubits, seed)
    assert_paths_bit_identical(strategy, device, circuit)


@pytest.mark.differential
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("bench", ["xeb(16,5)", "qaoa(16)", "bv(16)"])
def test_benchmarks_compile_identically(strategy, bench):
    device = build_device_for(bench)
    circuit = benchmark_circuit(bench, seed=2020)
    assert_paths_bit_identical(strategy, device, circuit)


@pytest.mark.differential
@pytest.mark.parametrize("max_colors", [1, 2, 3])
def test_color_budgets_compile_identically(max_colors):
    """The bounded-coloring probe (Fig. 11 knob) stays decision-identical."""
    device = build_device_for("xeb(16,5)")
    circuit = benchmark_circuit("xeb(16,5)", seed=2020)
    assert_paths_bit_identical("ColorDynamic", device, circuit, max_colors=max_colors)


@pytest.mark.differential
@pytest.mark.parametrize("strategy", ["ColorDynamic", "Baseline U"])
def test_tracing_never_changes_compiled_output(strategy):
    """Compiling with span tracing on is bit-identical to tracing off."""
    from repro import obs
    from repro.obs import get_tracer

    device = build_device_for("bv(16)")
    circuit = benchmark_circuit("bv(16)", seed=2020)
    compiler = make_compiler(strategy, device, None)

    tracer = get_tracer()
    was_enabled = obs.is_enabled()
    try:
        obs.set_enabled(False)
        plain = _canonical(compiler.compile(circuit))
        obs.set_enabled(True)
        traced = _canonical(compiler.compile(circuit))
        spans = tracer.drain()
    finally:
        obs.set_enabled(was_enabled)
        tracer.clear()

    assert any(r["name"] == "compile" for r in spans)
    assert traced == plain


@pytest.mark.differential
@pytest.mark.slow
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("seed", range(8, 40))
def test_random_circuits_compile_identically_deep(strategy, seed):
    """Deep sweep (excluded from tier-1 by the ``slow`` marker)."""
    device = random_device(seed)
    circuit = random_circuit(device.num_qubits, seed)
    assert_paths_bit_identical(strategy, device, circuit)


@pytest.mark.differential
def test_scheduler_reference_and_indexed_emit_same_steps():
    """Step-level check: same gates, couplings, indices, base durations."""
    from repro.core import NoiseAwareScheduler, build_crosstalk_graph

    from diffgen import random_native_circuit

    device = random_device(17)
    circuit = random_native_circuit(device, 17)
    graph = build_crosstalk_graph(device.graph, 1)
    for max_colors, threshold in [(None, 3), (2, 1), (None, None)]:
        scheduler = NoiseAwareScheduler(
            graph, max_colors=max_colors, conflict_threshold=threshold
        )
        fast = scheduler.schedule(circuit)
        reference = OracleScheduler.like(scheduler).schedule(circuit)
        assert [s.indices for s in fast] == [s.indices for s in reference]
        assert [s.couplings for s in fast] == [s.couplings for s in reference]
        assert [s.gates for s in fast] == [s.gates for s in reference]
        assert [s.base_duration_ns for s in fast] == [
            s.base_duration_ns for s in reference
        ]
