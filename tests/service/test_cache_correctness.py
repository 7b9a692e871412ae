"""Cache correctness of the compile pipeline.

Two contracts:

* **No data-plane selectors** — no strategy's ``cache_signature()`` carries
  a knob that picks between duplicate implementations of a stage.
* **Content compatibility** — a PR-2-style cached entry (codec round trip)
  estimated through the new :class:`~repro.noise.IncrementalEstimator`
  stays bit-identical to estimating the freshly compiled program, for every
  strategy: codec round-trip x incremental path changes nothing.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.experiments import STRATEGIES
from repro.core.compiler import CompilationResult
from repro.noise import IncrementalEstimator, estimate_success
from repro.service import CompileJob, CompileService, make_compiler
from repro.service.compile_service import build_device_for
from repro.workloads import benchmark_circuit

BENCH = "xeb(9,2)"
SEED = 2020


#: Knobs that once selected between duplicate data planes; one compile
#: pipeline is left, so none of them may shape a cache key again.
RETIRED_KNOBS = {"indexed_kernels", "vectorized", "indexed", "memoize", "dynamic"}


def appended(program):
    """An incremental estimator holding *program*'s steps, appended in order."""
    estimator = IncrementalEstimator(program.device)
    for step in program.steps:
        estimator.append_step(step)
    return estimator


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_cache_signature_has_no_retired_knobs(strategy):
    compiler = make_compiler(strategy, build_device_for(BENCH))
    assert not RETIRED_KNOBS & set(compiler.cache_signature())


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_codec_round_trip_times_incremental_is_bit_exact(strategy):
    """PR-2 cached entries estimated with the new estimator stay bit-identical.

    fresh program --codec--> restored program --IncrementalEstimator-->
    report must equal estimate_success(fresh program) float for float.
    """
    device = build_device_for(BENCH)
    compiler = make_compiler(strategy, device)
    result = compiler.compile(benchmark_circuit(BENCH, seed=SEED))

    # Bit-exact JSON round trip, exactly what the program store persists.
    payload = json.loads(json.dumps(result.to_dict()))
    restored = CompilationResult.from_dict(payload)

    fresh_report = estimate_success(result.program)
    restored_report = appended(restored.program).report()
    assert restored_report.success_rate == fresh_report.success_rate
    assert (
        restored_report.crosstalk_fidelity_product
        == fresh_report.crosstalk_fidelity_product
    )
    assert (
        restored_report.decoherence_fidelity_product
        == fresh_report.decoherence_fidelity_product
    )
    assert (
        restored_report.decoherence_error_per_qubit
        == fresh_report.decoherence_error_per_qubit
    )
    assert restored_report.worst_spectator_error == fresh_report.worst_spectator_error
    assert restored_report.duration_ns == fresh_report.duration_ns


def test_warm_hit_estimated_incrementally_matches_cold(tmp_path):
    """End to end through the service: cold compile, warm load, both
    estimated through the incremental plane, bit-identical."""
    service = CompileService(cache_dir=str(tmp_path))
    job = CompileJob(benchmark=BENCH, strategy="ColorDynamic", seed=SEED)
    cold = service.compile(job)

    warm_service = CompileService(cache_dir=str(tmp_path))
    warm = warm_service.compile(job)
    assert warm.cache_hit

    cold_rate = appended(cold.program).success_rate()
    warm_rate = appended(warm.program).success_rate()
    assert cold_rate == warm_rate == estimate_success(cold.program).success_rate
