"""Perf tracking: disabled tracing must stay within 2% of compile cost.

The tentpole invariant of ``repro.obs`` is that instrumentation is zero-cost
when tracing is off — each ``span()`` call site collapses to one attribute
check returning the shared no-op singleton.  Wall-clock A/B runs of the same
code cannot resolve a sub-2% delta on shared CI machines, so the guard is
analytic and deterministic instead:

* time the disabled ``span()`` call directly (best-of-``REPEATS`` over
  ``CALLS`` calls, so scheduler noise cannot inflate it),
* count how many spans one cold compile actually emits (run one traced
  compile per strategy and count the drained records),
* bound the per-job overhead as ``spans_per_job * per_call_cost`` against
  the tracked per-job cold compile cost from ``BENCH_compile.json``
  (measured fresh when the tracked file is absent).

The result is written to the untracked ``.benchmarks/BENCH_obs.json``,
alongside the other perf results.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from benchlib import run_once, write_result

from repro import obs
from repro.obs import get_tracer, span
from repro.service.compile_service import build_device_for, make_compiler
from repro.workloads import benchmark_circuit

#: Maximum tolerated disabled-tracing overhead, as a fraction of the
#: per-job cold compile cost.
OVERHEAD_TARGET = 0.02

CALLS = 50_000
REPEATS = 5
STRATEGIES = ("ColorDynamic", "Baseline U")
BENCH = "bv(16)"

_ROOT = Path(__file__).resolve().parent.parent
_COMPILE_BENCH = _ROOT / "BENCH_compile.json"


def _disabled_span_cost_ns() -> float:
    """Best-of-``REPEATS`` cost of one disabled span enter/exit, in ns."""
    assert not obs.is_enabled()
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter_ns()
        for _ in range(CALLS):
            with span("bench", qubits=16):
                pass
        best = min(best, time.perf_counter_ns() - start)
    return best / CALLS


def _spans_per_job() -> int:
    """Max spans emitted by one cold compile across the probed strategies."""
    tracer = get_tracer()
    worst = 0
    for strategy in STRATEGIES:
        device = build_device_for(BENCH)
        circuit = benchmark_circuit(BENCH, seed=2020)
        compiler = make_compiler(strategy, device, None)
        tracer.clear()
        obs.set_enabled(True)
        try:
            compiler.compile(circuit)
        finally:
            obs.set_enabled(False)
        worst = max(worst, len(tracer.drain()))
    return worst


def _per_job_compile_ms() -> tuple[float, str]:
    """Tracked per-job cold compile cost (ms), and where it came from."""
    if _COMPILE_BENCH.exists():
        tracked = json.loads(_COMPILE_BENCH.read_text())
        if tracked.get("num_jobs"):
            return tracked["cold_fast_ms"] / tracked["num_jobs"], "BENCH_compile.json"
    device = build_device_for(BENCH)
    circuit = benchmark_circuit(BENCH, seed=2020)
    best = float("inf")
    for _ in range(3):
        compiler = make_compiler("ColorDynamic", device, None)
        start = time.perf_counter()
        compiler.compile(circuit)
        best = min(best, time.perf_counter() - start)
    return best * 1e3, "measured"


def _run_obs_suite():
    per_call_ns = _disabled_span_cost_ns()
    spans_per_job = _spans_per_job()
    per_job_ms, baseline_source = _per_job_compile_ms()
    overhead_ms = spans_per_job * per_call_ns / 1e6
    return {
        "suite": "disabled-tracing overhead",
        "overhead_target": OVERHEAD_TARGET,
        "disabled_span_ns": per_call_ns,
        "spans_per_job": spans_per_job,
        "per_job_compile_ms": per_job_ms,
        "per_job_baseline_source": baseline_source,
        "overhead_ms_per_job": overhead_ms,
        "overhead_fraction": overhead_ms / per_job_ms,
    }


def test_perf_obs_disabled_overhead(benchmark):
    results = run_once(benchmark, _run_obs_suite)

    print()
    print(
        f"disabled span: {results['disabled_span_ns']:.0f} ns/call, "
        f"{results['spans_per_job']} spans/job -> "
        f"{results['overhead_ms_per_job'] * 1e3:.1f} us/job over "
        f"{results['per_job_compile_ms']:.2f} ms "
        f"({results['per_job_baseline_source']}) = "
        f"{results['overhead_fraction']:.4%} "
        f"(target <= {OVERHEAD_TARGET:.0%})"
    )

    write_result("BENCH_obs.json", results)

    assert results["spans_per_job"] >= 4, "compile pipeline lost its spans"
    assert results["overhead_fraction"] <= OVERHEAD_TARGET, (
        f"disabled tracing costs {results['overhead_fraction']:.2%} of a cold "
        f"compile job; target is {OVERHEAD_TARGET:.0%}"
    )
