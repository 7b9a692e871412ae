"""Perf tracking: success-aware admission overhead on the cold compile path.

The ``"success"`` admission policy pays, per scheduling cycle, up to
``beam`` frequency annotations and ``IncrementalEstimator.preview_step``
folds on top of the structural cold compile.  This benchmark pins that
overhead to a bounded multiple of the structural cold path on a
fig09 subgrid, so a regression in the preview plumbing (an accidental
O(program) pass per decision, say) fails loudly instead of silently making
``--admission success`` unusable.  Results are written to
``.benchmarks/BENCH_admission.json`` (untracked).

The subgrid covers the two compute-heavy strategies whose schedules the
policy actually reshapes (ColorDynamic and Baseline U) on the 16/25-qubit
XEB stress tests — the points with the most two-qubit placement decisions
per cycle, i.e. the worst case for the beam.
"""

from __future__ import annotations

import time

from benchlib import run_once, write_result

from repro.analysis import format_table
from repro.service.compile_service import build_device_for, make_compiler
from repro.workloads import benchmark_circuit

#: Success-admission cold compiles must stay within this multiple of the
#: structural cold path on the same grid.  The measured ratio is
#: ~20-25x: each scheduling cycle annotates and previews up to ``beam``
#: candidate compositions, and every ``preview_step`` pays an O(steps)
#: report fold (the decoherence normalization is global), so the policy is
#: expected to cost a beam-sized constant times a depth factor — tens of
#: milliseconds per fig09-grid compile in absolute terms.  The bound
#: leaves headroom for CI noise while still catching an accidental
#: super-linear pass per decision.
ADMISSION_OVERHEAD_BOUND = 35.0
REPEATS = 3

BENCHES = ["xeb(16,5)", "xeb(16,10)", "xeb(25,5)", "xeb(25,10)"]
STRATEGIES = ["ColorDynamic", "Baseline U"]



def _time_grid(admission: str, repeats: int) -> float:
    """Best-of-``repeats`` cold compile time of the subgrid (seconds).

    Devices are rebuilt per repeat so the device-held prepare memos start
    cold, mirroring ``test_perf_compile``.
    """
    circuits = {b: benchmark_circuit(b, seed=2020) for b in BENCHES}
    best = float("inf")
    for _ in range(repeats):
        devices = {b: build_device_for(b, seed=2020) for b in BENCHES}
        total = 0.0
        for bench in BENCHES:
            for strategy in STRATEGIES:
                compiler = make_compiler(
                    strategy, devices[bench], admission=admission
                )
                start = time.perf_counter()
                compiler.compile(circuits[bench])
                total += time.perf_counter() - start
        best = min(best, total)
    return best


def _run_perf_suite():
    structural_s = _time_grid("structural", REPEATS)
    success_s = _time_grid("success", REPEATS)
    return {
        "suite": "fig09 XEB subgrid (ColorDynamic + Baseline U)",
        "num_jobs": len(BENCHES) * len(STRATEGIES),
        "overhead_bound": ADMISSION_OVERHEAD_BOUND,
        "structural_cold_ms": structural_s * 1e3,
        "success_cold_ms": success_s * 1e3,
        "overhead_ratio": (
            success_s / structural_s if structural_s > 0 else float("inf")
        ),
    }


def test_perf_admission(benchmark):
    results = run_once(benchmark, _run_perf_suite)

    print()
    print(
        format_table(
            ["admission", "cold compile (ms)"],
            [
                ["structural", results["structural_cold_ms"]],
                ["success", results["success_cold_ms"]],
            ],
            float_format="{:.3g}",
            title="Success-aware admission overhead — structural cold path",
        )
    )
    print(
        f"overhead {results['overhead_ratio']:.1f}x, "
        f"bound <= {ADMISSION_OVERHEAD_BOUND:.0f}x"
    )

    write_result("BENCH_admission.json", results)

    assert results["overhead_ratio"] <= ADMISSION_OVERHEAD_BOUND, (
        f"success admission costs {results['overhead_ratio']:.1f}x the "
        f"structural cold path; bound is {ADMISSION_OVERHEAD_BOUND:.0f}x"
    )
