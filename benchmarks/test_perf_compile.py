"""Perf tracking: the cold compile path and the compile cache on the Fig. 9 grid.

Two regressions are guarded, both written into the untracked
``.benchmarks/BENCH_compile.json``:

* **Cold path.**  Every point of the fig09 compile grid is compiled
  directly — prebuilt compilers, fresh devices per repeat so the device-held
  prepare memos start cold — through the production compilers and through
  the oracle compilers of ``tests/differential/oracles.py`` (the original
  networkx/scalar kernels).  Production must be >= 3x faster; the
  differential suite separately proves the two emit bit-identical programs.
  Production and oracle repeats alternate, with equal counts, so a swing in
  the machine's speed lands on both sides of the ratio.
* **Cache-hot path.**  A fresh on-disk store is cold-filled via
  ``compile_batch`` and then re-read; the warm pass must perform **zero**
  recompilations and beat the oracle cold compile of the grid by >= 3x.
  The warm ratio is measured against the oracles because the production
  cold path keeps getting faster — warm loads cannot beat a target that
  moves with every cold-path win.
"""

from __future__ import annotations

import gc
import shutil
import tempfile
import time

from benchlib import run_once, write_result
from oracles import make_oracle_compiler

from repro.analysis import figure_compile_jobs, format_table
from repro.service import CompileService, ProgramStore
from repro.service.compile_service import build_device_for, make_compiler
from repro.workloads import benchmark_circuit

#: Required production-vs-oracle speedup of the cold compile path.
COLD_SPEEDUP_TARGET = 3.0
#: Required cache-hot speedup over the oracle cold compile.
WARM_SPEEDUP_TARGET = 3.0
#: Cold repeats per side; production and oracle repeats alternate.  On a
#: shared 2-core box best-of-3 put the ratio anywhere in ~3.2-4.1x, while
#: best-of-5 kept it in ~3.6-4.1x.
COLD_REPEATS = 5
# The warm batch is pure store reads and finishes in milliseconds, so extra
# repeats are nearly free; best-of-5 keeps the measured minimum close to the
# true floor on noisy (shared/CI) machines instead of flaking at the target.
WARM_REPEATS = 5



def _time_cold_pass(jobs, circuits, build_compiler, share_devices: bool):
    """One direct compile pass over the grid: (seconds, per-strategy rows).

    Compilers are prebuilt (construction amortizes across a sweep and is
    covered by the batch timings below); devices are rebuilt per pass so
    the prepare/step memos living on them start cold every time.  With
    ``share_devices`` the strategies of a benchmark share one device, as in
    a sweep, so each benchmark is routed and decomposed once; without it
    every job prepares its own circuit, as the reference paths did before
    the prepare memo became unconditional.
    """
    devices = {}
    compilers = []
    for job in jobs:
        device_key = (job.topology, job.benchmark, job.seed)
        if not share_devices:
            device_key += (job.strategy,)
        if device_key not in devices:
            devices[device_key] = build_device_for(
                job.benchmark, topology=job.topology, seed=job.seed
            )
        compilers.append(build_compiler(job.strategy, devices[device_key], job.max_colors))
    strategy_ms = {}
    total = 0.0
    for job, compiler in zip(jobs, compilers):
        circuit = circuits[(job.benchmark, job.seed)]
        start = time.perf_counter()
        compiler.compile(circuit)
        elapsed = time.perf_counter() - start
        total += elapsed
        row = strategy_ms.setdefault(job.strategy, {"jobs": 0, "compile_ms": 0.0})
        row["jobs"] += 1
        row["compile_ms"] += elapsed * 1e3
    return total, strategy_ms


def _time_cold_paths(jobs, repeats: int):
    """Best-of-``repeats`` cold compile time of production and of the oracles.

    The two sides alternate pass by pass, so both sample the same stretch
    of the machine's (shared, drifting) speed.
    """
    circuits = {}
    for job in jobs:
        circuits.setdefault(
            (job.benchmark, job.seed), benchmark_circuit(job.benchmark, seed=job.seed)
        )
    sides = {"production": (make_compiler, True), "oracle": (make_oracle_compiler, False)}
    best = {side: (float("inf"), None) for side in sides}
    for _ in range(repeats):
        for side, (build, share_devices) in sides.items():
            timed = _time_cold_pass(jobs, circuits, build, share_devices)
            if timed[0] < best[side][0]:
                best[side] = timed
    return best["production"], best["oracle"]


def _run_perf_suite():
    jobs = figure_compile_jobs("fig09")

    # GC hygiene: in a full pytest session this suite runs after ~1500
    # tests whose surviving objects make every collection expensive, and
    # the warm batch (tens of thousands of short-lived decode allocations)
    # pays for those collections while the compute-bound oracle compiles
    # barely trigger any — skewing the ratio by context rather than by
    # code.  Freeze the pre-existing heap out of the collector for the
    # duration of the timings so standalone and in-suite runs measure the
    # same thing.
    gc.collect()
    gc.freeze()
    try:
        return _run_perf_suite_frozen(jobs)
    finally:
        gc.unfreeze()


def _run_perf_suite_frozen(jobs):
    # --- cold path: production vs oracle compilers ------------------------
    (cold_fast_s, fast_per_strategy), (cold_reference_s, ref_per_strategy) = (
        _time_cold_paths(jobs, COLD_REPEATS)
    )

    # --- cache path: cold batch + warm re-reads --------------------------
    fast_root = tempfile.mkdtemp(prefix="repro-bench-compile-")
    try:
        cold_service = CompileService(cache_dir=fast_root)
        start = time.perf_counter()
        cold_service.compile_batch(jobs)
        service_cold_s = time.perf_counter() - start

        warm_s = float("inf")
        warm_stats = None
        for _ in range(WARM_REPEATS):
            service = CompileService(cache_dir=fast_root)
            start = time.perf_counter()
            service.compile_batch(jobs)
            elapsed = time.perf_counter() - start
            if elapsed < warm_s:
                warm_s = elapsed
                warm_stats = service.stats.snapshot()

        store_stats = ProgramStore(fast_root).stats()
    finally:
        shutil.rmtree(fast_root, ignore_errors=True)

    return {
        "suite": "fig09 compile grid",
        "num_jobs": len(jobs),
        "cold_speedup_target": COLD_SPEEDUP_TARGET,
        "cold_fast_ms": cold_fast_s * 1e3,
        "cold_reference_ms": cold_reference_s * 1e3,
        "cold_speedup": (
            cold_reference_s / cold_fast_s if cold_fast_s > 0 else float("inf")
        ),
        "per_strategy_cold_fast": fast_per_strategy,
        "per_strategy_cold_reference": ref_per_strategy,
        "warm_speedup_target": WARM_SPEEDUP_TARGET,
        "service_cold_ms": service_cold_s * 1e3,
        "cache_hot_ms": warm_s * 1e3,
        "cache_hot_speedup_vs_reference": (
            cold_reference_s / warm_s if warm_s > 0 else float("inf")
        ),
        "cache_hot_speedup_vs_fast_cold": (
            service_cold_s / warm_s if warm_s > 0 else float("inf")
        ),
        "cold_stats": cold_service.stats.snapshot(),
        "warm_stats": warm_stats,
        "store_entries": store_stats["entries"],
        "store_bytes": store_stats["total_bytes"],
    }


def test_perf_compile(benchmark):
    results = run_once(benchmark, _run_perf_suite)

    rows = [
        [
            strategy,
            results["per_strategy_cold_fast"][strategy]["jobs"],
            results["per_strategy_cold_fast"][strategy]["compile_ms"],
            results["per_strategy_cold_reference"][strategy]["compile_ms"],
        ]
        for strategy in results["per_strategy_cold_fast"]
    ]
    print()
    print(
        format_table(
            ["strategy", "jobs", "production cold (ms)", "oracle cold (ms)"],
            rows,
            float_format="{:.3g}",
            title="Cold compile path — production vs oracle kernels",
        )
    )
    print(
        f"grid: {results['num_jobs']} jobs, "
        f"cold production {results['cold_fast_ms']:.0f} ms vs oracle "
        f"{results['cold_reference_ms']:.0f} ms "
        f"({results['cold_speedup']:.1f}x, target >= {COLD_SPEEDUP_TARGET:.0f}x); "
        f"cache-hot {results['cache_hot_ms']:.0f} ms vs oracle cold "
        f"{results['cold_reference_ms']:.0f} ms "
        f"({results['cache_hot_speedup_vs_reference']:.1f}x, "
        f"target >= {WARM_SPEEDUP_TARGET:.0f}x)"
    )

    write_result("BENCH_compile.json", results)

    warm = results["warm_stats"]
    assert warm["misses"] == 0, "cache-hot pass recompiled something"
    assert warm["hits"] == results["store_entries"]
    assert results["cold_speedup"] >= COLD_SPEEDUP_TARGET, (
        f"production cold path only {results['cold_speedup']:.1f}x faster than the "
        f"oracles; target is {COLD_SPEEDUP_TARGET:.0f}x"
    )
    assert results["cache_hot_speedup_vs_reference"] >= WARM_SPEEDUP_TARGET, (
        f"cache-hot batch only {results['cache_hot_speedup_vs_reference']:.1f}x "
        f"faster than the oracle cold compile; target is {WARM_SPEEDUP_TARGET:.0f}x"
    )
