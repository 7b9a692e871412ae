"""Regression: a sweep never compiles the same grid point twice.

Compiler identity lives in one place, the :class:`~repro.service.CompileService`
value-keyed memos, and :class:`~repro.analysis.SweepRunner` hands each grid's
distinct compilations to :meth:`~repro.service.CompileService.compile_batch`
in one batch.  These tests pin down the consequence: however a grid is shaped
(noise models riding on jobs, repeated budgets, repeated benchmarks) and at
any worker count, each distinct ``(strategy, benchmark, topology, seed,
max_colors)`` point is compiled exactly once, and the parent's service
counts every one of those compiles.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest

from repro.analysis.experiments import (
    SweepJob,
    SweepRunner,
    clear_sweep_caches,
)
from repro.noise import NoiseModel
from repro.service import service_override


def _timeless(outcomes):
    """Outcomes with the wall-clock compile time zeroed (run-dependent)."""
    return [dataclasses.replace(o, compile_time_s=0.0) for o in outcomes]


#: A duplicate-heavy grid: Fig. 12-style (one compilation scored under many
#: noise models), Fig. 11-style (repeated color budgets), and a plain
#: repeated benchmark.  13 jobs, 6 distinct compilations.
def _duplicate_heavy_jobs():
    jobs = []
    for factor in (0.0, 0.3, 0.6):  # same key, noise model varies
        jobs.append(
            SweepJob(
                benchmark="xeb(9,2)",
                strategy="Baseline G",
                noise_model=NoiseModel().with_residual_coupling(factor),
                key=factor,
            )
        )
    for budget in (2, 2, 3, 3):  # two distinct keys
        jobs.append(
            SweepJob(
                benchmark="xeb(9,2)",
                strategy="ColorDynamic",
                max_colors=budget,
                key=budget,
            )
        )
    for _ in range(3):  # one distinct key
        jobs.append(SweepJob(benchmark="bv(9)", strategy="Baseline U"))
    jobs.append(SweepJob(benchmark="bv(9)", strategy="Baseline S"))
    jobs.append(SweepJob(benchmark="bv(9)", strategy="ColorDynamic"))
    jobs.append(SweepJob(benchmark="bv(9)", strategy="ColorDynamic"))
    return jobs, 6


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_sweep_compiles_each_distinct_point_once(traced, workers):
    """Serial and process sweeps perform zero duplicate compiles.

    Every compile, in this process or a worker, records one ``compile``
    span (workers ship theirs back), so the spans count the compiles.
    """
    jobs, distinct = _duplicate_heavy_jobs()
    clear_sweep_caches()
    with service_override(enabled=False) as service:
        outcomes = SweepRunner(max_workers=workers).run(jobs)
    clear_sweep_caches()
    assert len(outcomes) == len(jobs)
    assert service.stats.misses == distinct
    compiled = Counter(
        (r["args"]["circuit"], r["args"]["strategy"])
        for r in traced.records()
        if r["name"] == "compile"
    )
    assert compiled == Counter(
        {
            ("xeb(9,2)", "Baseline G"): 1,
            ("xeb(9,2)", "ColorDynamic"): 2,  # budgets 2 and 3
            ("bv(9)", "Baseline U"): 1,
            ("bv(9)", "Baseline S"): 1,
            ("bv(9)", "ColorDynamic"): 1,
        }
    )


def test_sweep_results_identical_at_any_worker_count():
    """Dedup does not change results: process pool == serial, job order kept."""
    jobs, _ = _duplicate_heavy_jobs()
    clear_sweep_caches()
    with service_override(enabled=False):
        serial = SweepRunner(max_workers=1).run(jobs)
    clear_sweep_caches()
    with service_override(enabled=False):
        fanned = SweepRunner(max_workers=2).run(jobs)
    clear_sweep_caches()
    assert _timeless(serial) == _timeless(fanned)


def test_repeated_process_sweep_recompiles_nothing(tmp_path):
    """With the shared store, a repeated multi-process sweep is all cache hits.

    Cross-process dedup is the store's job: after one sweep has persisted
    every distinct point, a second sweep at any worker count rewrites no
    store entry (file mtimes are untouched).
    """
    jobs, distinct = _duplicate_heavy_jobs()
    cache_dir = tmp_path / "store"
    clear_sweep_caches()
    with service_override(cache_dir=str(cache_dir)):
        first = SweepRunner(max_workers=2).run(jobs)

    def entry_files():
        # Entry payloads live in the two-level sharded layout; only these
        # files are the store (hits stamp their atime, never their mtime).
        return sorted(cache_dir.glob("v*/??/*.json"))

    entries = entry_files()
    assert len(entries) == distinct
    mtimes = {p: p.stat().st_mtime_ns for p in entries}

    clear_sweep_caches()
    with service_override(cache_dir=str(cache_dir)) as warm_service:
        second = SweepRunner(max_workers=2).run(jobs)
    clear_sweep_caches()

    assert _timeless(first) == _timeless(second)
    assert warm_service.stats.hits == distinct
    assert warm_service.stats.misses == 0
    assert {p: p.stat().st_mtime_ns for p in entry_files()} == mtimes
