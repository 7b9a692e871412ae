"""Regression: a sweep never compiles the same grid point twice.

PR 3 collapsed the sweep workers' private device/compiler memos into the
:class:`~repro.service.CompileService` value-keyed memos — compiler identity
now lives in exactly one key tuple (the service's).  These tests pin down
the consequence the sweep layer relies on: however a grid is shaped (noise
models riding on jobs, repeated budgets, repeated benchmarks) and at any
worker count, each distinct ``(strategy, benchmark, topology, seed,
max_colors)`` point is compiled exactly once.
"""

from __future__ import annotations

import dataclasses
import threading

import pytest

from repro.analysis.experiments import (
    SweepJob,
    SweepRunner,
    clear_sweep_caches,
)
from repro.core.compiler import ColorDynamic
from repro.baselines.base import BaselineCompiler
from repro.noise import NoiseModel
from repro.service import service_override


def _timeless(outcomes):
    """Outcomes with the wall-clock compile time zeroed (run-dependent)."""
    return [dataclasses.replace(o, compile_time_s=0.0) for o in outcomes]


class _CompileCounter:
    """Counts every underlying engine compile (ColorDynamic + baselines)."""

    def __init__(self, monkeypatch):
        self.count = 0
        self._lock = threading.Lock()
        for cls in (ColorDynamic, BaselineCompiler):
            original = cls.compile

            def counted(comp_self, circuit, *args, _original=original, **kwargs):
                with self._lock:
                    self.count += 1
                return _original(comp_self, circuit, *args, **kwargs)

            monkeypatch.setattr(cls, "compile", counted)


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


@pytest.mark.parametrize("workers", [1, 3])
def test_sweep_compiles_each_distinct_point_once(monkeypatch, workers):
    """Serial and thread-pool sweeps perform zero duplicate compiles."""
    jobs, distinct = _duplicate_heavy_jobs()
    clear_sweep_caches()
    counter = _CompileCounter(monkeypatch)
    with service_override(enabled=False):
        runner = SweepRunner(max_workers=workers, executor="thread")
        outcomes = runner.run(jobs)
    assert len(outcomes) == len(jobs)
    assert counter.count == distinct, (
        f"{counter.count} engine compiles for {distinct} distinct grid points"
    )
    clear_sweep_caches()


def test_sweep_results_identical_at_any_worker_count(monkeypatch):
    """Dedup does not change results: thread-pool == serial, job order kept."""
    jobs, _ = _duplicate_heavy_jobs()
    clear_sweep_caches()
    with service_override(enabled=False):
        serial = SweepRunner(max_workers=1).run(jobs)
    clear_sweep_caches()
    with service_override(enabled=False):
        threaded = SweepRunner(max_workers=4, executor="thread").run(jobs)
    clear_sweep_caches()
    assert _timeless(serial) == _timeless(threaded)


def test_repeated_process_sweep_recompiles_nothing(tmp_path):
    """With the shared store, a repeated multi-process sweep is all cache hits.

    Cross-process dedup is the store's job: after one sweep has persisted
    every distinct point, a second sweep at any worker count rewrites no
    store entry (file mtimes are untouched).
    """
    jobs, distinct = _duplicate_heavy_jobs()
    cache_dir = tmp_path / "store"
    clear_sweep_caches()
    runner = SweepRunner(max_workers=2, executor="process", cache_dir=str(cache_dir))
    first = runner.run(jobs)

    def entry_files():
        # Entry payloads live in the two-level sharded layout; only these
        # files are the store (hits stamp their atime, never their mtime).
        return sorted(cache_dir.glob("v*/??/*.json"))

    entries = entry_files()
    assert len(entries) == distinct
    mtimes = {p: p.stat().st_mtime_ns for p in entries}

    clear_sweep_caches()
    second = SweepRunner(
        max_workers=2, executor="process", cache_dir=str(cache_dir)
    ).run(jobs)
    clear_sweep_caches()

    assert _timeless(first) == _timeless(second)
    assert {p: p.stat().st_mtime_ns for p in entry_files()} == mtimes
