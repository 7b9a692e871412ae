"""Differential: the oracles reproduce the benchmark's Fig. 9 reference records.

``perfbench/expected_fig09_seed2020.json`` was written by the reference
paths that now live in ``oracles.py``: each of the 110 Fig. 9 points
compiled with the oracle kernels and scored with the scalar Eq. (4) loop.
Recomputing it from the oracles must give the same records exactly — equal
floats, not a tolerance — which is what keeps the oracles frozen.
Production is then held to the benchmark's own check (``expected.matches``:
equal depth, duration and color count, success rate within its relative
tolerance).  The file is only read here.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from oracles import estimate_success as oracle_estimate
from oracles import make_oracle_compiler

from repro.noise import NoiseModel, estimate_success
from repro.service import make_compiler
from repro.service.compile_service import build_device_for
from repro.workloads import benchmark_circuit

EXPECTED_PY = Path(__file__).resolve().parents[2] / "perfbench" / "expected.py"


def _load_expected():
    spec = importlib.util.spec_from_file_location("perfbench_expected", EXPECTED_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _record(result, report):
    return {
        "success_rate": report.success_rate,
        "depth": result.program.depth,
        "duration_ns": result.program.total_duration_ns,
        "max_colors": result.max_colors_used,
    }


@pytest.mark.differential
def test_oracles_reproduce_expected_records_and_production_matches():
    expected = _load_expected()
    records = expected.load()
    grid = expected.grid()
    assert len(grid) == len(records) == 110

    oracle_records = {}
    mismatched = []
    for benchmark, strategy in grid:
        point = expected.point_id(benchmark, strategy)
        device = build_device_for(benchmark, seed=expected.GRID_SEED)
        circuit = benchmark_circuit(benchmark, seed=expected.GRID_SEED)

        oracle = make_oracle_compiler(strategy, device).compile(circuit)
        oracle_records[point] = _record(
            oracle, oracle_estimate(oracle.program, NoiseModel())
        )

        result = make_compiler(strategy, device).compile(circuit)
        report = estimate_success(result.program, NoiseModel())
        if not expected.matches(
            records[point],
            report.success_rate,
            result.program.depth,
            result.program.total_duration_ns,
            result.max_colors_used,
        ):
            mismatched.append(point)

    assert oracle_records == records
    assert not mismatched, f"production misses the expected records at {mismatched}"
