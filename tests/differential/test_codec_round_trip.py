"""Differential: a decoded program scores exactly like the cold-compiled one.

Every point of the Fig. 9 grid is compiled cold, sent through the program
codec (``CompilationResult.to_dict`` -> JSON text -> ``from_dict``, with the
live device interned as on a cache hit) and scored again.  The Eq. (4)
report must match field by field with ``==`` — never a tolerance — and so
must the incremental estimator fed the cold program's steps, which builds
its dense rows from ``TimeStep`` objects rather than from the columns.  The
decoded program's materialized steps, depth and duration must equal the
originals exactly.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.analysis import figure_compile_jobs
from repro.core.compiler import CompilationResult
from repro.noise import IncrementalEstimator, estimate_success
from repro.service import CompileService

JOBS = figure_compile_jobs("fig09")


@pytest.fixture(scope="module")
def cold_service():
    return CompileService(enabled=False)


def assert_reports_equal(decoded, cold, context):
    for report_field in dataclasses.fields(cold):
        name = report_field.name
        assert getattr(decoded, name) == getattr(cold, name), f"{context}: {name}"


@pytest.mark.differential
@pytest.mark.parametrize("job", JOBS, ids=lambda job: f"{job.benchmark}-{job.strategy}")
def test_decoded_fig09_point_is_bit_identical(job, cold_service):
    result = cold_service.compile(job)
    cold = result.program
    text = json.dumps(result.to_dict())
    decoded = CompilationResult.from_dict(json.loads(text), device=cold.device).program

    cold_report = estimate_success(cold)
    assert_reports_equal(estimate_success(decoded), cold_report, "decoded")
    incremental = IncrementalEstimator(cold.device).load_program(cold).report()
    assert_reports_equal(incremental, cold_report, "incremental")

    assert decoded.depth == cold.depth
    assert decoded.total_duration_ns == cold.total_duration_ns
    assert decoded.steps == cold.steps
