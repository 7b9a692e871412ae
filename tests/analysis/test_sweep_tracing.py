"""SweepRunner span collection: per-worker buffers merge into one timeline,
deterministically, without changing results."""

from __future__ import annotations

import os

from repro import obs
from repro.analysis import SweepJob, SweepRunner, clear_sweep_caches
from repro.analysis import experiments
from repro.obs import get_tracer, merge_records
from repro.service import CompileService, service_override

JOBS = [
    SweepJob(benchmark="bv(4)", strategy="ColorDynamic"),
    SweepJob(benchmark="bv(4)", strategy="Baseline U"),
    SweepJob(benchmark="xeb(9,3)", strategy="ColorDynamic"),
    SweepJob(benchmark="xeb(9,3)", strategy="Baseline G"),
]


def test_serial_sweep_records_job_spans(traced):
    SweepRunner().run(JOBS)
    names = [r["name"] for r in traced.records()]
    assert names.count("sweep.job") == len(JOBS)
    job_args = [r["args"] for r in traced.records() if r["name"] == "sweep.job"]
    assert {a["strategy"] for a in job_args} == {
        "ColorDynamic",
        "Baseline U",
        "Baseline G",
    }


def test_sweep_spans_cost_nothing_when_disabled():
    tracer = get_tracer()
    tracer.clear()
    assert not obs.is_enabled()
    SweepRunner().run(JOBS[:1])
    assert tracer.records() == []


def test_process_workers_merge_into_parent_timeline(traced):
    serial = SweepRunner().run(JOBS)
    traced.clear()
    # Store hits never reach the workers: drop the program memo and the
    # store so every point compiles cold in a worker and ships its spans.
    clear_sweep_caches()
    with service_override(enabled=False):
        parallel = SweepRunner(max_workers=2).run(JOBS)
    clear_sweep_caches()
    records = traced.records()

    # Results are unchanged by tracing across worker counts.
    assert [(o.benchmark, o.strategy) for o in parallel] == [
        (o.benchmark, o.strategy) for o in serial
    ]
    assert [o.success_rate for o in parallel] == [o.success_rate for o in serial]

    # Scoring runs in the parent: sweep.job and estimate spans carry its pid.
    job_spans = [r for r in records if r["name"] == "sweep.job"]
    assert len(job_spans) == len(JOBS)
    assert all(r["pid"] == os.getpid() for r in job_spans)
    assert any(r["name"] == "estimate" for r in records)
    # Cold compiles ran in the workers, whose spans keep the worker pid.
    compile_spans = [r for r in records if r["name"] == "compile"]
    assert len(compile_spans) == len(JOBS)
    assert all(r["pid"] != os.getpid() for r in compile_spans)


def test_merged_timeline_is_deterministic_by_sort(traced):
    clear_sweep_caches()
    with service_override(enabled=False):
        SweepRunner(max_workers=2).run(JOBS)
    clear_sweep_caches()
    records = traced.drain()
    assert any(r["pid"] != os.getpid() for r in records)
    assert merge_records(records) == merge_records(reversed(list(records)))


def _probed(name, function):
    """*function*, recording a span named *name* around every call."""

    def probe(*args, **kwargs):
        with obs.span(name):
            return function(*args, **kwargs)

    return probe


def test_report_keys_and_prefetch_run_inside_one_report_key_span(traced, tmp_path, monkeypatch):
    service = CompileService(
        cache_dir=str(tmp_path), enabled=True, remote_cache="", remote_compile=""
    )
    monkeypatch.setattr(
        experiments, "job_report_key", _probed("probe.key", experiments.job_report_key)
    )
    monkeypatch.setattr(
        service.store, "prefetch", _probed("probe.prefetch", service.store.prefetch)
    )
    runs = []
    with service_override(service=service):
        for _ in range(3):  # fill, first warm (writes the reports), report-warm
            clear_sweep_caches()
            traced.clear()
            SweepRunner().run(JOBS)
            runs.append(traced.records())
    clear_sweep_caches()

    fill, warm, hot = runs
    assert not any(r["name"] == "report.key" for r in fill + warm)
    (key_span,) = [r for r in hot if r["name"] == "report.key"]
    assert key_span["depth"] == 0
    end = key_span["ts_ns"] + key_span["dur_ns"]
    probes = [r for r in hot if r["name"].startswith("probe.")]
    assert sorted(r["name"] for r in probes) == ["probe.key"] * len(JOBS) + ["probe.prefetch"]
    for probe in probes:
        assert probe["depth"] == 1
        assert key_span["ts_ns"] <= probe["ts_ns"] and probe["ts_ns"] + probe["dur_ns"] <= end
    loads = [r for r in hot if r["name"] == "report.load"]
    assert len(loads) == len(JOBS) and all(r["ts_ns"] >= end for r in loads)
