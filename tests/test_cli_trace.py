"""CLI tracing: ``--trace`` and the ``REPRO_TRACE``/``REPRO_TRACE_DIR``
environment knobs produce Chrome trace files with nested compile spans."""

from __future__ import annotations

import json
import os

import pytest

from repro import obs
from repro.analysis import clear_sweep_caches
from repro.cli import main
from repro.obs import get_tracer


@pytest.fixture(autouse=True)
def _tracer_hygiene():
    """Every test starts and ends with a disabled, empty global tracer."""
    get_tracer().clear()
    obs.set_enabled(False)
    yield
    obs.set_enabled(False)
    get_tracer().clear()


def _load(path):
    payload = json.loads(path.read_text())
    return payload, [event["name"] for event in payload["traceEvents"]]


class TestCompileTrace:
    def test_trace_flag_writes_chrome_json(self, tmp_path, capsys):
        trace = tmp_path / "compile-trace.json"
        assert main(["compile", "--benchmark", "bv(4)", "--trace", str(trace)]) == 0
        payload, names = _load(trace)
        assert payload["displayTimeUnit"] == "ms"
        assert "estimate" in names
        # Either a cold compile (stage spans) or a store hit (cache.load).
        assert ("compile" in names) or ("cache.load" in names)
        out = capsys.readouterr().out
        assert f"-> {trace}" in out
        assert "chrome://tracing" in out
        assert "span" in out  # the summary-tree header

    def test_cold_compile_has_nested_stage_spans(self, tmp_path):
        trace = tmp_path / "cold.json"
        assert (
            main(
                [
                    "compile",
                    "--benchmark",
                    "bv(4)",
                    "--seed",
                    "4242",  # a fresh cache key: forces a cold compile
                    "--trace",
                    str(trace),
                ]
            )
            == 0
        )
        _, names = _load(trace)
        for expected in ("compile", "prepare", "schedule"):
            assert expected in names

    def test_tracing_disabled_after_the_run(self, tmp_path):
        assert main(["compile", "--benchmark", "bv(4)", "--trace", str(tmp_path / "t.json")]) == 0
        assert not obs.is_enabled()
        assert get_tracer().records() == []

    def test_no_flag_no_env_no_trace(self, tmp_path, capsys):
        assert main(["compile", "--benchmark", "bv(4)"]) == 0
        assert "chrome://tracing" not in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []


class TestEnvPrecedence:
    def test_env_enables_with_deterministic_name(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
        assert main(["compile", "--benchmark", "bv(4)"]) == 0
        trace = tmp_path / "repro-trace-compile.json"
        assert trace.exists()
        _, names = _load(trace)
        assert names  # spans were recorded

    def test_falsy_env_values_leave_tracing_off(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "0")
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
        assert main(["compile", "--benchmark", "bv(4)"]) == 0
        assert list(tmp_path.iterdir()) == []

    def test_explicit_flag_beats_env_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "env-dir"))
        explicit = tmp_path / "explicit.json"
        assert main(["compile", "--benchmark", "bv(4)", "--trace", str(explicit)]) == 0
        assert explicit.exists()
        assert not (tmp_path / "env-dir").exists()


class TestFigureTrace:
    def test_figure_trace_spans_multiple_worker_pids(self, tmp_path, capsys):
        # Store hits never reach the workers: compile every point cold.
        clear_sweep_caches()
        trace = tmp_path / "fig11.json"
        assert (
            main(
                [
                    "figure",
                    "fig11",
                    "--benchmarks",
                    "bv(4)",
                    "--workers",
                    "2",
                    "--no-cache",
                    "--trace",
                    str(trace),
                ]
            )
            == 0
        )
        clear_sweep_caches()
        payload, names = _load(trace)
        assert names.count("sweep.job") >= 2
        pids = {event["pid"] for event in payload["traceEvents"]}
        assert len(pids) >= 2  # one lane per worker process
        events = payload["traceEvents"]
        # Scoring runs in the parent; cold compiles run in the workers.
        assert {e["pid"] for e in events if e["name"] == "sweep.job"} == {os.getpid()}
        compile_pids = {e["pid"] for e in events if e["name"] == "compile"}
        assert compile_pids and os.getpid() not in compile_pids
        assert "chrome://tracing" in capsys.readouterr().out

    def test_figure_trace_is_deterministically_sorted(self, tmp_path):
        trace = tmp_path / "fig11.json"
        assert (
            main(
                [
                    "figure",
                    "fig11",
                    "--benchmarks",
                    "bv(4)",
                    "--workers",
                    "2",
                    "--trace",
                    str(trace),
                ]
            )
            == 0
        )
        payload, _ = _load(trace)
        keys = [
            (event["ts"], event["pid"], event["tid"], event["name"])
            for event in payload["traceEvents"]
        ]
        assert keys == sorted(keys)
