"""Stored sweep reports: the second kind of store entry.

A sweep job's outcome under its noise model is stored under
``job_report_key(job, model)`` once its program has been loaded from the
store (second access); later sweeps are served from those reports without
building, decoding, scoring or compiling anything.  These tests pin the
key's coverage of the job spec, the noise model and the toolchain source,
the corrupt-entry-is-a-miss contract, the bit-identity of every cache state
with a store-less run, and the report's trip through a shared cache server.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis.experiments import (
    FIG12_FACTORS,
    SweepJob,
    SweepRunner,
    clear_sweep_caches,
)
from repro.noise import NoiseModel
from repro.obs import get_metrics
from repro.service import CompileJob, CompileService, ProgramStore, service_override
from repro.service.cache_key import job_report_key, source_digest, toolchain_digest
from repro.service.server import CacheServer

# The package re-exports the cache_key() function under the module's name.
cache_key_module = importlib.import_module("repro.service.cache_key")
experiments_module = importlib.import_module("repro.analysis.experiments")

SRC = Path(__file__).resolve().parents[2] / "src"
JOB = CompileJob(benchmark="bv(4)", strategy="Baseline N")

#: A small Fig. 9 slice plus the Fig. 12 case: one program, five models.
GRID = [SweepJob(benchmark="bv(4)", strategy=s) for s in ("Baseline N", "Baseline U", "ColorDynamic")]
GRID += [
    SweepJob(
        benchmark="xeb(9,2)",
        strategy="Baseline G",
        noise_model=NoiseModel().with_residual_coupling(factor),
        key=factor,
    )
    for factor in FIG12_FACTORS
]
#: Distinct programs behind GRID: three bv(4) strategies and one Baseline G.
PROGRAMS = 4


def _reports(outcome: str) -> float:
    return get_metrics().counter(
        "repro_sweep_reports_total", "", ("outcome",)
    ).value(outcome=outcome)


def _run(service: CompileService, jobs=GRID):
    clear_sweep_caches()
    try:
        with service_override(service=service):
            return SweepRunner().run(jobs)
    finally:
        clear_sweep_caches()


def _local(root) -> CompileService:
    return CompileService(cache_dir=str(root), enabled=True, remote_cache="", remote_compile="")


def _timeless(outcomes):
    """Outcomes with the wall-clock compile time zeroed (run-dependent)."""
    return [dataclasses.replace(o, compile_time_s=0.0) for o in outcomes]


def _entries(root):
    return {p: p.stat().st_mtime_ns for p in sorted(root.glob("v*/??/*.json"))}


def _perturbed(value):
    if value is None:
        return 3
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value * 2 + 1
    if isinstance(value, str):
        return value + "'"
    pytest.fail(f"no perturbation for a {type(value).__name__} field")


def _python(code: str) -> str:
    """Run *code* in a fresh interpreter on this checkout; returns stdout."""
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


class TestReportKey:
    def test_every_job_and_noise_model_field_moves_the_key(self):
        inputs = (CompileJob(benchmark="bv(4)", strategy="ColorDynamic"), NoiseModel())
        reference = job_report_key(*inputs)
        for index, base in enumerate(inputs):
            for field in dataclasses.fields(base):
                changed = list(inputs)
                changed[index] = dataclasses.replace(
                    base, **{field.name: _perturbed(getattr(base, field.name))}
                )
                assert job_report_key(*changed) != reference, field.name

    def test_equal_specs_share_a_key(self):
        model = NoiseModel().with_residual_coupling(0.4)
        same = NoiseModel().with_residual_coupling(0.4)
        assert job_report_key(JOB, model) == job_report_key(dataclasses.replace(JOB), same)
        assert job_report_key(JOB, model) != job_report_key(JOB, NoiseModel())

    def test_format_version_bump_moves_the_key(self, monkeypatch):
        before = job_report_key(JOB, NoiseModel())
        monkeypatch.setattr(
            cache_key_module, "REPORT_FORMAT_VERSION", cache_key_module.REPORT_FORMAT_VERSION + 1
        )
        assert job_report_key(JOB, NoiseModel()) != before

    def test_toolchain_digest_moves_the_key(self, monkeypatch):
        before = job_report_key(JOB, NoiseModel())
        monkeypatch.setattr(cache_key_module, "_TOOLCHAIN_DIGEST", "0" * 64)
        assert job_report_key(JOB, NoiseModel()) != before


class TestToolchainDigest:
    def test_digest_reads_this_package(self):
        assert toolchain_digest() == source_digest(Path(cache_key_module.__file__).parents[1])

    def test_one_byte_of_any_source_file_moves_the_digest(self, tmp_path):
        root = tmp_path / "repro"
        shutil.copytree(SRC / "repro", root, ignore=shutil.ignore_patterns("__pycache__"))
        reference = source_digest(root)
        files = sorted(root.rglob("*.py"))
        assert len(files) > 50
        for path in files:
            data = path.read_bytes()
            path.write_bytes(data[:-1] + bytes([data[-1] ^ 1]) if data else b"\n")
            assert source_digest(root) != reference, path.relative_to(root)
            path.write_bytes(data)
        assert source_digest(root) == reference
        # A renamed file moves it too, and so does a new one.
        files[0].rename(files[0].with_name("renamed.py"))
        assert source_digest(root) != reference
        files[0].with_name("renamed.py").rename(files[0])
        (root / "extra.py").write_text("")
        assert source_digest(root) != reference

    def test_non_source_files_leave_the_digest_alone(self, tmp_path):
        root = tmp_path / "repro"
        shutil.copytree(SRC / "repro", root, ignore=shutil.ignore_patterns("__pycache__"))
        reference = source_digest(root)
        (root / "notes.txt").write_text("not code")
        (root / "__pycache__").mkdir(exist_ok=True)
        (root / "__pycache__" / "cli.cpython-311.pyc").write_bytes(b"\0")
        assert source_digest(root) == reference

    def test_computed_once_per_process(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cache_key_module, "_TOOLCHAIN_DIGEST", None)
        monkeypatch.setattr(
            cache_key_module,
            "source_digest",
            lambda root: calls.append(root) or "f" * 64,
        )
        keys = {job_report_key(JOB, NoiseModel()) for _ in range(3)}
        assert len(keys) == 1 and toolchain_digest() == "f" * 64
        assert len(calls) == 1

    def test_cli_import_and_service_open_compute_no_digest(self, tmp_path):
        assert _python(
            f"""
            import sys
            import repro.cli
            from repro.service import CompileService
            CompileService(cache_dir={str(tmp_path)!r}, enabled=True).store.stats()
            print(sys.modules["repro.service.cache_key"]._TOOLCHAIN_DIGEST)
            """
        ) == "None"


class TestThreePasses:
    def test_fill_warm_and_report_warm_match_a_storeless_run(self, tmp_path):
        reference = _run(CompileService(enabled=False, remote_compile=""))

        fill = _local(tmp_path)
        filled = _run(fill)
        assert fill.stats.misses == PROGRAMS
        # A fill writes programs only: nothing was loaded from the store.
        assert len(_entries(tmp_path)) == PROGRAMS

        stored_before = _reports("stored")
        warm = _local(tmp_path)
        warmed = _run(warm)
        assert warm.stats.hits == PROGRAMS and warm.stats.misses == 0
        assert _reports("stored") - stored_before == len(GRID)
        after_warm = _entries(tmp_path)
        assert len(after_warm) == PROGRAMS + len(GRID)

        hits_before = _reports("hit")
        hot = _local(tmp_path)
        served = _run(hot)
        assert hot.stats.requests == 0
        assert _reports("hit") - hits_before == len(GRID)
        assert _entries(tmp_path) == after_warm

        assert _timeless(filled) == _timeless(warmed) == _timeless(served) == _timeless(reference)
        # The report holds the stored program's compile time, exactly.
        assert served == warmed
        assert [type(getattr(o, f)) for o in served for f in ("depth", "max_colors")] == [
            int
        ] * (2 * len(GRID))

    def test_a_source_edit_rescores_from_stored_programs(self, tmp_path, monkeypatch):
        """An edited toolchain misses every report; the programs, keyed by
        content, still hit, and the run writes reports under the new key."""
        _run(_local(tmp_path))
        warmed = _run(_local(tmp_path))
        entries = len(_entries(tmp_path))
        monkeypatch.setattr(cache_key_module, "_TOOLCHAIN_DIGEST", "e" * 64)
        stored = _reports("stored")
        edited = _local(tmp_path)
        assert _run(edited) == warmed
        assert edited.stats.hits == PROGRAMS and edited.stats.misses == 0
        assert _reports("stored") - stored == len(GRID)
        assert len(_entries(tmp_path)) == entries + len(GRID)

    def test_cold_run_probes_no_report(self, tmp_path, monkeypatch):
        """A store that never held a report is not asked for one: a cold run
        derives no report key and looks up none; the first warm run writes
        the reports and leaves the marker that turns the lookups on."""
        derived = []
        real = experiments_module.job_report_key
        monkeypatch.setattr(
            experiments_module, "job_report_key", lambda *args: derived.append(args) or real(*args)
        )
        misses = _reports("miss")
        _run(_local(tmp_path))
        assert derived == [] and _reports("miss") == misses
        assert not ProgramStore(tmp_path).holds_reports()
        _run(_local(tmp_path))
        assert len(derived) == len(GRID) and _reports("miss") == misses
        assert ProgramStore(tmp_path).holds_reports()
        assert not ProgramStore(tmp_path / "empty").holds_reports()

    def test_storeless_run_touches_no_report(self):
        counts = [_reports(o) for o in ("hit", "miss", "stored")]
        _run(CompileService(enabled=False, remote_compile=""))
        assert [_reports(o) for o in ("hit", "miss", "stored")] == counts


class TestCorruptReports:
    @pytest.fixture
    def warm_store(self, tmp_path):
        """A store holding GRID[0]'s program and report; returns (path, outcome)."""
        jobs = GRID[:1]
        _run(_local(tmp_path), jobs)
        (outcome,) = _run(_local(tmp_path), jobs)
        key = job_report_key(JOB, NoiseModel())
        path = ProgramStore(tmp_path).local._path(key)
        assert path.is_file()
        return path, outcome

    @pytest.mark.parametrize(
        "corrupt",
        [
            "not json",
            "",
            "null",
            "[1, 2]",
            "{}",
            "missing-field",
            "extra-field",
            "bool-value",
            "float-depth",
            "float-max-colors",
            "string-value",
            "null-value",
        ],
    )
    def test_bad_report_is_rescored_and_overwritten(self, warm_store, tmp_path, corrupt):
        path, outcome = warm_store
        good = json.loads(path.read_text())
        bad = dict(good)
        if corrupt == "missing-field":
            del bad["depth"]
        elif corrupt == "extra-field":
            bad["num_qubits"] = 4
        elif corrupt == "bool-value":
            bad["max_colors"] = True
        elif corrupt == "float-depth":
            bad["depth"] = float(bad["depth"])
        elif corrupt == "float-max-colors":
            bad["max_colors"] = float(bad["max_colors"])
        elif corrupt == "string-value":
            bad["success_rate"] = str(bad["success_rate"])
        elif corrupt == "null-value":
            bad["duration_ns"] = None
        text = corrupt if corrupt in ("not json", "", "null", "[1, 2]", "{}") else json.dumps(bad)
        path.write_text(text)

        misses = _reports("miss")
        service = _local(tmp_path)
        (rescored,) = _run(service, GRID[:1])
        assert _reports("miss") - misses == 1
        assert service.stats.hits == 1  # the program was loaded and scored
        assert rescored == outcome
        assert type(rescored.depth) is type(rescored.max_colors) is int
        assert json.loads(path.read_text()) == good

        (served,) = _run(_local(tmp_path), GRID[:1])
        assert served == outcome


class TestSharedServer:
    def test_report_reaches_a_client_with_an_empty_local_tier(self, tmp_path):
        server = CacheServer(root=tmp_path / "server-store", port=0).start()
        try:
            def client(name):
                store = ProgramStore(tmp_path / name, remote_url=server.url)
                return CompileService(store=store, enabled=True, remote_compile="")

            first = client("a")
            _run(first)  # fill: programs reach the server
            warmed = _run(client("a"))  # first warm: reports reach the server
            assert server.backend.stats()["entries"] == PROGRAMS + len(GRID)

            second = client("b")
            served = _run(second)
            assert served == warmed
            assert second.stats.requests == 0  # no program was loaded
            # The reports were written back into b's local tier, nothing else.
            assert len(_entries(tmp_path / "b")) == len(GRID)
        finally:
            server.stop()
