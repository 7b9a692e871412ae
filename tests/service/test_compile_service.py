"""CompileService: hit/miss accounting, batch dedup, fan-out, overrides."""

import pytest

from repro import Device, benchmark_circuit, estimate_success
from repro.core import ColorDynamic
from repro.service import (
    CompileJob,
    CompileService,
    ProgramStore,
    get_service,
    service_override,
)

JOB = CompileJob(benchmark="bv(4)", strategy="ColorDynamic")


class TestSingleCompile:
    def test_miss_then_hit(self, tmp_path):
        service = CompileService(cache_dir=tmp_path)
        cold = service.compile(JOB)
        warm = service.compile(JOB)
        assert cold.cache_hit is False
        assert warm.cache_hit is True
        assert service.stats.hits == 1
        assert service.stats.misses == 1
        assert service.stats.hit_rate == 0.5

    def test_hit_preserves_cold_compile_time(self, tmp_path):
        """Cache-hit loads are never reported as compile time."""
        service = CompileService(cache_dir=tmp_path)
        cold = service.compile(JOB)
        warm = CompileService(cache_dir=tmp_path).compile(JOB)
        assert warm.cache_hit is True
        assert warm.compile_time_s == cold.compile_time_s
        assert warm.compile_time == warm.compile_time_s
        assert warm.load_time_s > 0.0

    def test_hit_is_bit_identical(self, tmp_path):
        service = CompileService(cache_dir=tmp_path)
        cold = estimate_success(service.compile(JOB).program)
        warm = estimate_success(service.compile(JOB).program)
        assert warm.success_rate == cold.success_rate
        assert warm.crosstalk_fidelity_product == cold.crosstalk_fidelity_product

    def test_hit_interns_live_device(self, tmp_path):
        """Warm loads share the compiler's Device (and its geometry caches)."""
        service = CompileService(cache_dir=tmp_path)
        service.compile(JOB)
        warm = service.compile(JOB)
        assert warm.cache_hit is True
        assert warm.program.device is service._compiler_for(JOB).device

    def test_cache_survives_service_instances(self, tmp_path):
        CompileService(cache_dir=tmp_path).compile(JOB)
        second = CompileService(cache_dir=tmp_path)
        assert second.compile(JOB).cache_hit is True
        assert second.stats.misses == 0

    def test_disabled_service_always_compiles(self, tmp_path):
        service = CompileService(cache_dir=tmp_path, enabled=False)
        assert service.store is None
        first = service.compile(JOB)
        second = service.compile(JOB)
        assert first.cache_hit is False and second.cache_hit is False
        assert service.stats.misses == 2
        assert ProgramStore(tmp_path).stats()["entries"] == 0

    def test_compile_circuit_direct(self, tmp_path):
        service = CompileService(cache_dir=tmp_path)
        device = Device.grid(4, seed=5)
        circuit = benchmark_circuit("bv(4)", seed=5)
        cold = service.compile_circuit(ColorDynamic(device), circuit)
        warm = service.compile_circuit(ColorDynamic(device), circuit)
        assert cold.cache_hit is False and warm.cache_hit is True

    def test_hit_honours_requested_name(self, tmp_path):
        """A hit applies the caller's name, exactly like the miss path would."""
        service = CompileService(cache_dir=tmp_path)
        device = Device.grid(4, seed=5)
        circuit = benchmark_circuit("bv(4)", seed=5)
        cold = service.compile_circuit(ColorDynamic(device), circuit, name="first")
        assert cold.program.name == "first"
        warm = service.compile_circuit(ColorDynamic(device), circuit, name="second")
        assert warm.cache_hit is True
        assert warm.program.name == "second"
        default = service.compile_circuit(ColorDynamic(device), circuit)
        assert default.program.name == circuit.name

    def test_undecodable_entry_recompiles(self, tmp_path):
        """Valid JSON of the wrong shape degrades to a miss, not a crash."""
        service = CompileService(cache_dir=tmp_path)
        service.compile(JOB)
        key = service.job_key(JOB)
        service.store.put(key, {})  # bit rot / foreign file: wrong shape
        again = CompileService(cache_dir=tmp_path)
        result = again.compile(JOB)
        assert result.cache_hit is False
        assert again.stats.misses == 1
        # The recompile repaired the entry.
        assert again.compile(JOB).cache_hit is True


class TestBatch:
    GRID = [
        CompileJob(benchmark="bv(4)", strategy="ColorDynamic"),
        CompileJob(benchmark="bv(4)", strategy="Baseline U"),
        CompileJob(benchmark="bv(4)", strategy="ColorDynamic"),  # duplicate
        CompileJob(benchmark="xeb(4,2)", strategy="ColorDynamic"),
    ]

    def test_in_batch_dedup(self, tmp_path):
        service = CompileService(cache_dir=tmp_path)
        results = service.compile_batch(self.GRID)
        assert len(results) == len(self.GRID)
        assert service.stats.misses == 3
        assert service.stats.deduplicated == 1
        # Duplicate jobs share one result object.
        assert results[0] is results[2]

    def test_warm_batch_is_all_hits(self, tmp_path):
        CompileService(cache_dir=tmp_path).compile_batch(self.GRID)
        warm = CompileService(cache_dir=tmp_path)
        results = warm.compile_batch(self.GRID)
        assert warm.stats.misses == 0
        assert warm.stats.hits == 3
        assert all(r.cache_hit for r in results)

    def test_results_in_job_order(self, tmp_path):
        service = CompileService(cache_dir=tmp_path)
        results = service.compile_batch(self.GRID)
        for job, result in zip(self.GRID, results):
            assert result.program.strategy == (
                "ColorDynamic" if job.strategy == "ColorDynamic" else job.strategy
            )
            assert result.program.name == job.benchmark

    def test_process_fanout_matches_serial(self, tmp_path):
        serial = CompileService(cache_dir=tmp_path / "serial").compile_batch(self.GRID)
        fanned = CompileService(cache_dir=tmp_path / "fanned").compile_batch(
            self.GRID, max_workers=2
        )
        for a, b in zip(serial, fanned):
            assert (
                estimate_success(a.program).success_rate
                == estimate_success(b.program).success_rate
            )
            assert a.program.depth == b.program.depth

    def test_fanout_persists_results(self, tmp_path):
        service = CompileService(cache_dir=tmp_path)
        service.compile_batch(self.GRID, max_workers=2)
        warm = CompileService(cache_dir=tmp_path)
        warm.compile_batch(self.GRID)
        assert warm.stats.misses == 0

    def test_fanout_counts_worker_compiles_in_the_parent(self, tmp_path):
        service = CompileService(cache_dir=tmp_path)
        results = service.compile_batch(self.GRID, max_workers=2)
        distinct = [results[0], results[1], results[3]]
        assert service.stats.misses == 3
        assert service.stats.deduplicated == 1
        assert not any(r.cache_hit for r in distinct)
        # The parent adds up the compile times the workers measured.
        total = 0.0
        for result in distinct:
            assert result.compile_time_s > 0.0
            total += result.compile_time_s
        assert service.stats.compile_time_s == total

    def test_fanout_stores_worker_payloads_under_canonical_names(self, tmp_path):
        service = CompileService(cache_dir=tmp_path)
        names = ["renamed", None, "dup", None]
        results = service.compile_batch(self.GRID, max_workers=2, names=names)
        assert [r.program.name for r in results] == [
            "renamed", "bv(4)", "dup", "xeb(4,2)"
        ]
        # Entries hold the payload as the worker encoded it: its measured
        # compile time and the circuit's own name.
        stored = service.store.get(service.job_key(self.GRID[0]))
        assert stored["compile_time_s"] == results[0].compile_time_s
        assert stored["program"]["name"] == "bv(4)"
        warm = CompileService(cache_dir=tmp_path).compile_batch(self.GRID)
        assert [r.program.name for r in warm] == [j.benchmark for j in self.GRID]


class TestBatchWorker:
    """The batch worker's job function, called in this process."""

    @pytest.fixture(autouse=True)
    def _fresh_worker(self, monkeypatch):
        from repro import obs
        from repro.obs import get_tracer
        from repro.service import compile_service

        monkeypatch.setattr(compile_service, "_WORKER_SERVICE", None)
        tracer = get_tracer()
        enabled = tracer.enabled
        tracer.clear()
        try:
            yield compile_service
        finally:
            tracer.clear()
            obs.set_enabled(enabled)

    def test_worker_compiles_through_a_store_less_local_service(
        self, _fresh_worker, monkeypatch
    ):
        # A remote compile server in the environment is the parent's to use.
        monkeypatch.setenv("REPRO_REMOTE_COMPILE", "http://127.0.0.1:9")
        _fresh_worker._init_batch_worker(False)
        payload, records = _fresh_worker._compile_job_payload(JOB)
        worker = _fresh_worker._WORKER_SERVICE
        assert worker.store is None
        assert worker.remote_compile is None
        assert worker.stats.misses == 1
        assert records == []
        assert payload["program"]["name"] == JOB.benchmark

    def test_worker_payload_decodes_to_the_serial_compile(self, _fresh_worker):
        from repro.core.compiler import CompilationResult

        _fresh_worker._init_batch_worker(False)
        payload, _ = _fresh_worker._compile_job_payload(JOB)
        parent = CompileService(enabled=False)
        serial = parent.compile(JOB)
        decoded = CompilationResult.from_dict(
            payload, device=parent._compiler_for(JOB).device
        )

        def timeless(program):
            # Metadata records the wall time each compile took.
            encoded = program.to_dict()
            encoded["metadata"] = dict(encoded["metadata"], compile_time_s=None)
            return encoded

        assert timeless(decoded.program) == timeless(serial.program)
        assert decoded.max_colors_used == serial.max_colors_used
        assert decoded.colors_per_step == serial.colors_per_step
        assert decoded.separations == serial.separations

    def test_worker_ships_each_jobs_spans_once(self, _fresh_worker):
        from repro.obs import get_tracer

        _fresh_worker._init_batch_worker(True)
        other = CompileJob(benchmark="xeb(4,2)", strategy="ColorDynamic")
        _, first = _fresh_worker._compile_job_payload(JOB)
        _, second = _fresh_worker._compile_job_payload(other)
        for records, job in ((first, JOB), (second, other)):
            compiles = [r for r in records if r["name"] == "compile"]
            assert [r["args"]["circuit"] for r in compiles] == [job.benchmark]
            assert sum(r["name"] == "codec.encode" for r in records) == 1
        assert get_tracer().records() == []

    def test_init_drops_spans_inherited_from_the_parent(self, _fresh_worker):
        from repro import obs
        from repro.obs import get_tracer

        obs.set_enabled(True)
        with obs.span("inherited"):
            pass
        assert get_tracer().records()
        _fresh_worker._init_batch_worker(False)
        assert get_tracer().records() == []
        assert obs.is_enabled() is False
        _fresh_worker._init_batch_worker(True)
        assert obs.is_enabled() is True


class TestServiceOverride:
    def test_override_installs_and_restores(self, tmp_path):
        original = get_service()
        with service_override(cache_dir=tmp_path) as scoped:
            assert get_service() is scoped
            assert scoped is not original
        assert get_service() is original

    def test_unknown_strategy_rejected(self, tmp_path):
        service = CompileService(cache_dir=tmp_path)
        with pytest.raises(ValueError, match="unknown strategy"):
            service.compile(CompileJob(benchmark="bv(4)", strategy="Magic"))


class TestWarmSweepBuildsNoStages:
    """A cache hit needs a compiler's signature and device, never its stages."""

    #: (module, attribute) of every compile-stage builder, by stage name.
    STAGES = {
        "build_crosstalk_graph": [("repro.core.compiler", "build_crosstalk_graph")],
        "assign_idle_frequencies": [("repro.core.compiler", "assign_idle_frequencies")],
        "tiling_patterns": [("repro.baselines.gmon", "tiling_patterns")],
        "assign_color_frequencies": [
            ("repro.core.compiler", "assign_color_frequencies"),
            ("repro.baselines.static", "assign_color_frequencies"),
        ],
    }

    def _count_stage_builds(self, monkeypatch):
        import importlib

        calls = dict.fromkeys(self.STAGES, 0)
        for stage, targets in self.STAGES.items():
            for module_name, attribute in targets:
                module = importlib.import_module(module_name)
                real = getattr(module, attribute)

                def counted(*args, _real=real, _stage=stage, **kwargs):
                    calls[_stage] += 1
                    return _real(*args, **kwargs)

                monkeypatch.setattr(module, attribute, counted)
        return calls

    def test_warm_fig09_sweep_builds_no_stages(self, tmp_path, monkeypatch):
        import json

        from repro.analysis import SweepJob, SweepRunner, clear_sweep_caches, figure_compile_jobs
        from test_golden_programs import GOLDEN_FILE, canonical_digest

        jobs = figure_compile_jobs("fig09")
        calls = self._count_stage_builds(monkeypatch)
        cold = CompileService(cache_dir=tmp_path).compile_batch(jobs)
        assert all(count > 0 for count in calls.values()), calls
        golden = json.loads(GOLDEN_FILE.read_text())["digests"]
        assert {
            f"{job.benchmark}|{job.strategy}": canonical_digest(result)
            for job, result in zip(jobs, cold)
        } == golden

        calls.update(dict.fromkeys(calls, 0))
        clear_sweep_caches()
        sweep = [SweepJob(benchmark=job.benchmark, strategy=job.strategy) for job in jobs]
        with service_override(cache_dir=str(tmp_path)):
            warm = SweepRunner(max_workers=1).run(sweep)
        clear_sweep_caches()
        assert calls == dict.fromkeys(calls, 0)
        assert [outcome.success_rate for outcome in warm] == [
            estimate_success(result.program).success_rate for result in cold
        ]
