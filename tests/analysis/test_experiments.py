"""Tests for the per-figure experiment entry points (reduced configurations)."""


import pytest

from repro.analysis import (
    STRATEGIES,
    SweepJob,
    SweepRunner,
    build_device_for,
    clear_sweep_caches,
    compile_with,
    fig02_interaction_strength,
    fig07_mesh_coloring,
    fig09_success_rates,
    fig10_depth_decoherence,
    fig11_color_sweep,
    fig12_residual_coupling,
    fig13_connectivity,
    fig14_example_frequencies,
    fig15_state_transition,
    headline_improvement,
)


class TestBuildingBlocks:
    def test_build_device_matches_benchmark_size(self):
        device = build_device_for("xeb(9,5)")
        assert device.num_qubits == 9

    def test_build_device_with_topology(self):
        device = build_device_for("qgan(16)", topology="1EX-3")
        assert device.num_qubits == 16

    def test_compile_with_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            compile_with("Baseline Z", "bv(4)")

    def test_compile_with_returns_outcome(self):
        outcome = compile_with("ColorDynamic", "bv(4)")
        assert outcome.strategy == "ColorDynamic"
        assert 0.0 <= outcome.success_rate <= 1.0
        assert outcome.depth > 0


class TestSweepRunner:
    JOBS = [
        SweepJob(benchmark="bv(4)", strategy="ColorDynamic"),
        SweepJob(benchmark="bv(4)", strategy="Baseline U"),
        SweepJob(benchmark="xeb(9,3)", strategy="ColorDynamic"),
        SweepJob(benchmark="xeb(9,3)", strategy="Baseline G"),
    ]

    def test_serial_run_preserves_job_order(self):
        outcomes = SweepRunner().run(self.JOBS)
        assert [(o.benchmark, o.strategy) for o in outcomes] == [
            (j.benchmark, j.strategy) for j in self.JOBS
        ]

    def test_parallel_processes_match_serial(self):
        serial = SweepRunner().run(self.JOBS)
        parallel = SweepRunner(max_workers=2).run(self.JOBS)
        for a, b in zip(serial, parallel):
            assert a.success_rate == b.success_rate
            assert a.depth == b.depth
            assert a.max_colors == b.max_colors

    def test_job_noise_model_overrides_runner_default(self):
        from repro.noise import NoiseModel

        strict = NoiseModel(two_qubit_error=0.05)
        job = SweepJob(benchmark="bv(4)", strategy="ColorDynamic", noise_model=strict)
        (with_override,) = SweepRunner().run([job])
        (default,) = SweepRunner().run([SweepJob(benchmark="bv(4)", strategy="ColorDynamic")])
        assert with_override.success_rate < default.success_rate

    def test_program_cache_reused_across_noise_models(self):
        from repro.analysis.experiments import _PROGRAM_CACHE
        from repro.noise import NoiseModel

        clear_sweep_caches()
        jobs = [
            SweepJob(
                benchmark="xeb(9,3)",
                strategy="Baseline G",
                noise_model=NoiseModel().with_residual_coupling(factor),
                key=factor,
            )
            for factor in (0.0, 0.4, 0.8)
        ]
        SweepRunner().run(jobs)
        assert len(_PROGRAM_CACHE) == 1  # compiled once, scored three times
        clear_sweep_caches()

    def test_explicit_noise_model_wins_over_provided_runner(self):
        from repro.noise import NoiseModel

        strict = NoiseModel(two_qubit_error=0.05)
        default = fig09_success_rates(benchmarks=["bv(4)"], strategies=["ColorDynamic"])
        overridden = fig09_success_rates(
            benchmarks=["bv(4)"],
            strategies=["ColorDynamic"],
            noise_model=strict,
            runner=SweepRunner(),  # runner default must not shadow the model
        )
        assert (
            overridden["bv(4)"]["ColorDynamic"].success_rate
            < default["bv(4)"]["ColorDynamic"].success_rate
        )

    def test_env_var_sets_default_worker_count(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "3")
        assert SweepRunner().max_workers == 3
        monkeypatch.delenv("REPRO_SWEEP_WORKERS")
        assert SweepRunner().max_workers == 1

    @pytest.mark.parametrize("raw", ["junk", "", "0", "-4"])
    def test_invalid_worker_env_falls_back_to_serial(self, monkeypatch, raw):
        """Regression: the raw int() read used to crash on junk values (and
        bypassed the envvars registry — lint rule RPL004)."""
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", raw)
        assert SweepRunner().max_workers == 1

    def test_explicit_workers_beat_the_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "7")
        assert SweepRunner(max_workers=2).max_workers == 2


class TestSweepRunnerProgramCache:
    """The compile-service integration: warm grids perform zero recompilations."""

    JOBS = TestSweepRunner.JOBS

    @staticmethod
    def _outcome_tuple(outcome):
        # Everything except compile_time_s, which measures wall time.
        return (
            outcome.benchmark,
            outcome.strategy,
            outcome.success_rate,
            outcome.depth,
            outcome.duration_ns,
            outcome.decoherence_error,
            outcome.crosstalk_fidelity,
            outcome.max_colors,
        )

    def test_warm_grid_performs_zero_recompilations(self, tmp_path):
        from repro.service import service_override

        clear_sweep_caches()
        with service_override(cache_dir=tmp_path) as cold_service:
            cold = SweepRunner().run(self.JOBS)
        assert cold_service.stats.misses == len(self.JOBS)
        assert cold_service.stats.hits == 0

        clear_sweep_caches()  # drop the in-memory layer; keep the disk store
        with service_override(cache_dir=tmp_path) as warm_service:
            warm = SweepRunner().run(self.JOBS)
        assert warm_service.stats.misses == 0, "warm grid recompiled something"
        assert warm_service.stats.hits == len(self.JOBS)
        assert list(map(self._outcome_tuple, warm)) == list(
            map(self._outcome_tuple, cold)
        )
        clear_sweep_caches()

    def test_results_identical_with_cache_enabled_and_disabled(self, tmp_path):
        from repro.service import service_override

        clear_sweep_caches()
        with service_override(cache_dir=str(tmp_path)):
            cached = SweepRunner().run(self.JOBS)
        clear_sweep_caches()
        with service_override(cache_dir=str(tmp_path)):
            cache_hot = SweepRunner().run(self.JOBS)
        clear_sweep_caches()
        with service_override(enabled=False):
            uncached = SweepRunner().run(self.JOBS)
        clear_sweep_caches()
        assert list(map(self._outcome_tuple, cached)) == list(
            map(self._outcome_tuple, uncached)
        )
        assert list(map(self._outcome_tuple, cache_hot)) == list(
            map(self._outcome_tuple, uncached)
        )

    def test_results_identical_across_worker_counts_with_cache(self, tmp_path):
        from repro.service import service_override

        clear_sweep_caches()
        with service_override(cache_dir=str(tmp_path / "serial")):
            serial = SweepRunner().run(self.JOBS)
        clear_sweep_caches()
        with service_override(cache_dir=str(tmp_path / "fanned")) as cold_service:
            fanned = SweepRunner(max_workers=2).run(self.JOBS)
        clear_sweep_caches()
        with service_override(cache_dir=str(tmp_path / "fanned")) as warm_service:
            warm = SweepRunner(max_workers=2).run(self.JOBS)
        clear_sweep_caches()
        # Worker compiles are counted and stored by the parent's service.
        assert cold_service.stats.misses == len(self.JOBS)
        assert warm_service.stats.hits == len(self.JOBS)
        assert warm_service.stats.misses == 0
        assert list(map(self._outcome_tuple, fanned)) == list(
            map(self._outcome_tuple, serial)
        )
        assert list(map(self._outcome_tuple, warm)) == list(
            map(self._outcome_tuple, serial)
        )

    def test_cache_hit_reports_cold_compile_time(self, tmp_path):
        from repro.service import service_override

        clear_sweep_caches()
        with service_override(cache_dir=tmp_path):
            (cold,) = SweepRunner().run([self.JOBS[0]])
        clear_sweep_caches()
        with service_override(cache_dir=tmp_path):
            (warm,) = SweepRunner().run([self.JOBS[0]])
        clear_sweep_caches()
        assert warm.compile_time_s == cold.compile_time_s

    def test_grid_reaches_the_service_as_one_batch_of_distinct_jobs(
        self, monkeypatch
    ):
        from repro.service import service_override

        jobs = self.JOBS + [self.JOBS[1], self.JOBS[0]]
        calls = []
        clear_sweep_caches()
        with service_override(enabled=False) as service:
            real = service.compile_batch

            def recorded(batch, max_workers=1):
                calls.append(([(j.benchmark, j.strategy) for j in batch], max_workers))
                return real(batch, max_workers=max_workers)

            monkeypatch.setattr(service, "compile_batch", recorded)
            SweepRunner(max_workers=3).run(jobs)
        clear_sweep_caches()
        assert calls == [([(j.benchmark, j.strategy) for j in self.JOBS], 3)]

    def test_memoized_points_never_reach_the_service(self):
        from repro.service import service_override

        clear_sweep_caches()
        with service_override(enabled=False) as service:
            first = SweepRunner().run(self.JOBS)
            requests = service.stats.requests
            again = SweepRunner(max_workers=2).run(self.JOBS)
            assert service.stats.requests == requests
        clear_sweep_caches()
        assert list(map(self._outcome_tuple, again)) == list(
            map(self._outcome_tuple, first)
        )


class TestPhysicsFigures:
    def test_fig02_peaks_at_resonance(self):
        data = fig02_interaction_strength(points=61)
        strengths = data["strength"]
        omegas = data["omega_a"]
        peak = omegas[strengths.index(max(strengths))]
        assert abs(peak - 5.44) < 0.01
        assert strengths[0] < max(strengths) / 3

    def test_fig07_mesh_coloring_counts(self):
        data = fig07_mesh_coloring(side=5)
        assert data["connectivity_colors"] == 2
        assert data["crosstalk_colors"] <= 10
        assert data["crosstalk_vertices"] == 40

    def test_fig15_transition_maps(self):
        data = fig15_state_transition(detuning_points=11, time_points=11)
        assert len(data["iswap_transition"]) == 11
        assert all(0.0 <= p <= 1.0 for row in data["iswap_transition"] for p in row)
        # A full iSWAP transfer happens on resonance at t = 1/(4 g); a CZ is a
        # complete |11>-|20> round trip at sqrt(2) g, i.e. 1/(2 sqrt(2) g).
        assert data["iswap_full_transfer_time_ns"] == pytest.approx(50.0)
        assert data["cz_full_cycle_time_ns"] == pytest.approx(70.71, abs=0.1)


class TestEvaluationFigures:
    BENCHES = ["bv(4)", "xeb(9,3)"]

    def test_fig09_reduced_run_structure(self):
        results = fig09_success_rates(benchmarks=self.BENCHES)
        assert set(results) == set(self.BENCHES)
        for per_strategy in results.values():
            assert set(per_strategy) == set(STRATEGIES)
            for outcome in per_strategy.values():
                assert 0.0 <= outcome.success_rate <= 1.0

    def test_headline_improvement_from_fig09(self):
        results = fig09_success_rates(benchmarks=self.BENCHES)
        summary = headline_improvement(results)
        assert summary["num_benchmarks"] == len(self.BENCHES)
        assert summary["arithmetic_mean"] >= summary["min"]

    def test_fig10_reports_depth_and_decoherence(self):
        results = fig10_depth_decoherence(benchmarks=["xeb(9,3)"])
        row = results["xeb(9,3)"]
        assert set(row) == {"Baseline G", "Baseline U", "ColorDynamic"}
        assert row["Baseline U"].depth >= row["ColorDynamic"].depth
        assert 0.0 <= row["ColorDynamic"].decoherence_error <= 1.0

    def test_fig11_color_budget_sweep(self):
        results = fig11_color_sweep(benchmarks=["xeb(9,3)"], max_colors_values=(1, 2, 3))
        sweep = results["xeb(9,3)"]
        assert set(sweep) == {1, 2, 3}
        # Fewer colors should never reduce circuit depth.
        assert sweep[1].depth >= sweep[3].depth

    def test_fig12_success_decays_with_residual_coupling(self):
        results = fig12_residual_coupling(benchmarks=["xeb(9,3)"], factors=(0.0, 0.4, 0.8))
        series = results["xeb(9,3)"]
        assert series[0.0] >= series[0.4] >= series[0.8]

    def test_fig13_reduced_topology_sweep(self):
        results = fig13_connectivity(
            benchmarks=["ising(4)"], topologies=["linear", "grid"]
        )
        row = results["ising(4)"]
        assert set(row) == {"linear", "grid"}
        for per_strategy in row.values():
            assert set(per_strategy) == {"Baseline U", "ColorDynamic"}

    def test_fig14_example_frequencies(self):
        data = fig14_example_frequencies(side=4, cycles=1)
        idle = data["idle_frequencies"]
        assert len(idle) == 4 and len(idle[0]) == 4
        # Checkerboard parking: horizontally adjacent qubits use different values.
        assert idle[0][0] != idle[0][1]
        assert data["interaction_steps"], "at least one step must carry interactions"
        partition = data["partition"]
        for step in data["interaction_steps"]:
            for freq in step.values():
                assert partition.in_interaction(freq)
