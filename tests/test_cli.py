"""Tests for the command-line interface."""

import pytest

from repro.analysis import clear_sweep_caches, figure_compile_jobs
from repro.cli import build_parser, main
from repro.constants import SWEEP_FIGURE_NAMES
from repro.service import CompileService, ProgramStore, service_override


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_compile_defaults(self):
        args = build_parser().parse_args(["compile", "--benchmark", "bv(4)"])
        assert args.strategy == "ColorDynamic"
        assert args.topology == "grid"

    def test_unknown_strategy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compile", "--benchmark", "bv(4)", "--strategy", "Magic"])

    def test_figure_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])

    def test_figure_workers_flag(self):
        args = build_parser().parse_args(["figure", "fig09", "--workers", "4"])
        assert args.workers == 4
        assert build_parser().parse_args(["figure", "fig09"]).workers is None

    def test_figure_cache_flags(self):
        args = build_parser().parse_args(
            ["figure", "fig09", "--cache-dir", "/tmp/x", "--no-cache"]
        )
        assert args.cache_dir == "/tmp/x"
        assert args.no_cache is True
        defaults = build_parser().parse_args(["figure", "fig09"])
        assert defaults.cache_dir is None and defaults.no_cache is False

    def test_cache_subcommands(self):
        assert build_parser().parse_args(["cache", "stats"]).cache_command == "stats"
        assert build_parser().parse_args(["cache", "clear"]).cache_command == "clear"
        warm = build_parser().parse_args(["cache", "warm", "fig11", "--workers", "2"])
        assert warm.cache_command == "warm"
        assert warm.figure == "fig11"
        assert warm.workers == 2
        assert build_parser().parse_args(["cache", "warm", "fig11"]).workers is None

    def test_figure_remote_cache_and_max_bytes_flags(self):
        args = build_parser().parse_args(
            ["figure", "fig09", "--remote-cache", "http://host:8750",
             "--max-bytes", "1000000"]
        )
        assert args.remote_cache == "http://host:8750"
        assert args.max_bytes == 1000000
        defaults = build_parser().parse_args(["figure", "fig09"])
        assert defaults.remote_cache is None and defaults.max_bytes is None

    def test_cache_serve_flags(self):
        args = build_parser().parse_args(
            ["cache", "serve", "--port", "9000", "--max-bytes", "5000"]
        )
        assert args.cache_command == "serve"
        assert args.host == "127.0.0.1"
        assert args.port == 9000
        assert args.max_bytes == 5000

    def test_cache_push_pull_evict_flags(self):
        push = build_parser().parse_args(
            ["cache", "push", "--remote-cache", "http://host:8750"]
        )
        assert push.cache_command == "push"
        assert push.remote_cache == "http://host:8750"
        pull = build_parser().parse_args(["cache", "pull"])
        assert pull.cache_command == "pull" and pull.remote_cache is None
        evict = build_parser().parse_args(["cache", "evict", "--max-bytes", "0"])
        assert evict.cache_command == "evict" and evict.max_bytes == 0

    def test_cache_evict_requires_max_bytes(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "evict"])

    def test_cache_warm_requires_known_figure(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "warm", "fig02"])


class TestCommands:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "ColorDynamic" in out
        assert "XEB" in out

    def test_compile_command(self, capsys):
        assert main(["compile", "--benchmark", "bv(4)", "--strategy", "Baseline U"]) == 0
        out = capsys.readouterr().out
        assert "worst-case success" in out
        assert "Baseline U" in out

    def test_compare_command(self, capsys):
        assert main(["compare", "--benchmark", "xeb(4,2)"]) == 0
        out = capsys.readouterr().out
        for strategy in ("Baseline N", "Baseline G", "Baseline U", "Baseline S", "ColorDynamic"):
            assert strategy in out

    def test_figure_fig07(self, capsys):
        assert main(["figure", "fig07"]) == 0
        assert "crosstalk_colors" in capsys.readouterr().out

    def test_figure_fig09_with_subset(self, capsys):
        assert main(["figure", "fig09", "--benchmarks", "bv(4)", "xeb(4,2)"]) == 0
        out = capsys.readouterr().out
        assert "bv(4)" in out and "xeb(4,2)" in out
        assert "ColorDynamic vs Baseline U" in out

    def test_figure_fig11_with_subset(self, capsys):
        assert main(["figure", "fig11", "--benchmarks", "xeb(4,2)"]) == 0
        assert "colors" in capsys.readouterr().out

    def test_figure_fig12_with_subset(self, capsys):
        assert main(["figure", "fig12", "--benchmarks", "xeb(4,2)"]) == 0
        assert "r=0.8" in capsys.readouterr().out

    def test_figure_fig14(self, capsys):
        assert main(["figure", "fig14"]) == 0
        assert "Idle frequencies" in capsys.readouterr().out


class TestCacheCommands:
    def test_cache_stats(self, capsys, tmp_path):
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries" in out and str(tmp_path) in out

    def test_cache_stats_shows_breaker_state(self, capsys, tmp_path):
        """With a remote tier, `cache stats` surfaces the circuit breaker."""
        assert (
            main(
                [
                    "cache",
                    "stats",
                    "--cache-dir",
                    str(tmp_path),
                    "--remote-cache",
                    "http://127.0.0.1:9",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "remote_breaker_state" in out
        assert "closed" in out
        assert "remote_breaker_trip_count" in out

    def test_cache_warm_then_clear(self, capsys, tmp_path):
        assert (
            main(
                [
                    "cache",
                    "warm",
                    "fig11",
                    "--benchmarks",
                    "bv(4)",
                    "--cache-dir",
                    str(tmp_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "4 compiled" in out
        assert ProgramStore(tmp_path).stats()["entries"] == 4

        # Warming again is a no-op: everything already cached.
        assert (
            main(
                [
                    "cache",
                    "warm",
                    "fig11",
                    "--benchmarks",
                    "bv(4)",
                    "--cache-dir",
                    str(tmp_path),
                ]
            )
            == 0
        )
        assert "0 compiled" in capsys.readouterr().out

        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert "removed 4" in capsys.readouterr().out
        assert ProgramStore(tmp_path).stats()["entries"] == 0


class TestCacheWarmServesTheFigure:
    BENCHMARKS = ["bv(4)", "xeb(4,2)"]

    @pytest.mark.parametrize("name", SWEEP_FIGURE_NAMES)
    def test_warmed_figure_compiles_nothing(self, name, capsys, tmp_path):
        figure = ["figure", name, "--benchmarks", *self.BENCHMARKS]
        clear_sweep_caches()
        assert main(figure + ["--no-cache"]) == 0
        cold = capsys.readouterr().out
        warm = ["cache", "warm", name, "--benchmarks", *self.BENCHMARKS]
        assert main(warm + ["--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()

        clear_sweep_caches()  # only the warmed store survives
        with service_override(cache_dir=tmp_path) as service:
            assert main(figure) == 0
        assert capsys.readouterr().out == cold
        assert service.stats.misses == 0
        assert service.stats.hits == len(figure_compile_jobs(name, self.BENCHMARKS))
        clear_sweep_caches()


class TestCacheWarmWorkers:
    """`cache warm --workers` resolves like `figure --workers`."""

    @staticmethod
    def _batch_workers(monkeypatch, tmp_path, *flags):
        seen = []

        def record(service, jobs, max_workers=1):
            seen.append(max_workers)
            return []

        monkeypatch.setattr(CompileService, "compile_batch", record)
        argv = ["cache", "warm", "fig11", "--benchmarks", "bv(4)", "--cache-dir", str(tmp_path)]
        assert main(argv + list(flags)) == 0
        return seen

    def test_serial_by_default(self, monkeypatch, tmp_path, capsys):
        assert self._batch_workers(monkeypatch, tmp_path) == [1]

    def test_sweep_workers_env_sets_the_worker_count(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "3")
        assert self._batch_workers(monkeypatch, tmp_path) == [3]

    def test_explicit_flag_beats_the_env(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "3")
        assert self._batch_workers(monkeypatch, tmp_path, "--workers", "2") == [2]


class TestCacheHotFigureSmoke:
    def test_consecutive_figure_runs_identical_and_second_cache_hot(
        self, capsys, tmp_path
    ):
        """Two consecutive CLI figure runs: identical artifacts, second all hits."""
        from repro.analysis import clear_sweep_caches

        argv = ["figure", "fig09", "--benchmarks", "bv(4)", "xeb(4,2)"]
        clear_sweep_caches()
        with service_override(cache_dir=tmp_path) as first_service:
            assert main(argv) == 0
        first_out = capsys.readouterr().out
        assert first_service.stats.misses > 0

        clear_sweep_caches()  # fresh process simulation: only the disk survives
        with service_override(cache_dir=tmp_path) as second_service:
            assert main(argv) == 0
        second_out = capsys.readouterr().out

        assert second_out == first_out
        assert second_service.stats.misses == 0
        assert second_service.stats.hits == first_service.stats.misses
        clear_sweep_caches()

    def test_no_cache_flag_produces_identical_output(self, capsys, tmp_path):
        argv = ["figure", "fig09", "--benchmarks", "bv(4)"]
        from repro.analysis import clear_sweep_caches

        clear_sweep_caches()
        assert main(argv + ["--cache-dir", str(tmp_path)]) == 0
        cached_out = capsys.readouterr().out
        clear_sweep_caches()
        assert main(argv + ["--no-cache"]) == 0
        uncached_out = capsys.readouterr().out
        clear_sweep_caches()
        assert cached_out == uncached_out
