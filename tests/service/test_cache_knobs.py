"""Cache-knob plumbing: REPRO_CACHE / --no-cache / --cache-dir precedence
from the CLI through :class:`CompileService`, plus the env defaults for the
remote-cache and byte-budget knobs."""

import pytest

from repro.analysis import clear_sweep_caches
from repro.cli import main
from repro.service import (
    CompileService,
    ProgramStore,
    cache_max_bytes_default,
    remote_cache_default,
    reset_service,
)

ARGV = ["figure", "fig09", "--benchmarks", "bv(4)"]
GRID_SIZE = 5  # bv(4) x five strategies


def entries(path) -> int:
    return ProgramStore(path).stats()["entries"]


@pytest.fixture(autouse=True)
def fresh_caches():
    """Each test resolves the environment from scratch and compiles cold."""
    clear_sweep_caches()
    reset_service()
    yield
    clear_sweep_caches()
    reset_service()


class TestCLIPrecedence:
    def test_env_disable_respected_without_flags(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE", "0")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(ARGV) == 0
        assert entries(tmp_path) == 0

    def test_cache_dir_flag_overrides_env_disable(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE", "0")
        assert main(ARGV + ["--cache-dir", str(tmp_path)]) == 0
        assert entries(tmp_path) == GRID_SIZE

    def test_no_cache_beats_cache_dir_flag(self, tmp_path, capsys):
        assert main(ARGV + ["--cache-dir", str(tmp_path), "--no-cache"]) == 0
        assert entries(tmp_path) == 0

    def test_cache_dir_flag_beats_env_dir(self, tmp_path, monkeypatch, capsys):
        env_dir = tmp_path / "env"
        flag_dir = tmp_path / "flag"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(env_dir))
        assert main(ARGV + ["--cache-dir", str(flag_dir)]) == 0
        assert entries(flag_dir) == GRID_SIZE
        assert entries(env_dir) == 0

    def test_env_dir_used_without_flags(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_CACHE", "1")
        assert main(ARGV) == 0
        assert entries(tmp_path) == GRID_SIZE

    def test_cache_warm_force_enables_the_store(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE", "0")
        argv = ["cache", "warm", "fig11", "--benchmarks", "bv(4)",
                "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        assert entries(tmp_path) == 4  # four color budgets

    def test_figure_max_bytes_flag_bounds_the_store(self, tmp_path, capsys):
        assert main(ARGV + ["--cache-dir", str(tmp_path), "--max-bytes", "1"]) == 0
        # Every write was followed by an eviction pass back under the budget.
        assert entries(tmp_path) == 0

    def test_parallel_figure_writers_share_one_byte_budget(self, tmp_path, capsys):
        """Worker processes each put into one root; the budget holds for all."""
        argv = ["figure", "fig09", "--benchmarks", "bv(4)", "xeb(4,2)", "--workers", "2"]
        assert main(argv + ["--cache-dir", str(tmp_path / "free")]) == 0
        footprint = ProgramStore(tmp_path / "free").stats()["total_bytes"]
        # Over half the grid, so two workers whose own puts each fit the
        # budget still overshoot it together unless every put scans.
        budget = footprint * 3 // 5
        clear_sweep_caches()
        reset_service()
        bounded = tmp_path / "bounded"
        assert main(argv + ["--cache-dir", str(bounded), "--max-bytes", str(budget)]) == 0
        stats = ProgramStore(bounded).stats()
        assert 0 < stats["total_bytes"] <= budget


class TestServiceEnvResolution:
    def test_enabled_none_reads_cache_toggle(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        assert CompileService(cache_dir=str(tmp_path)).store is None

    def test_enabled_true_overrides_cache_toggle(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        service = CompileService(cache_dir=str(tmp_path), enabled=True)
        assert service.store is not None
        assert service.store.root == tmp_path

    def test_cache_dir_none_reads_env_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "from-env"))
        service = CompileService(enabled=True)
        assert service.store.root == tmp_path / "from-env"

    def test_remote_cache_env_builds_tiered_store(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_REMOTE_CACHE", "http://127.0.0.1:9")
        service = CompileService(cache_dir=str(tmp_path), enabled=True)
        assert service.store.remote.url == "http://127.0.0.1:9"

    def test_explicit_empty_remote_disables_env_remote(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_REMOTE_CACHE", "http://127.0.0.1:9")
        service = CompileService(cache_dir=str(tmp_path), enabled=True, remote_cache="")
        assert service.store.remote is None

    def test_max_bytes_env_parsed_and_validated(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "123456")
        assert cache_max_bytes_default() == 123456
        for invalid in ("", "not-a-number", "-5", "1.5"):
            monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", invalid)
            assert cache_max_bytes_default() is None

    def test_max_bytes_env_reaches_the_store(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "777")
        service = CompileService(cache_dir=str(tmp_path), enabled=True)
        assert service.store.local.max_bytes == 777

    def test_remote_cache_default_unset_or_blank_is_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_REMOTE_CACHE", raising=False)
        assert remote_cache_default() is None
        monkeypatch.setenv("REPRO_REMOTE_CACHE", "   ")
        assert remote_cache_default() is None
