"""On-disk program store: layout, atomicity guarantees, maintenance."""

import errno
import os
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro import estimate_success
from repro.program import PROGRAM_CODEC_VERSION
from repro.service import backends
from repro.service import (
    CompileJob,
    CompileService,
    ProgramStore,
    cache_enabled_default,
    default_cache_dir,
)

from codecfaults import FAULTS

KEY_A = "ab" + "0" * 62
KEY_B = "cd" + "1" * 62


class TestRoundTrip:
    def test_put_get(self, tmp_path):
        store = ProgramStore(tmp_path)
        store.put(KEY_A, {"x": 1.5})
        assert store.get(KEY_A) == {"x": 1.5}
        assert store.contains(KEY_A)
        assert not store.contains(KEY_B)

    def test_miss_returns_none(self, tmp_path):
        assert ProgramStore(tmp_path).get(KEY_A) is None

    def test_overwrite_wins(self, tmp_path):
        store = ProgramStore(tmp_path)
        store.put(KEY_A, {"x": 1})
        store.put(KEY_A, {"x": 2})
        assert store.get(KEY_A) == {"x": 2}

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        store = ProgramStore(tmp_path)
        store.put(KEY_A, {"x": 1})
        store.local._path(KEY_A).write_text("{ not json")
        assert store.get(KEY_A) is None

    def test_non_utf8_entry_is_a_miss(self, tmp_path):
        store = ProgramStore(tmp_path)
        store.put(KEY_A, {"x": 1})
        store.local._path(KEY_A).write_bytes(b"\xff\xfe\x00garbage")
        assert store.get(KEY_A) is None

    def test_no_temp_file_droppings(self, tmp_path):
        store = ProgramStore(tmp_path)
        store.put(KEY_A, {"x": 1})
        files = [p.name for p in store.local._path(KEY_A).parent.iterdir()]
        assert files == [f"{KEY_A}.json"]


class TestLayout:
    def test_entries_namespaced_by_codec_version(self, tmp_path):
        store = ProgramStore(tmp_path)
        store.put(KEY_A, {"x": 1})
        expected = (
            tmp_path / f"v{PROGRAM_CODEC_VERSION}" / KEY_A[:2] / f"{KEY_A}.json"
        )
        assert expected.is_file()

    def test_keys_iterates_sorted(self, tmp_path):
        store = ProgramStore(tmp_path)
        store.put(KEY_B, {})
        store.put(KEY_A, {})
        assert list(store.keys()) == sorted([KEY_A, KEY_B])


class TestMaintenance:
    def test_clear_counts_and_removes(self, tmp_path):
        store = ProgramStore(tmp_path)
        store.put(KEY_A, {})
        store.put(KEY_B, {})
        assert store.clear() == 2
        assert not store.contains(KEY_A)
        assert store.clear() == 0

    def test_clear_removes_stale_versions_too(self, tmp_path):
        store = ProgramStore(tmp_path)
        store.put(KEY_A, {})
        stale = tmp_path / "v0" / KEY_B[:2]
        stale.mkdir(parents=True)
        (stale / f"{KEY_B}.json").write_text("{}")
        assert store.stats()["stale_entries"] == 1
        assert store.clear() == 2

    def test_stats(self, tmp_path):
        store = ProgramStore(tmp_path)
        assert store.stats()["entries"] == 0
        store.put(KEY_A, {"payload": "x" * 100})
        stats = store.stats()
        assert stats["entries"] == 1
        assert stats["total_bytes"] > 100
        assert stats["path"] == str(tmp_path)


class TestFullDisk:
    """A full or read-only local tier costs a recompile, never a crash."""

    JOB = CompileJob(benchmark="bv(4)", strategy="ColorDynamic")

    @pytest.fixture
    def full_disk(self, monkeypatch):
        def no_space(src, dst):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(backends.os, "replace", no_space)

    def test_compile_survives_a_failed_store_write(self, tmp_path, full_disk):
        service = CompileService(cache_dir=tmp_path)
        result = service.compile(self.JOB)
        assert result.program.steps and not result.cache_hit
        assert service.stats.misses == 1
        assert service.store.stats()["entries"] == 0
        assert not any(tmp_path.rglob("*.json")) and not any(tmp_path.rglob(".*"))
        again = service.compile(self.JOB)
        assert not again.cache_hit
        assert service.stats.misses == 2 and service.stats.hits == 0

    def test_writes_report_failure_instead_of_raising(self, tmp_path, full_disk):
        store = ProgramStore(tmp_path)
        assert store.put(KEY_A, {"x": 1}) is False
        assert store.put_local(KEY_A, {"x": 1}) is False
        assert store.put_many({KEY_A: {"x": 1}, KEY_B: {"y": 2}}) == 0
        assert store.get(KEY_A) is None

    def test_server_put_answers_500_not_a_false_204(self, cache_server, full_disk):
        """``LocalFSBackend.put`` still raises, so the server reports the failure."""
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(urllib.request.Request(
                f"{cache_server.url}/v{PROGRAM_CODEC_VERSION}/{KEY_A}",
                data=b'{"x": 1}', method="PUT",
            ), timeout=10)
        assert excinfo.value.code == 500
        assert not cache_server.backend.contains(KEY_A)


class TestShardDirectories:
    """A put makes its shard directory only when the shard is missing."""

    SAME_SHARD_AS_A = "ab" + "2" * 62

    @pytest.fixture
    def mkdirs(self, monkeypatch):
        made = []
        real_mkdir = os.mkdir

        def counting_mkdir(path, *args, **kwargs):
            made.append(str(path))
            return real_mkdir(path, *args, **kwargs)

        monkeypatch.setattr(os, "mkdir", counting_mkdir)
        return made

    def test_a_put_into_an_existing_shard_makes_no_directory(self, tmp_path, mkdirs):
        local = backends.LocalFSBackend(tmp_path)
        assert local.put(KEY_A, {"x": 1})
        assert mkdirs  # the shard's first entry made it
        mkdirs.clear()
        assert local.put(self.SAME_SHARD_AS_A, {"y": 2})
        assert local.put(KEY_A, {"x": 3})
        assert mkdirs == []
        assert local.get(self.SAME_SHARD_AS_A) == {"y": 2}
        assert local.get(KEY_A) == {"x": 3}

    def test_a_shard_that_cannot_be_made_is_an_oserror(self, tmp_path, monkeypatch):
        def read_only(path, *args, **kwargs):
            raise PermissionError(errno.EACCES, "Read-only file system", str(path))

        monkeypatch.setattr(os, "mkdir", read_only)
        with pytest.raises(OSError):
            backends.LocalFSBackend(tmp_path).put(KEY_A, {"x": 1})
        assert ProgramStore(tmp_path).put_local(KEY_A, {"x": 1}) is False


class TestConcurrentMaintenance:
    """stats()/clear() racing a concurrent writer must degrade, not raise."""

    def _store_with_entries(self, tmp_path):
        store = ProgramStore(tmp_path)
        store.put(KEY_A, {"x": 1})
        store.put(KEY_B, {"y": 2})
        return store

    def test_stats_tolerates_entry_deleted_mid_scan(self, tmp_path, monkeypatch):
        """Regression: a file deleted between iterdir and stat() is a miss,
        not a FileNotFoundError (e.g. `cache clear` racing `cache stats`)."""
        store = self._store_with_entries(tmp_path)
        real_glob = Path.glob

        def racing_glob(self, pattern):
            for path in real_glob(self, pattern):
                if path.name == f"{KEY_A}.json" and path.exists():
                    path.unlink()  # the concurrent writer wins the race
                yield path

        monkeypatch.setattr(Path, "glob", racing_glob)
        stats = store.stats()
        assert stats["entries"] == 1
        assert stats["total_bytes"] == store.local._path(KEY_B).stat().st_size

    def test_clear_tolerates_entries_vanishing_mid_walk(self, tmp_path, monkeypatch):
        store = self._store_with_entries(tmp_path)
        real_glob = Path.glob

        def racing_glob(self, pattern):
            for path in real_glob(self, pattern):
                if path.name == f"{KEY_A}.json" and path.exists():
                    path.unlink()
                yield path

        monkeypatch.setattr(Path, "glob", racing_glob)
        assert store.clear() == 2  # counted before the race; nothing raises
        assert store.stats()["entries"] == 0

    def test_evict_tolerates_entry_deleted_before_unlink(self, tmp_path):
        store = ProgramStore(tmp_path)
        store.put(KEY_A, {"x": 1})
        store.put(KEY_B, {"y": 2})
        # Simulate another worker deleting an entry: eviction scans the
        # files it finds and never trips over the missing one.
        os.unlink(store.local._path(KEY_A))
        removed, _ = store.evict(0)
        assert removed == 1
        assert store.stats()["entries"] == 0

    def test_get_of_concurrently_deleted_entry_is_a_miss(self, tmp_path):
        store = ProgramStore(tmp_path)
        assert store.get(KEY_A) is None


class TestCorruptColumnarEntry:
    """A stored program whose columnar block is damaged is a miss + recompile."""

    JOB = CompileJob(benchmark="xeb(4,2)", strategy="ColorDynamic")

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_damaged_block_recompiles_and_repairs(self, tmp_path, fault):
        cold = CompileService(cache_dir=tmp_path).compile(self.JOB)
        store = ProgramStore(tmp_path)
        key = CompileService(cache_dir=tmp_path).job_key(self.JOB)
        payload = store.get(key)
        FAULTS[fault](payload["program"]["steps"])
        store.put(key, payload)

        service = CompileService(cache_dir=tmp_path)
        again = service.compile(self.JOB)
        assert again.cache_hit is False
        assert service.stats.misses == 1
        assert estimate_success(again.program) == estimate_success(cold.program)
        # The recompile overwrote the damaged entry.
        repaired = service.compile(self.JOB)
        assert repaired.cache_hit is True
        assert estimate_success(repaired.program) == estimate_success(cold.program)


class TestDefaults:
    def test_env_var_overrides_cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "override"))
        assert default_cache_dir() == tmp_path / "override"

    def test_default_is_under_xdg_not_repo(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        resolved = default_cache_dir()
        assert resolved == tmp_path / "xdg" / "repro" / "programs"
        repo_root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        assert not str(resolved).startswith(repo_root)

    def test_cache_toggle_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        assert cache_enabled_default() is True
        for value in ("0", "false", "OFF", "no"):
            monkeypatch.setenv("REPRO_CACHE", value)
            assert cache_enabled_default() is False
        monkeypatch.setenv("REPRO_CACHE", "1")
        assert cache_enabled_default() is True
