"""Pluggable storage backends for the compiled-program store.

PR 2 fixed the *content* of the store — content-addressed SHA-256 keys over
circuit + device physics + compiler knobs, JSON payloads, codec-versioned
namespaces — and PR 4 makes its *location* pluggable.  Every backend speaks
the same key scheme, so a compiled program is interchangeable between them:

* :class:`LocalFSBackend` — the original on-disk layout
  (``<root>/v<codec>/<key[:2]>/<key>.json``), now with a persisted index
  file (entry count, byte footprint, per-entry ``last_used``) that makes
  ``stats()`` O(1) and enables LRU eviction under a byte budget;
* :class:`HTTPBackend` — a client for the ``python -m repro cache serve``
  server (:mod:`repro.service.server`), so a fleet of CI workers shares one
  warm cache.  Network failures degrade to misses, never to errors;
* :class:`TieredStore` — read-through local -> remote composition: hits
  come from the nearest tier, remote hits are written back into the local
  tier, and writes go to the local tier synchronously plus the remote tier
  best-effort.

:class:`~repro.service.store.ProgramStore` is the facade the rest of the
toolchain talks to; it composes these backends from ``cache_dir`` /
``remote_url`` / ``max_bytes`` settings (and their environment defaults
``REPRO_CACHE_DIR``, ``REPRO_REMOTE_CACHE``, ``REPRO_CACHE_MAX_BYTES``).
"""

from __future__ import annotations

import abc
import contextlib
import json
import os
import re
import shutil
import tempfile
import time
import urllib.error
import urllib.parse
import urllib.request
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, Mapping, Optional, Sequence, Tuple

from ..envvars import read_env
from ..obs import get_metrics
from ..program import PROGRAM_CODEC_VERSION

try:  # pragma: no cover - always available on the supported platforms
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback: no inter-process lock
    fcntl = None

__all__ = [
    "StoreBackend",
    "LocalFSBackend",
    "HTTPBackend",
    "TieredStore",
    "CircuitBreaker",
    "copy_missing",
    "default_cache_dir",
    "cache_enabled_default",
    "remote_cache_default",
    "cache_max_bytes_default",
    "cache_token_default",
    "remote_compile_default",
]

#: Environment variable overriding the cache root directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Environment variable toggling the disk cache ("0"/"false"/"off"/"no"
#: disable it; anything else — including unset — leaves it enabled).
CACHE_TOGGLE_ENV = "REPRO_CACHE"

#: Environment variable naming a shared cache server URL; when set, stores
#: are tiered local -> remote by default.
REMOTE_CACHE_ENV = "REPRO_REMOTE_CACHE"

#: Environment variable bounding the local store footprint in bytes (LRU
#: eviction keeps the store under the budget after every write).
MAX_BYTES_ENV = "REPRO_CACHE_MAX_BYTES"

#: Environment variable carrying the shared-secret bearer token: clients
#: send it as ``Authorization: Bearer <token>``; a server started with a
#: token enforces it on mutating and compile routes.
CACHE_TOKEN_ENV = "REPRO_CACHE_TOKEN"

#: Environment variable naming a remote compile server URL (the batched
#: ``POST /v<codec>/compile`` endpoint of ``python -m repro cache serve``).
REMOTE_COMPILE_ENV = "REPRO_REMOTE_COMPILE"

_FALSY = {"0", "false", "off", "no"}

#: The content-address alphabet every stored key must match.
_KEY_PATTERN = re.compile(r"^[0-9a-f]{64}$")

#: How many entries one batched transfer round trip carries at most; larger
#: sets are chunked so a single request stays well under any server payload
#: cap while a full figure grid (~110 entries) still moves in one or two.
BATCH_CHUNK_ENTRIES = 100

# Store metrics (process-local; see docs/observability.md).  The breaker
# series are labeled by remote ``host:port`` so two backends talking to
# different servers in one process never clobber each other's state; each
# :class:`CircuitBreaker` seeds its own remote's series at construction.
_STORE_OP_SECONDS = get_metrics().histogram(
    "repro_store_op_seconds",
    "Store backend operation latency by tier, op and outcome.",
    ("backend", "op", "outcome"),
)
_BREAKER_OPEN = get_metrics().gauge(
    "repro_store_breaker_open",
    "Remote-cache circuit breaker state by remote (1 = open, 0 = closed).",
    ("remote",),
)
_BREAKER_FAILURES = get_metrics().gauge(
    "repro_store_breaker_consecutive_failures",
    "Consecutive failures per remote feeding that remote's circuit breaker.",
    ("remote",),
)
_BREAKER_TRIPS = get_metrics().counter(
    "repro_store_breaker_trips_total",
    "Times a remote's circuit breaker has opened.",
    ("remote",),
)


def _observe_op(start: float, backend: str, op: str, outcome: str) -> None:
    _STORE_OP_SECONDS.observe(
        time.perf_counter() - start, backend=backend, op=op, outcome=outcome
    )


def default_cache_dir() -> Path:
    """Resolve the cache root: ``REPRO_CACHE_DIR``, else an XDG/temp path."""
    env = read_env(CACHE_DIR_ENV)
    if env:
        return Path(env).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    if xdg:
        base = Path(xdg).expanduser()
    else:
        try:
            base = Path.home() / ".cache"
        except RuntimeError:  # no resolvable home directory
            base = Path(tempfile.gettempdir())
    return base / "repro" / "programs"


def cache_enabled_default() -> bool:
    """Whether the disk cache is enabled by default (``REPRO_CACHE`` toggle)."""
    return read_env(CACHE_TOGGLE_ENV, "1").strip().lower() not in _FALSY


def remote_cache_default() -> Optional[str]:
    """The shared cache server URL from ``REPRO_REMOTE_CACHE``, if any."""
    url = read_env(REMOTE_CACHE_ENV, "").strip()
    return url or None


def cache_max_bytes_default() -> Optional[int]:
    """The local-store byte budget from ``REPRO_CACHE_MAX_BYTES``, if valid.

    Unset, empty, non-integer or negative values mean "no budget" — a
    malformed knob must never turn into an eviction storm.
    """
    raw = read_env(MAX_BYTES_ENV, "").strip()
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        return None
    return value if value >= 0 else None


def cache_token_default() -> Optional[str]:
    """The shared-secret bearer token from ``REPRO_CACHE_TOKEN``, if any."""
    token = read_env(CACHE_TOKEN_ENV, "").strip()
    return token or None


def remote_compile_default() -> Optional[str]:
    """The remote compile server URL from ``REPRO_REMOTE_COMPILE``, if any."""
    url = read_env(REMOTE_COMPILE_ENV, "").strip()
    return url or None


class CircuitBreaker:
    """Consecutive-failure circuit breaker for one remote endpoint.

    Shared by every client of one remote (:class:`HTTPBackend` and
    :class:`~repro.service.remote_compile.RemoteCompileClient` both hold
    one): after ``trip_after`` *consecutive* failures the breaker opens and
    callers skip the remote outright, so a black-holed server costs a few
    timeouts, not one per request.  Any success closes it again.  The
    breaker gauges are labeled by the remote's ``host:port``, so two
    breakers for *different* remotes in one process report independently.
    """

    def __init__(self, remote: str, trip_after: int = 3) -> None:
        self.remote = remote
        self.trip_after = trip_after
        self.errors = 0
        self.trip_count = 0
        self.consecutive_failures = 0
        _BREAKER_OPEN.set(0, remote=remote)
        _BREAKER_FAILURES.set(0, remote=remote)

    @property
    def tripped(self) -> bool:
        """Whether the breaker is open (the remote is skipped entirely)."""
        return self.consecutive_failures >= self.trip_after

    def note_failure(self) -> None:
        self.errors += 1
        was_open = self.tripped
        self.consecutive_failures += 1
        _BREAKER_FAILURES.set(self.consecutive_failures, remote=self.remote)
        if self.tripped and not was_open:
            self.trip_count += 1
            _BREAKER_TRIPS.inc(remote=self.remote)
            _BREAKER_OPEN.set(1, remote=self.remote)

    def note_success(self) -> None:
        self.consecutive_failures = 0
        _BREAKER_FAILURES.set(0, remote=self.remote)
        _BREAKER_OPEN.set(0, remote=self.remote)

    def stats(self) -> Dict[str, object]:
        """Breaker state for ``stats()`` / ``cache stats`` output."""
        return {
            "breaker_state": "open" if self.tripped else "closed",
            "breaker_consecutive_failures": self.consecutive_failures,
            "breaker_trip_count": self.trip_count,
            "errors": self.errors,
        }


class StoreBackend(abc.ABC):
    """What every program-store backend implements.

    Keys are 64-char hex SHA-256 digests (see
    :mod:`repro.service.cache_key`); payloads are JSON-serializable dicts.
    Backends must treat unreadable or undecodable entries as misses, and
    ``put`` must be last-writer-wins safe under concurrent writers.
    """

    @abc.abstractmethod
    def get(self, key: str) -> Optional[dict]:
        """Return the payload stored under *key*, or ``None`` on a miss."""

    @abc.abstractmethod
    def put(self, key: str, payload: dict) -> bool:
        """Persist *payload* under *key*; ``True`` if the write succeeded."""

    @abc.abstractmethod
    def contains(self, key: str) -> bool:
        """Whether an entry is stored under *key* (no payload transfer)."""

    @abc.abstractmethod
    def keys(self) -> Iterator[str]:
        """Iterate over every stored key of the current codec version."""

    @abc.abstractmethod
    def delete(self, key: str) -> bool:
        """Remove the entry under *key*; ``True`` if one existed."""

    @abc.abstractmethod
    def stats(self) -> Dict[str, object]:
        """Entry count, byte footprint and backend identity."""

    def get_many(self, keys: Sequence[str]) -> Dict[str, dict]:
        """Fetch many entries; returns ``{key: payload}`` for the hits only.

        The base implementation loops over :meth:`get`; backends with a
        batched wire protocol (:class:`HTTPBackend`) override it to move
        many entries per round trip.  Misses are simply absent from the
        result, never an error.
        """
        found: Dict[str, dict] = {}
        for key in keys:
            payload = self.get(key)
            if payload is not None:
                found[key] = payload
        return found

    def put_many(self, entries: Mapping[str, dict]) -> int:
        """Persist many entries; returns how many writes succeeded.

        The base implementation loops over :meth:`put` (so per-write LRU
        eviction and index updates still apply); batched backends override
        it.  A failed write is skipped and not counted, never raised.
        """
        return sum(1 for key, payload in entries.items() if self.put(key, payload))

    def clear(self) -> int:
        """Remove every stored entry; return the count removed."""
        removed = 0
        for key in list(self.keys()):
            if self.delete(key):
                removed += 1
        return removed

    def evict(self, max_bytes: int) -> Tuple[int, int]:
        """LRU-evict entries until the footprint fits *max_bytes*.

        Returns ``(entries_removed, bytes_freed)``.  The base implementation
        is a no-op — only backends that track recency support eviction.
        """
        return (0, 0)


# ---------------------------------------------------------------------------
# local filesystem backend (+ persisted index, LRU eviction)
# ---------------------------------------------------------------------------
class LocalFSBackend(StoreBackend):
    """The content-addressed on-disk layout, plus a persisted index.

    Layout (unchanged from PR 2, so existing caches keep working)::

        <root>/v<codec-version>/<key[:2]>/<key>.json

    New in PR 4 is ``<root>/v<codec-version>/index.json``: entry count,
    total byte footprint and per-entry ``[bytes, last_used]`` metadata, kept
    in lockstep with the entry files under an ``fcntl`` file lock
    (``index.lock``) so concurrent sweep workers sharing one directory never
    tear it.  ``stats()`` answers from the index in O(1) instead of
    statting every entry; a missing or corrupt index is rebuilt from a
    filesystem scan (entries written by pre-index versions get their file
    mtime as ``last_used``).  ``evict()`` removes least-recently-used
    entries until the store fits a byte budget; with ``max_bytes`` set, the
    budget is enforced after every ``put``.
    """

    #: Bumped when the index layout changes; mismatches trigger a rebuild.
    INDEX_VERSION = 1

    #: A hit only re-stamps an entry's atime when the current stamp is older
    #: than this.  Minute-level recency is ample for LRU eviction, and the
    #: skip keeps steady-state warm reads at one extra stat() — repeated
    #: hits within the window write nothing at all.
    TOUCH_GRANULARITY_NS = 60 * 10**9

    def __init__(
        self,
        root: Optional[os.PathLike] = None,
        max_bytes: Optional[int] = None,
    ) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.format = f"v{PROGRAM_CODEC_VERSION}"
        self.max_bytes = max_bytes
        self._dir = self.root / self.format
        self._index_path = self._dir / "index.json"
        # The lock lives *outside* the version directory on purpose: clear()
        # rmtree's <root>/v*, and unlinking a held lock file would let a
        # later locker acquire a fresh inode while the old holder still runs
        # — two "exclusive" holders mutating the index concurrently.
        self._lock_path = self.root / f"index-{self.format}.lock"

    def _path(self, key: str) -> Path:
        return self._dir / key[:2] / f"{key}.json"

    # ------------------------------------------------------------------
    # index machinery
    # ------------------------------------------------------------------
    @contextmanager
    def _index_lock(self) -> Iterator[None]:
        """Exclusive inter-process lock guarding index mutations.

        One full index rewrite per mutation under this lock is a deliberate
        tradeoff: entry counts are small (a full figure grid is ~100
        entries, low-KB JSON), and the lock is held for microseconds.  If
        fleet-scale caches ever make the put path contend here, the ROADMAP
        sketches an append-only journal compacted on stats()/evict().
        """
        self._dir.mkdir(parents=True, exist_ok=True)
        if fcntl is None:  # pragma: no cover - non-POSIX: best-effort, no lock
            yield
            return
        with open(self._lock_path, "a+b") as handle:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    def _load_index(self) -> Optional[dict]:
        """The persisted index, or ``None`` when missing/corrupt."""
        try:
            raw = json.loads(self._index_path.read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(raw, dict) or raw.get("version") != self.INDEX_VERSION:
            return None
        entries = raw.get("entries")
        total = raw.get("total_bytes")
        if not isinstance(entries, dict) or not isinstance(total, int):
            return None
        for meta in entries.values():
            # [size_bytes, last_used]; anything else (including well-formed
            # JSON with the wrong element types) counts as corrupt and
            # triggers the rebuild scan instead of a downstream TypeError.
            if not (
                isinstance(meta, list)
                and len(meta) == 2
                and isinstance(meta[0], int)
                and isinstance(meta[1], (int, float))
                and not isinstance(meta[0], bool)
                and not isinstance(meta[1], bool)
            ):
                return None
        return raw

    def _write_index(self, index: dict) -> None:
        # One json.dumps call runs the C encoder; json.dump streams through
        # the pure-Python one, a call per token of an index that grows with
        # every entry.
        data = json.dumps(index)
        fd, tmp = tempfile.mkstemp(prefix=".index-", dir=self._dir)
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(data)
            os.replace(tmp, self._index_path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise

    def _scan(self) -> dict:
        """Rebuild index content from the entry files themselves.

        ``last_used`` is the freshest of the file's atime (refreshed by every
        cache hit) and mtime (the write stamp).  Tolerates entries
        disappearing mid-scan (a concurrent ``clear()`` or eviction): a file
        deleted between the directory listing and its ``stat()`` is simply
        not indexed, never an error.
        """
        entries: Dict[str, list] = {}
        total = 0
        if self._dir.is_dir():
            for path in self._dir.glob("*/*.json"):
                try:
                    info = path.stat()
                except OSError:
                    continue
                size = int(info.st_size)
                entries[path.stem] = [size, max(info.st_atime, info.st_mtime)]
                total += size
        return {"version": self.INDEX_VERSION, "entries": entries, "total_bytes": total}

    def _mutate_index(self, mutate) -> None:
        """Apply *mutate(index)* under the lock and persist the result."""
        with self._index_lock():
            index = self._load_index()
            if index is None:
                index = self._scan()
            mutate(index)
            self._write_index(index)

    def _evict_locked(self, index: dict, max_bytes: int) -> Tuple[int, int]:
        """Drop LRU entries (index + files) until the total fits the budget.

        Runs only when the store is over budget, so the recency refresh —
        folding each entry's live atime (cache hits touch it without going
        through the index) into the recorded ``last_used`` — costs one
        ``stat()`` per entry on eviction events, never on the hot path.
        """
        entries = index["entries"]
        if index["total_bytes"] <= max_bytes:
            return (0, 0)
        for key, meta in entries.items():
            try:
                info = os.stat(self._path(key))
            except OSError:
                continue
            meta[1] = max(meta[1], info.st_atime, info.st_mtime)
        removed = freed = 0
        # Oldest last_used first; the key breaks exact-timestamp ties so the
        # eviction order is deterministic.
        for key in sorted(entries, key=lambda k: (entries[k][1], k)):
            if index["total_bytes"] <= max_bytes:
                break
            size = entries.pop(key)[0]
            index["total_bytes"] -= size
            with contextlib.suppress(OSError):
                os.unlink(self._path(key))
            removed += 1
            freed += size
        return removed, freed

    # ------------------------------------------------------------------
    # entry access
    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[dict]:
        """Return the stored payload for *key*, or ``None`` on a miss.

        Unreadable or corrupt entries count as misses so a damaged cache
        degrades to recompilation, never to an error.  A hit refreshes the
        entry's *atime* (one lock-free syscall; the mtime — the write stamp
        — is preserved), which is what makes the eviction order *least
        recently used* rather than least recently written.
        """
        path = self._path(key)
        start = time.perf_counter()
        try:
            text = path.read_text()
            payload = json.loads(text)
        except (OSError, ValueError):
            # ValueError covers JSONDecodeError and UnicodeDecodeError:
            # truncated, non-UTF-8 or otherwise mangled entries are misses.
            _observe_op(start, "local", "get", "miss")
            return None
        self._touch(path)
        _observe_op(start, "local", "get", "hit")
        return payload

    def _touch(self, path: Path) -> None:
        """Stamp a cache hit into the entry's atime (eviction recency)."""
        try:
            info = os.stat(path)
            now_ns = time.time_ns()
            if now_ns - info.st_atime_ns < self.TOUCH_GRANULARITY_NS:
                return  # stamp is fresh; don't pay a write per hot-path hit
            os.utime(path, ns=(now_ns, info.st_mtime_ns))
        except OSError:
            pass  # deleted by a concurrent eviction/clear: nothing to stamp

    def put(self, key: str, payload: dict) -> bool:
        """Atomically persist *payload* under *key* (last writer wins)."""
        start = time.perf_counter()
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        data = json.dumps(payload)
        fd, tmp = tempfile.mkstemp(prefix=f".{key[:8]}-", dir=path.parent)
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(data)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
        size = len(data.encode())

        def update(index: dict) -> None:
            previous = index["entries"].get(key)
            if previous is not None:
                index["total_bytes"] -= previous[0]
            index["entries"][key] = [size, time.time()]
            index["total_bytes"] += size
            if self.max_bytes is not None:
                self._evict_locked(index, self.max_bytes)

        self._mutate_index(update)
        _observe_op(start, "local", "put", "ok")
        return True

    def contains(self, key: str) -> bool:
        return self._path(key).is_file()

    def keys(self) -> Iterator[str]:
        """Iterate over every key stored under the current codec version.

        The filesystem — not the index — is authoritative here, so keys
        written by pre-index toolchain versions are still served.
        """
        if not self._dir.is_dir():
            return
        for entry in sorted(self._dir.glob("*/*.json")):
            yield entry.stem

    def delete(self, key: str) -> bool:
        try:
            os.unlink(self._path(key))
            existed = True
        except FileNotFoundError:
            # The file is already gone (crash between a past unlink and its
            # index update, or an out-of-band removal) — still retire any
            # ghost index record below, or it would inflate stats() and
            # eviction budgets forever.
            existed = False
        except OSError:
            return False  # entry still on disk (e.g. permissions): index stays true

        def update(index: dict) -> None:
            meta = index["entries"].pop(key, None)
            if meta is not None:
                index["total_bytes"] -= meta[0]

        self._mutate_index(update)
        return existed

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def clear(self) -> int:
        """Remove every stored entry (all codec versions); return the count.

        The count comes from a directory listing that tolerates concurrent
        deletions, and ``rmtree`` ignores races with other writers — two
        simultaneous ``clear()`` calls both succeed.
        """
        removed = 0
        if self.root.is_dir():
            for version_dir in self.root.glob("v*"):
                if not version_dir.is_dir():
                    continue
                removed += sum(1 for _ in version_dir.glob("*/*.json"))
                shutil.rmtree(version_dir, ignore_errors=True)
        return removed

    def evict(self, max_bytes: int) -> Tuple[int, int]:
        """LRU-evict entries until the store footprint fits *max_bytes*.

        The entry set and the recency stamps are both re-derived from the
        filesystem (atime = last hit, mtime = last write), so eviction never
        trusts a drifted index; the surviving entries are persisted back as
        the healed index.
        """
        with self._index_lock():
            index = self._scan()
            removed, freed = self._evict_locked(index, max_bytes)
            self._write_index(index)
        return removed, freed

    def stats(self) -> Dict[str, object]:
        """Entry count and byte footprint of the current codec version.

        O(1) via the persisted index; a missing or corrupt index triggers a
        one-time rebuild scan (also persisted, healing the index).  Only
        the stale-version count still walks other ``v*`` directories.
        """
        index = self._load_index()
        if index is None:
            if self._dir.is_dir():
                with self._index_lock():
                    index = self._load_index()  # re-check under the lock
                    if index is None:
                        index = self._scan()
                        self._write_index(index)
            else:
                index = {"entries": {}, "total_bytes": 0}
        stale = 0
        if self.root.is_dir():
            for version_dir in self.root.glob("v*"):
                if version_dir != self._dir and version_dir.is_dir():
                    stale += sum(1 for _ in version_dir.glob("*/*.json"))
        return {
            "path": str(self.root),
            "format": self.format,
            "entries": len(index["entries"]),
            "total_bytes": index["total_bytes"],
            "stale_entries": stale,
            "max_bytes": self.max_bytes,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LocalFSBackend(root={str(self.root)!r}, format={self.format!r})"


# ---------------------------------------------------------------------------
# HTTP client backend (for `python -m repro cache serve`)
# ---------------------------------------------------------------------------
class HTTPBackend(StoreBackend):
    """Client for a shared cache server speaking the content-addressed scheme.

    Entry operations map onto ``GET/PUT/HEAD/DELETE /v<codec>/<key>``,
    listing onto ``GET /v<codec>/`` and ``stats()`` onto ``GET /stats`` —
    exactly what :class:`repro.service.server.CacheServer` serves.

    The cache is an accelerator, never a dependency: any network failure
    degrades to a miss (``get`` -> ``None``, ``put`` -> ``False``,
    ``keys`` -> empty) and bumps the ``errors`` counter instead of raising,
    so a fleet keeps compiling when its cache server is down.  After
    ``trip_after`` *consecutive* failures the circuit breaker opens and the
    remaining requests of this process are skipped outright — a
    black-holed server (dropped packets, hung VM) costs a few timeouts,
    not one per grid point.  Any success closes the breaker again.
    """

    def __init__(
        self,
        base_url: str,
        timeout_s: float = 10.0,
        trip_after: int = 3,
        token: Optional[str] = None,
    ) -> None:
        if "://" not in base_url:
            base_url = f"http://{base_url}"
        self.url = base_url.rstrip("/")
        self.timeout_s = timeout_s
        self.format = f"v{PROGRAM_CODEC_VERSION}"
        self.token = token if token is not None else cache_token_default()
        self._breaker = CircuitBreaker(
            urllib.parse.urlsplit(self.url).netloc or self.url, trip_after=trip_after
        )
        # Remembered per-endpoint once an old server answers 404/405/501 to a
        # batch route, so every later batch call degrades to per-key ops
        # without re-probing.
        self._batch_unsupported: set = set()

    @property
    def tripped(self) -> bool:
        """Whether the circuit breaker is open (remote skipped entirely)."""
        return self._breaker.tripped

    @property
    def trip_after(self) -> int:
        return self._breaker.trip_after

    @property
    def trip_count(self) -> int:
        return self._breaker.trip_count

    @property
    def errors(self) -> int:
        return self._breaker.errors

    def _note_failure(self) -> None:
        self._breaker.note_failure()

    def _note_success(self) -> None:
        self._breaker.note_success()

    def breaker_stats(self) -> Dict[str, object]:
        """Circuit-breaker state for ``stats()`` / ``cache stats`` output."""
        return self._breaker.stats()

    def _open(self, method: str, path: str, body: Optional[bytes] = None):
        headers = {"Content-Type": "application/json"} if body is not None else {}
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        request = urllib.request.Request(
            f"{self.url}{path}", data=body, method=method, headers=headers
        )
        return urllib.request.urlopen(request, timeout=self.timeout_s)

    def get(self, key: str) -> Optional[dict]:
        if self.tripped:
            return None
        start = time.perf_counter()
        try:
            with self._open("GET", f"/{self.format}/{key}") as response:
                payload = json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as error:
            if error.code == 404:
                self._note_success()  # the server answered; a miss is healthy
                _observe_op(start, "remote", "get", "miss")
            else:
                self._note_failure()
                _observe_op(start, "remote", "get", "error")
            return None
        except (urllib.error.URLError, OSError, ValueError):
            self._note_failure()
            _observe_op(start, "remote", "get", "error")
            return None
        self._note_success()
        _observe_op(start, "remote", "get", "hit")
        return payload

    def put(self, key: str, payload: dict) -> bool:
        if self.tripped:
            return False
        body = json.dumps(payload).encode()
        start = time.perf_counter()
        try:
            with self._open("PUT", f"/{self.format}/{key}", body=body):
                pass
        except urllib.error.HTTPError as error:
            if error.code == 404:
                # A healthy server refusing the namespace (codec skew):
                # "cannot store here", not a connectivity failure.
                self._note_success()
                _observe_op(start, "remote", "put", "refused")
            else:
                self._note_failure()
                _observe_op(start, "remote", "put", "error")
            return False
        except (urllib.error.URLError, OSError):
            self._note_failure()
            _observe_op(start, "remote", "put", "error")
            return False
        self._note_success()
        _observe_op(start, "remote", "put", "ok")
        return True

    def contains(self, key: str) -> bool:
        if self.tripped:
            return False
        try:
            with self._open("HEAD", f"/{self.format}/{key}"):
                pass
        except urllib.error.HTTPError as error:
            if error.code == 404:
                self._note_success()
            else:
                self._note_failure()
            return False
        except (urllib.error.URLError, OSError):
            self._note_failure()
            return False
        self._note_success()
        return True

    def keys(self) -> Iterator[str]:
        """Iterate the server's listing, or nothing when it is malformed.

        The listing must be ``{"keys": [<64-char hex>, ...]}``; anything
        else — a string (which would iterate as single characters), a
        non-iterable, or junk keys — degrades to an empty listing and
        counts as a backend failure, never as data.
        """
        if self.tripped:
            return
        try:
            with self._open("GET", f"/{self.format}/") as response:
                listed = json.loads(response.read().decode("utf-8"))
            keys = listed.get("keys", [])
        except (urllib.error.URLError, OSError, ValueError, AttributeError):
            self._note_failure()
            return
        if not isinstance(keys, list) or not all(
            isinstance(key, str) and _KEY_PATTERN.match(key) for key in keys
        ):
            self._note_failure()
            return
        self._note_success()
        yield from keys

    # ------------------------------------------------------------------
    # batched transfer (POST /v<codec>/batch/{get,put})
    # ------------------------------------------------------------------
    def _batch_post(self, endpoint: str, body: dict) -> Optional[dict]:
        """One batched round trip, or ``None`` when unavailable.

        A 404/405/501 means a pre-batch server: that is a *healthy* answer
        (the server spoke), so the breaker closes, the endpoint is
        remembered as unsupported, and the caller falls back to per-key
        operations.  Network failures count against the breaker as usual.
        """
        if endpoint in self._batch_unsupported:
            return None
        path = f"/{self.format}/batch/{endpoint}"
        start = time.perf_counter()
        try:
            with self._open("POST", path, body=json.dumps(body).encode()) as response:
                payload = json.loads(response.read().decode("utf-8"))
            if not isinstance(payload, dict):
                raise ValueError("batch payload is not an object")
        except urllib.error.HTTPError as error:
            if error.code in (404, 405, 501):
                self._note_success()
                self._batch_unsupported.add(endpoint)
            else:
                self._note_failure()
            _observe_op(start, "remote", f"batch_{endpoint}", "error")
            return None
        except (urllib.error.URLError, OSError, ValueError):
            self._note_failure()
            _observe_op(start, "remote", f"batch_{endpoint}", "error")
            return None
        self._note_success()
        _observe_op(start, "remote", f"batch_{endpoint}", "ok")
        return payload

    def get_many(self, keys: Sequence[str]) -> Dict[str, dict]:
        """Fetch many entries in ``BATCH_CHUNK_ENTRIES``-sized round trips.

        Falls back to per-key ``get`` loops against pre-batch servers.
        Entries whose key or payload shape is wrong are dropped, not
        surfaced — the transfer path never turns junk into cache content.
        """
        if self.tripped:
            return {}
        found: Dict[str, dict] = {}
        pending = list(keys)
        for offset in range(0, len(pending), BATCH_CHUNK_ENTRIES):
            chunk = pending[offset : offset + BATCH_CHUNK_ENTRIES]
            payload = self._batch_post("get", {"keys": chunk})
            if payload is None:
                if "get" in self._batch_unsupported:
                    found.update(StoreBackend.get_many(self, pending[offset:]))
                    return found
                return found  # network trouble: partial results, no retry storm
            entries = payload.get("entries")
            if not isinstance(entries, dict):
                continue
            wanted = set(chunk)
            for key, value in entries.items():
                if key in wanted and isinstance(value, dict):
                    found[key] = value
        return found

    def put_many(self, entries: Mapping[str, dict]) -> int:
        """Store many entries in ``BATCH_CHUNK_ENTRIES``-sized round trips.

        Falls back to per-key ``put`` loops against pre-batch servers.
        Returns how many entries the server acknowledged storing.
        """
        if self.tripped:
            return 0
        stored = 0
        items = list(entries.items())
        for offset in range(0, len(items), BATCH_CHUNK_ENTRIES):
            chunk = dict(items[offset : offset + BATCH_CHUNK_ENTRIES])
            payload = self._batch_post("put", {"entries": chunk})
            if payload is None:
                if "put" in self._batch_unsupported:
                    return stored + StoreBackend.put_many(
                        self, dict(items[offset:])
                    )
                return stored
            count = payload.get("stored")
            stored += count if isinstance(count, int) else 0
        return stored

    def delete(self, key: str) -> bool:
        if self.tripped:
            return False
        try:
            with self._open("DELETE", f"/{self.format}/{key}"):
                pass
        except urllib.error.HTTPError as error:
            if error.code == 404:
                self._note_success()
            else:
                self._note_failure()
            return False
        except (urllib.error.URLError, OSError):
            self._note_failure()
            return False
        self._note_success()
        return True

    def stats(self) -> Dict[str, object]:
        if self.tripped:
            return {
                "url": self.url,
                "unreachable": True,
                "tripped": True,
                **self.breaker_stats(),
            }
        try:
            with self._open("GET", "/stats") as response:
                stats = json.loads(response.read().decode("utf-8"))
            if not isinstance(stats, dict):
                raise ValueError("stats payload is not an object")
        except (urllib.error.URLError, OSError, ValueError):
            self._note_failure()
            return {"url": self.url, "unreachable": True, **self.breaker_stats()}
        self._note_success()
        stats["url"] = self.url
        stats.update(self.breaker_stats())
        return stats

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HTTPBackend(url={self.url!r}, format={self.format!r})"


# ---------------------------------------------------------------------------
# tiered composition (read-through local -> remote)
# ---------------------------------------------------------------------------
class TieredStore(StoreBackend):
    """Two-tier store: a near (local) tier backed by a far (shared) tier.

    * ``get`` is read-through: local hits return immediately; remote hits
      are written back into the local tier so the next lookup is local.
    * ``put`` writes the local tier synchronously and the remote tier
      best-effort (``write_remote=False`` makes a read-only remote).
    * Concurrency safety comes from the tiers themselves: local writes are
      atomic and last-writer-wins, and since entries are content-addressed
      two racing write-backs of one key write identical bytes.
    * ``clear`` and ``evict`` act on the *local* tier only — a client must
      not be able to wipe the fleet's shared cache by clearing its own.
    """

    def __init__(
        self,
        local: StoreBackend,
        remote: StoreBackend,
        write_remote: bool = True,
    ) -> None:
        self.local = local
        self.remote = remote
        self.write_remote = write_remote

    def get(self, key: str) -> Optional[dict]:
        payload = self.local.get(key)
        if payload is not None:
            return payload
        payload = self.remote.get(key)
        if payload is not None:
            # Write-back is an optimization; a full disk or read-only local
            # tier must not turn a successful remote hit into an error.
            with contextlib.suppress(OSError):
                self.local.put(key, payload)
        return payload

    def put(self, key: str, payload: dict) -> bool:
        stored = self.local.put(key, payload)
        if self.write_remote:
            self.remote.put(key, payload)
        return stored

    def get_many(self, keys: Sequence[str]) -> Dict[str, dict]:
        """Batched read-through: local first, one remote round trip for the rest.

        Remote hits are written back into the local tier (best-effort, like
        the single-key path) so the next lookup is local.
        """
        found = self.local.get_many(keys)
        missing = [key for key in keys if key not in found]
        if missing:
            remote_hits = self.remote.get_many(missing)
            for key, payload in remote_hits.items():
                with contextlib.suppress(OSError):
                    self.local.put(key, payload)
            found.update(remote_hits)
        return found

    def put_many(self, entries: Mapping[str, dict]) -> int:
        stored = self.local.put_many(entries)
        if self.write_remote:
            self.remote.put_many(entries)
        return stored

    def contains(self, key: str) -> bool:
        return self.local.contains(key) or self.remote.contains(key)

    def keys(self) -> Iterator[str]:
        seen = set()
        for key in self.local.keys():
            seen.add(key)
            yield key
        for key in self.remote.keys():
            if key not in seen:
                yield key

    def delete(self, key: str) -> bool:
        local = self.local.delete(key)
        remote = self.remote.delete(key)
        return local or remote

    def clear(self) -> int:
        return self.local.clear()

    def evict(self, max_bytes: int) -> Tuple[int, int]:
        return self.local.evict(max_bytes)

    def stats(self) -> Dict[str, object]:
        stats = dict(self.local.stats())
        for name, value in self.remote.stats().items():
            stats[f"remote_{name}"] = value
        return stats

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TieredStore(local={self.local!r}, remote={self.remote!r})"


def copy_missing(source: StoreBackend, destination: StoreBackend) -> Tuple[int, int]:
    """Copy every entry of *source* that *destination* lacks.

    Returns ``(copied, already_present)``.  This is the engine behind
    ``python -m repro cache push`` (local -> remote) and ``cache pull``
    (remote -> local); an entry that vanishes or fails to decode mid-sync is
    skipped, and a failed destination write is not counted as copied.

    Batched since PR 8: one destination listing decides what is missing,
    ``get_many``/``put_many`` move the entries in chunked round trips — a
    full figure grid syncs in a handful of HTTP requests instead of one
    ``contains`` + ``get`` + ``put`` triple per entry.
    """
    destination_keys = set(destination.keys())
    to_copy = []
    present = 0
    for key in source.keys():
        if key in destination_keys:
            present += 1
        else:
            to_copy.append(key)
    if not to_copy:
        return 0, present
    entries = source.get_many(to_copy)
    copied = destination.put_many(entries) if entries else 0
    return copied, present
