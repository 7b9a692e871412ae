"""Pluggable storage backends for the compiled-program store.

PR 2 fixed the *content* of the store — content-addressed SHA-256 keys over
circuit + device physics + compiler knobs, JSON payloads, codec-versioned
namespaces — and PR 4 makes its *location* pluggable.  Every backend speaks
the same key scheme, so a compiled program is interchangeable between them:

* :class:`LocalFSBackend` — the original on-disk layout
  (``<root>/v<codec>/<key[:2]>/<key>.json``); the entry files are its only
  record, and a scan of them answers ``stats()`` and drives LRU eviction
  under a byte budget;
* :class:`HTTPBackend` — a client for the ``python -m repro cache serve``
  server (:mod:`repro.service.server`), so a fleet of CI workers shares one
  warm cache.  Network failures degrade to misses, never to errors.

Both clients of that server — :class:`HTTPBackend` and
:class:`~repro.service.remote_compile.RemoteCompileClient` — derive from
:class:`ServerClient`: one kept-alive connection
(:class:`KeepAliveConnection`), one :class:`CircuitBreaker`, and one
:meth:`ServerClient._exchange` that reads every reply by the same rule.  Any
reply below 500 means the server is up; a 5xx, no reply, or a 2xx body that
is not the route's JSON shape is a failure that feeds the breaker.

:class:`~repro.service.store.ProgramStore` is the store the rest of the
toolchain talks to: a :class:`LocalFSBackend` tier plus, when a server URL
is configured, an :class:`HTTPBackend` tier behind it.  This module also
resolves the environment defaults (``REPRO_CACHE_DIR``,
``REPRO_REMOTE_CACHE``, ``REPRO_CACHE_MAX_BYTES``, ...) that
:class:`~repro.service.compile_service.CompileService` and the CLI pass in.
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
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterator,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)
from urllib.parse import SplitResult, unquote, urlsplit

from ..envvars import read_env
from ..obs import get_metrics
from ..program import PROGRAM_CODEC_VERSION

if TYPE_CHECKING:  # pragma: no cover - typing only
    import http.client

__all__ = [
    "StoreBackend",
    "LocalFSBackend",
    "HTTPBackend",
    "ServerClient",
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

#: Environment variable bounding the local store footprint in bytes (a
#: write that crosses the budget LRU-evicts back under it).
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


def _is_loopback(host: Optional[str]) -> bool:
    """Whether *host* names this machine: ``localhost``, ``127.0.0.0/8`` or ``::1``."""
    import ipaddress

    if not host:
        return False
    if host.lower() == "localhost":
        return True
    try:
        return ipaddress.ip_address(host).is_loopback
    except ValueError:
        return False


def _environment_proxy(parts: SplitResult) -> Optional[SplitResult]:
    """The ``http_proxy``/``https_proxy`` URL for *parts*, unless ``no_proxy`` bypasses it."""
    import urllib.request

    proxy = urllib.request.getproxies().get(parts.scheme)
    if not proxy or urllib.request.proxy_bypass(parts.netloc):
        return None
    return urlsplit(proxy if "://" in proxy else f"http://{proxy}")


def _proxy_authorization(proxy: SplitResult) -> Dict[str, str]:
    """A ``Proxy-Authorization`` header for a proxy URL carrying credentials."""
    if proxy.username is None:
        return {}
    import base64

    credentials = f"{unquote(proxy.username)}:{unquote(proxy.password or '')}"
    return {"Proxy-Authorization": "Basic " + base64.b64encode(credentials.encode()).decode()}


class KeepAliveConnection:
    """One persistent HTTP/1.1 connection to a cache server, reused across requests.

    :class:`HTTPBackend` and
    :class:`~repro.service.remote_compile.RemoteCompileClient` each own one,
    so a run pays one TCP handshake per client instead of one per request.
    :meth:`request` returns every reply, whatever its status; only a request
    that got no reply raises.  Whether the server failed is decided by
    :meth:`ServerClient._exchange`, not here.

    * A reused connection that fails before any response byte arrives
      (typically the server's idle timeout closed it) is re-sent once on a
      fresh connection; a fresh connection that fails is a failure.
    * A loopback host never goes through a proxy; any other host honours
      the environment proxy (``http_proxy``/``https_proxy``/``no_proxy``):
      plain HTTP sends the absolute URL to the proxy, ``https://`` tunnels
      through it with ``CONNECT``.
    * A forked child reconnects instead of sharing its parent's socket.
    * The socket is closed by :meth:`close` or when the owner is collected.

    Like the connection it wraps, an instance serves one thread at a time.
    """

    def __init__(self, base_url: str, timeout_s: float) -> None:
        self._conn: Optional[http.client.HTTPConnection] = None
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s
        self._parts = urlsplit(self.base_url)
        self._target = ""  # what precedes a route path on the request line
        self._headers: Dict[str, str] = {}  # per-connection extra headers
        self._pid = 0

    def _connect(self) -> http.client.HTTPConnection:
        import http.client

        parts = self._parts
        https = parts.scheme == "https"
        factory = http.client.HTTPSConnection if https else http.client.HTTPConnection
        port = parts.port or (443 if https else 80)
        proxy = None if _is_loopback(parts.hostname) else _environment_proxy(parts)
        self._target, self._headers = parts.path, {}
        if proxy is None:
            return factory(parts.hostname, port, timeout=self.timeout_s)
        conn = factory(proxy.hostname, proxy.port or 80, timeout=self.timeout_s)
        auth = _proxy_authorization(proxy)
        if https:
            conn.set_tunnel(parts.hostname, port, headers=auth)
        else:
            self._target, self._headers = self.base_url, auth
        return conn

    def request(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        headers: Optional[Mapping[str, str]] = None,
    ) -> Tuple[int, Mapping[str, str], bytes]:
        """Send one request; the reply's ``(status, headers, body)``.

        A request that gets no reply raises ``OSError`` (refused, reset,
        timed out) or ``http.client.HTTPException`` (the reply is not HTTP),
        and the connection is closed.
        """
        if self._conn is not None and self._pid != os.getpid():
            self.close()  # a forked child: the socket is the parent's
        reused = self._conn is not None and self._conn.sock is not None
        try:
            try:
                response = self._send(method, path, body, headers)
            except ConnectionError:
                if not reused:
                    raise
                # A stale kept-alive connection answered nothing: re-send once.
                self.close()
                response = self._send(method, path, body, headers)
            data = response.read()
        except BaseException:
            self.close()
            raise
        return response.status, response.headers, data

    def _send(self, method, path, body, headers) -> http.client.HTTPResponse:
        if self._conn is None:
            self._conn, self._pid = self._connect(), os.getpid()
        self._conn.request(
            method, self._target + path, body=body,
            headers={**self._headers, **(headers or {})},
        )
        return self._conn.getresponse()

    def close(self) -> None:
        """Close the connection; the next request opens a fresh one."""
        conn, self._conn = self._conn, None
        if conn is not None:
            conn.close()

    __del__ = close


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

        The base implementation loops over :meth:`put` (so the per-write
        byte budget still applies); batched backends override it.  A write
        that ``put`` reports as failed is skipped and not counted; a
        backend whose ``put`` raises (:class:`LocalFSBackend` raises
        ``OSError`` on a full or read-only disk, which the cache server
        turns into a 500) propagates the error from here too.
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
# local filesystem backend (the entry files are the whole record)
# ---------------------------------------------------------------------------
class LocalFSBackend(StoreBackend):
    """The content-addressed on-disk layout; the entry files are the store.

    Layout (unchanged from PR 2, so existing caches keep working)::

        <root>/v<codec-version>/<key[:2]>/<key>.json

    There is no side index.  ``stats()`` and ``evict()`` scan the entry
    files: each one's size, and ``max(atime, mtime)`` as its recency (a hit
    stamps atime, a write stamps mtime).  ``evict()`` removes the oldest
    entries, ties broken by key, until the store fits a byte budget.

    With ``max_bytes`` set, every ``put`` scans and evicts oldest-first
    (never the entry it just wrote, unless that entry alone exceeds the
    budget), so every writer leaves the store within budget after each of
    its puts.  Two evictors racing over one scan order ignore each other's
    ``unlink`` misses, so a race costs at most a recompile.
    """

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

    def _path(self, key: str) -> Path:
        return self._dir / key[:2] / f"{key}.json"

    def _scan(self) -> Dict[str, Tuple[int, float]]:
        """``{key: (size_bytes, last_used)}`` for every entry file.

        ``last_used`` is the freshest of the file's atime and mtime.
        Tolerates entries disappearing mid-scan (a concurrent ``clear()`` or
        eviction): a file deleted between the directory listing and its
        ``stat()`` is simply left out, never an error.
        """
        entries: Dict[str, Tuple[int, float]] = {}
        if self._dir.is_dir():
            for path in self._dir.glob("*/*.json"):
                try:
                    info = path.stat()
                except OSError:
                    continue
                entries[path.stem] = (int(info.st_size), max(info.st_atime, info.st_mtime))
        return entries

    def _evict_oldest(
        self, entries: Mapping[str, Tuple[int, float]], max_bytes: int
    ) -> Tuple[int, int]:
        """Unlink the oldest scanned entries until the total fits the budget.

        Returns ``(entries_removed, bytes_freed)``.  The key breaks
        exact-timestamp ties, so every evictor sorts one scan into the same
        order; an entry another process removed first is counted as gone,
        not raised.
        """
        total = sum(size for size, _ in entries.values())
        removed = freed = 0
        for key in sorted(entries, key=lambda k: (entries[k][1], k)):
            if total <= max_bytes:
                break
            size = entries[key][0]
            with contextlib.suppress(OSError):
                os.unlink(self._path(key))
            total -= size
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
        entry's *atime* (one syscall; the mtime — the write stamp — is
        preserved), which is what makes the eviction order *least recently
        used* rather than least recently written.
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
        """Atomically persist *payload* under *key* (last writer wins).

        With ``max_bytes`` set, the put then scans and evicts the oldest
        other entries until the store fits the budget.  The shard directory
        is made only when a write finds it missing, so a put into an
        existing shard costs no ``mkdir``.  A full or read-only disk raises
        ``OSError``.
        """
        start = time.perf_counter()
        path = self._path(key)
        data = json.dumps(payload).encode()
        try:
            fd, tmp = tempfile.mkstemp(prefix=f".{key[:8]}-", dir=path.parent)
        except FileNotFoundError:  # the shard's first entry: make its directory
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(prefix=f".{key[:8]}-", dir=path.parent)
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
        if self.max_bytes is not None:
            entries = self._scan()
            if key in entries:  # the entry just written goes last
                entries[key] = (entries[key][0], float("inf"))
            self._evict_oldest(entries, self.max_bytes)
        _observe_op(start, "local", "put", "ok")
        return True

    def contains(self, key: str) -> bool:
        return self._path(key).is_file()

    def keys(self) -> Iterator[str]:
        """Iterate over every key stored under the current codec version."""
        if not self._dir.is_dir():
            return
        for entry in sorted(self._dir.glob("*/*.json")):
            yield entry.stem

    def delete(self, key: str) -> bool:
        try:
            os.unlink(self._path(key))
        except OSError:
            return False
        return True

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

        Entries and recency come from one scan (atime = last hit, mtime =
        last write).
        """
        return self._evict_oldest(self._scan(), max_bytes)

    def stats(self) -> Dict[str, object]:
        """Entry count and byte footprint of the current codec version.

        One ``stat()`` per entry file; the stale-version count walks the
        other ``v*`` directories.
        """
        entries = self._scan()
        stale = 0
        if self.root.is_dir():
            for version_dir in self.root.glob("v*"):
                if version_dir != self._dir and version_dir.is_dir():
                    stale += sum(1 for _ in version_dir.glob("*/*.json"))
        return {
            "path": str(self.root),
            "format": self.format,
            "entries": len(entries),
            "total_bytes": sum(size for size, _ in entries.values()),
            "stale_entries": stale,
            "max_bytes": self.max_bytes,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LocalFSBackend(root={str(self.root)!r}, format={self.format!r})"


# ---------------------------------------------------------------------------
# HTTP clients of the cache server, and the one rule for reading its replies
# ---------------------------------------------------------------------------
class Reply(NamedTuple):
    """What one exchange with the server brought back.

    ``status`` is ``None`` when the server failed (or the open breaker
    skipped the request); ``value`` is the route's value decoded from a 2xx
    body, else ``None``.
    """

    status: Optional[int]
    headers: Mapping[str, str]
    value: object = None

    @property
    def ok(self) -> bool:
        return self.status is not None and 200 <= self.status < 300


_FAILED = Reply(None, {})


def _json_object(value: object) -> dict:
    if not isinstance(value, dict):
        raise ValueError("reply is not a JSON object")
    return value


def _key_listing(value: object) -> list:
    """The listing ``{"keys": [<64-char hex>, ...]}`` (no ``keys``: empty)."""
    keys = _json_object(value).get("keys", [])
    if not isinstance(keys, list) or not all(
        isinstance(key, str) and _KEY_PATTERN.match(key) for key in keys
    ):
        raise ValueError("malformed key listing")
    return keys


def _batch_entries(value: object) -> dict:
    return _json_object(_json_object(value).get("entries"))


def _stored_count(value: object) -> int:
    count = _json_object(value).get("stored")
    if not isinstance(count, int):
        raise ValueError("malformed stored count")
    return count


class ServerClient:
    """What every client of a cache server shares, and the one reply rule.

    :class:`HTTPBackend` and
    :class:`~repro.service.remote_compile.RemoteCompileClient` both derive
    from it: one base URL (a bare ``host:port`` gets ``http://``), the
    ``v<codec>`` namespace, the bearer token (``None`` reads
    ``REPRO_CACHE_TOKEN``), one :class:`CircuitBreaker` labeled by the
    remote's ``host:port``, and one :class:`KeepAliveConnection`.

    Every request goes through :meth:`_exchange`, the only place that
    decides whether the server failed.  Any reply below 500 means the
    server is up, so the breaker closes: a 404 miss, a 401 for a missing
    token and a 429 are answers, not outages.  A 5xx, no reply at all
    (refused, timed out, not HTTP) and a 2xx body that is not the route's
    JSON shape are failures; after ``trip_after`` consecutive ones the
    breaker opens and requests are skipped outright.  The cache is an
    accelerator, never a dependency, so nothing here raises.
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
        self._breaker = CircuitBreaker(urlsplit(self.url).netloc or self.url, trip_after=trip_after)
        self._wire = KeepAliveConnection(self.url, timeout_s)
        #: Requests the server answered but refused: a 4xx other than a
        #: 404 miss of an entry (a missing token, a foreign namespace, a 429).
        self.refused = 0

    @property
    def tripped(self) -> bool:
        """Whether the circuit breaker is open (the remote is skipped)."""
        return self._breaker.tripped

    @property
    def errors(self) -> int:
        """Requests that failed (see :meth:`_exchange`)."""
        return self._breaker.errors

    def breaker_stats(self) -> Dict[str, object]:
        """Circuit-breaker state for ``stats()`` / ``cache stats`` output."""
        return self._breaker.stats()

    def close(self) -> None:
        """Close the kept-alive connection to the server."""
        self._wire.close()

    def _exchange(
        self,
        method: str,
        path: str,
        body: object = None,
        *,
        op: str,
        shape: Optional[Callable[[object], object]] = None,
    ) -> Reply:
        """Send one request and judge the reply by the one rule.

        *body*, if given, is sent as JSON.  *shape* turns the decoded JSON of
        a 2xx body into the route's value and raises ``ValueError`` when the
        body is not the route's shape.  The latency lands in
        ``repro_store_op_seconds{backend="remote", op=<op>}``.
        """
        import http.client

        if self.tripped:
            return _FAILED
        headers = {"Authorization": f"Bearer {self.token}"} if self.token else {}
        payload = None
        if body is not None:
            payload = json.dumps(body).encode()
            headers["Content-Type"] = "application/json"
        start = time.perf_counter()
        try:
            status, reply_headers, raw = self._wire.request(
                method, path, body=payload, headers=headers
            )
            value = None
            if shape is not None and 200 <= status < 300:
                value = shape(json.loads(raw))
        except (OSError, http.client.HTTPException, ValueError):
            status = None
        if status is None or status >= 500:
            self._breaker.note_failure()
            _observe_op(start, "remote", op, "error")
            return _FAILED
        self._breaker.note_success()
        if status < 300:
            outcome = "hit" if op == "get" else "ok"
        elif status == 404 and op in ("get", "contains", "delete"):
            outcome = "miss"
        else:
            outcome = "refused"
            self.refused += 1
        _observe_op(start, "remote", op, outcome)
        return Reply(status, reply_headers, value)


class HTTPBackend(ServerClient, StoreBackend):
    """Client for a shared cache server speaking the content-addressed scheme.

    Entry operations map onto ``GET/PUT/HEAD/DELETE /v<codec>/<key>``,
    listing onto ``GET /v<codec>/``, ``stats()`` onto ``GET /stats`` and
    ``get_many``/``put_many`` onto ``POST /v<codec>/batch/{get,put}`` —
    exactly what :class:`repro.service.server.CacheServer` serves.  Each
    route only maps a reply to its value; whether the server failed is
    :meth:`ServerClient._exchange`'s one rule.  A failure or a refusal
    degrades to a miss (``get`` -> ``None``, ``put`` -> ``False``,
    ``keys`` -> empty), never an error, so a fleet keeps compiling when its
    cache server is down.
    """

    def _entry(self, key: str) -> str:
        return f"/{self.format}/{key}"

    def get(self, key: str) -> Optional[dict]:
        return self._exchange("GET", self._entry(key), op="get", shape=_json_object).value

    def put(self, key: str, payload: dict) -> bool:
        return self._exchange("PUT", self._entry(key), payload, op="put").ok

    def contains(self, key: str) -> bool:
        return self._exchange("HEAD", self._entry(key), op="contains").ok

    def delete(self, key: str) -> bool:
        return self._exchange("DELETE", self._entry(key), op="delete").ok

    def keys(self) -> Iterator[str]:
        """Iterate the server's listing; nothing when it is refused or malformed.

        A listing that is not ``{"keys": [<64-char hex>, ...]}`` — a string
        (which would iterate as single characters), a non-list, junk keys —
        is a failure, never data.
        """
        listing = self._exchange("GET", f"/{self.format}/", op="keys", shape=_key_listing)
        yield from listing.value or ()

    def stats(self) -> Dict[str, object]:
        reply = self._exchange("GET", "/stats", op="stats", shape=_json_object)
        if reply.ok:
            return {**reply.value, "url": self.url, **self.breaker_stats()}
        return {
            "url": self.url,
            "unreachable": reply.status is None,
            "tripped": self.tripped,
            **self.breaker_stats(),
        }

    # ------------------------------------------------------------------
    # batched transfer (POST /v<codec>/batch/{get,put})
    # ------------------------------------------------------------------
    def get_many(self, keys: Sequence[str]) -> Dict[str, dict]:
        """Fetch many entries in ``BATCH_CHUNK_ENTRIES``-sized round trips.

        A refused or failed round trip ends the call with what it has so
        far (no retry storm).  Entries whose key or payload shape is wrong
        are dropped — the transfer path never turns junk into cache content.
        """
        found: Dict[str, dict] = {}
        pending = list(keys)
        path = f"/{self.format}/batch/get"
        for offset in range(0, len(pending), BATCH_CHUNK_ENTRIES):
            chunk = pending[offset : offset + BATCH_CHUNK_ENTRIES]
            entries = self._exchange(
                "POST", path, {"keys": chunk}, op="batch_get", shape=_batch_entries
            ).value
            if entries is None:
                return found
            wanted = set(chunk)
            for key, value in entries.items():
                if key in wanted and isinstance(value, dict):
                    found[key] = value
        return found

    def put_many(self, entries: Mapping[str, dict]) -> int:
        """Store many entries in ``BATCH_CHUNK_ENTRIES``-sized round trips.

        Returns how many entries the server acknowledged storing.
        """
        stored = 0
        items = list(entries.items())
        path = f"/{self.format}/batch/put"
        for offset in range(0, len(items), BATCH_CHUNK_ENTRIES):
            chunk = dict(items[offset : offset + BATCH_CHUNK_ENTRIES])
            count = self._exchange(
                "POST", path, {"entries": chunk}, op="batch_put", shape=_stored_count
            ).value
            if count is None:
                return stored
            stored += count
        return stored

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HTTPBackend(url={self.url!r}, format={self.format!r})"


def copy_missing(source: StoreBackend, destination: StoreBackend) -> Tuple[int, int]:
    """Copy every entry of *source* that *destination* lacks.

    Returns ``(copied, already_present)``.  This is the engine behind
    ``python -m repro cache push`` (local -> remote) and ``cache pull``
    (remote -> local); an entry that vanishes or fails to decode mid-sync is
    skipped, and a failed destination write is not counted as copied.  A
    :class:`LocalFSBackend` destination raises ``OSError`` when its disk is
    full or read-only (see :meth:`StoreBackend.put_many`).

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
