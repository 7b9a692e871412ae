"""The compiled-program store facade over pluggable storage backends.

Through PR 3 :class:`ProgramStore` *was* the on-disk store; PR 4 split the
storage mechanics into :mod:`repro.service.backends` and left this module
as the composition point the rest of the toolchain talks to:

* a plain ``ProgramStore(root)`` is the original content-addressed on-disk
  store (:class:`~repro.service.backends.LocalFSBackend` — same layout,
  same atomic-write and corrupt-entry-is-a-miss contracts, plus LRU
  eviction under a byte budget);
* ``ProgramStore(root, remote_url=...)`` tiers the local store in front of
  a shared cache server (read-through local -> remote with write-back, so
  a fleet of workers shares one warm cache);
* ``ProgramStore(backend=...)`` mounts any prebuilt
  :class:`~repro.service.backends.StoreBackend` composition directly.

``max_bytes`` bounds the local footprint: every write LRU-evicts back under
the budget.  The environment defaults are ``REPRO_CACHE_DIR`` (root),
``REPRO_REMOTE_CACHE`` (server URL) and ``REPRO_CACHE_MAX_BYTES`` (budget)
— resolved by :class:`~repro.service.compile_service.CompileService` and
the CLI, never by this class, so a ``ProgramStore`` built in code is fully
described by its arguments.
"""

from __future__ import annotations

import contextlib
import os
from pathlib import Path
from typing import Dict, Iterator, Mapping, Optional, Sequence, Tuple

from ..program import PROGRAM_CODEC_VERSION
from .backends import (
    CACHE_DIR_ENV,
    CACHE_TOGGLE_ENV,
    CACHE_TOKEN_ENV,
    MAX_BYTES_ENV,
    REMOTE_CACHE_ENV,
    REMOTE_COMPILE_ENV,
    HTTPBackend,
    LocalFSBackend,
    StoreBackend,
    TieredStore,
    cache_enabled_default,
    cache_max_bytes_default,
    cache_token_default,
    default_cache_dir,
    remote_cache_default,
    remote_compile_default,
)

__all__ = [
    "ProgramStore",
    "default_cache_dir",
    "cache_enabled_default",
    "remote_cache_default",
    "cache_max_bytes_default",
    "cache_token_default",
    "remote_compile_default",
    "CACHE_DIR_ENV",
    "CACHE_TOGGLE_ENV",
    "CACHE_TOKEN_ENV",
    "REMOTE_CACHE_ENV",
    "REMOTE_COMPILE_ENV",
    "MAX_BYTES_ENV",
]


def _local_tier(backend: StoreBackend) -> Optional[LocalFSBackend]:
    if isinstance(backend, TieredStore):
        return _local_tier(backend.local)
    if isinstance(backend, LocalFSBackend):
        return backend
    return None


def _remote_url(backend: StoreBackend) -> Optional[str]:
    if isinstance(backend, TieredStore):
        return _remote_url(backend.remote) or _remote_url(backend.local)
    if isinstance(backend, HTTPBackend):
        return backend.url
    return None


class ProgramStore:
    """A content-addressed key -> JSON-payload store over pluggable backends.

    Parameters
    ----------
    root:
        Local store root (default: an XDG-style per-user cache location;
        callers resolving the ``REPRO_CACHE_DIR`` override pass it here).
    remote_url:
        Shared cache server URL; when given, the store is tiered — local
        first, then the remote, with remote hits written back locally.
    max_bytes:
        LRU byte budget for the local tier, enforced after every write.
    backend:
        Prebuilt backend composition, overriding all of the above.
    """

    def __init__(
        self,
        root: Optional[os.PathLike] = None,
        remote_url: Optional[str] = None,
        max_bytes: Optional[int] = None,
        backend: Optional[StoreBackend] = None,
    ) -> None:
        if backend is None:
            local = LocalFSBackend(root, max_bytes=max_bytes)
            if remote_url:
                backend = TieredStore(local, HTTPBackend(remote_url))
            else:
                backend = local
        self.backend = backend
        self.format = f"v{PROGRAM_CODEC_VERSION}"
        local_tier = _local_tier(backend)
        self.root: Optional[Path] = local_tier.root if local_tier is not None else None
        self.max_bytes = local_tier.max_bytes if local_tier is not None else max_bytes
        self.remote_url = _remote_url(backend)

    # ------------------------------------------------------------------
    # entry access
    # ------------------------------------------------------------------
    def _path(self, key: str) -> Path:
        """On-disk path of *key* in the local tier (tests, diagnostics)."""
        local_tier = _local_tier(self.backend)
        if local_tier is None:
            raise AttributeError("this store has no local filesystem tier")
        return local_tier._path(key)

    def get(self, key: str) -> Optional[dict]:
        """Return the stored payload for *key*, or ``None`` on any miss.

        A corrupt entry, a codec-version mismatch and a dead remote tier
        all degrade to ``None`` — the caller recompiles; nothing raises on
        bad stored bytes.  Hits stamp recency (LRU) into the local tier.
        """
        return self.backend.get(key)

    def put(self, key: str, payload: dict) -> None:
        """Persist *payload* (a JSON-serializable dict) under *key*.

        Writes are atomic (temp file + rename) and last-writer-wins; with
        a byte budget configured, an LRU eviction pass runs after the
        write.  On a tiered store the payload is also published to the
        remote best-effort (a dead server is counted, never raised).
        """
        self.backend.put(key, payload)

    def put_local(self, key: str, payload: dict) -> None:
        """Persist *payload* into the local tier only (no remote publish).

        The remote-compile path uses this: the compile server already holds
        the entry it just returned, so publishing it back through a tiered
        store's write-through would be a redundant upload per grid point.
        On a non-tiered local store this is a plain :meth:`put`; with no
        local tier at all (a pure HTTP store) it is a no-op.
        """
        backend = self.backend
        if isinstance(backend, TieredStore):
            with contextlib.suppress(OSError):
                backend.local.put(key, payload)
        elif not isinstance(backend, HTTPBackend):
            backend.put(key, payload)

    def get_many(self, keys: Sequence[str]) -> Dict[str, dict]:
        """Fetch many entries (``{key: payload}``, hits only).

        Backends with a batched wire protocol move
        :data:`~repro.service.backends.BATCH_CHUNK_ENTRIES` entries per
        round trip; local stores loop.  Misses are absent, never errors.
        """
        return self.backend.get_many(keys)

    def put_many(self, entries: Mapping[str, dict]) -> int:
        """Persist many entries; returns how many writes succeeded."""
        return self.backend.put_many(entries)

    def prefetch(self, keys: Sequence[str]) -> int:
        """Warm the local tier with remote entries, batched; returns fetches.

        A no-op (``0``) on non-tiered stores.  Only keys absent from the
        local tier are requested, so a warm local store costs one cheap
        existence probe per key and no network at all.
        """
        backend = self.backend
        if not isinstance(backend, TieredStore):
            return 0
        missing = [key for key in keys if not backend.local.contains(key)]
        if not missing:
            return 0
        fetched = backend.remote.get_many(missing)
        for key, payload in fetched.items():
            with contextlib.suppress(OSError):
                backend.local.put(key, payload)
        return len(fetched)

    def __contains__(self, key: str) -> bool:
        """``key in store`` — same semantics as :meth:`contains`."""
        return self.backend.contains(key)

    def contains(self, key: str) -> bool:
        """Whether *key* is currently served by any tier (no payload read)."""
        return self.backend.contains(key)

    def keys(self) -> Iterator[str]:
        """Iterate over every key stored under the current codec version.

        On a tiered store this is the union of local and reachable-remote
        keys; entries from other codec versions are never yielded.
        """
        yield from self.backend.keys()

    def delete(self, key: str) -> bool:
        """Remove the entry under *key*; ``True`` if one existed."""
        return self.backend.delete(key)

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def clear(self) -> int:
        """Remove every stored entry and return how many were removed.

        Only the local tier is cleared on a tiered store — a shared server
        is never wiped from a worker.  Entries deleted concurrently by
        another process are skipped, not raised.
        """
        return self.backend.clear()

    def evict(self, max_bytes: int) -> Tuple[int, int]:
        """LRU-evict until the local tier fits *max_bytes* bytes.

        Returns ``(entries_removed, bytes_freed)``.  Recency is the
        entry's atime (hits stamp it; see :meth:`get`), so warm entries
        survive cold ones regardless of write order.
        """
        return self.backend.evict(max_bytes)

    def stats(self) -> Dict[str, object]:
        """Entry count, byte footprint and store location as a plain dict.

        Counted from one scan of the local entry files, so it is never out
        of step with what ``get`` serves.
        """
        return self.backend.stats()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProgramStore(backend={self.backend!r})"
