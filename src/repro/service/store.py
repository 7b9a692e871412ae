"""The compiled-program store: a local tier plus an optional remote tier.

:class:`ProgramStore` is the one store the rest of the toolchain talks to,
and the only place tiers are composed:

* ``ProgramStore(root)`` is the content-addressed on-disk store
  (:class:`~repro.service.backends.LocalFSBackend`: atomic writes,
  corrupt-entry-is-a-miss, LRU eviction under a byte budget);
* ``ProgramStore(root, remote_url=...)`` puts that local tier in front of a
  shared cache server (:class:`~repro.service.backends.HTTPBackend`):
  reads go local first, then remote, and remote hits are written back
  locally; writes go local, then to the server best-effort.  A fleet of
  workers shares one warm cache this way.

``max_bytes`` bounds the local footprint: every write LRU-evicts back under
the budget.  The environment defaults (``REPRO_CACHE_DIR``,
``REPRO_REMOTE_CACHE``, ``REPRO_CACHE_MAX_BYTES``) are resolved by
:class:`~repro.service.compile_service.CompileService` and the CLI, never by
this class, so a ``ProgramStore`` built in code is fully described by its
arguments.
"""

from __future__ import annotations

import contextlib
import os
from typing import Dict, Iterator, Mapping, Optional, Sequence, Tuple

from .backends import HTTPBackend, LocalFSBackend, StoreBackend

__all__ = ["ProgramStore"]


class ProgramStore(StoreBackend):
    """A content-addressed key -> JSON-payload store: local tier, optional remote.

    Parameters
    ----------
    root:
        Local store root (default: an XDG-style per-user cache location;
        callers resolving the ``REPRO_CACHE_DIR`` override pass it here).
    remote_url:
        Shared cache server URL; when given, ``self.remote`` is an
        :class:`HTTPBackend` behind the local tier, otherwise ``None``.
    max_bytes:
        LRU byte budget for the local tier, enforced after every write.

    * Nothing raises on bad stored bytes, a dead server or a full disk:
      each degrades to a miss or an unstored write, and the caller
      recompiles.  Remote failures are counted in ``self.remote.errors``.
    * Concurrency safety comes from the tiers: local writes are atomic and
      last-writer-wins, and since entries are content-addressed two racing
      write-backs of one key write identical bytes.
    * ``clear`` and ``evict`` act on the local tier only, so a worker can
      never wipe the fleet's shared cache by clearing its own.
    """

    def __init__(
        self,
        root: Optional[os.PathLike] = None,
        remote_url: Optional[str] = None,
        max_bytes: Optional[int] = None,
    ) -> None:
        self.local = LocalFSBackend(root, max_bytes=max_bytes)
        self.remote: Optional[HTTPBackend] = HTTPBackend(remote_url) if remote_url else None
        self.root = self.local.root
        self._reports_marker = self.root / self.local.format / "reports"
        self._holds_reports: Optional[bool] = None

    def holds_reports(self) -> bool:
        """Whether a sweep report lookup can hit: with a remote tier, or once
        a report was stored locally (a ``reports`` marker file beside the
        entries).  Read once per store object; a report another process
        stores later is missed, which costs a rescore."""
        if self._holds_reports is None:
            self._holds_reports = self.remote is not None or self._reports_marker.exists()
        return self._holds_reports

    def put_report(self, key: str, payload: dict) -> bool:
        """:meth:`put` for a sweep report; the first one leaves the marker."""
        stored = self.put(key, payload)
        if stored and not self.holds_reports():
            with contextlib.suppress(OSError):
                self._reports_marker.touch()
                self._holds_reports = True
        return stored

    # ------------------------------------------------------------------
    # entry access
    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[dict]:
        """Return the stored payload for *key*, or ``None`` on any miss.

        A local hit stamps recency (LRU); a remote hit is written back into
        the local tier so the next lookup is local.
        """
        payload = self.local.get(key)
        if payload is None and self.remote is not None:
            payload = self.remote.get(key)
            if payload is not None:
                self.put_local(key, payload)
        return payload

    def put(self, key: str, payload: dict) -> bool:
        """Persist *payload* locally and publish it to the remote best-effort.

        Returns whether the local write succeeded.
        """
        stored = self.put_local(key, payload)
        if self.remote is not None:
            self.remote.put(key, payload)
        return stored

    def put_local(self, key: str, payload: dict) -> bool:
        """Persist *payload* into the local tier only; ``False`` if it failed.

        The remote-compile path uses this: the compile server already holds
        the entry it just returned, so publishing it back would be a
        redundant upload per grid point.  A full or read-only disk costs a
        later recompile, never an error.
        """
        try:
            return self.local.put(key, payload)
        except OSError:
            return False

    def _read_through(self, keys: Sequence[str]) -> Dict[str, dict]:
        """Fetch *keys* from the remote in batches, writing each hit back locally."""
        if self.remote is None or not keys:
            return {}
        fetched = self.remote.get_many(keys)
        for key, payload in fetched.items():
            self.put_local(key, payload)
        return fetched

    def get_many(self, keys: Sequence[str]) -> Dict[str, dict]:
        """Fetch many entries (``{key: payload}``, hits only).

        Local hits first; the rest take one batched remote round trip per
        :data:`~repro.service.backends.BATCH_CHUNK_ENTRIES` keys.
        """
        found = self.local.get_many(keys)
        found.update(self._read_through([key for key in keys if key not in found]))
        return found

    def put_many(self, entries: Mapping[str, dict]) -> int:
        """Persist many entries; returns how many local writes succeeded."""
        stored = sum(1 for key, payload in entries.items() if self.put_local(key, payload))
        if self.remote is not None:
            self.remote.put_many(entries)
        return stored

    def prefetch(self, keys: Sequence[str]) -> int:
        """Warm the local tier with remote entries, batched; returns fetches.

        ``0`` without a remote.  Only keys absent from the local tier are
        requested, so a warm local store costs one existence probe per key
        and no network at all.
        """
        if self.remote is None:
            return 0
        return len(self._read_through([key for key in keys if not self.local.contains(key)]))

    def contains(self, key: str) -> bool:
        """Whether *key* is served by either tier (no payload read)."""
        return self.local.contains(key) or (
            self.remote is not None and self.remote.contains(key)
        )

    def keys(self) -> Iterator[str]:
        """Every key of the current codec version: local ones, then remote-only ones."""
        seen = set()
        for key in self.local.keys():
            seen.add(key)
            yield key
        if self.remote is not None:
            for key in self.remote.keys():
                if key not in seen:
                    yield key

    def delete(self, key: str) -> bool:
        """Remove *key* from both tiers; ``True`` if either held it."""
        local = self.local.delete(key)
        remote = self.remote is not None and self.remote.delete(key)
        return local or remote

    # ------------------------------------------------------------------
    # maintenance (local tier only)
    # ------------------------------------------------------------------
    def clear(self) -> int:
        """Remove every local entry (all codec versions); return the count."""
        return self.local.clear()

    def evict(self, max_bytes: int) -> Tuple[int, int]:
        """LRU-evict local entries until they fit *max_bytes*; ``(removed, freed)``."""
        return self.local.evict(max_bytes)

    def stats(self) -> Dict[str, object]:
        """The local tier's ``entries``/``total_bytes``/..., plus ``remote_*`` keys."""
        stats = self.local.stats()
        if self.remote is not None:
            stats.update((f"remote_{name}", value) for name, value in self.remote.stats().items())
        return stats

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProgramStore(local={self.local!r}, remote={self.remote!r})"
