"""Compilation-cache + batch-compile service layer.

Compilation (scheduling, per-step coloring, frequency solving) dominates
sweep wall time now that Eq. (4) estimation is vectorized, and every figure
grid revisits the same (benchmark x strategy x device) points.  This package
amortizes that work across requests, across runs — and, since PR 4, across
machines:

* :mod:`~repro.service.cache_key` — deterministic, content-addressed cache
  keys hashing the circuit, the full device physics and every compiler knob;
* :mod:`~repro.service.backends` — storage backends sharing that key
  scheme: the on-disk :class:`LocalFSBackend` (its entry files are the
  whole record; LRU eviction under a byte budget) and the
  :class:`HTTPBackend` client for a shared cache server;
* :mod:`~repro.service.store` — the :class:`ProgramStore`: a local tier
  plus, with ``remote_url``, a remote tier behind it (read-through with
  write-back, best-effort publish);
* :mod:`~repro.service.server` — ``python -m repro cache serve``: a stdlib
  HTTP server so a fleet of CI workers shares one warm cache — and, since
  PR 8, a remote *compile* tier: batched ``POST /v<codec>/batch/{get,put}``
  transfer plus ``POST /v<codec>/compile`` resolving :class:`CompileJob`
  batches server-side with cross-client in-flight dedup, a bounded job
  queue (429 + ``Retry-After``) and optional bearer-token auth;
* :mod:`~repro.service.remote_compile` — :class:`RemoteCompileClient`, the
  thin-client half of that tier (retry with jitter, honours the circuit
  breaker, falls back to local compilation);
* :mod:`~repro.service.compile_service` — the :class:`CompileService` front
  end with ``compile()`` / ``compile_batch()``, in-batch deduplication,
  process fan-out for cold misses and hit/miss/latency statistics.

The sweep runner behind Figs. 9-13 and the ``python -m repro`` CLI
(``figure --cache-dir/--remote-cache/--remote-compile``, ``cache
{stats,clear,warm,serve,push,pull,evict}``) route all compilation through
this layer, so a repeated figure sweep is cache-hot — locally or against a
shared server (``REPRO_REMOTE_CACHE``/``REPRO_REMOTE_COMPILE``).
"""

from .cache_key import cache_key, canonical_json, key_payload
from .backends import (
    CircuitBreaker,
    HTTPBackend,
    LocalFSBackend,
    StoreBackend,
    cache_enabled_default,
    cache_max_bytes_default,
    cache_token_default,
    copy_missing,
    default_cache_dir,
    remote_cache_default,
    remote_compile_default,
)
from .store import ProgramStore
from .compile_service import (
    CompileJob,
    CompileService,
    ServiceStats,
    get_service,
    make_compiler,
    reset_service,
    service_override,
)
from .remote_compile import RemoteCompileClient

__all__ = [
    "cache_key",
    "canonical_json",
    "key_payload",
    "StoreBackend",
    "LocalFSBackend",
    "HTTPBackend",
    "CircuitBreaker",
    "copy_missing",
    "ProgramStore",
    "default_cache_dir",
    "cache_enabled_default",
    "remote_cache_default",
    "cache_max_bytes_default",
    "cache_token_default",
    "remote_compile_default",
    "CompileJob",
    "CompileService",
    "ServiceStats",
    "RemoteCompileClient",
    "get_service",
    "make_compiler",
    "reset_service",
    "service_override",
]
