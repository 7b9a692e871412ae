"""Test-support utilities for the service layer (used by the repo's conftests)."""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

from .compile_service import reset_service

#: Environment variables that shape compilation-cache and sweep behavior;
#: hermetic test sessions pin all of them.
_PINNED_ENV = (
    "REPRO_CACHE_DIR",
    "REPRO_CACHE",
    "REPRO_SWEEP_WORKERS",
    "REPRO_REMOTE_CACHE",
    "REPRO_REMOTE_COMPILE",
    "REPRO_CACHE_TOKEN",
    "REPRO_CACHE_MAX_BYTES",
    "REPRO_TRACE",
    "REPRO_TRACE_DIR",
)


@contextmanager
def hermetic_cache_env(cache_dir: str) -> Iterator[None]:
    """Pin the caching/sweep environment for a hermetic test session.

    Points the compiled-program store at *cache_dir*, force-enables the
    cache (an exported ``REPRO_CACHE=0`` must not disable the store that
    cache tests assert on), and clears ``REPRO_SWEEP_WORKERS`` (the
    parent's service counts every hit and miss at any worker count, but a
    cold compile in a worker process escapes the in-process compile and
    stage counters some tests install), ``REPRO_REMOTE_CACHE`` (tests must not
    talk to a developer's cache server) and ``REPRO_CACHE_MAX_BYTES`` (an
    ambient eviction budget must not delete entries tests assert on).
    ``REPRO_TRACE``/``REPRO_TRACE_DIR`` are cleared too, so CLI-level tests
    never scatter trace files — suites that opt into tracing (the
    differential run under ``REPRO_TRACE=1``) capture the variable at
    conftest import time, before this session fixture pins it.  Restores
    the previous environment and resets the default service on exit.
    """
    previous = {name: os.environ.get(name) for name in _PINNED_ENV}
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    os.environ["REPRO_CACHE"] = "1"
    os.environ.pop("REPRO_SWEEP_WORKERS", None)
    os.environ.pop("REPRO_REMOTE_CACHE", None)
    os.environ.pop("REPRO_REMOTE_COMPILE", None)
    os.environ.pop("REPRO_CACHE_TOKEN", None)
    os.environ.pop("REPRO_CACHE_MAX_BYTES", None)
    os.environ.pop("REPRO_TRACE", None)
    os.environ.pop("REPRO_TRACE_DIR", None)
    reset_service()  # rebuild the default service lazily under the new env
    try:
        yield
    finally:
        for name, value in previous.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
        reset_service()
