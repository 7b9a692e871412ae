"""Test-support utilities for the service layer (used by the repo's conftests)."""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

from ..envvars import ENV_VARS
from .compile_service import reset_service

#: Every registered environment variable except the harness-only ones
#: (``commands == ("*",)``, such as ``REPRO_SKIP_PERF``): each shapes the
#: store, the sweeps or tracing, so hermetic test sessions pin all of them.
_PINNED_ENV = tuple(var.name for var in ENV_VARS if var.commands != ("*",))


@contextmanager
def hermetic_cache_env(cache_dir: str) -> Iterator[None]:
    """Pin the caching/sweep environment for a hermetic test session.

    Clears every variable of ``_PINNED_ENV``, then points the
    compiled-program store at *cache_dir*.  Cleared, the store is enabled
    (an exported ``REPRO_CACHE=0`` must not disable the store that cache
    tests assert on), sweeps run serially (the parent's service counts
    every hit and miss at any worker count, but a cold compile in a worker
    process escapes the in-process compile and stage counters some tests
    install), no test talks to a developer's cache or compile server or
    sends its token, no ambient eviction budget deletes entries tests
    assert on, and CLI-level tests never scatter trace files — suites that
    opt into tracing (the differential run under ``REPRO_TRACE=1``) capture
    the variable at conftest import time, before this session fixture pins
    it.  Restores the previous environment and resets the default service
    on exit.
    """
    previous = {name: os.environ.pop(name, None) for name in _PINNED_ENV}
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
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
