"""Shared helpers for the figure-reproduction benchmark harness.

Every benchmark in this directory regenerates one table or figure of the
paper and prints the corresponding rows/series, while pytest-benchmark
records how long the experiment takes.  Experiments are executed once per
benchmark (``pedantic`` mode) because they are deterministic and some of the
larger sweeps take seconds.

The ``test_perf_*`` modules (the ones asserting speedup targets and
rewriting ``BENCH_*.json``) carry the ``perf`` marker and honour the
``REPRO_SKIP_PERF=1`` environment knob, so developers off-CI can run the
figure benchmarks without paying for — or accidentally rewriting — the
tracked performance numbers: ``REPRO_SKIP_PERF=1 pytest benchmarks``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

from repro.service.testing import hermetic_cache_env

# The perf benchmarks time production against the frozen oracles.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests" / "differential"))


def pytest_collection_modifyitems(config, items):
    skip_perf = os.environ.get("REPRO_SKIP_PERF", "").strip() not in ("", "0", "false")
    marker = pytest.mark.skip(reason="perf benchmarks disabled via REPRO_SKIP_PERF")
    for item in items:
        if os.path.basename(item.fspath.strpath).startswith("test_perf_"):
            item.add_marker(pytest.mark.perf)
            if skip_perf:
                item.add_marker(marker)


@pytest.fixture(scope="session", autouse=True)
def _isolated_program_cache(tmp_path_factory):
    """Keep benchmark timings hermetic: temp program store, pinned cache env."""
    with hermetic_cache_env(str(tmp_path_factory.mktemp("program-cache"))):
        yield


