"""Helpers shared by the benchmark modules.

Lives in a uniquely named module (not ``conftest``) so plain imports cannot
collide with the test tree's conftest modules in ``sys.modules``.
"""

from __future__ import annotations

import json
from pathlib import Path

#: Untracked directory the perf benchmarks write their results into; no
#: result file is tracked.  Reference numbers come from the benchmark that
#: ``BENCHMARK.json`` declares.
RESULTS_DIR = Path(__file__).resolve().parent.parent / ".benchmarks"


def write_result(filename: str, results: dict) -> Path:
    """Write *results* as ``RESULTS_DIR/filename`` and return the path."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / filename
    path.write_text(json.dumps(results, indent=2) + "\n")
    return path


def run_once(benchmark, fn, *args, **kwargs):
    """Run *fn* exactly once under pytest-benchmark and return its result."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
