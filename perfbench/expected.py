"""Expected Fig. 9 outcomes, computed on the reference paths only.

Every grid point (benchmark x strategy, grid seed 2020) is compiled with
``make_compiler(..., indexed_kernels=False)`` and scored with
``estimate_success(..., vectorized=False)`` -- never through the service,
the store, the indexed kernels or the vectorized estimator the benchmark
times.  The benchmark compares each job against these records:

* ``depth``, ``duration_ns`` and ``max_colors`` must be equal;
* ``success_rate`` must agree to ``SUCCESS_RTOL``, the documented bound
  between the scalar and the vectorized Eq. (4) engines (they sum in a
  different order, so the last digits differ by ~2e-13).

The records are kept beside this file, so the check does not depend on the
reference knobs surviving in ``src/``.  Regenerate them from the repository
root with::

    PYTHONPATH=src python3 perfbench/expected.py
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, List, Tuple

RECORDS_FILE = Path(__file__).resolve().parent / "expected_fig09_seed2020.json"
#: Device and circuit seed of every grid point: the CLI default.
GRID_SEED = 2020
SUCCESS_RTOL = 1e-12

Record = Dict[str, float]


def grid() -> List[Tuple[str, str]]:
    """The Fig. 9 grid in sweep order: 22 benchmarks x 5 strategies."""
    from repro.analysis.experiments import STRATEGIES
    from repro.workloads import fig09_benchmarks

    return [(b, s) for b in fig09_benchmarks() for s in STRATEGIES]


def point_id(benchmark: str, strategy: str) -> str:
    return f"{benchmark}|{strategy}"


def reference_outcomes() -> Dict[str, Record]:
    from repro.noise import NoiseModel, estimate_success
    from repro.service import make_compiler
    from repro.service.compile_service import build_device_for
    from repro.workloads import benchmark_circuit

    records: Dict[str, Record] = {}
    for benchmark, strategy in grid():
        device = build_device_for(benchmark, seed=GRID_SEED)
        compiler = make_compiler(strategy, device, indexed_kernels=False)
        result = compiler.compile(benchmark_circuit(benchmark, seed=GRID_SEED))
        report = estimate_success(result.program, NoiseModel(), vectorized=False)
        records[point_id(benchmark, strategy)] = {
            "success_rate": report.success_rate,
            "depth": result.program.depth,
            "duration_ns": result.program.total_duration_ns,
            "max_colors": result.max_colors_used,
        }
    return records


def load() -> Dict[str, Record]:
    return json.loads(RECORDS_FILE.read_text())["outcomes"]


def matches(expected: Record, success_rate, depth, duration_ns, max_colors) -> bool:
    return (
        depth == expected["depth"]
        and duration_ns == expected["duration_ns"]
        and max_colors == expected["max_colors"]
        and math.isclose(success_rate, expected["success_rate"], rel_tol=SUCCESS_RTOL)
    )


if __name__ == "__main__":
    # json writes floats with repr(), so every value round-trips exactly.
    RECORDS_FILE.write_text(
        json.dumps({"seed": GRID_SEED, "outcomes": reference_outcomes()}, indent=1) + "\n"
    )
