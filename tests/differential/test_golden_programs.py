"""Differential: the Fig. 9 grid compiles to the pinned programs, byte for byte.

``golden_fig09_programs.json`` holds, for each of the 110 Fig. 9 points
(22 benchmarks x 5 strategies, device and circuit seed 2020), the sha256 of
the compiled result's canonical JSON with the wall-clock ``compile_time_s``
removed.  The digests were written by the compile pipeline that predates
the single shared ``compile()`` body, so this test pins that refactor —
strategy names, metadata keys, frequencies, durations and color counts —
against the output of the code it replaced.

Regenerate (only for a deliberate change of compiled output) from the
repository root with::

    PYTHONPATH=src:tests/differential python -m test_golden_programs
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict

import pytest

GOLDEN_FILE = Path(__file__).resolve().parent / "golden_fig09_programs.json"
GRID_SEED = 2020


def canonical_digest(result) -> str:
    """sha256 of the result's sorted-key JSON, ``compile_time_s`` stripped."""
    payload = result.to_dict()
    payload.pop("compile_time_s")
    payload["program"]["metadata"].pop("compile_time_s", None)
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def fig09_digests() -> Dict[str, str]:
    """Digest of every Fig. 9 point, keyed ``"<benchmark>|<strategy>"``.

    Every strategy of a benchmark compiles on one shared device, as in a
    sweep, so the device-held prepare memo is exercised along the way.
    """
    from repro.analysis.experiments import STRATEGIES
    from repro.service import make_compiler
    from repro.service.compile_service import build_device_for
    from repro.workloads import benchmark_circuit, fig09_benchmarks

    digests: Dict[str, str] = {}
    for benchmark in fig09_benchmarks():
        device = build_device_for(benchmark, seed=GRID_SEED)
        circuit = benchmark_circuit(benchmark, seed=GRID_SEED)
        for strategy in STRATEGIES:
            result = make_compiler(strategy, device).compile(circuit)
            digests[f"{benchmark}|{strategy}"] = canonical_digest(result)
    return digests


@pytest.mark.differential
def test_fig09_grid_matches_golden_digests():
    golden = json.loads(GOLDEN_FILE.read_text())
    assert golden["seed"] == GRID_SEED
    expected = golden["digests"]
    actual = fig09_digests()
    assert len(expected) == 110
    assert sorted(actual) == sorted(expected)
    diverged = [point for point in expected if actual[point] != expected[point]]
    assert not diverged, f"{len(diverged)} Fig. 9 programs changed: {diverged[:5]}"


if __name__ == "__main__":
    GOLDEN_FILE.write_text(
        json.dumps({"seed": GRID_SEED, "digests": fig09_digests()}, indent=1) + "\n"
    )
