"""Differential: pinned compiled programs, byte for byte.

``golden_fig09_programs.json`` holds, for each of the 110 Fig. 9 points
(22 benchmarks x 5 strategies, device and circuit seed 2020), the sha256 of
the compiled result's decoded content (:func:`canonical_digest`) with the
wall-clock ``compile_time_s`` removed.  The digest reads the schedule as
:class:`~repro.program.TimeStep` objects, never the stored columnar block,
so it pins what was compiled — strategy names, metadata keys, frequencies,
durations and color counts — independently of the program codec: a codec
change that round-trips bit-exactly leaves every digest unchanged.

``golden_fig13_programs.json`` pins the 100 Fig. 13 points (5 benchmarks x
10 topologies x 2 strategies) the same way, and
``golden_graph_paths.json`` pins programs whose graph work the Fig. 9 grid
never reaches: the line-graph edge coloring behind Baseline G's tiling and
the XEB patterns on non-grid connectivities, Baseline S on non-grid
devices, the Erdős–Rényi problem graphs of QAOA, and multi-hop SWAP
routing.  The programs both files pin were first recorded while every
graph in ``src/`` was still a networkx graph, so they pin the in-tree
graph code to networkx's orders.

Two more files pin what the oracle compilers cannot check on their own,
because they share the pipeline's frequency annotation and program
emission: ``golden_fig11_programs.json`` holds the 32 Fig. 11 points
(8 benchmarks x 4 color budgets, ColorDynamic), which run the scheduler's
``max_colors`` bitset probe, and ``golden_success_programs.json`` a
35-point slice of the Fig. 9 grid (7 benchmarks x 5 strategies) compiled
with ``admission="success"``, including Baseline G's active couplers.

Regenerate (only for a deliberate change of compiled output) from the
repository root with::

    PYTHONPATH=src:tests/differential python -m test_golden_programs

The command rewrites all five files; CI runs it and fails if the committed
files change, so the regeneration path cannot go stale.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Iterator, Tuple

import pytest

GOLDEN_FILE = Path(__file__).resolve().parent / "golden_fig09_programs.json"
GOLDEN_FIG13_FILE = GOLDEN_FILE.with_name("golden_fig13_programs.json")
GOLDEN_PATHS_FILE = GOLDEN_FILE.with_name("golden_graph_paths.json")
GOLDEN_FIG11_FILE = GOLDEN_FILE.with_name("golden_fig11_programs.json")
GOLDEN_SUCCESS_FILE = GOLDEN_FILE.with_name("golden_success_programs.json")
#: The Fig. 9 benchmarks of the success-admission slice: on each, at least
#: one strategy admits differently from the structural policy.
SUCCESS_BENCHMARKS = (
    "bv(9)", "qaoa(9)", "ising(4)", "qgan(9)", "xeb(9,5)", "xeb(16,5)", "xeb(16,10)",
)
GRID_SEED = 2020


def canonical_digest(result) -> str:
    """sha256 of a result's decoded content, ``compile_time_s`` stripped.

    Hashes the non-schedule fields of the result and its program (device,
    name, strategy, idle frequencies, metadata, color counts, separations)
    plus, for every :class:`~repro.program.TimeStep`, its gates, its
    frequencies in qubit order, its interactions, its duration and its
    active couplers.  Floats go through ``repr`` (JSON), so ``-0.0`` and
    ``0.0`` hash differently: the digest is bit-exact.
    """
    payload = result.to_dict()
    payload.pop("compile_time_s")
    program = payload["program"]
    for codec_field in ("codec_version", "steps"):
        program.pop(codec_field)
    program["metadata"].pop("compile_time_s", None)
    program["schedule"] = [
        {
            "gates": [[g.name, list(g.qubits), list(g.params)] for g in step.gates],
            "frequencies": sorted(step.frequencies.items()),
            "interactions": [[list(i.pair), i.gate_name, i.frequency] for i in step.interactions],
            "duration_ns": step.duration_ns,
            "active_couplers": (
                None if step.active_couplers is None else sorted(step.active_couplers)
            ),
        }
        for step in result.program.steps
    ]
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def fig09_results() -> Iterator[Tuple[str, object]]:
    """Every Fig. 9 point's compilation result, keyed ``"<benchmark>|<strategy>"``.

    Every strategy of a benchmark compiles on one shared device, as in a
    sweep, so the device-held prepare memo is exercised along the way.
    """
    from repro.analysis.experiments import STRATEGIES
    from repro.service import make_compiler
    from repro.service.compile_service import build_device_for
    from repro.workloads import benchmark_circuit, fig09_benchmarks

    for benchmark in fig09_benchmarks():
        device = build_device_for(benchmark, seed=GRID_SEED)
        circuit = benchmark_circuit(benchmark, seed=GRID_SEED)
        for strategy in STRATEGIES:
            yield f"{benchmark}|{strategy}", make_compiler(strategy, device).compile(circuit)


def fig13_results() -> Iterator[Tuple[str, object]]:
    """Every Fig. 13 point, keyed ``"<benchmark>|<topology>|<strategy>"``."""
    from repro.analysis.experiments import FIG13_STRATEGIES
    from repro.devices.topologies import FIG13_TOPOLOGY_NAMES
    from repro.service import make_compiler
    from repro.service.compile_service import build_device_for
    from repro.workloads import benchmark_circuit, fig13_benchmarks

    for benchmark in fig13_benchmarks():
        circuit = benchmark_circuit(benchmark, seed=GRID_SEED)
        for topology in FIG13_TOPOLOGY_NAMES:
            device = build_device_for(benchmark, topology=topology, seed=GRID_SEED)
            for strategy in FIG13_STRATEGIES:
                result = make_compiler(strategy, device).compile(circuit)
                yield f"{benchmark}|{topology}|{strategy}", result


def fig11_results() -> Iterator[Tuple[str, object]]:
    """Every Fig. 11 point, keyed ``"<benchmark>|max_colors=<k>"``."""
    from repro.analysis.experiments import FIG11_COLOR_BUDGETS
    from repro.service import make_compiler
    from repro.service.compile_service import build_device_for
    from repro.workloads import benchmark_circuit, fig11_benchmarks

    for benchmark in fig11_benchmarks():
        device = build_device_for(benchmark, seed=GRID_SEED)
        circuit = benchmark_circuit(benchmark, seed=GRID_SEED)
        for budget in FIG11_COLOR_BUDGETS:
            result = make_compiler("ColorDynamic", device, budget).compile(circuit)
            yield f"{benchmark}|max_colors={budget}", result


def success_results() -> Iterator[Tuple[str, object]]:
    """Each success-admission point, keyed ``"<benchmark>|<strategy>"``."""
    from repro.analysis.experiments import STRATEGIES
    from repro.service import make_compiler
    from repro.service.compile_service import build_device_for
    from repro.workloads import benchmark_circuit

    for benchmark in SUCCESS_BENCHMARKS:
        device = build_device_for(benchmark, seed=GRID_SEED)
        circuit = benchmark_circuit(benchmark, seed=GRID_SEED)
        for strategy in STRATEGIES:
            compiler = make_compiler(strategy, device, admission="success")
            yield f"{benchmark}|{strategy}", compiler.compile(circuit)


def fig09_digests() -> Dict[str, str]:
    return {key: canonical_digest(result) for key, result in fig09_results()}


def fig13_digests() -> Dict[str, str]:
    return {key: canonical_digest(result) for key, result in fig13_results()}


def fig11_digests() -> Dict[str, str]:
    return {key: canonical_digest(result) for key, result in fig11_results()}


def success_digests() -> Dict[str, str]:
    return {key: canonical_digest(result) for key, result in success_results()}


def graph_path_digests() -> Dict[str, str]:
    """Digests of programs that exercise the graph code the Fig. 9 grid skips."""
    from repro.circuits import Circuit
    from repro.devices import Device
    from repro.devices.topologies import express_1d, heavy_hex_graph, linear_graph, ring_graph
    from repro.service import make_compiler
    from repro.service.compile_service import build_device_for
    from repro.workloads import benchmark_circuit
    from repro.workloads.qaoa import qaoa_maxcut
    from repro.workloads.xeb import xeb_circuit

    digests: Dict[str, str] = {}

    def pin(key, strategy, device, circuit):
        digests[key] = canonical_digest(make_compiler(strategy, device).compile(circuit))

    # Baseline G tiles by a line-graph edge coloring wherever the device is
    # not a square mesh; Baseline S colors the whole crosstalk graph.
    for topology in ("linear", "ring", "1EX-3", "2EX-2", "heavy-hex", "all-to-all"):
        for benchmark in ("bv(9)", "ising(4)", "xeb(16,1)"):
            device = build_device_for(benchmark, topology=topology, seed=GRID_SEED)
            circuit = benchmark_circuit(benchmark, seed=GRID_SEED)
            for strategy in ("Baseline G", "Baseline S"):
                pin(f"nongrid|{topology}|{benchmark}|{strategy}", strategy, device, circuit)

    # XEB patterns from the greedy edge coloring of a non-grid coupling graph.
    for label, graph, cycles in (
        ("path-6", linear_graph(6), 2),
        ("ring-6", ring_graph(6), 2),
        ("1EX-3-8", express_1d(8, 3), 3),
        ("heavy-hex-2", heavy_hex_graph(2), 2),
    ):
        device = Device.from_graph(graph, seed=GRID_SEED)
        circuit = xeb_circuit(
            graph.number_of_nodes(), cycles, seed=GRID_SEED, coupling_graph=graph
        )
        for strategy in ("ColorDynamic", "Baseline G"):
            pin(f"xeb-fallback|{label}|{strategy}", strategy, device, circuit)

    # QAOA problem graphs replay the G(n, p) draws of random.Random(seed).
    for n in (4, 9, 16):
        device = Device.grid(n, seed=GRID_SEED)
        for seed in range(10):
            pin(f"qaoa|{n}|seed={seed}", "ColorDynamic", device, qaoa_maxcut(n, seed=seed))
        for p in (0.0, 1.0):
            circuit = qaoa_maxcut(n, edge_probability=p, seed=3)
            pin(f"qaoa|{n}|p={p}", "ColorDynamic", device, circuit)

    # Far-apart two-qubit gates: SWAP chains along multi-hop shortest paths.
    circuit = Circuit(9, name="far").h(0).cz(0, 8).cz(1, 7).cz(2, 6).cz(0, 4).cz(3, 8)
    for topology in ("linear", "1EX-3", "heavy-hex"):
        device = build_device_for("bv(9)", topology=topology, seed=GRID_SEED)
        for strategy in ("ColorDynamic", "Baseline N", "Baseline G"):
            pin(f"routed|{topology}|{strategy}", strategy, device, circuit)
    return digests


def _assert_matches(golden_file: Path, actual: Dict[str, str], count: int, what: str) -> None:
    golden = json.loads(golden_file.read_text())
    assert golden["seed"] == GRID_SEED
    expected = golden["digests"]
    assert len(expected) == count
    assert sorted(actual) == sorted(expected)
    diverged = [point for point in expected if actual[point] != expected[point]]
    assert not diverged, f"{len(diverged)} {what} programs changed: {diverged[:5]}"


@pytest.mark.differential
def test_fig13_grid_matches_golden_digests():
    _assert_matches(GOLDEN_FIG13_FILE, fig13_digests(), 100, "Fig. 13")


@pytest.mark.differential
def test_graph_paths_match_golden_digests():
    _assert_matches(GOLDEN_PATHS_FILE, graph_path_digests(), 89, "graph-path")


@pytest.mark.differential
def test_fig11_grid_matches_golden_digests():
    _assert_matches(GOLDEN_FIG11_FILE, fig11_digests(), 32, "Fig. 11")


@pytest.mark.differential
def test_success_admission_slice_matches_golden_digests():
    _assert_matches(GOLDEN_SUCCESS_FILE, success_digests(), 35, "success-admission")


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
    for path, digests in (
        (GOLDEN_FILE, fig09_digests),
        (GOLDEN_FIG13_FILE, fig13_digests),
        (GOLDEN_PATHS_FILE, graph_path_digests),
        (GOLDEN_FIG11_FILE, fig11_digests),
        (GOLDEN_SUCCESS_FILE, success_digests),
    ):
        path.write_text(json.dumps({"seed": GRID_SEED, "digests": digests()}, indent=1) + "\n")
