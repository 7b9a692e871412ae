"""Differential: the columns the compile pipeline emits equal the oracle's.

The compile pipeline appends every finalized step straight into a
:class:`~repro.program.ColumnsBuilder`; :func:`oracles.from_steps` builds
the columns of a :class:`~repro.program.TimeStep` list step by step, the
formulation the program codec used before.  For every program of the
Fig. 9, Fig. 13 and Fig. 11 grids and of the success-admission slice, the
emitted columns must equal ``from_steps(program.steps, Q)`` column by
column (values bit for bit, dtype and shape), with the same name table in
the same order and the same optional columns present, and the stored JSON
must be identical apart from ``compile_time_s``.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.circuits import Circuit, GateTable
from repro.core.compiler import CompilationResult
from repro.program import ColumnsBuilder, CompiledProgram, Interaction, ProgramColumns, TimeStep

from oracles import from_steps
from test_golden_programs import fig09_results, fig11_results, fig13_results, success_results


def assert_columns_equal(emitted: ProgramColumns, expected: ProgramColumns) -> None:
    assert emitted.names == expected.names
    for name in ProgramColumns.__slots__:
        if name == "names":
            continue
        actual, reference = getattr(emitted, name), getattr(expected, name)
        if reference is None:
            assert actual is None, name
            continue
        assert isinstance(actual, np.ndarray), name
        assert (actual.dtype, actual.shape) == (reference.dtype, reference.shape), name
        assert actual.tobytes() == reference.tobytes(), name


def _json_without_compile_time(result: CompilationResult) -> str:
    payload = result.to_dict()
    payload.pop("compile_time_s")
    payload["program"]["metadata"].pop("compile_time_s", None)
    return json.dumps(payload, sort_keys=True)


def assert_emission_matches_oracle(result: CompilationResult) -> None:
    program = result.program
    expected = from_steps(program.steps, program.device.num_qubits)
    assert_columns_equal(program.columns, expected)
    rebuilt = CompilationResult(
        program=CompiledProgram(
            device=program.device,
            columns=expected,
            name=program.name,
            strategy=program.strategy,
            idle_frequencies=dict(program.idle_frequencies),
            metadata=dict(program.metadata, compile_time_s=0.0),
        ),
        compile_time_s=0.0,
        max_colors_used=result.max_colors_used,
        colors_per_step=result.colors_per_step,
        separations=result.separations,
    )
    assert _json_without_compile_time(result) == _json_without_compile_time(rebuilt)


@pytest.mark.differential
@pytest.mark.parametrize(
    "grid, count",
    [(fig09_results, 110), (fig13_results, 100), (fig11_results, 32), (success_results, 35)],
    ids=["fig09", "fig13", "fig11", "success"],
)
def test_emitted_columns_match_oracle(grid, count):
    points = 0
    for key, result in grid():
        try:
            assert_emission_matches_oracle(result)
        except AssertionError as error:
            raise AssertionError(f"{key}: {error}") from error
        points += 1
    assert points == count


@pytest.mark.differential
def test_hand_built_steps_match_oracle():
    """Signed zeros stay apart, partial rows get a presence mask, and
    fixed-coupler and gmon steps mix, exactly as the oracle lays them out."""
    circuit = Circuit(4).h(0).cz(0, 1).rz(0.5, 2).iswap(2, 3)
    gates = circuit.gates
    frequencies = {q: 5.0 for q in range(4)}
    steps = [
        TimeStep(gates=[gates[0]], frequencies={0: 0.0, 1: 5.0, 2: 5.0}, duration_ns=25.0),
        TimeStep(
            gates=[gates[1], gates[2]],
            frequencies={0: -0.0, 1: 5.0, 2: 5.0, 3: 5.0},
            interactions=[Interaction((0, 1), "cz", -0.0)],
            duration_ns=50.0,
            active_couplers={(0, 1)},
        ),
        TimeStep(
            gates=[gates[3]],
            frequencies=dict(frequencies),
            interactions=[Interaction((2, 3), "iswap", 0.0)],
            duration_ns=-0.0,
        ),
        TimeStep(frequencies={0: 0.0, 1: 5.0, 2: 5.0}, duration_ns=10.0, active_couplers=set()),
    ]
    builder = ColumnsBuilder(4)
    for step, indices, interacting in (
        (steps[0], [0], []),
        (steps[1], [1, 2], [1]),
        (steps[2], [3], [3]),
        (steps[3], [], []),
    ):
        builder.add_step(
            indices,
            interacting,
            [interaction.frequency for interaction in step.interactions],
            builder.add_row(step.frequencies),
            step.duration_ns,
            step.active_couplers,
        )
    columns = builder.build(GateTable(circuit))
    expected = from_steps(steps, 4)
    assert_columns_equal(columns, expected)
    assert columns.frequency_index.tolist() == [0, 1, 2, 0]
    assert columns.present is not None and columns.coupler_steps is not None
    restored = columns.to_steps()
    assert [math.copysign(1.0, s.frequencies[0]) for s in restored] == [1.0, -1.0, 1.0, 1.0]
    assert math.copysign(1.0, restored[1].interactions[0].frequency) == -1.0
    assert math.copysign(1.0, restored[2].duration_ns) == -1.0
