"""Corruptions of a stored columnar program block (codec v2).

Shared by the codec and store suites: each fault mutates the ``steps``
block of a ``CompiledProgram.to_dict()`` payload in place, the way bit rot,
a torn write or a hand-edited cache file would.
"""

from __future__ import annotations

import base64

import numpy as np

from repro.program import _BUFFER_DTYPES


def read_buffer(block: dict, key: str) -> np.ndarray:
    """A writable copy of one stored buffer."""
    raw = base64.b64decode(block[key])
    return np.frombuffer(raw, dtype=_BUFFER_DTYPES[key]).copy()


def write_buffer(block: dict, key: str, array) -> None:
    raw = np.asarray(array, dtype=_BUFFER_DTYPES[key]).tobytes()
    block[key] = base64.b64encode(raw).decode("ascii")


def truncated_base64(block: dict) -> None:
    """The frequency buffer loses its last characters (invalid base64)."""
    block["frequencies"] = block["frequencies"][:-3]


def truncated_buffer(block: dict) -> None:
    """Valid base64, but the frequency buffer lost a whole value."""
    write_buffer(block, "frequencies", read_buffer(block, "frequencies")[:-1])


def short_offsets(block: dict) -> None:
    """The gate offsets array is one entry short of ``num_steps + 1``."""
    write_buffer(block, "gate_offsets", read_buffer(block, "gate_offsets")[:-1])


def descending_offsets(block: dict) -> None:
    """The gate offsets array is not monotone."""
    offsets = read_buffer(block, "gate_offsets")
    offsets[1] = offsets[-1] + 1
    write_buffer(block, "gate_offsets", offsets)


def name_id_out_of_range(block: dict) -> None:
    """A gate points one past the end of the name table."""
    ids = read_buffer(block, "gate_names")
    ids[0] = len(block["names"])
    write_buffer(block, "gate_names", ids)


def qubit_out_of_range(block: dict) -> None:
    """An interaction names a qubit the device does not have."""
    pairs = read_buffer(block, "interaction_pairs")
    pairs[0] = block["num_qubits"]
    write_buffer(block, "interaction_pairs", pairs)


FAULTS = {
    "truncated_base64": truncated_base64,
    "truncated_buffer": truncated_buffer,
    "short_offsets": short_offsets,
    "descending_offsets": descending_offsets,
    "name_id_out_of_range": name_id_out_of_range,
    "qubit_out_of_range": qubit_out_of_range,
}
