"""Shared fixtures for the test suite."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro import Device
from repro.circuits import Circuit
from repro.service.testing import hermetic_cache_env

# The frozen reference implementations (``import oracles``) live beside the
# differential suites; unit tests anywhere under tests/ compare against them.
sys.path.insert(0, str(Path(__file__).resolve().parent / "differential"))


@pytest.fixture(scope="session", autouse=True)
def _isolated_program_cache(tmp_path_factory):
    """Run the session against a temp program store with pinned cache env."""
    with hermetic_cache_env(str(tmp_path_factory.mktemp("program-cache"))):
        yield


@pytest.fixture(scope="session")
def device4() -> Device:
    """A 2x2 grid device with a fixed seed."""
    return Device.grid(4, seed=7)


@pytest.fixture(scope="session")
def device9() -> Device:
    """A 3x3 grid device with a fixed seed."""
    return Device.grid(9, seed=7)


@pytest.fixture(scope="session")
def device16() -> Device:
    """A 4x4 grid device with a fixed seed."""
    return Device.grid(16, seed=7)


@pytest.fixture()
def bell_circuit() -> Circuit:
    """A 2-qubit Bell-state circuit."""
    circuit = Circuit(2, name="bell")
    circuit.h(0).cx(0, 1)
    return circuit


@pytest.fixture()
def ghz4_circuit() -> Circuit:
    """A 4-qubit GHZ-state circuit."""
    circuit = Circuit(4, name="ghz4")
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.cx(1, 2)
    circuit.cx(2, 3)
    return circuit
