"""Circuit intermediate representation, decomposition, scheduling and routing.

This subpackage is the Qiskit substitute used throughout the reproduction:
a small, self-contained circuit IR with the gate vocabulary, moment slicing,
dependency analysis, native-gate decomposition and SWAP routing needed by
the frequency-aware compiler and its baselines.
"""

from .gates import (
    Gate,
    GateSpec,
    GATE_REGISTRY,
    gate_spec,
    is_native,
    is_two_qubit,
    NATIVE_TWO_QUBIT_GATES,
    SINGLE_QUBIT_GATE_TIME_NS,
    TWO_QUBIT_GATE_TIME_NS,
    CR_GATE_TIME_NS,
    MEASUREMENT_TIME_NS,
)
from .circuit import Circuit, Moment
from .dag import GateTable
from .decompose import decompose_circuit, decompose_gate, STRATEGIES
from .routing import RoutedCircuit, initial_layout, route_circuit
from .qasm import to_qasm, from_qasm

__all__ = [
    "Gate",
    "GateSpec",
    "GATE_REGISTRY",
    "gate_spec",
    "is_native",
    "is_two_qubit",
    "NATIVE_TWO_QUBIT_GATES",
    "SINGLE_QUBIT_GATE_TIME_NS",
    "TWO_QUBIT_GATE_TIME_NS",
    "CR_GATE_TIME_NS",
    "MEASUREMENT_TIME_NS",
    "Circuit",
    "Moment",
    "GateTable",
    "decompose_circuit",
    "decompose_gate",
    "STRATEGIES",
    "RoutedCircuit",
    "initial_layout",
    "route_circuit",
    "to_qasm",
    "from_qasm",
]
