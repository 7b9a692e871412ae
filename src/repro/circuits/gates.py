"""Gate library for the frequency-aware compilation toolchain.

The paper targets flux-tunable transmon hardware whose *native* two-qubit
gates are ``iSWAP``, ``sqrt_iswap`` and ``CZ`` (implemented by bringing two
qubits on resonance), plus arbitrary single-qubit rotations driven through the
microwave line.  Program-level gates such as ``CNOT`` and ``SWAP`` are not
native and must be decomposed (see :mod:`repro.circuits.decompose`).

This module defines:

* :class:`GateSpec` — static description of a named gate (arity, unitary,
  whether it is native to the tunable-transmon architecture, nominal
  duration).
* :class:`Gate` — a gate *instance* applied to concrete qubits at some moment
  in a circuit, optionally carrying rotation parameters.
* A registry of the named gates used throughout the paper and its benchmark
  suite.

Durations follow Appendix C of the paper: single-qubit gates ~25 ns,
flux-driven Rz effectively free (virtual-Z / fast flux), native two-qubit
gates ~50 ns at the nominal 30 MHz coupling, and the fixed-frequency
cross-resonance (CR) gate ~160 ns (used only for context in comparisons).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "GateSpec",
    "Gate",
    "GATE_REGISTRY",
    "gate_spec",
    "is_two_qubit",
    "is_native",
    "NATIVE_TWO_QUBIT_GATES",
    "SINGLE_QUBIT_GATE_TIME_NS",
    "TWO_QUBIT_GATE_TIME_NS",
    "CR_GATE_TIME_NS",
    "MEASUREMENT_TIME_NS",
]

# Nominal gate durations in nanoseconds (Appendix C and [29] in the paper).
SINGLE_QUBIT_GATE_TIME_NS: float = 25.0
TWO_QUBIT_GATE_TIME_NS: float = 50.0
CR_GATE_TIME_NS: float = 160.0
MEASUREMENT_TIME_NS: float = 300.0

# Two-qubit gates that the tunable-transmon architecture implements directly
# by tuning a pair of qubits on resonance.
NATIVE_TWO_QUBIT_GATES: frozenset = frozenset({"cz", "iswap", "sqrt_iswap"})


def _u(matrix: Sequence[Sequence[complex]]) -> np.ndarray:
    return np.array(matrix, dtype=complex)


def _rx(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return _u([[c, -1j * s], [-1j * s, c]])


def _ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return _u([[c, -s], [s, c]])


def _rz(theta: float) -> np.ndarray:
    return _u([[cmath.exp(-1j * theta / 2.0), 0], [0, cmath.exp(1j * theta / 2.0)]])


def _rzz(theta: float) -> np.ndarray:
    e_m = cmath.exp(-1j * theta / 2.0)
    e_p = cmath.exp(1j * theta / 2.0)
    return np.diag([e_m, e_p, e_p, e_m])


def _crz(theta: float) -> np.ndarray:
    return np.diag([1, 1, cmath.exp(-1j * theta / 2.0), cmath.exp(1j * theta / 2.0)])


def _cphase(theta: float) -> np.ndarray:
    return np.diag([1, 1, 1, cmath.exp(1j * theta)])


_I2 = _u([[1, 0], [0, 1]])
_X = _u([[0, 1], [1, 0]])
_Y = _u([[0, -1j], [1j, 0]])
_Z = _u([[1, 0], [0, -1]])
_H = _u([[1, 1], [1, -1]]) / math.sqrt(2.0)
_S = _u([[1, 0], [0, 1j]])
_SDG = _u([[1, 0], [0, -1j]])
_T = _u([[1, 0], [0, cmath.exp(1j * math.pi / 4)]])
_TDG = _u([[1, 0], [0, cmath.exp(-1j * math.pi / 4)]])
_SX = 0.5 * _u([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])

_CNOT = _u([
    [1, 0, 0, 0],
    [0, 1, 0, 0],
    [0, 0, 0, 1],
    [0, 0, 1, 0],
])
_CZ = np.diag([1, 1, 1, -1]).astype(complex)
_SWAP = _u([
    [1, 0, 0, 0],
    [0, 0, 1, 0],
    [0, 1, 0, 0],
    [0, 0, 0, 1],
])
_ISWAP = _u([
    [1, 0, 0, 0],
    [0, 0, -1j, 0],
    [0, -1j, 0, 0],
    [0, 0, 0, 1],
])
_SQRT_ISWAP = _u([
    [1, 0, 0, 0],
    [0, 1 / math.sqrt(2), -1j / math.sqrt(2), 0],
    [0, -1j / math.sqrt(2), 1 / math.sqrt(2), 0],
    [0, 0, 0, 1],
])


@dataclass(frozen=True)
class GateSpec:
    """Static description of a named quantum gate.

    Attributes
    ----------
    name:
        Canonical lowercase gate name (e.g. ``"cz"``, ``"rx"``).
    num_qubits:
        Gate arity (1 or 2 for everything in this library).
    native:
        ``True`` if the tunable-transmon architecture can execute the gate
        directly without decomposition.
    duration_ns:
        Nominal duration at the reference coupling strength; the actual
        duration of a resonance gate depends on the interaction frequency
        chosen by the compiler (see :mod:`repro.noise.crosstalk`).
    num_params:
        Number of real rotation parameters the gate accepts.
    unitary_fn:
        Callable mapping the parameter tuple to a unitary matrix.  ``None``
        for non-unitary operations (measurement, barrier).
    interaction:
        ``True`` for two-qubit gates realised by frequency resonance, i.e.
        gates that occupy an interaction frequency and participate in the
        crosstalk graph.
    """

    name: str
    num_qubits: int
    native: bool
    duration_ns: float
    num_params: int = 0
    unitary_fn: Optional[Callable[..., np.ndarray]] = None
    interaction: bool = False

    def unitary(self, params: Sequence[float] = ()) -> np.ndarray:
        """Return the gate unitary for the given parameters."""
        if self.unitary_fn is None:
            raise ValueError(f"gate {self.name!r} has no unitary representation")
        if len(params) != self.num_params:
            raise ValueError(
                f"gate {self.name!r} expects {self.num_params} parameter(s), "
                f"got {len(params)}"
            )
        return self.unitary_fn(*params)


def _const(matrix: np.ndarray) -> Callable[..., np.ndarray]:
    def produce() -> np.ndarray:
        return matrix.copy()

    return produce


GATE_REGISTRY: Dict[str, GateSpec] = {}


def _register(spec: GateSpec) -> GateSpec:
    GATE_REGISTRY[spec.name] = spec
    return spec


# --- single-qubit gates -----------------------------------------------------
_register(GateSpec("id", 1, True, 0.0, 0, _const(_I2)))
_register(GateSpec("x", 1, True, SINGLE_QUBIT_GATE_TIME_NS, 0, _const(_X)))
_register(GateSpec("y", 1, True, SINGLE_QUBIT_GATE_TIME_NS, 0, _const(_Y)))
_register(GateSpec("z", 1, True, 0.0, 0, _const(_Z)))
_register(GateSpec("h", 1, True, SINGLE_QUBIT_GATE_TIME_NS, 0, _const(_H)))
_register(GateSpec("s", 1, True, 0.0, 0, _const(_S)))
_register(GateSpec("sdg", 1, True, 0.0, 0, _const(_SDG)))
_register(GateSpec("t", 1, True, 0.0, 0, _const(_T)))
_register(GateSpec("tdg", 1, True, 0.0, 0, _const(_TDG)))
_register(GateSpec("sx", 1, True, SINGLE_QUBIT_GATE_TIME_NS, 0, _const(_SX)))
_register(GateSpec("rx", 1, True, SINGLE_QUBIT_GATE_TIME_NS, 1, _rx))
_register(GateSpec("ry", 1, True, SINGLE_QUBIT_GATE_TIME_NS, 1, _ry))
# Rz is a flux/virtual-Z gate: effectively instantaneous on tunable hardware.
_register(GateSpec("rz", 1, True, 0.0, 1, _rz))

# --- two-qubit gates --------------------------------------------------------
_register(
    GateSpec("cz", 2, True, TWO_QUBIT_GATE_TIME_NS, 0, _const(_CZ), interaction=True)
)
_register(
    GateSpec(
        "iswap", 2, True, TWO_QUBIT_GATE_TIME_NS, 0, _const(_ISWAP), interaction=True
    )
)
_register(
    GateSpec(
        "sqrt_iswap",
        2,
        True,
        TWO_QUBIT_GATE_TIME_NS / 2.0,
        0,
        _const(_SQRT_ISWAP),
        interaction=True,
    )
)
_register(
    GateSpec("cx", 2, False, CR_GATE_TIME_NS, 0, _const(_CNOT), interaction=True)
)
_register(
    GateSpec(
        "swap", 2, False, 3 * TWO_QUBIT_GATE_TIME_NS, 0, _const(_SWAP), interaction=True
    )
)
_register(
    GateSpec(
        "rzz", 2, False, TWO_QUBIT_GATE_TIME_NS, 1, _rzz, interaction=True
    )
)
_register(
    GateSpec("crz", 2, False, TWO_QUBIT_GATE_TIME_NS, 1, _crz, interaction=True)
)
_register(
    GateSpec(
        "cphase", 2, False, TWO_QUBIT_GATE_TIME_NS, 1, _cphase, interaction=True
    )
)

# --- non-unitary operations -------------------------------------------------
_register(GateSpec("measure", 1, True, MEASUREMENT_TIME_NS, 0, None))
_register(GateSpec("barrier", 1, True, 0.0, 0, None))


def gate_spec(name: str) -> GateSpec:
    """Look up a gate specification by (case-insensitive) name."""
    key = name.lower()
    if key not in GATE_REGISTRY:
        raise KeyError(f"unknown gate {name!r}; known gates: {sorted(GATE_REGISTRY)}")
    return GATE_REGISTRY[key]


def is_two_qubit(name: str) -> bool:
    """Return ``True`` when *name* denotes a two-qubit gate."""
    return gate_spec(name).num_qubits == 2


def is_native(name: str) -> bool:
    """Return ``True`` when the tunable-transmon hardware supports *name* directly."""
    return gate_spec(name).native


@dataclass(frozen=True)
class Gate:
    """A gate instance: a named operation applied to specific qubits.

    Parameters
    ----------
    name:
        Name of a gate registered in :data:`GATE_REGISTRY`.
    qubits:
        Tuple of qubit indices the gate acts on.  Order matters for
        controlled gates (control first).
    params:
        Rotation angles, if the gate is parameterised.
    """

    name: str
    qubits: Tuple[int, ...]
    params: Tuple[float, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        spec = gate_spec(self.name)
        object.__setattr__(self, "name", self.name.lower())
        object.__setattr__(self, "_spec", spec)
        if len(self.qubits) != spec.num_qubits:
            raise ValueError(
                f"gate {self.name!r} acts on {spec.num_qubits} qubit(s), "
                f"got qubits {self.qubits}"
            )
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"gate {self.name!r} applied to duplicate qubits {self.qubits}")
        if len(self.params) != spec.num_params:
            raise ValueError(
                f"gate {self.name!r} expects {spec.num_params} parameter(s), "
                f"got {self.params}"
            )

    @property
    def spec(self) -> GateSpec:
        # Interned at construction time (routing and decomposition test
        # every gate); gates rebuilt from a program's columns intern lazily.
        cached = getattr(self, "_spec", None)
        if cached is None:
            cached = gate_spec(self.name)
            object.__setattr__(self, "_spec", cached)
        return cached

    def __hash__(self) -> int:
        # Same value the generated dataclass hash would produce, memoized:
        # prepared-circuit caching hashes whole gate tuples per compile.
        cached = getattr(self, "_hash", None)
        if cached is None:
            cached = hash((self.name, self.qubits, self.params))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __getstate__(self):
        # Specs hold unitary closures that cannot cross process boundaries,
        # and the memoized hash bakes in this process's string-hash seed;
        # drop both and let the receiving side re-intern lazily.
        state = dict(self.__dict__)
        state.pop("_spec", None)
        state.pop("_hash", None)
        return state

    def __setstate__(self, state) -> None:
        for key, value in state.items():
            object.__setattr__(self, key, value)

    @property
    def num_qubits(self) -> int:
        return self.spec.num_qubits

    @property
    def is_two_qubit(self) -> bool:
        return self.spec.num_qubits == 2

    @property
    def is_interaction(self) -> bool:
        """``True`` when the gate needs an interaction frequency (resonance)."""
        return self.spec.interaction

    @property
    def is_native(self) -> bool:
        return self.spec.native

    @property
    def duration_ns(self) -> float:
        return self.spec.duration_ns

    def unitary(self) -> np.ndarray:
        """Return the unitary matrix of this gate instance."""
        return self.spec.unitary(self.params)

    def on(self, *qubits: int) -> "Gate":
        """Return a copy of this gate applied to different qubits."""
        return Gate(self.name, tuple(qubits), self.params)

    def to_dict(self) -> dict:
        """Plain-dict form; ``params`` omitted when empty to keep payloads small."""
        payload: dict = {"name": self.name, "qubits": list(self.qubits)}
        if self.params:
            payload["params"] = list(self.params)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "Gate":
        """Inverse of :meth:`to_dict` (validated like the constructor)."""
        return cls(
            name=str(payload["name"]),
            qubits=tuple(int(q) for q in payload["qubits"]),
            params=tuple(float(p) for p in payload.get("params", ())),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.params:
            args = ", ".join(f"{p:.4g}" for p in self.params)
            return f"{self.name}({args}) {list(self.qubits)}"
        return f"{self.name} {list(self.qubits)}"


def controlled_phase_angle(gate: Gate) -> float:
    """Return the effective controlled-phase angle of a diagonal two-qubit gate.

    Used by decomposition passes to turn ``rzz``/``crz``/``cphase`` rotations
    into native CZ-based sequences.
    """
    if gate.name == "cz":
        return math.pi
    if gate.name == "cphase":
        return gate.params[0]
    if gate.name in {"rzz", "crz"}:
        return gate.params[0]
    raise ValueError(f"gate {gate.name!r} is not a diagonal two-qubit rotation")
