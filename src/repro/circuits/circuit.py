"""Quantum circuit intermediate representation.

The :class:`Circuit` class is the container the whole toolchain operates on.
It is intentionally small and Qiskit-free: a circuit is an ordered list of
:class:`~repro.circuits.gates.Gate` instances over ``num_qubits`` qubits,
plus convenience constructors for every gate used by the paper's benchmarks.

Circuits can be sliced into *moments* (layers of gates that act on disjoint
qubits and can execute simultaneously) — the unit of work the ColorDynamic
compiler consumes — and queried for depth, gate counts and the set of active
two-qubit couplings per moment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .gates import Gate, gate_spec

__all__ = ["Circuit", "Moment"]


@dataclass
class Moment:
    """A set of gates acting on pairwise-disjoint qubits in one time step."""

    gates: List[Gate] = field(default_factory=list)

    def qubits(self) -> Set[int]:
        """Return the set of qubits touched by this moment."""
        touched: Set[int] = set()
        for gate in self.gates:
            touched.update(gate.qubits)
        return touched

    def two_qubit_gates(self) -> List[Gate]:
        """Return only the two-qubit gates of this moment."""
        return [g for g in self.gates if g.is_two_qubit]

    def couplings(self) -> List[Tuple[int, int]]:
        """Return the qubit pairs active in this moment (order-normalised)."""
        return [tuple(sorted(g.qubits)) for g in self.two_qubit_gates()]

    def can_add(self, gate: Gate) -> bool:
        """Return ``True`` if *gate* acts on qubits free in this moment."""
        return not (set(gate.qubits) & self.qubits())

    def add(self, gate: Gate) -> None:
        if not self.can_add(gate):
            raise ValueError(f"qubit conflict adding {gate!r} to moment {self!r}")
        self.gates.append(gate)

    def duration_ns(self) -> float:
        """Duration of the moment: the longest gate it contains."""
        if not self.gates:
            return 0.0
        return max(g.duration_ns for g in self.gates)

    def __len__(self) -> int:
        return len(self.gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self.gates)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Moment({self.gates!r})"


class Circuit:
    """An ordered sequence of gates over a fixed register of qubits.

    Parameters
    ----------
    num_qubits:
        Size of the qubit register.  Gate qubit indices must be in
        ``range(num_qubits)``.
    name:
        Optional human-readable name (used in reports and benchmark output).
    """

    def __init__(self, num_qubits: int, name: str = "circuit") -> None:
        if num_qubits <= 0:
            raise ValueError("a circuit needs at least one qubit")
        self.num_qubits = int(num_qubits)
        self.name = name
        self._gates: List[Gate] = []

    # ------------------------------------------------------------------
    # basic container protocol
    # ------------------------------------------------------------------
    @property
    def gates(self) -> List[Gate]:
        """The gate list (mutable; append via :meth:`append` for validation)."""
        return self._gates

    def __len__(self) -> int:
        return len(self._gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self._gates)

    def __getitem__(self, index: int) -> Gate:
        return self._gates[index]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Circuit(name={self.name!r}, num_qubits={self.num_qubits}, "
            f"num_gates={len(self._gates)})"
        )

    def copy(self, name: Optional[str] = None) -> "Circuit":
        """Return a shallow copy (gates are immutable, so sharing is safe)."""
        clone = Circuit(self.num_qubits, name or self.name)
        clone._gates = list(self._gates)
        return clone

    # ------------------------------------------------------------------
    # (de)serialization — consumed by the repro.service program store
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form: register size, name and the ordered gate list."""
        return {
            "name": self.name,
            "num_qubits": self.num_qubits,
            "gates": [gate.to_dict() for gate in self._gates],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Circuit":
        """Inverse of :meth:`to_dict`."""
        circuit = cls(int(payload["num_qubits"]), name=str(payload["name"]))
        circuit.extend(Gate.from_dict(g) for g in payload["gates"])
        return circuit

    # ------------------------------------------------------------------
    # gate insertion
    # ------------------------------------------------------------------
    def append(self, gate: Gate) -> "Circuit":
        """Append a validated gate instance and return ``self`` for chaining."""
        for q in gate.qubits:
            if not 0 <= q < self.num_qubits:
                raise ValueError(
                    f"gate {gate!r} addresses qubit {q} outside register of "
                    f"size {self.num_qubits}"
                )
        self._gates.append(gate)
        return self

    def add(self, name: str, *qubits: int, params: Sequence[float] = ()) -> "Circuit":
        """Append a gate by name; convenience wrapper over :meth:`append`."""
        return self.append(Gate(name, tuple(qubits), tuple(params)))

    def extend(self, gates: Iterable[Gate]) -> "Circuit":
        for gate in gates:
            self.append(gate)
        return self

    # Named helpers used heavily by the workload generators -----------------
    def h(self, qubit: int) -> "Circuit":
        return self.add("h", qubit)

    def x(self, qubit: int) -> "Circuit":
        return self.add("x", qubit)

    def y(self, qubit: int) -> "Circuit":
        return self.add("y", qubit)

    def z(self, qubit: int) -> "Circuit":
        return self.add("z", qubit)

    def s(self, qubit: int) -> "Circuit":
        return self.add("s", qubit)

    def t(self, qubit: int) -> "Circuit":
        return self.add("t", qubit)

    def sx(self, qubit: int) -> "Circuit":
        return self.add("sx", qubit)

    def rx(self, theta: float, qubit: int) -> "Circuit":
        return self.add("rx", qubit, params=(theta,))

    def ry(self, theta: float, qubit: int) -> "Circuit":
        return self.add("ry", qubit, params=(theta,))

    def rz(self, theta: float, qubit: int) -> "Circuit":
        return self.add("rz", qubit, params=(theta,))

    def cx(self, control: int, target: int) -> "Circuit":
        return self.add("cx", control, target)

    def cz(self, a: int, b: int) -> "Circuit":
        return self.add("cz", a, b)

    def swap(self, a: int, b: int) -> "Circuit":
        return self.add("swap", a, b)

    def iswap(self, a: int, b: int) -> "Circuit":
        return self.add("iswap", a, b)

    def sqrt_iswap(self, a: int, b: int) -> "Circuit":
        return self.add("sqrt_iswap", a, b)

    def rzz(self, theta: float, a: int, b: int) -> "Circuit":
        return self.add("rzz", a, b, params=(theta,))

    def cphase(self, theta: float, a: int, b: int) -> "Circuit":
        return self.add("cphase", a, b, params=(theta,))

    def measure(self, qubit: int) -> "Circuit":
        return self.add("measure", qubit)

    def measure_all(self) -> "Circuit":
        for q in range(self.num_qubits):
            self.measure(q)
        return self

    # ------------------------------------------------------------------
    # structural queries
    # ------------------------------------------------------------------
    def gate_counts(self) -> Dict[str, int]:
        """Return a histogram of gate names."""
        counts: Dict[str, int] = {}
        for gate in self._gates:
            counts[gate.name] = counts.get(gate.name, 0) + 1
        return counts

    def num_two_qubit_gates(self) -> int:
        return sum(1 for g in self._gates if g.is_two_qubit)

    def num_single_qubit_gates(self) -> int:
        return sum(1 for g in self._gates if g.num_qubits == 1 and g.name != "measure")

    def unitary_gates(self) -> List[Gate]:
        """Return the gates with a unitary action (excludes measure/barrier)."""
        return [g for g in self._gates if gate_spec(g.name).unitary_fn is not None]

    def used_qubits(self) -> Set[int]:
        used: Set[int] = set()
        for gate in self._gates:
            used.update(gate.qubits)
        return used

    def couplings(self) -> Set[Tuple[int, int]]:
        """Return all qubit pairs touched by any two-qubit gate in the circuit."""
        return {tuple(sorted(g.qubits)) for g in self._gates if g.is_two_qubit}

    # ------------------------------------------------------------------
    # scheduling views
    # ------------------------------------------------------------------
    def moments(self) -> List[Moment]:
        """Slice the circuit into ASAP moments (greedy layering).

        A gate is placed in the earliest moment after the last moment that
        touches any of its qubits — the standard as-soon-as-possible
        scheduling used by the paper when it speaks of circuit "layers" or
        "time steps".  Zero-duration bookkeeping operations (barriers) still
        occupy their qubits so they order surrounding gates.
        """
        moments: List[Moment] = []
        frontier: Dict[int, int] = {}
        for gate in self._gates:
            earliest = 0
            for q in gate.qubits:
                earliest = max(earliest, frontier.get(q, 0))
            while len(moments) <= earliest:
                moments.append(Moment())
            moments[earliest].add(gate)
            for q in gate.qubits:
                frontier[q] = earliest + 1
        return moments

    def depth(self) -> int:
        """Circuit depth = number of ASAP moments."""
        return len(self.moments())

    def duration_ns(self) -> float:
        """Nominal wall-clock duration: sum of ASAP moment durations."""
        return sum(m.duration_ns() for m in self.moments())

    def parallelism(self) -> float:
        """Average number of gates per moment (a crude parallelism measure)."""
        moments = self.moments()
        if not moments:
            return 0.0
        return len(self._gates) / len(moments)

    # ------------------------------------------------------------------
    # composition
    # ------------------------------------------------------------------
    def compose(self, other: "Circuit") -> "Circuit":
        """Append another circuit's gates (register sizes must be compatible)."""
        if other.num_qubits > self.num_qubits:
            raise ValueError(
                "cannot compose a larger circuit "
                f"({other.num_qubits} qubits) onto {self.num_qubits} qubits"
            )
        for gate in other:
            self.append(gate)
        return self

    def remap(self, mapping: Dict[int, int], num_qubits: Optional[int] = None) -> "Circuit":
        """Return a new circuit with qubit indices relabelled through *mapping*."""
        target_size = num_qubits if num_qubits is not None else self.num_qubits
        remapped = Circuit(target_size, self.name)
        for gate in self._gates:
            new_qubits = tuple(mapping[q] for q in gate.qubits)
            remapped.append(Gate(gate.name, new_qubits, gate.params))
        return remapped
