"""Compiled-program representation shared by compilers, baselines and noise models.

Every compilation strategy in this repository — ColorDynamic and the four
baselines — produces the same artefact: a :class:`CompiledProgram`, a
schedule of time steps.  Each time step records

* the gates executing in that step,
* the 0-1 frequency of **every** qubit during the step (interaction
  frequencies for qubits performing a two-qubit gate, parking/idle
  frequencies for everyone else),
* which couplings are "active" (performing an intended two-qubit gate), and
* for gmon-style hardware, which couplers are switched on.

A program holds its schedule as :class:`ProgramColumns`, a handful of
NumPy arrays (the distinct per-step frequency rows plus each step's row,
the step durations, per-step runs of gates, interactions and active
couplers).  The compile pipeline emits them step by step through a
:class:`ColumnsBuilder`, the codec stores them as raw little-endian
buffers, and the Eq. (4) estimator in :mod:`repro.noise` reads them
directly, so it is strategy-agnostic — the role the heuristic of Eq. (4)
plays in the paper.  :class:`TimeStep` objects are a view built from them.
"""

from __future__ import annotations

import base64
import functools
import math
import struct
from dataclasses import dataclass, field
from itertools import accumulate, chain
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from .circuits import Circuit, Gate, GateTable
from .circuits.gates import GATE_REGISTRY
from .devices import Device

__all__ = [
    "TimeStep",
    "CompiledProgram",
    "ColumnsBuilder",
    "Interaction",
    "ProgramColumns",
    "PROGRAM_CODEC_VERSION",
]

Coupling = Tuple[int, int]

#: Version of the CompiledProgram dict codec.  Bump whenever the serialized
#: shape changes (or whenever compilation semantics change in a way that
#: makes previously stored programs stale); the on-disk program store
#: namespaces its entries by this version, so a bump silently invalidates
#: every cached program.  Version 2 stored the schedule as the columnar
#: block of :class:`ProgramColumns`; version 3 stores each distinct
#: per-step frequency row once, plus every step's row index.
PROGRAM_CODEC_VERSION: int = 3

#: Dtype of every raw buffer in the stored columnar block (all little-endian).
_BUFFER_DTYPES: Dict[str, str] = {
    "frequency_rows": "<f8",
    "frequency_index": "<u4",
    "present": "|u1",
    "durations": "<f8",
    "gate_offsets": "<u4",
    "gate_names": "<u2",
    "gate_qubits": "<u2",
    "gate_params": "<f8",
    "interaction_offsets": "<u4",
    "interaction_pairs": "<u2",
    "interaction_names": "<u2",
    "interaction_frequencies": "<f8",
    "coupler_steps": "|u1",
    "coupler_offsets": "<u4",
    "coupler_pairs": "<u2",
}


def _freq_map_to_lists(frequencies: Mapping[int, float]) -> Dict[str, list]:
    """Encode a qubit->frequency map as parallel lists (JSON keys are strings)."""
    qubits = sorted(frequencies)
    return {"qubits": list(qubits), "values": [frequencies[q] for q in qubits]}


def _freq_map_from_lists(payload: Mapping[str, list]) -> Dict[int, float]:
    # Self-produced payload: keys are already ints, values already floats.
    return dict(zip(payload["qubits"], payload["values"]))


@dataclass(frozen=True)
class Interaction:
    """An intended two-qubit resonance happening during one time step.

    Attributes
    ----------
    pair:
        The (sorted) physical qubit pair brought on resonance.
    gate_name:
        Which native gate the resonance implements (``cz``, ``iswap``,
        ``sqrt_iswap``).
    frequency:
        The interaction frequency in GHz (the 0-1 frequency both qubits are
        tuned to for iSWAP-type gates; for CZ the 0-1 frequency of the lower
        qubit that matches the partner's 1-2 transition).
    """

    pair: Coupling
    gate_name: str
    frequency: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "pair", tuple(sorted(self.pair)))

    @staticmethod
    def presorted(pair: Coupling, gate_name: str, frequency: float) -> "Interaction":
        """Build an interaction from an already-sorted pair, skipping validation.

        For pairs sorted by construction (the compile pipeline's couplings,
        stored pairs): skips the dataclass init and ``__post_init__`` re-sort.
        """
        interaction = object.__new__(Interaction)
        attrs = interaction.__dict__
        attrs["pair"] = pair
        attrs["gate_name"] = gate_name
        attrs["frequency"] = frequency
        return interaction


@dataclass
class TimeStep:
    """One scheduler cycle: simultaneously executing gates plus frequencies."""

    gates: List[Gate] = field(default_factory=list)
    frequencies: Dict[int, float] = field(default_factory=dict)
    interactions: List[Interaction] = field(default_factory=list)
    duration_ns: float = 0.0
    active_couplers: Optional[Set[Coupling]] = None

    def qubits(self) -> Set[int]:
        """Qubits touched by a gate in this step."""
        touched: Set[int] = set()
        for gate in self.gates:
            touched.update(gate.qubits)
        return touched

    def interacting_pairs(self) -> Set[Coupling]:
        """Qubit pairs performing an intended two-qubit gate in this step."""
        return {interaction.pair for interaction in self.interactions}

    def interacting_qubits(self) -> Set[int]:
        busy: Set[int] = set()
        for interaction in self.interactions:
            busy.update(interaction.pair)
        return busy

    def coupler_is_active(self, pair: Coupling) -> bool:
        """Whether the coupler on *pair* is switched on during this step.

        Fixed-coupler hardware (``active_couplers is None``) always has every
        coupler on; gmon hardware only activates the listed couplers.
        """
        if self.active_couplers is None:
            return True
        return tuple(sorted(pair)) in self.active_couplers

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TimeStep(gates={len(self.gates)}, interactions={len(self.interactions)}, "
            f"duration={self.duration_ns:.1f}ns)"
        )


# ---------------------------------------------------------------------------
# columnar form
# ---------------------------------------------------------------------------
def _gate_shapes(names: Sequence[str], gate_names: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-name ``(arity, parameter count)`` arrays for the names gates use.

    Only names that gates use must be registered (an interaction may carry
    any name); an unregistered gate name is a ``ValueError``.
    """
    arity = np.zeros(len(names), dtype=np.int64)
    num_params = np.zeros(len(names), dtype=np.int64)
    # Not np.unique: its first call imports numpy.ma (~30 ms per process).
    for index in sorted(set(gate_names.tolist())):
        spec = GATE_REGISTRY.get(names[index])
        if spec is None:
            raise ValueError(f"stored gate name {names[index]!r} is not a registered gate")
        arity[index] = spec.num_qubits
        num_params[index] = spec.num_params
    return arity, num_params


@functools.cache
def _float_packer(count: int) -> Callable[..., bytes]:
    """``pack(*values)`` -> the raw little-endian float64 bytes of *count* values."""
    return struct.Struct(f"<{count}d").pack


def _b64(array: np.ndarray, key: str) -> str:
    raw = np.ascontiguousarray(array, dtype=_BUFFER_DTYPES[key]).tobytes()
    return base64.b64encode(raw).decode("ascii")


class _BlockReader:
    """Reads and checks the buffers of one stored columnar block."""

    def __init__(self, block: Mapping[str, object]) -> None:
        self.block = block

    def read(self, key: str, count: int) -> np.ndarray:
        text = self.block[key]
        if not isinstance(text, str):
            raise ValueError(f"buffer {key!r} is not a base64 string")
        array = np.frombuffer(base64.b64decode(text, validate=True), dtype=_BUFFER_DTYPES[key])
        if array.size != count:
            raise ValueError(f"buffer {key!r} holds {array.size} values, expected {count}")
        return array

    def offsets(self, key: str, num_steps: int) -> np.ndarray:
        offsets = self.read(key, num_steps + 1).astype(np.intp)
        if offsets[0] != 0 or np.any(np.diff(offsets) < 0):
            raise ValueError(f"buffer {key!r} is not a monotone offset array from 0")
        return offsets

    def indices(self, key: str, count: int, bound: int) -> np.ndarray:
        array = self.read(key, count)
        if count and int(array.max()) >= bound:
            raise ValueError(f"buffer {key!r} holds an index >= {bound}")
        return array

    def mask(self, key: str, count: int) -> np.ndarray:
        array = self.read(key, count)
        if count and int(array.max()) > 1:
            raise ValueError(f"buffer {key!r} is not a 0/1 mask")
        return array.view(np.bool_)


class ProgramColumns:
    """The schedule of a :class:`CompiledProgram` as columns (struct of arrays).

    With ``S`` steps, ``R`` distinct per-step frequency rows, ``Q`` device
    qubits, ``G`` gates, ``I`` interactions and ``C`` active couplers in
    total:

    * ``frequency_rows`` — ``(R, Q)`` float64, the distinct frequency rows,
      NaN where a row carries no frequency for a qubit; ``frequency_index``
      — ``(S,)``, each step's row; ``frequencies`` — the ``(S, Q)`` matrix
      ``frequency_rows[frequency_index]``; ``present`` — the ``(S, Q)``
      bool mask of the carried frequencies (exactly the non-NaN cells), or
      ``None`` when every step carries every qubit;
    * ``durations`` — ``(S,)`` float64;
    * ``gate_offsets`` — ``(S + 1,)``: step ``s`` owns gates
      ``gate_offsets[s]:gate_offsets[s + 1]``; ``gate_names`` — ``(G,)`` ids
      into ``names``; ``gate_qubits`` / ``gate_params`` — every gate's
      qubits and parameters back to back (their counts follow from the
      registered gate name);
    * ``interaction_offsets`` — ``(S + 1,)``; ``interaction_pairs`` —
      ``(I, 2)``; ``interaction_names`` — ``(I,)`` ids into ``names``;
      ``interaction_frequencies`` — ``(I,)`` float64;
    * ``coupler_steps`` — ``(S,)`` bool, the steps listing active couplers
      (gmon hardware), with ``coupler_offsets`` ``(S + 1,)`` and
      ``coupler_pairs`` ``(C, 2)``; all three ``None`` when no step lists
      any.

    ``names`` is the per-program name table, in first-appearance order.
    Integer and mask columns use the stored buffer dtypes.  Columns are
    never mutated after construction; most decoded ones are read-only views
    of the decoded buffers.  ``frequencies`` and ``present`` are derived
    from the row table and are not constructor arguments.
    """

    __slots__ = (
        "names",
        "frequency_rows",
        "frequency_index",
        "durations",
        "gate_offsets",
        "gate_names",
        "gate_qubits",
        "gate_params",
        "interaction_offsets",
        "interaction_pairs",
        "interaction_names",
        "interaction_frequencies",
        "coupler_steps",
        "coupler_offsets",
        "coupler_pairs",
        "frequencies",
        "present",
    )

    def __init__(self, **columns) -> None:
        for name in self.__slots__[:-2]:
            setattr(self, name, columns[name])
        self.frequencies = self.frequency_rows[self.frequency_index]
        absent = np.isnan(self.frequencies)
        self.present = ~absent if absent.any() else None

    @property
    def num_steps(self) -> int:
        return self.durations.shape[0]

    @property
    def num_qubits(self) -> int:
        return self.frequency_rows.shape[1]

    def presence(self) -> np.ndarray:
        """The ``(S, Q)`` bool mask of carried frequencies (never ``None``)."""
        if self.present is None:
            return np.ones(self.frequencies.shape, dtype=bool)
        return self.present

    def interaction_steps(self) -> np.ndarray:
        """``(I,)`` step index of every interaction."""
        return np.repeat(np.arange(self.num_steps), np.diff(self.interaction_offsets))

    def coupler_pair_steps(self) -> np.ndarray:
        """``(C,)`` step index of every active-coupler pair."""
        return np.repeat(np.arange(self.num_steps), np.diff(self.coupler_offsets))

    # ------------------------------------------------------------------
    # the step view
    # ------------------------------------------------------------------
    def to_steps(self) -> List[TimeStep]:
        """Materialize the :class:`TimeStep` list these columns describe.

        Built directly (no per-object validation): the columns were checked
        when decoded, or emitted by the compile pipeline.  The produced
        objects are indistinguishable (equality, hash, lazy ``_spec``
        interning) from constructor-built ones.
        """
        names = self.names
        arity, num_params = (a.tolist() for a in _gate_shapes(names, self.gate_names))
        durations = self.durations.tolist()
        # One map per distinct row, copied per step; a row's NaN cells are
        # exactly the frequencies its steps do not carry.
        rows = self.frequency_rows.tolist()
        if self.present is None:
            row_maps = [dict(enumerate(row)) for row in rows]
        else:
            row_maps = [
                {qubit: value for qubit, value in enumerate(row) if not math.isnan(value)}
                for row in rows
            ]
        frequency_index = self.frequency_index.tolist()
        gate_offsets = self.gate_offsets.tolist()
        gate_names = self.gate_names.tolist()
        qubits = self.gate_qubits.tolist()
        params = self.gate_params.tolist()
        inter_offsets = self.interaction_offsets.tolist()
        inter_pairs = [tuple(pair) for pair in self.interaction_pairs.tolist()]
        inter_names = self.interaction_names.tolist()
        inter_freqs = self.interaction_frequencies.tolist()
        gmon = self.coupler_steps is not None
        if gmon:
            coupler_steps = self.coupler_steps.tolist()
            coupler_offsets = self.coupler_offsets.tolist()
            coupler_pairs = [tuple(pair) for pair in self.coupler_pairs.tolist()]

        new = object.__new__
        presorted = Interaction.presorted
        steps: List[TimeStep] = []
        q = p = 0  # cursors into the flat qubit / parameter columns
        for s, duration in enumerate(durations):
            gates: List[Gate] = []
            for k in range(gate_offsets[s], gate_offsets[s + 1]):
                name_id = gate_names[k]
                gate = new(Gate)
                attrs = gate.__dict__
                attrs["name"] = names[name_id]
                end = q + arity[name_id]
                attrs["qubits"] = tuple(qubits[q:end])
                q = end
                end = p + num_params[name_id]
                attrs["params"] = tuple(params[p:end])
                p = end
                gates.append(gate)
            interactions = [
                presorted(inter_pairs[k], names[inter_names[k]], inter_freqs[k])
                for k in range(inter_offsets[s], inter_offsets[s + 1])
            ]
            active: Optional[Set[Coupling]] = None
            if gmon and coupler_steps[s]:
                active = set(coupler_pairs[coupler_offsets[s] : coupler_offsets[s + 1]])
            steps.append(
                TimeStep(
                    gates=gates,
                    frequencies=dict(row_maps[frequency_index[s]]),
                    interactions=interactions,
                    duration_ns=duration,
                    active_couplers=active,
                )
            )
        return steps

    # ------------------------------------------------------------------
    # stored block
    # ------------------------------------------------------------------
    def to_payload(self) -> Dict[str, object]:
        """The stored columnar block: counts, name table, base64 raw buffers.

        The frequencies are stored as the row table: ``num_rows`` distinct
        rows in ``frequency_rows`` and each step's row in ``frequency_index``.

        Optional columns are written only when they carry information: no
        ``present`` mask under full coverage, no coupler columns on
        fixed-coupler programs, no ``coupler_steps`` when every step lists
        its couplers.
        """
        block: Dict[str, object] = {
            "num_steps": self.num_steps,
            "num_qubits": self.num_qubits,
            "num_rows": self.frequency_rows.shape[0],
            "names": list(self.names),
        }
        for key in _BUFFER_DTYPES:  # every buffer is the column of that name
            array = getattr(self, key)
            if array is None or (key == "coupler_steps" and array.all()):
                continue
            block[key] = _b64(array, key)
        return block

    @classmethod
    def from_payload(cls, block: Mapping[str, object], num_qubits: int) -> "ProgramColumns":
        """Decode and fully check a stored block; ``ValueError`` if it is bad.

        Every buffer length is checked against the stored shape, every
        offset array must rise monotonically from 0 to its column's length,
        every name id, qubit index and row index must be in range, and the
        rows' NaN cells must be exactly the cells the ``present`` mask (all
        cells when none is stored) leaves out — so a decoded program can
        never fail later, when its steps are built.
        """
        if not isinstance(block, Mapping):
            raise ValueError("stored schedule is not a columnar block")
        num_steps = block["num_steps"]
        stored_qubits = block["num_qubits"]
        num_rows = block["num_rows"]
        names = block["names"]
        if not (type(num_steps) is int and num_steps >= 0):
            raise ValueError(f"bad step count {num_steps!r}")
        if not (type(num_rows) is int and 0 <= num_rows <= num_steps) or (
            num_rows == 0 and num_steps > 0
        ):
            raise ValueError(f"bad row count {num_rows!r} for {num_steps} steps")
        if stored_qubits != num_qubits or type(stored_qubits) is not int:
            raise ValueError(f"stored block has {stored_qubits!r} qubits, device has {num_qubits}")
        if not (isinstance(names, list) and all(isinstance(n, str) for n in names)):
            raise ValueError("bad name table")
        reader = _BlockReader(block)
        num_names = len(names)

        rows = reader.read("frequency_rows", num_rows * num_qubits)
        rows = rows.reshape(num_rows, num_qubits)
        index = reader.indices("frequency_index", num_steps, num_rows)
        absent = np.isnan(rows)
        if "present" in block:
            shape = (num_steps, num_qubits)
            present = reader.mask("present", num_steps * num_qubits).reshape(shape)
            if not np.array_equal(present, ~absent[index]):
                raise ValueError("stored presence mask disagrees with the frequency rows")
        elif absent.any():
            raise ValueError("frequency rows hold NaN but every frequency is present")
        durations = reader.read("durations", num_steps)

        gate_offsets = reader.offsets("gate_offsets", num_steps)
        gate_names = reader.indices("gate_names", int(gate_offsets[-1]), num_names)
        arity, num_params = _gate_shapes(names, gate_names)
        gate_qubits = reader.indices("gate_qubits", int(arity[gate_names].sum()), num_qubits)
        gate_params = reader.read("gate_params", int(num_params[gate_names].sum()))

        inter_offsets = reader.offsets("interaction_offsets", num_steps)
        num_inter = int(inter_offsets[-1])
        inter_pairs = reader.indices("interaction_pairs", 2 * num_inter, num_qubits)
        inter_names = reader.indices("interaction_names", num_inter, num_names)
        inter_freqs = reader.read("interaction_frequencies", num_inter)

        coupler_steps = coupler_offsets = coupler_pairs = None
        if "coupler_offsets" in block:
            if "coupler_steps" in block:
                coupler_steps = reader.mask("coupler_steps", num_steps)
            else:
                coupler_steps = np.ones(num_steps, dtype=bool)
            coupler_offsets = reader.offsets("coupler_offsets", num_steps)
            if np.any(np.diff(coupler_offsets)[~coupler_steps]):
                raise ValueError("active couplers listed on a fixed-coupler step")
            num_couplers = int(coupler_offsets[-1])
            coupler_pairs = reader.indices("coupler_pairs", 2 * num_couplers, num_qubits)
            coupler_pairs = coupler_pairs.reshape(-1, 2)

        return cls(
            names=tuple(names),
            frequency_rows=rows,
            frequency_index=index,
            durations=durations,
            gate_offsets=gate_offsets,
            gate_names=gate_names,
            gate_qubits=gate_qubits,
            gate_params=gate_params,
            interaction_offsets=inter_offsets,
            interaction_pairs=inter_pairs.reshape(-1, 2),
            interaction_names=inter_names,
            interaction_frequencies=inter_freqs,
            coupler_steps=coupler_steps,
            coupler_offsets=coupler_offsets,
            coupler_pairs=coupler_pairs,
        )


class ColumnsBuilder:
    """Appends the finalized steps of one program to its columns.

    The compile pipeline emits each step the moment the scheduler finalizes
    it (:meth:`add_step`, rows via :meth:`add_row`), its gates as indices
    into the scheduled :class:`~repro.circuits.dag.GateTable`;
    :meth:`build` gathers the gate and interaction columns from the table.
    Names are listed in first-appearance order among the gates: a step's
    interactions are its own two-qubit gates, so they never add a name.
    """

    def __init__(self, num_qubits: int) -> None:
        self.num_qubits = num_qubits
        self._row_ids: Dict[Tuple[Tuple[int, ...], bytes], int] = {}
        self._rows: List[List[float]] = []
        #: Per step: (gates, interacting gates, interaction frequencies,
        #: row, duration, active couplers), flattened by :meth:`build`.
        self._steps: List[Tuple] = []

    def add_row(self, frequencies: Mapping[int, float]) -> int:
        """The id of the frequency row holding *frequencies*, added if new.

        Two maps share a row when their items — qubits in dict order and
        the raw bits of the values — are identical, so ``-0.0`` and ``0.0``
        never merge.  Row ids follow first addition.  A NaN frequency is a
        ``ValueError``: NaN marks the frequencies a row does not carry.
        """
        qubits = tuple(frequencies)
        values = _float_packer(len(qubits))(*frequencies.values())
        row = self._row_ids.get((qubits, values))
        if row is None:
            if any(map(math.isnan, frequencies.values())):
                raise ValueError("a step carries a NaN frequency")
            row = self._row_ids[qubits, values] = len(self._rows)
            cells = [math.nan] * self.num_qubits
            for qubit, value in frequencies.items():
                cells[qubit] = value
            self._rows.append(cells)
        return row

    def add_step(
        self,
        gates: Sequence[int],
        interactions: Sequence[int],
        frequencies: Sequence[float],
        row: int,
        duration_ns: float,
        active_couplers: Optional[Set[Coupling]] = None,
    ) -> None:
        """Append one step: gate indices, the indices of its interacting
        gates with their interaction *frequencies*, its frequency *row*, its
        duration and its active couplers (``None`` on fixed couplers)."""
        self._steps.append((gates, interactions, frequencies, row, duration_ns, active_couplers))

    def build(self, table: GateTable) -> "ProgramColumns":
        """The columns of the steps added so far, gates read from *table*."""
        gates, interactions, frequencies, rows, durations, couplers = (
            zip(*self._steps) if self._steps else ((),) * 6
        )

        # Every column is gathered from the table by gate index, in step order.
        order = list(chain.from_iterable(gates))
        interacting = list(chain.from_iterable(interactions))
        name_of = table.name_ids.__getitem__
        table_names = list(map(name_of, order))
        inter_names = list(map(name_of, interacting))
        first_seen = list(dict.fromkeys(table_names))
        program_id = {name_id: i for i, name_id in enumerate(first_seen)}.__getitem__
        coupler_steps = [active is not None for active in couplers]
        gmon = any(coupler_steps)
        coupler_runs = [sorted(active) if active is not None else () for active in couplers]

        def flat(runs) -> list:
            return list(chain.from_iterable(runs))

        def offsets(key: str, runs) -> np.ndarray:
            return np.fromiter(accumulate(map(len, runs), initial=0), _BUFFER_DTYPES[key])

        def column(key: str, values) -> np.ndarray:
            return np.array(values, dtype=_BUFFER_DTYPES[key])

        pairs = column("interaction_pairs", flat(map(table.pair.__getitem__, interacting)))
        coupler_pairs = column("coupler_pairs", flat(flat(coupler_runs))) if gmon else None
        return ProgramColumns(
            names=tuple(table.names[i] for i in first_seen),
            frequency_rows=np.array(self._rows, dtype=np.float64).reshape(-1, self.num_qubits),
            frequency_index=column("frequency_index", rows),
            durations=column("durations", durations),
            gate_offsets=offsets("gate_offsets", gates),
            gate_names=column("gate_names", list(map(program_id, table_names))),
            gate_qubits=column("gate_qubits", flat(map(table.qubit_runs.__getitem__, order))),
            gate_params=column("gate_params", flat(map(table.param_runs.__getitem__, order))),
            interaction_offsets=offsets("interaction_offsets", interactions),
            interaction_pairs=pairs.reshape(-1, 2),
            interaction_names=column("interaction_names", list(map(program_id, inter_names))),
            interaction_frequencies=column("interaction_frequencies", flat(frequencies)),
            coupler_steps=np.array(coupler_steps, dtype=bool) if gmon else None,
            coupler_offsets=offsets("coupler_offsets", coupler_runs) if gmon else None,
            coupler_pairs=coupler_pairs.reshape(-1, 2) if gmon else None,
        )


@dataclass(eq=False)
class CompiledProgram:
    """A fully scheduled, frequency-annotated program for a specific device.

    The schedule is held as :attr:`columns` (a :class:`ProgramColumns`),
    the form the compile pipeline emits, the codec stores and the Eq. (4)
    estimator reads.  ``steps`` is a view: the :class:`TimeStep` list built
    from the columns on first access (for the simulator, the
    :class:`~repro.noise.IncrementalEstimator` and tests).  Treat both as
    immutable; to change a schedule, build a new program.
    """

    device: Device
    columns: ProgramColumns  # repro-lint: noncodec(serialized as the 'steps' block)
    name: str = "program"
    strategy: str = "unknown"
    idle_frequencies: Dict[int, float] = field(default_factory=dict)
    metadata: Dict[str, object] = field(default_factory=dict)
    _steps: Optional[List[TimeStep]] = field(default=None, init=False, repr=False)

    @property
    def steps(self) -> List[TimeStep]:
        """The schedule as :class:`TimeStep` objects, built from the columns once."""
        if self._steps is None:
            self._steps = self.columns.to_steps()
        return self._steps

    # ------------------------------------------------------------------
    # aggregate views
    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Number of scheduler cycles (the paper's "circuit depth" metric)."""
        return self.columns.num_steps

    @property
    def total_duration_ns(self) -> float:
        """Wall-clock program duration in nanoseconds.

        Summed left to right over Python floats, the same order and
        arithmetic as summing the steps' ``duration_ns``.
        """
        return sum(self.columns.durations.tolist())

    def all_gates(self) -> List[Gate]:
        return [gate for step in self.steps for gate in step.gates]

    def num_two_qubit_gates(self) -> int:
        return sum(1 for g in self.all_gates() if g.is_two_qubit)

    def max_parallel_interactions(self) -> int:
        """Largest number of simultaneous two-qubit gates over all steps."""
        return int(np.diff(self.columns.interaction_offsets).max(initial=0))

    def colors_used(self) -> int:
        """Number of distinct interaction frequencies ever used simultaneously."""
        best = 0
        for step in self.steps:
            frequencies = {round(i.frequency, 6) for i in step.interactions}
            best = max(best, len(frequencies))
        return best

    def qubit_busy_time_ns(self) -> Dict[int, float]:
        """Total time each qubit spends inside the program (all steps count).

        Decoherence accrues during idling as well as during gates, so each
        qubit is charged the full duration of every step between the first
        and last step of the program.
        """
        total = self.total_duration_ns
        return {q: total for q in range(self.device.num_qubits)}

    def to_circuit(self) -> Circuit:
        """Flatten the schedule back into a plain circuit (order-preserving)."""
        flat = Circuit(self.device.num_qubits, name=self.name)
        for gate in self.all_gates():
            flat.append(gate)
        return flat

    # ------------------------------------------------------------------
    # (de)serialization — consumed by the repro.service program store
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Versioned plain-dict form of the whole program (device included).

        ``steps`` holds the columnar block of :meth:`ProgramColumns.to_payload`
        — raw little-endian buffers, base64-encoded — so the payload stays
        JSON-serializable and round-trips bit-exactly: the Eq. (4)
        estimator produces bit-identical output on a deserialized program.
        """
        return {
            "codec_version": PROGRAM_CODEC_VERSION,
            "name": self.name,
            "strategy": self.strategy,
            "device": self.device.to_dict(),
            "steps": self.columns.to_payload(),
            "idle_frequencies": _freq_map_to_lists(self.idle_frequencies),
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(
        cls, payload: Mapping[str, object], device: Optional[Device] = None
    ) -> "CompiledProgram":
        """Inverse of :meth:`to_dict`; rejects payloads from other codec versions.

        The whole columnar block is checked here (``ValueError`` on any
        inconsistency), so the ``steps`` view of the returned program
        cannot fail when it is built.

        Passing *device* skips decoding the stored device payload and uses
        the given instance instead — only valid when the caller knows it is
        content-identical (the program store guarantees this via the cache
        key, which hashes the full device; interning one live Device per
        sweep also shares its cached spectator geometry across programs).
        A *payload* that is not a mapping is a ``ValueError`` too.
        """
        if not isinstance(payload, Mapping):
            raise ValueError(
                f"CompiledProgram payload must be a mapping, not {type(payload).__name__}"
            )
        version = payload.get("codec_version")
        if version != PROGRAM_CODEC_VERSION:
            raise ValueError(
                f"cannot decode CompiledProgram codec version {version!r} "
                f"(expected {PROGRAM_CODEC_VERSION})"
            )
        device = device if device is not None else Device.from_dict(payload["device"])
        return cls(
            device=device,
            columns=ProgramColumns.from_payload(payload["steps"], device.num_qubits),
            name=str(payload["name"]),
            strategy=str(payload["strategy"]),
            idle_frequencies=_freq_map_from_lists(payload["idle_frequencies"]),
            metadata=dict(payload["metadata"]),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompiledProgram(name={self.name!r}, strategy={self.strategy!r}, "
            f"depth={self.depth}, duration={self.total_duration_ns:.0f}ns)"
        )
