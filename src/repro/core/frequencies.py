"""Helpers that turn colorings into concrete per-qubit frequency assignments.

Two assignments are needed (Section IV-C):

* **Idle (parking) frequencies** — one per color of the device connectivity
  graph, placed in the parking region; every qubit idles at the frequency of
  its color, so no two coupled qubits ever idle on resonance.
* **Step frequencies** — for each scheduler cycle, qubits performing a
  two-qubit gate are moved to their interaction frequency (both qubits on
  the 0-1/0-1 resonance for iSWAP-family gates, or on the 0-1/1-2 resonance
  for CZ), everyone else stays parked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

from ..devices import Device
from ..program import Interaction
from .coloring import welsh_powell_coloring
from .partition import FrequencyPartition
from .solver import assign_color_frequencies, FrequencySolution

__all__ = [
    "IdleAssignment",
    "StepFrequencyAssigner",
    "assign_idle_frequencies",
    "clamp_to_range",
]


@dataclass(frozen=True)
class IdleAssignment:
    """Idle-frequency assignment derived from coloring the connectivity graph."""

    qubit_frequencies: Dict[int, float]
    coloring: Dict[int, int]
    color_frequencies: Dict[int, float]
    solution: FrequencySolution

    @property
    def num_colors(self) -> int:
        return len(self.color_frequencies)


def clamp_to_range(value: float, bounds: Tuple[float, float]) -> float:
    """Clamp *value* into ``bounds`` (used to respect per-qubit tunable ranges)."""
    low, high = bounds
    return min(max(value, low), high)


def assign_idle_frequencies(
    device: Device,
    partition: FrequencyPartition,
    anharmonicity: Optional[float] = None,
) -> IdleAssignment:
    """Color the connectivity graph and park each color in the parking region.

    The coloring uses Welsh–Powell (2 colors on a mesh); the color →
    frequency map uses the same max-separation solver as the interaction
    assignment, restricted to the parking region, so parked neighbours are as
    far apart as the region allows while also avoiding each other's 1-2
    transitions.
    """
    alpha = (
        anharmonicity
        if anharmonicity is not None
        else device.qubits[0].params.anharmonicity
    )
    coloring = welsh_powell_coloring(device.graph)
    color_freqs, solution = assign_color_frequencies(
        coloring,
        partition.parking_low,
        partition.parking_high,
        anharmonicity=alpha,
    )
    qubit_freqs: Dict[int, float] = {}
    for qubit, color in coloring.items():
        freq = color_freqs[color]
        qubit_freqs[qubit] = clamp_to_range(freq, device.tunable_range(qubit))
    return IdleAssignment(
        qubit_frequencies=qubit_freqs,
        coloring=dict(coloring),
        color_frequencies=color_freqs,
        solution=solution,
    )


class StepFrequencyAssigner:
    """Per-qubit 0-1 frequencies of one time step, for one (device, idle map).

    Qubits not involved in an interaction keep their idle frequency.  For an
    iSWAP-family interaction both qubits move to the interaction frequency;
    for a CZ interaction the first qubit's 0-1 transition is placed on the
    second qubit's 1-2 transition, i.e. the first qubit sits at the
    interaction frequency and the second ``|alpha|`` above it.  Every
    frequency is clamped into its qubit's tunable range.

    Tunable ranges and anharmonicities are gathered into flat lists once
    per compiler, since the assignment runs for every step.
    """

    def __init__(self, device: Device, idle_frequencies: Mapping[int, float]) -> None:
        self._idle: Dict[int, float] = dict(idle_frequencies)
        self._ranges = [device.tunable_range(q) for q in range(device.num_qubits)]
        self._alpha = [
            device.qubits[q].params.anharmonicity for q in range(device.num_qubits)
        ]

    def __call__(self, interactions: Sequence[Interaction]) -> Dict[int, float]:
        frequencies = dict(self._idle)
        for interaction in interactions:
            a, b = interaction.pair
            omega = interaction.frequency
            if interaction.gate_name == "cz":
                freq_a = omega
                freq_b = omega - self._alpha[b]
            else:
                freq_a = omega
                freq_b = omega
            low, high = self._ranges[a]
            frequencies[a] = low if freq_a < low else (high if freq_a > high else freq_a)
            low, high = self._ranges[b]
            frequencies[b] = low if freq_b < low else (high if freq_b > high else freq_b)
        return frequencies

