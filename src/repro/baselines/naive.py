"""Baseline N: crosstalk-unaware ("naive") compilation.

Mirrors a conventional Qiskit-style flow on tunable hardware (Table I):

* a plain ASAP scheduler maximises parallelism with no regard for crosstalk,
* idle qubits are parked sensibly (the paper notes Baseline N still uses
  "separated idle and interaction frequencies"), reusing the same
  connectivity-graph coloring as the other strategies,
* but each coupling's interaction frequency is chosen *locally* from its own
  two qubits (just below the smaller of their maximum frequencies), with no
  coordination between simultaneously executing gates.

Because neighbouring qubits have nearly identical fabrication targets, two
adjacent couplings driven at the same time frequently end up within a few
tens of MHz of each other — exactly the frequency-crowding collision the
paper's Fig. 6 highlights — which is why this baseline collapses on any
benchmark with parallel two-qubit gates.
"""

from __future__ import annotations

from typing import Tuple

from ..core.scheduler import NoiseAwareScheduler
from .base import BaselineCompiler

__all__ = ["BaselineNaive"]

Coupling = Tuple[int, int]


class BaselineNaive(BaselineCompiler):
    """Crosstalk-unaware compilation (Baseline N of Table I)."""

    name = "Baseline N"

    #: Offset below the pair's smaller maximum frequency used as the local
    #: interaction-frequency choice (GHz).
    interaction_offset: float = 0.05

    def _signature_extras(self):
        return {"interaction_offset": self.interaction_offset}

    def _make_scheduler(self) -> NoiseAwareScheduler:
        # No crosstalk graph, no conflict checks: pure ASAP scheduling.
        return NoiseAwareScheduler(conflict_threshold=None)

    def _interaction_frequency(self, coupling: Coupling) -> float:
        a, b = coupling
        omega_cap = min(
            self.device.qubits[a].params.omega_max,
            self.device.qubits[b].params.omega_max,
        )
        return omega_cap - self.interaction_offset
