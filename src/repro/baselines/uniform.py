"""Baseline U: a single shared interaction frequency plus serialization.

All two-qubit gates use one common interaction frequency, so no two of them
can safely execute at the same time; the serial scheduler of Table I runs
two-qubit gates one at a time (single-qubit gates still execute in
parallel), the strategy of fixed-frequency architectures such as IBM's.  The
cost is depth: the program runs longer and decoherence grows (Fig. 10),
which is the trade-off ColorDynamic is designed to beat.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..core.scheduler import NoiseAwareScheduler
from .base import BaselineCompiler

__all__ = ["BaselineUniform"]

Coupling = Tuple[int, int]


class BaselineUniform(BaselineCompiler):
    """Single-interaction-frequency serialization (Baseline U of Table I)."""

    name = "Baseline U"

    def __init__(self, device, *, interaction_frequency: Optional[float] = None, **kwargs):
        super().__init__(device, **kwargs)
        if interaction_frequency is None:
            low, high = self.partition.interaction_range
            interaction_frequency = (low + high) / 2.0
        self.interaction_frequency = interaction_frequency

    def _signature_extras(self):
        return {"interaction_frequency": self.interaction_frequency}

    def _make_scheduler(self) -> NoiseAwareScheduler:
        # A single shared interaction frequency: two-qubit gates execute one
        # at a time (Table I's "serial scheduler").
        return NoiseAwareScheduler(
            crosstalk_graph=self.crosstalk_graph,
            max_colors=1,
            conflict_threshold=1,
            max_parallel_interactions=1,
            crosstalk_index=self.crosstalk_index,
        )

    def _interaction_frequency(self, coupling: Coupling) -> float:
        return self.interaction_frequency
