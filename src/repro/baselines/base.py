"""Shared hooks of the Table I baselines N, G and U.

The baselines run the same pipeline as ColorDynamic
(:class:`repro.core.compiler.CompilerPipeline`) but give every active
coupling its interaction frequency on its own — no coloring, no solver.
Each subclass chooses its scheduler (:meth:`_make_scheduler`) and the
per-coupling frequency (:meth:`_interaction_frequency`); Baseline G also
switches couplers on and off (:meth:`_active_couplers`).
"""

from __future__ import annotations

from abc import abstractmethod
from typing import Sequence, Tuple

from ..core.compiler import CompilerPipeline, StepFrequencies

__all__ = ["BaselineCompiler"]

Coupling = Tuple[int, int]


class BaselineCompiler(CompilerPipeline):
    """Template for the Table I baselines N, G and U."""

    name = "Baseline"

    @abstractmethod
    def _interaction_frequency(self, coupling: Coupling) -> float:
        """Interaction frequency of *coupling* (GHz)."""

    def _interaction_frequencies(self, couplings: Sequence[Coupling]) -> StepFrequencies:
        frequencies = {c: self._interaction_frequency(c) for c in couplings}
        # A color is a distinct frequency; baselines solve for no separation.
        return frequencies, len({round(f, 6) for f in frequencies.values()}), None
