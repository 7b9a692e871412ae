"""Baseline S: static (program-independent) frequency-aware compilation.

The full crosstalk graph of the device is colored once — eight colors on a
2-D mesh — and the resulting interaction frequencies are reused for every
program and every time step (the approach of most prior crosstalk-aware
optimizers, including the surface-code assignment of Versluis et al. and the
static Sycamore calibration).  Because the whole graph must be colorable at
once, the per-color frequency separation is much smaller than what
ColorDynamic achieves on the (far sparser) active subgraph of a single time
step — which is exactly why the dynamic strategy wins in Fig. 9.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, Sequence, Tuple

from ..core.coloring import num_colors
from ..core.compiler import ColorDynamic, StepFrequencies
from ..core.solver import assign_color_frequencies
from ..devices import Device

__all__ = ["BaselineStatic"]

Coupling = Tuple[int, int]


class BaselineStatic(ColorDynamic):
    """Program-independent crosstalk-aware compilation (Baseline S of Table I).

    Takes the shared pipeline parameters of
    :class:`~repro.core.compiler.CompilerPipeline`.  The scheduler applies
    no parallelism throttling: the static assignment is safe for fully
    parallel execution by construction.  The full-graph coloring and its
    frequencies are built on first compile.
    """

    name = "Baseline S"
    dynamic = False

    def __init__(self, device: Device, **kwargs) -> None:
        super().__init__(device, max_colors=None, conflict_threshold=None, **kwargs)

    @cached_property
    def _static_coloring(self) -> Dict[Coupling, int]:
        """Welsh–Powell coloring of the whole crosstalk graph."""
        return self.crosstalk_index.welsh_powell()

    @cached_property
    def _static_frequencies(self) -> Dict[int, float]:
        """Interaction frequency of every color of :attr:`_static_coloring`."""
        frequencies, _ = assign_color_frequencies(
            self._static_coloring,
            self.partition.interaction_low,
            self.partition.interaction_high,
            anharmonicity=self.device.qubits[0].params.anharmonicity,
        )
        return frequencies

    def _interaction_frequencies(self, couplings: Sequence[Coupling]) -> StepFrequencies:
        if not couplings:
            return {}, 0, float("inf")
        coloring = {c: self._static_coloring[c] for c in couplings}
        frequencies = {c: self._static_frequencies[color] for c, color in coloring.items()}
        return frequencies, num_colors(coloring), float("nan")
