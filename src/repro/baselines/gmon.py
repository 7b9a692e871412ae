"""Baseline G: gmon-style tunable-qubit, tunable-coupler architecture.

Google's Sycamore processors add a flux-tunable coupler to every qubit pair,
which can be switched off to isolate idle neighbours (Table I).  Following
the paper's evaluation, this baseline

* schedules two-qubit gates with a Sycamore-style *tiling* scheduler: device
  couplings are partitioned into a small number of patterns (the ABCD edge
  sets on a grid; an edge coloring on arbitrary topologies) and each time
  step only activates gates whose coupler belongs to the current pattern,
* parks idle qubits via a connectivity-graph coloring (as the tunable-qubit
  hardware allows), and
* uses a single interaction frequency for all active gates — the deactivated
  couplers, not frequency separation, provide the isolation.

Coupler deactivation is assumed perfect at compile time; its imperfection is
modelled at evaluation time through the noise model's
``residual_coupler_factor`` (swept in Fig. 12).
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List, Optional, Set, Tuple

from ..core.scheduler import NoiseAwareScheduler, ScheduledStep
from ..devices import Device
from ..graph import line_graph_coloring
from .base import BaselineCompiler

__all__ = ["BaselineGmon", "tiling_patterns"]

Coupling = Tuple[int, int]


def tiling_patterns(device: Device) -> List[Set[Coupling]]:
    """Partition the device couplings into simultaneously activatable patterns.

    On a square grid this produces the four Sycamore-style patterns
    (horizontal-even, horizontal-odd, vertical-even, vertical-odd); on other
    topologies a greedy edge coloring of the connectivity graph is used, so
    no two couplings in a pattern share a qubit.
    """
    coords = device.coordinates()
    if coords is not None:
        patterns: Dict[str, Set[Coupling]] = {"A": set(), "B": set(), "C": set(), "D": set()}
        for a, b in device.edges():
            (ra, ca), (rb, cb) = coords[a], coords[b]
            if ra == rb:  # horizontal coupling
                key = "A" if min(ca, cb) % 2 == 0 else "B"
            else:  # vertical coupling
                key = "C" if min(ra, rb) % 2 == 0 else "D"
            patterns[key].add((a, b))
        return [p for p in patterns.values() if p]

    # Generic fallback: proper edge coloring via the line graph.
    classes: Dict[int, Set[Coupling]] = {}
    for edge, color in line_graph_coloring(device.graph).items():
        classes.setdefault(color, set()).add(tuple(sorted(edge)))
    return [classes[color] for color in sorted(classes)]


class BaselineGmon(BaselineCompiler):
    """Tunable-coupler architecture with a tiling scheduler (Baseline G)."""

    name = "Baseline G"

    def __init__(self, device: Device, *, interaction_frequency: Optional[float] = None, **kwargs):
        super().__init__(device.with_tunable_couplers(True), **kwargs)
        if interaction_frequency is None:
            low, high = self.partition.interaction_range
            interaction_frequency = (low + high) / 2.0
        self.interaction_frequency = interaction_frequency

    @cached_property
    def patterns(self) -> List[Set[Coupling]]:
        """The device's coupler tiling patterns, built on first use."""
        return tiling_patterns(self.device)

    def _signature_extras(self):
        return {"interaction_frequency": self.interaction_frequency}

    def _make_scheduler(self) -> NoiseAwareScheduler:
        patterns = self.patterns

        def allowed(step_index: int) -> Set[Coupling]:
            return patterns[step_index % len(patterns)]

        # The coupler tiling is the crosstalk defence; no frequency-conflict
        # throttling is applied on top of it.
        return NoiseAwareScheduler(conflict_threshold=None, allowed_couplings=allowed)

    def _interaction_frequency(self, coupling: Coupling) -> float:
        return self.interaction_frequency

    def _active_couplers(self, step: ScheduledStep) -> Optional[Set[Coupling]]:
        # Scheduler couplings are sorted tuples by construction.
        return set(step.couplings)
