"""Frequency-spectrum partitioning (Section V-B4 of the paper).

The tunable range of a flux-tunable transmon (typically ~5–7 GHz) is split
into three regions:

* **interaction region** (top of the band, ~1 GHz wide) — interaction
  frequencies live here; higher frequencies give faster gates,
* **exclusion region** (~0.5 GHz) — nothing is parked or operated here; it
  separates interacting qubits from idling ones and coincides with the part
  of the flux curve most sensitive to flux noise,
* **parking region** (bottom of the band, ~1 GHz) — idle frequencies live
  here, near the lower sweet spot.

The partition decouples the idle-frequency assignment (coloring of the
connectivity graph) from the interaction-frequency assignment (coloring of
the active crosstalk subgraph + solver).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..devices import Device

__all__ = ["FrequencyPartition", "default_partition"]


@dataclass(frozen=True)
class FrequencyPartition:
    """The three frequency regions used by the compiler (all bounds in GHz)."""

    parking_low: float
    parking_high: float
    exclusion_low: float
    exclusion_high: float
    interaction_low: float
    interaction_high: float

    def __post_init__(self) -> None:
        ordered = (
            self.parking_low
            <= self.parking_high
            <= self.exclusion_low
            <= self.exclusion_high
            <= self.interaction_low
            <= self.interaction_high
        )
        if not ordered:
            raise ValueError(
                "partition regions must be ordered parking <= exclusion <= interaction"
            )
        if self.parking_high - self.parking_low <= 0:
            raise ValueError("parking region must have positive width")
        if self.interaction_high - self.interaction_low <= 0:
            raise ValueError("interaction region must have positive width")

    # ------------------------------------------------------------------
    @property
    def interaction_range(self) -> Tuple[float, float]:
        return (self.interaction_low, self.interaction_high)

    def in_parking(self, omega: float) -> bool:
        return self.parking_low - 1e-9 <= omega <= self.parking_high + 1e-9

    def in_interaction(self, omega: float) -> bool:
        return self.interaction_low - 1e-9 <= omega <= self.interaction_high + 1e-9

    def in_exclusion(self, omega: float) -> bool:
        return self.exclusion_low + 1e-9 < omega < self.exclusion_high - 1e-9

    def span(self) -> float:
        """Total width of the partitioned band (GHz)."""
        return self.interaction_high - self.parking_low


def default_partition(
    device: Device,
    interaction_width: float = 1.0,
    exclusion_width: float = 0.5,
) -> FrequencyPartition:
    """Derive the paper's default partition from a device's common tunable range.

    The paper's reference design uses a 1 GHz interaction region at the top
    of the band, a 0.5 GHz exclusion region below it and a ~1 GHz parking
    region at the bottom.  The exclusion region exists to keep every parked
    qubit's 0-1 *and* 1-2 transitions away from the interaction band, so its
    width is preserved (it must stay comfortably larger than the
    anharmonicity) even on devices whose common tunable range is narrower
    than the requested 2.5 GHz; the remaining band is then split 55%/45%
    between the interaction and parking regions.
    """
    low, high = device.common_tunable_range()
    alpha = abs(device.qubits[0].params.anharmonicity)
    # Reserve one anharmonicity of headroom at the top of the band: a CZ
    # interaction parks one of its qubits |alpha| above the chosen color, and
    # that frequency must still be reachable by every qubit.
    high = high - alpha
    span = high - low
    exclusion = min(exclusion_width, span / 3.0)
    exclusion = max(exclusion, min(alpha * 1.5, span / 3.0))
    remainder = span - exclusion
    interaction = min(interaction_width, 0.55 * remainder)

    interaction_low = high - interaction
    exclusion_low = interaction_low - exclusion
    return FrequencyPartition(
        parking_low=low,
        parking_high=exclusion_low,
        exclusion_low=exclusion_low,
        exclusion_high=interaction_low,
        interaction_low=interaction_low,
        interaction_high=high,
    )
