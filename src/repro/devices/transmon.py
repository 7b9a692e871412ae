"""Physical model of a frequency-tunable (asymmetric) transmon qubit.

The model follows Section II-A and Fig. 4 of the paper and the standard
treatment in Krantz et al., "A quantum engineer's guide to superconducting
qubits" (paper reference [33]):

* The 0-1 transition frequency of an asymmetric transmon depends on the
  external magnetic flux ``phi`` (in units of the flux quantum) as::

      omega_01(phi) = (omega_max + |alpha|) *
                      (cos^2(pi*phi) + d^2 * sin^2(pi*phi))**0.25 - |alpha|

  where ``d`` is the junction asymmetry.  This gives two *sweet spots*
  (flux-noise-insensitive operating points): the upper one at ``phi = 0``
  (frequency ``omega_max``) and the lower one at ``phi = 0.5`` (frequency
  ``omega_min ~= omega_max * sqrt(d)``).

* The anharmonicity ``alpha = omega_12 - omega_01`` is negative and nearly
  flux-independent; the paper uses ``|alpha|/2pi ~= 200 MHz``.

* T1/T2 coherence times characterise decoherence (Section II-B1).

All frequencies in this package are expressed in GHz and times in
nanoseconds unless stated otherwise, matching the paper's figures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Tuple


__all__ = [
    "TransmonParams",
    "Transmon",
    "DEFAULT_ANHARMONICITY_GHZ",
    "DEFAULT_T1_NS",
    "DEFAULT_T2_NS",
    "DEFAULT_OMEGA_MAX_GHZ",
    "DEFAULT_ASYMMETRY",
]

# Defaults drawn from the paper's experimental-setup section and its
# references ([2], [29], [33]).
DEFAULT_OMEGA_MAX_GHZ: float = 7.0
DEFAULT_ANHARMONICITY_GHZ: float = -0.200
DEFAULT_ASYMMETRY: float = 0.5
DEFAULT_T1_NS: float = 15_000.0
DEFAULT_T2_NS: float = 15_000.0
DEFAULT_FLUX_TUNING_TIME_NS: float = 2.0


@dataclass(frozen=True)
class TransmonParams:
    """Static fabrication/calibration parameters of one transmon.

    Attributes
    ----------
    omega_max:
        0-1 frequency at the upper sweet spot (``phi = 0``), in GHz.
    anharmonicity:
        ``omega_12 - omega_01`` in GHz (negative for transmons).
    asymmetry:
        Josephson-junction asymmetry ``d`` in ``[0, 1]``; the lower sweet
        spot sits at ``omega_max * sqrt(d)``.
    t1_ns, t2_ns:
        Relaxation and dephasing times in nanoseconds.
    flux_tuning_time_ns:
        Time overhead of moving the qubit to a new frequency (Appendix C).
    """

    omega_max: float = DEFAULT_OMEGA_MAX_GHZ
    anharmonicity: float = DEFAULT_ANHARMONICITY_GHZ
    asymmetry: float = DEFAULT_ASYMMETRY
    t1_ns: float = DEFAULT_T1_NS
    t2_ns: float = DEFAULT_T2_NS
    flux_tuning_time_ns: float = DEFAULT_FLUX_TUNING_TIME_NS

    def __post_init__(self) -> None:
        if self.omega_max <= 0:
            raise ValueError("omega_max must be positive")
        if not 0.0 <= self.asymmetry <= 1.0:
            raise ValueError("asymmetry must lie in [0, 1]")
        if self.anharmonicity >= 0:
            raise ValueError("transmon anharmonicity is negative (omega_12 < omega_01)")
        if self.t1_ns <= 0 or self.t2_ns <= 0:
            raise ValueError("coherence times must be positive")

    @cached_property
    def omega_min(self) -> float:
        """Frequency at the lower sweet spot (``phi = 0.5``), in GHz.

        Evaluated from the same flux-modulation curve as
        :meth:`Transmon.frequency_01`, i.e.
        ``(omega_max + |alpha|) * sqrt(d) - |alpha|``.  Cached per instance
        (the parameters are frozen): the frequency-assignment hot path
        clamps into the tunable range once per interaction qubit per step.
        """
        return (self.omega_max + abs(self.anharmonicity)) * math.sqrt(self.asymmetry) - abs(
            self.anharmonicity
        )

    # ------------------------------------------------------------------
    # (de)serialization — consumed by the repro.service program store
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-dict form; floats survive a JSON round trip bit-exactly."""
        return {
            "omega_max": self.omega_max,
            "anharmonicity": self.anharmonicity,
            "asymmetry": self.asymmetry,
            "t1_ns": self.t1_ns,
            "t2_ns": self.t2_ns,
            "flux_tuning_time_ns": self.flux_tuning_time_ns,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TransmonParams":
        """Inverse of :meth:`to_dict`."""
        return cls(
            omega_max=float(payload["omega_max"]),
            anharmonicity=float(payload["anharmonicity"]),
            asymmetry=float(payload["asymmetry"]),
            t1_ns=float(payload["t1_ns"]),
            t2_ns=float(payload["t2_ns"]),
            flux_tuning_time_ns=float(payload["flux_tuning_time_ns"]),
        )


class Transmon:
    """A flux-tunable transmon: parameters plus the flux↔frequency maps."""

    def __init__(self, params: TransmonParams, index: int = 0) -> None:
        self.params = params
        self.index = index

    # ------------------------------------------------------------------
    # frequency <-> flux maps
    # ------------------------------------------------------------------
    def frequency_01(self, flux: float) -> float:
        """0-1 transition frequency (GHz) at external flux ``flux`` (in Phi_0)."""
        p = self.params
        plasma_max = p.omega_max + abs(p.anharmonicity)
        modulation = (
            math.cos(math.pi * flux) ** 2
            + (p.asymmetry ** 2) * math.sin(math.pi * flux) ** 2
        ) ** 0.25
        return plasma_max * modulation - abs(p.anharmonicity)

    def frequency_12(self, flux: float) -> float:
        """1-2 transition frequency (GHz); ``omega_12 = omega_01 + alpha``."""
        return self.frequency_01(flux) + self.params.anharmonicity

    def frequency_02(self, flux: float) -> float:
        """0-2 two-photon transition frequency (GHz)."""
        return self.frequency_01(flux) + self.frequency_12(flux)

    def flux_for_frequency(self, omega: float) -> float:
        """Invert the flux curve: the flux (in ``[0, 0.5]``) giving ``omega_01 = omega``.

        Raises :class:`ValueError` when *omega* is outside the tunable range
        ``[omega_min, omega_max]``.
        """
        p = self.params
        if not (self.tunable_range[0] - 1e-9 <= omega <= self.tunable_range[1] + 1e-9):
            raise ValueError(
                f"frequency {omega:.4f} GHz outside tunable range "
                f"[{p.omega_max * math.sqrt(p.asymmetry):.4f}, {p.omega_max:.4f}] GHz"
            )
        plasma_max = p.omega_max + abs(p.anharmonicity)
        target = ((omega + abs(p.anharmonicity)) / plasma_max) ** 4
        # target = cos^2 + d^2 sin^2 = d^2 + (1 - d^2) cos^2(pi*phi)
        d2 = p.asymmetry ** 2
        cos_sq = (target - d2) / (1.0 - d2) if d2 < 1.0 else 1.0
        cos_sq = min(max(cos_sq, 0.0), 1.0)
        return math.acos(math.sqrt(cos_sq)) / math.pi

    # ------------------------------------------------------------------
    # operating points
    # ------------------------------------------------------------------
    @cached_property
    def tunable_range(self) -> Tuple[float, float]:
        """The reachable 0-1 frequency interval ``(omega_min, omega_max)`` in GHz.

        Cached per instance; ``params`` is frozen, so the interval can never
        change after construction.
        """
        return (self.params.omega_min, self.params.omega_max)

    @property
    def sweet_spots(self) -> Tuple[float, float]:
        """The two flux-insensitive frequencies ``(lower, upper)`` in GHz."""
        return (self.params.omega_min, self.params.omega_max)

    def flux_sensitivity(self, flux: float, delta: float = 1e-4) -> float:
        """|d omega / d flux| (GHz per Phi_0) — zero at the sweet spots.

        Used by the flux-noise model: dephasing from 1/f flux noise scales
        with the slope of the frequency-vs-flux curve at the operating point.
        """
        upper = self.frequency_01(min(flux + delta, 0.5))
        lower = self.frequency_01(max(flux - delta, 0.0))
        span = min(flux + delta, 0.5) - max(flux - delta, 0.0)
        if span <= 0:
            return 0.0
        return abs(upper - lower) / span

    def contains_frequency(self, omega: float) -> bool:
        """Return ``True`` when *omega* is within this qubit's tunable range."""
        low, high = self.tunable_range
        return low - 1e-9 <= omega <= high + 1e-9

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        low, high = self.tunable_range
        return f"Transmon(q{self.index}, {low:.3f}-{high:.3f} GHz)"
