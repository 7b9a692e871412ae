"""Flux-noise sensitivity and frequency-tuning overhead.

Tunable transmons pay two prices for their tunability (Fig. 4 and Appendix C
of the paper):

* **Flux-noise dephasing.**  Away from a sweet spot the qubit frequency
  depends linearly on the external flux, so 1/f flux noise translates into
  dephasing at a rate proportional to the slope ``|d omega / d Phi|`` of the
  frequency-vs-flux curve at the operating point.

* **Tuning overhead.**  Moving a qubit to a new frequency takes a small but
  non-zero time (state-of-the-art flux control settles within ~2 ns), which
  the scheduler charges whenever a qubit's frequency changes between steps.
"""

from __future__ import annotations

import math
from typing import Mapping, Optional

import numpy as np

from ..devices import Transmon
from .model import DEFAULT_FLUX_NOISE_AMPLITUDE

__all__ = [
    "DEFAULT_FLUX_NOISE_AMPLITUDE",
    "flux_dephasing_rate",
    "flux_dephasing_rate_array",
    "flux_dephasing_rate_matrix",
    "sweet_spot_distance",
    "tuning_overhead_ns",
]


def flux_dephasing_rate(
    transmon: Transmon,
    frequency: float,
    noise_amplitude: float = DEFAULT_FLUX_NOISE_AMPLITUDE,
) -> float:
    """Extra dephasing rate (1/ns) of operating a transmon at ``frequency`` GHz.

    The first-order estimate is ``Gamma_phi = A_Phi * |d omega/d Phi|`` with
    the slope evaluated at the flux bias that realises ``frequency`` and the
    frequency expressed in angular units.  At either sweet spot the slope —
    and hence the extra dephasing — vanishes.
    """
    low, high = transmon.tunable_range
    clamped = min(max(frequency, low), high)
    flux = transmon.flux_for_frequency(clamped)
    slope_ghz_per_phi0 = transmon.flux_sensitivity(flux)
    slope_angular = 2.0 * math.pi * slope_ghz_per_phi0
    return noise_amplitude * slope_angular


def flux_dephasing_rate_array(
    transmon: Transmon,
    frequencies: np.ndarray,
    noise_amplitude: float = DEFAULT_FLUX_NOISE_AMPLITUDE,
) -> np.ndarray:
    """Vectorized :func:`flux_dephasing_rate` for one transmon.

    ``frequencies`` is an ndarray of operating frequencies (GHz); the result
    holds the extra dephasing rate (1/ns) per entry.  Out-of-range
    frequencies are clamped to the tunable range, exactly like the scalar
    function.  Thin wrapper over :func:`flux_dephasing_rate_matrix` with this
    transmon's parameters broadcast over every entry.
    """
    p = transmon.params
    return flux_dephasing_rate_matrix(
        np.asarray(frequencies, dtype=float),
        p.omega_max,
        p.asymmetry,
        p.anharmonicity,
        noise_amplitude,
    )


def flux_dephasing_rate_matrix(
    frequencies: np.ndarray,
    omega_max: np.ndarray,
    asymmetry: np.ndarray,
    anharmonicity: np.ndarray,
    noise_amplitude: float = DEFAULT_FLUX_NOISE_AMPLITUDE,
    delta: float = 1e-4,
) -> np.ndarray:
    """Flux-noise dephasing rates for a whole frequency matrix at once.

    ``frequencies`` has qubits along its last axis; ``omega_max``,
    ``asymmetry`` and ``anharmonicity`` are the per-qubit parameter arrays
    broadcast against it.  Inlines the clamp -> flux -> finite-difference
    slope pipeline of :func:`flux_dephasing_rate` as pure array ops so the
    vectorized estimator evaluates every (step, qubit) entry in one shot.
    NaN entries (steps that carry no frequency for a qubit) propagate to NaN
    rates; callers mask them out.
    """
    omega_max = np.asarray(omega_max, dtype=float)
    asymmetry = np.asarray(asymmetry, dtype=float)
    abs_alpha = np.abs(np.asarray(anharmonicity, dtype=float))
    plasma_max = omega_max + abs_alpha
    low = plasma_max * np.sqrt(asymmetry) - abs_alpha  # omega_min per qubit
    d2 = asymmetry ** 2
    with np.errstate(invalid="ignore", divide="ignore"):
        clamped = np.clip(np.asarray(frequencies, dtype=float), low, omega_max)
        target = ((clamped + abs_alpha) / plasma_max) ** 4
        cos_sq = np.where(d2 < 1.0, (target - d2) / (1.0 - d2), 1.0)
        cos_sq = np.clip(cos_sq, 0.0, 1.0)
        flux = np.arccos(np.sqrt(cos_sq)) / np.pi
        hi = np.minimum(flux + delta, 0.5)
        lo = np.maximum(flux - delta, 0.0)
        span = hi - lo
        upper = plasma_max * (
            np.cos(np.pi * hi) ** 2 + d2 * np.sin(np.pi * hi) ** 2
        ) ** 0.25 - abs_alpha
        lower = plasma_max * (
            np.cos(np.pi * lo) ** 2 + d2 * np.sin(np.pi * lo) ** 2
        ) ** 0.25 - abs_alpha
        slope = np.where(span > 0, np.abs(upper - lower) / span, 0.0)
    return noise_amplitude * (2.0 * math.pi * slope)


def sweet_spot_distance(transmon: Transmon, frequency: float) -> float:
    """Distance (GHz) from ``frequency`` to the nearest sweet spot of the qubit."""
    low, high = transmon.sweet_spots
    return min(abs(frequency - low), abs(frequency - high))


def tuning_overhead_ns(
    previous: Optional[Mapping[int, float]],
    current: Mapping[int, float],
    settle_time_ns: float = 2.0,
    tolerance_ghz: float = 1e-6,
) -> float:
    """Flux-retuning overhead between two consecutive time steps.

    Returns the settle time if *any* qubit changes frequency between the two
    steps (flux pulses are applied in parallel, so the overhead does not grow
    with the number of retuned qubits), and zero otherwise.
    """
    if previous is None:
        return 0.0
    if previous == current:
        # Exact equality (the common case for repeated step configurations)
        # implies no per-qubit change can exceed the tolerance.
        return 0.0
    for qubit, freq in current.items():
        if qubit in previous and abs(previous[qubit] - freq) > tolerance_ghz:
            return settle_time_ns
    return 0.0
