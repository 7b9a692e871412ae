"""The parameters of the Eq. (4) estimator, in a module without numpy.

A :class:`NoiseModel` rides on sweep jobs and keys stored sweep reports
(:func:`~repro.service.cache_key.job_report_key`), so a run served from
reports builds one without loading the estimator in
:mod:`repro.noise.metrics`, which re-exports it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["DEFAULT_FLUX_NOISE_AMPLITUDE", "NoiseModel"]

# 1/f flux-noise amplitude in units of the flux quantum (typical literature
# value: a few micro-Phi_0).
DEFAULT_FLUX_NOISE_AMPLITUDE: float = 3.0e-6


@dataclass(frozen=True)
class NoiseModel:
    """Parameters of the worst-case noise estimator.

    Attributes
    ----------
    single_qubit_error:
        Calibration-floor error per single-qubit gate.
    two_qubit_error:
        Calibration-floor error per two-qubit gate (the paper quotes >99.5%
        fidelity for tuned iSWAP/CZ gates).
    readout_error:
        Error per measurement operation.
    crosstalk_distance:
        1 evaluates spectator channels on coupled pairs only; 2 additionally
        evaluates next-nearest-neighbour pairs with the coupling reduced by
        ``next_neighbour_factor``.
    next_neighbour_factor:
        Fraction of the bare coupling assigned to distance-2 pairs (virtual
        coupling through the shared neighbour).
    residual_coupler_factor:
        For gmon hardware: fraction of the bare coupling that leaks through a
        *deactivated* tunable coupler (0 = perfect isolation; Fig. 12 sweeps
        this).
    include_leakage:
        Evaluate the 01-12 / 12-01 leakage channels in addition to the 01-01
        exchange channel.
    include_flux_noise:
        Penalise qubits parked away from sweet spots with extra dephasing.
    flux_noise_amplitude:
        1/f flux-noise amplitude in units of the flux quantum.
    worst_case:
        Use the non-oscillatory worst-case envelope for spectator errors.
    spectator_error_cap:
        Upper bound applied to each individual spectator-channel error so a
        single exact collision does not drive the estimate to exactly zero
        (keeps log-scale comparisons meaningful, as in Fig. 9).
    idle_idle_crosstalk:
        When ``False`` (default), spectator channels are only charged for
        pairs where at least one qubit is performing a two-qubit gate that
        step — idle qubits parked at statically safe frequencies are not
        repeatedly penalised.  Pairs parked closer than
        ``parking_collision_threshold`` are charged regardless, so a naive
        parking assignment still pays for its collisions.
    parking_collision_threshold:
        Detuning (GHz) below which two idle neighbours are considered to be
        colliding and always evaluated.
    """

    single_qubit_error: float = 0.001
    two_qubit_error: float = 0.005
    readout_error: float = 0.02
    crosstalk_distance: int = 1
    next_neighbour_factor: float = 0.1
    residual_coupler_factor: float = 0.0
    include_leakage: bool = True
    include_flux_noise: bool = True
    flux_noise_amplitude: float = DEFAULT_FLUX_NOISE_AMPLITUDE
    worst_case: bool = True
    spectator_error_cap: float = 0.999
    idle_idle_crosstalk: bool = False
    parking_collision_threshold: float = 0.06

    def with_residual_coupling(self, factor: float) -> "NoiseModel":
        """Return a copy with a different gmon residual-coupling factor."""
        return replace(self, residual_coupler_factor=factor)
