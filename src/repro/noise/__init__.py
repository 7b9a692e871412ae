"""Noise models: crosstalk, decoherence, leakage, flux noise and the Eq. (4) estimator.

:class:`NoiseModel` loads with the package; every other name here loads
numpy and its defining module on first access (see :mod:`repro.lazy`).
"""

from ..lazy import Deferred
from .model import DEFAULT_FLUX_NOISE_AMPLITUDE, NoiseModel

_DEFERRED = Deferred(
    globals(),
    {
        ".crosstalk": (
            "angular",
            "residual_coupling",
            "effective_coupling",
            "effective_coupling_array",
            "exchange_probability",
            "iswap_gate_time_ns",
            "sqrt_iswap_gate_time_ns",
            "cz_gate_time_ns",
            "gate_time_ns",
            "intended_gate_error",
            "spectator_error",
            "spectator_error_array",
            "CrosstalkChannel",
            "pairwise_channels",
        ),
        ".decoherence": (
            "decoherence_error",
            "amplitude_damping_probability",
            "dephasing_probability",
            "combined_qubit_error",
            "combined_qubit_error_array",
            "program_decoherence_error",
        ),
        ".flux": (
            "flux_dephasing_rate",
            "flux_dephasing_rate_array",
            "sweet_spot_distance",
            "tuning_overhead_ns",
        ),
        ".leakage": (
            "leakage_probability",
            "leakage_probability_array",
            "cz_residual_leakage",
            "leakage_channels_detuning",
        ),
        ".incremental": ("IncrementalEstimator",),
        ".metrics": (
            "SuccessReport",
            "SpectatorGeometry",
            "estimate_success",
            "success_rate",
            "spectator_geometry",
            "clear_spectator_cache",
        ),
    },
)
__getattr__, __dir__ = _DEFERRED.getattr, _DEFERRED.dir

__all__ = [
    "IncrementalEstimator",
    "angular",
    "residual_coupling",
    "effective_coupling",
    "exchange_probability",
    "iswap_gate_time_ns",
    "sqrt_iswap_gate_time_ns",
    "cz_gate_time_ns",
    "gate_time_ns",
    "intended_gate_error",
    "spectator_error",
    "effective_coupling_array",
    "spectator_error_array",
    "CrosstalkChannel",
    "pairwise_channels",
    "decoherence_error",
    "amplitude_damping_probability",
    "dephasing_probability",
    "combined_qubit_error",
    "combined_qubit_error_array",
    "program_decoherence_error",
    "DEFAULT_FLUX_NOISE_AMPLITUDE",
    "flux_dephasing_rate",
    "flux_dephasing_rate_array",
    "sweet_spot_distance",
    "tuning_overhead_ns",
    "leakage_probability",
    "leakage_probability_array",
    "cz_residual_leakage",
    "leakage_channels_detuning",
    "NoiseModel",
    "SuccessReport",
    "SpectatorGeometry",
    "estimate_success",
    "success_rate",
    "spectator_geometry",
    "clear_spectator_cache",
]
