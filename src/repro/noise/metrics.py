"""Worst-case program success-rate estimator (Eq. (4) of the paper).

The estimator consumes a strategy-agnostic :class:`~repro.program.CompiledProgram`
and multiplies together

* per-gate calibration-floor errors,
* spectator crosstalk errors for every coupled (and optionally next-nearest)
  qubit pair in every time step, evaluated through the 01-01 exchange channel
  and the two 01-12 leakage channels, and
* per-qubit decoherence errors over the whole program duration, with an
  optional flux-noise dephasing penalty for qubits parked away from their
  sweet spots,

yielding::

    P_success = prod_g (1 - eps_g) * prod_q (1 - eps_q)

exactly as the paper's heuristic does.

The estimator builds dense NumPy arrays straight from the program's
columnar form (:attr:`CompiledProgram.columns
<repro.program.CompiledProgram.columns>`) — a ``steps x qubits`` frequency
matrix plus busy/parking-collision/residual-coupler masks — and evaluates
every spectator channel of every step in a handful of array operations.  The
device-level pair structure (indices, bare couplings, anharmonicities) is
built once per ``(device, crosstalk_distance, next_neighbour_factor)`` and
cached on the device (see :func:`spectator_geometry`).  The original
step-by-step scalar loop is kept as a test oracle
(``tests/differential/oracles.py``); the two agree to ~1e-12 on full
benchmark suites.

Cache invalidation rule: the spectator-geometry cache lives on the
:class:`~repro.devices.Device` instance and is keyed only by the model fields
that shape the pair structure (``crosstalk_distance`` and
``next_neighbour_factor``).  Construct a new ``Device`` — or call
:func:`clear_spectator_cache` — after mutating a device's graph or couplings
in place; all other ``NoiseModel`` fields may vary freely without
invalidation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..circuits.gates import gate_spec
from ..devices import Device
from ..devices.device import PREPARED_CACHE_ATTR
from ..obs import span as _span
from ..program import CompiledProgram, TimeStep
from .crosstalk import spectator_error_array
from .decoherence import combined_qubit_error_array
from .flux import flux_dephasing_rate_matrix
from .leakage import leakage_probability_array
from .model import NoiseModel

__all__ = [
    "NoiseModel",
    "SuccessReport",
    "SpectatorGeometry",
    "estimate_success",
    "success_rate",
    "spectator_geometry",
    "clear_spectator_cache",
]

Coupling = Tuple[int, int]


@dataclass
class SuccessReport:
    """Breakdown of the worst-case success estimate for one compiled program.

    ``num_single_qubit_gates`` counts only *physical* (non-zero-duration)
    single-qubit gates — the ones actually charged the calibration floor;
    virtual-Z frame updates, which are free on hardware and charged no error,
    are tallied separately in ``num_virtual_single_qubit_gates`` so the
    Fig. 9/10 gate tallies match what the estimator charges.
    """

    success_rate: float
    gate_fidelity_product: float
    crosstalk_fidelity_product: float
    decoherence_fidelity_product: float
    crosstalk_error_total: float
    decoherence_error_per_qubit: Dict[int, float]
    worst_spectator_error: float
    depth: int
    duration_ns: float
    num_two_qubit_gates: int
    num_single_qubit_gates: int
    num_virtual_single_qubit_gates: int = 0

    @property
    def mean_decoherence_error(self) -> float:
        """Average per-qubit decoherence error (the quantity plotted in Fig. 10)."""
        if not self.decoherence_error_per_qubit:
            return 0.0
        values = list(self.decoherence_error_per_qubit.values())
        return sum(values) / len(values)


# ---------------------------------------------------------------------------
# device-level spectator structure (built once per device, cached)
# ---------------------------------------------------------------------------
@dataclass
class SpectatorGeometry:
    """Dense device-level structure the estimator indexes with.

    ``pairs`` lists ``(pair, bare coupling, distance)`` per spectator
    channel pair; the ndarray attributes are the same pairs as columns.
    All arrays but ``pair_lookup`` share length ``P`` (the number of
    spectator pairs); ``pair_lookup`` maps a sorted qubit pair to its
    position in them.
    """

    pairs: List[Tuple[Coupling, float, int]]
    index_a: np.ndarray
    index_b: np.ndarray
    bare_coupling: np.ndarray
    alpha_a: np.ndarray
    alpha_b: np.ndarray
    distance: np.ndarray
    pair_lookup: np.ndarray  # (Q, Q): index of the sorted pair (a, b), -1 if none

    @property
    def num_pairs(self) -> int:
        return len(self.pairs)


_GEOMETRY_CACHE_ATTR = "_spectator_geometry_cache"
_PARAMS_CACHE_ATTR = "_qubit_param_arrays"


@dataclass
class _QubitParamArrays:
    """Columnar per-qubit transmon parameters (one entry per qubit)."""

    omega_max: np.ndarray
    asymmetry: np.ndarray
    anharmonicity: np.ndarray
    t1_ns: np.ndarray
    t2_ns: np.ndarray


def _device_param_arrays(device: Device) -> _QubitParamArrays:
    """Cached columnar view of the device's transmon parameters."""
    cached = getattr(device, _PARAMS_CACHE_ATTR, None)
    if cached is not None:
        return cached
    params = [device.qubits[q].params for q in range(device.num_qubits)]
    arrays = _QubitParamArrays(
        omega_max=np.array([p.omega_max for p in params]),
        asymmetry=np.array([p.asymmetry for p in params]),
        anharmonicity=np.array([p.anharmonicity for p in params]),
        t1_ns=np.array([p.t1_ns for p in params]),
        t2_ns=np.array([p.t2_ns for p in params]),
    )
    setattr(device, _PARAMS_CACHE_ATTR, arrays)
    return arrays


def _spectator_pairs(device: Device, model: NoiseModel) -> List[Tuple[Coupling, float, int]]:
    """Enumerate (pair, bare coupling, graph distance) to evaluate each step."""
    pairs: List[Tuple[Coupling, float, int]] = []
    for edge in device.edges():
        pairs.append((edge, device.coupling_strength(*edge), 1))
    if model.crosstalk_distance >= 2:
        # Iterate in sorted node order so the pair list — and therefore the
        # float-summation order downstream — is identical for every device
        # with the same topology, regardless of how its graph was built
        # (freshly constructed or deserialized from the program store).
        graph = device.graph
        seen = {tuple(sorted(e)) for e in graph.edges}
        for node in sorted(graph.nodes):
            for first in sorted(graph.neighbors(node)):
                for second in sorted(graph.neighbors(first)):
                    if second == node:
                        continue
                    pair = tuple(sorted((node, second)))
                    if pair in seen:
                        continue
                    seen.add(pair)
                    bare = min(
                        device.coupling_strength(node, first),
                        device.coupling_strength(first, second),
                    )
                    pairs.append((pair, bare * model.next_neighbour_factor, 2))
    return pairs


def _build_geometry(device: Device, model: NoiseModel) -> SpectatorGeometry:
    pairs = _spectator_pairs(device, model)
    index_a = np.array([p[0][0] for p in pairs], dtype=np.intp)
    index_b = np.array([p[0][1] for p in pairs], dtype=np.intp)
    bare = np.array([p[1] for p in pairs], dtype=float)
    distance = np.array([p[2] for p in pairs], dtype=np.intp)
    anharmonicity = np.array(
        [device.qubits[q].params.anharmonicity for q in range(device.num_qubits)],
        dtype=float,
    )
    pair_lookup = np.full((device.num_qubits, device.num_qubits), -1, dtype=np.intp)
    pair_lookup[index_a, index_b] = np.arange(len(pairs))
    return SpectatorGeometry(
        pairs=pairs,
        index_a=index_a,
        index_b=index_b,
        bare_coupling=bare,
        alpha_a=anharmonicity[index_a] if pairs else np.zeros(0),
        alpha_b=anharmonicity[index_b] if pairs else np.zeros(0),
        distance=distance,
        pair_lookup=pair_lookup,
    )


def spectator_geometry(device: Device, model: NoiseModel) -> SpectatorGeometry:
    """The cached :class:`SpectatorGeometry` of a device under a noise model.

    Cached on the device instance, keyed by the only model fields that shape
    the pair structure (``crosstalk_distance``, ``next_neighbour_factor``).
    Mutating ``device.graph`` or ``device.couplings`` in place does *not*
    invalidate the cache — call :func:`clear_spectator_cache` afterwards, or
    build a fresh :class:`~repro.devices.Device`.
    """
    key = (model.crosstalk_distance, model.next_neighbour_factor)
    cache: Optional[Dict[Tuple[int, float], SpectatorGeometry]]
    cache = getattr(device, _GEOMETRY_CACHE_ATTR, None)
    if cache is None:
        cache = {}
        setattr(device, _GEOMETRY_CACHE_ATTR, cache)
    geometry = cache.get(key)
    if geometry is None:
        geometry = _build_geometry(device, model)
        cache[key] = geometry
    return geometry


def clear_spectator_cache(device: Device) -> None:
    """Drop the device-instance caches after in-place device mutation.

    Covers the spectator geometry and parameter arrays used by the
    estimators plus the compilers' prepared-circuit memo (routing depends
    on the device graph).  That memo may be shared with
    :meth:`~repro.devices.Device.with_tunable_couplers` copies: it is
    emptied for all of them, and *device* starts a memo of its own.
    """
    prepared = getattr(device, PREPARED_CACHE_ATTR, None)
    if prepared is not None:
        prepared.clear()
    for attr in (_GEOMETRY_CACHE_ATTR, _PARAMS_CACHE_ATTR, PREPARED_CACHE_ATTR):
        if hasattr(device, attr):
            delattr(device, attr)


# ---------------------------------------------------------------------------
# calibration floor
# ---------------------------------------------------------------------------
def _floor_fidelity_from_counts(
    counts: Mapping[str, int], model: NoiseModel
) -> Tuple[float, int, int, int]:
    """Calibration-floor fidelity product from per-gate-name counts.

    Returns ``(fidelity, two_qubit, physical_single_qubit, virtual_single_qubit)``.
    Gate names are processed in sorted order so the float product is a pure
    function of the counts — independent of dict insertion history — which
    is what lets the :class:`IncrementalEstimator`'s incrementally maintained
    counts reproduce the from-scratch product bit-exactly.
    """
    fidelity = 1.0
    two_qubit = 0
    single_qubit = 0
    virtual = 0
    for name in sorted(counts):
        count = counts[name]
        if name == "barrier" or count == 0:
            continue
        spec = gate_spec(name)
        if name == "measure":
            fidelity *= (1.0 - model.readout_error) ** count
        elif spec.num_qubits == 2:
            fidelity *= (1.0 - model.two_qubit_error) ** count
            two_qubit += count
        elif spec.duration_ns > 0:
            fidelity *= (1.0 - model.single_qubit_error) ** count
            single_qubit += count
        else:
            virtual += count
    return fidelity, two_qubit, single_qubit, virtual


def _gate_floor_errors(
    program: CompiledProgram, model: NoiseModel
) -> Tuple[float, int, int, int]:
    """Calibration-floor fidelity product over every gate in the program.

    Gates are aggregated by name (every instance of a gate carries the same
    floor error, so the product collapses to a power per distinct gate),
    counted by name id over the columnar form.  Zero-duration single-qubit
    gates (virtual-Z frame updates) are charged no error and counted
    separately from the physical pulses.
    """
    columns = program.columns
    tallies = np.bincount(columns.gate_names, minlength=len(columns.names)).tolist()
    counts = {name: count for name, count in zip(columns.names, tallies) if count}
    return _floor_fidelity_from_counts(counts, model)


# ---------------------------------------------------------------------------
# vectorized engine (dense data plane)
# ---------------------------------------------------------------------------
@dataclass
class _ProgramArrays:
    """Dense per-program views shared by the vectorized channels.

    ``frequencies`` is a ``steps x qubits`` matrix (NaN where a step carries
    no frequency for a qubit); the boolean masks mirror the skip logic of the
    scalar oracle step by step.
    """

    durations: np.ndarray  # (S,)
    frequencies: np.ndarray  # (S, Q), NaN where absent
    present: np.ndarray  # (S, Q) bool
    busy: np.ndarray  # (S, Q) bool — qubit performs a two-qubit gate
    interacting: np.ndarray  # (S, P) bool — pair performs its intended gate
    inactive_coupler: np.ndarray  # (S, P) bool — gmon coupler switched off


def _step_dense_row(
    step: TimeStep, geometry: SpectatorGeometry, num_qubits: int
) -> Tuple[float, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Dense per-step row: ``(duration, frequencies, present, busy, interacting, inactive)``.

    The :class:`IncrementalEstimator` maintains exactly one such row per
    step; :func:`_program_arrays` builds the same rows for a whole program
    from its columns, so a mutated step always reproduces the from-scratch
    row bit for bit.
    """
    num_pairs = geometry.num_pairs
    frequencies = np.full(num_qubits, np.nan)
    present = np.zeros(num_qubits, dtype=bool)
    busy = np.zeros(num_qubits, dtype=bool)
    interacting = np.zeros(num_pairs, dtype=bool)
    inactive = np.zeros(num_pairs, dtype=bool)
    lookup = geometry.pair_lookup
    for qubit, frequency in step.frequencies.items():
        frequencies[qubit] = frequency
        present[qubit] = True
    for interaction in step.interactions:
        a, b = interaction.pair
        busy[a] = True
        busy[b] = True
        index = lookup.item(a, b)
        if index >= 0:
            interacting[index] = True
    if step.active_couplers is not None:
        inactive[:] = True
        for a, b in step.active_couplers:
            index = lookup.item(min(a, b), max(a, b))
            if index >= 0:
                inactive[index] = False
    return step.duration_ns, frequencies, present, busy, interacting, inactive


def _program_arrays(
    program: CompiledProgram, geometry: SpectatorGeometry
) -> _ProgramArrays:
    """Dense arrays of a whole program, built from its columnar form.

    Produces, row for row, exactly what :func:`_step_dense_row` yields for
    each step (the incremental estimator's path) — the same frequencies,
    NaN where absent, and the same masks — with a few fancy-indexed
    assignments instead of a Python loop over steps.
    """
    columns = program.columns
    num_steps = columns.num_steps
    num_pairs = geometry.num_pairs
    lookup = geometry.pair_lookup

    busy = np.zeros(columns.frequencies.shape, dtype=bool)
    interacting = np.zeros((num_steps, num_pairs), dtype=bool)
    steps = columns.interaction_steps()
    pairs = columns.interaction_pairs
    busy[steps, pairs[:, 0]] = True
    busy[steps, pairs[:, 1]] = True
    index = lookup[pairs[:, 0], pairs[:, 1]]
    known = index >= 0
    interacting[steps[known], index[known]] = True

    inactive = np.zeros((num_steps, num_pairs), dtype=bool)
    if columns.coupler_steps is not None:
        inactive[columns.coupler_steps] = True
        steps = columns.coupler_pair_steps()
        pairs = columns.coupler_pairs
        index = lookup[pairs.min(axis=1), pairs.max(axis=1)]
        known = index >= 0
        inactive[steps[known], index[known]] = False

    return _ProgramArrays(
        durations=columns.durations,
        frequencies=columns.frequencies,
        present=columns.presence(),
        busy=busy,
        interacting=interacting,
        inactive_coupler=inactive,
    )


def _masked_channel_terms(
    frequencies: np.ndarray,
    present: np.ndarray,
    busy: np.ndarray,
    interacting: np.ndarray,
    inactive_coupler: np.ndarray,
    duration,
    model: NoiseModel,
    geometry: SpectatorGeometry,
) -> Tuple[np.ndarray, np.ndarray]:
    """Masked spectator-channel terms, shape-generic over rows and matrices.

    ``frequencies``/``present``/``busy`` carry qubits on the last axis and
    ``interacting``/``inactive_coupler`` pairs on the last axis; ``duration``
    must broadcast against the pair axis (``(S, 1)`` for a whole program,
    a scalar for a single step).  Returns ``(fidelity_terms, error_terms)``
    of shape ``(..., P, C)`` where masked-out channels contribute exactly
    ``1.0`` and ``0.0`` respectively — the multiplicative/additive
    identities, so reductions over the padded arrays equal reductions over
    the selected channels alone.

    Because every operation is elementwise, evaluating one step's row
    produces bit-identical values to slicing that step out of the full
    program evaluation — the property the incremental estimator rests on.
    """
    ia, ib = geometry.index_a, geometry.index_b
    omega_a = frequencies[..., ia]
    omega_b = frequencies[..., ib]
    pair_present = present[..., ia] & present[..., ib]
    pair_busy = busy[..., ia] | busy[..., ib]
    delta = omega_a - omega_b

    coupling = np.where(
        inactive_coupler,
        geometry.bare_coupling * model.residual_coupler_factor,
        geometry.bare_coupling,
    )

    with np.errstate(invalid="ignore", divide="ignore"):
        include = (
            (np.asarray(duration) > 0.0)
            & ~interacting
            & pair_present
            & (coupling > 0.0)
        )
        if not model.idle_idle_crosstalk:
            safe_idle = (~pair_busy) & (
                np.abs(delta) > model.parking_collision_threshold
            )
            include &= ~safe_idle

        num_channels = 3 if model.include_leakage else 1
        errors = np.empty(include.shape + (num_channels,))
        errors[..., 0] = spectator_error_array(
            coupling, delta, duration, worst_case=model.worst_case
        )
        if model.include_leakage:
            detuning_ab = np.abs(omega_a - (omega_b + geometry.alpha_b))
            detuning_ba = np.abs((omega_a + geometry.alpha_a) - omega_b)
            errors[..., 1] = leakage_probability_array(
                coupling, detuning_ab, duration, worst_case=model.worst_case
            )
            errors[..., 2] = leakage_probability_array(
                coupling, detuning_ba, duration, worst_case=model.worst_case
            )
        errors = np.minimum(errors, model.spectator_error_cap)

    channel_mask = include[..., None]
    fidelity_terms = np.where(channel_mask, 1.0 - errors, 1.0)
    error_terms = np.where(channel_mask, errors, 0.0)
    return fidelity_terms, error_terms


def _step_spectator_reduction(
    duration: float,
    frequencies: np.ndarray,
    present: np.ndarray,
    busy: np.ndarray,
    interacting: np.ndarray,
    inactive_coupler: np.ndarray,
    model: NoiseModel,
    geometry: SpectatorGeometry,
) -> Tuple[float, float, float]:
    """One step's ``(crosstalk fidelity, error total, worst error)``."""
    if geometry.num_pairs == 0:
        return 1.0, 0.0, 0.0
    fidelity_terms, error_terms = _masked_channel_terms(
        frequencies,
        present,
        busy,
        interacting,
        inactive_coupler,
        duration,
        model,
        geometry,
    )
    return (
        float(np.prod(fidelity_terms.reshape(-1))),
        float(np.sum(error_terms.reshape(-1))),
        float(np.max(error_terms.reshape(-1))),
    )


def _vectorized_spectator_errors(
    arrays: _ProgramArrays, model: NoiseModel, geometry: SpectatorGeometry
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-step spectator reductions for a whole program at once.

    Returns ``(step_fidelities, step_error_totals, step_worst_errors)``,
    each of shape ``(S,)``.  The boolean channel mask reproduces the scalar
    oracle's skip rules (zero-duration steps, intended pairs, absent
    frequencies, safe idle-idle pairs, zero effective coupling); channels
    reduce in pair-major / channel-last order within each step, and the
    caller multiplies the per-step results in step order — the same order
    the scalar loop walks.  Each per-step reduction is bit-identical to
    evaluating that step's row alone through
    :func:`_step_spectator_reduction`.
    """
    num_steps, num_pairs = arrays.interacting.shape
    if num_steps == 0 or num_pairs == 0:
        return np.ones(num_steps), np.zeros(num_steps), np.zeros(num_steps)

    fidelity_terms, error_terms = _masked_channel_terms(
        arrays.frequencies,
        arrays.present,
        arrays.busy,
        arrays.interacting,
        arrays.inactive_coupler,
        arrays.durations[:, None],
        model,
        geometry,
    )
    step_fids = np.prod(fidelity_terms.reshape(num_steps, -1), axis=1)
    step_sums = np.sum(error_terms.reshape(num_steps, -1), axis=1)
    step_worsts = np.max(error_terms.reshape(num_steps, -1), axis=1)
    return step_fids, step_sums, step_worsts


def _combine_step_stats(
    step_fids: np.ndarray, step_sums: np.ndarray, step_worsts: np.ndarray
) -> Tuple[float, float, float]:
    """Fold per-step spectator stats into program totals (fixed order)."""
    if step_fids.size == 0:
        return 1.0, 0.0, 0.0
    return (
        float(np.prod(step_fids)),
        float(np.sum(step_sums)),
        float(np.max(step_worsts)),
    )


def _flux_rate_rows(
    frequencies: np.ndarray, params: "_QubitParamArrays", model: NoiseModel
) -> np.ndarray:
    """Flux-dephasing rates for frequency rows/matrices (NaN where absent)."""
    return flux_dephasing_rate_matrix(
        frequencies,
        params.omega_max,
        params.asymmetry,
        params.anharmonicity,
        model.flux_noise_amplitude,
    )


def _decoherence_from_dense(
    device: Device,
    model: NoiseModel,
    durations: np.ndarray,
    present: np.ndarray,
    rates: Optional[np.ndarray],
) -> Dict[int, float]:
    """Vectorized counterpart of :func:`_decoherence_errors`.

    ``rates`` is the ``(S, Q)`` flux-dephasing-rate matrix (may be ``None``
    when flux noise is off).  The time-weighted average is evaluated with
    one fixed expression — ``sum_s (d_s / total) * rate_sq`` reduced along
    the step axis — so callers holding per-step rate rows (the incremental
    estimator) reproduce the from-scratch result bit-exactly by stacking
    their rows.
    """
    num_qubits = device.num_qubits
    total = float(np.sum(durations)) if durations.size else 0.0
    if total <= 0:
        return {q: 0.0 for q in range(num_qubits)}

    params = _device_param_arrays(device)
    extra_rate = np.zeros(num_qubits)
    if model.include_flux_noise and durations.size:
        contributing = present & (durations > 0.0)[:, None]
        weights = (durations / total)[:, None]
        extra_rate = np.sum(np.where(contributing, weights * rates, 0.0), axis=0)

    errors = combined_qubit_error_array(total, params.t1_ns, params.t2_ns, extra_rate)
    return {q: float(errors[q]) for q in range(num_qubits)}


def _vectorized_decoherence_errors(
    program: CompiledProgram, model: NoiseModel, arrays: _ProgramArrays
) -> Dict[int, float]:
    """Per-qubit decoherence errors through the dense data plane.

    The flux kernel runs once per distinct frequency row of the program's
    columns and is then gathered per step: the kernel is elementwise, so
    every rate is bit-identical to evaluating the full ``(S, Q)`` matrix.
    """
    device = program.device
    rates = None
    if model.include_flux_noise and arrays.durations.size:
        columns = program.columns
        row_rates = _flux_rate_rows(columns.frequency_rows, _device_param_arrays(device), model)
        rates = row_rates[columns.frequency_index]
    return _decoherence_from_dense(
        device, model, arrays.durations, arrays.present, rates
    )


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------
def estimate_success(
    program: CompiledProgram,
    model: Optional[NoiseModel] = None,
) -> SuccessReport:
    """Estimate the worst-case success rate of a compiled program (Eq. (4)).

    Evaluates all steps through the dense NumPy arrays, which read the
    program's columnar form (:attr:`~repro.program.CompiledProgram.columns`)
    — on a program decoded from the store no
    :class:`~repro.program.TimeStep` is ever built.  The report agrees with
    the scalar oracle to ~1e-12 on the full benchmark suite (see
    ``tests/noise/test_vectorized_equivalence.py``) and is bit-identical
    between a freshly compiled program and its decoded copy
    (``tests/differential/test_codec_round_trip.py``).

    Returns a :class:`SuccessReport` with the overall estimate and its
    crosstalk / decoherence / calibration-floor components.
    """
    with _span("estimate", program=program.name):
        return _estimate_success_impl(program, model)


def _estimate_success_impl(program: CompiledProgram, model: Optional[NoiseModel]) -> SuccessReport:
    model = model or NoiseModel()
    geometry = spectator_geometry(program.device, model)

    floor = _gate_floor_errors(program, model)

    arrays = _program_arrays(program, geometry)
    crosstalk = _combine_step_stats(*_vectorized_spectator_errors(arrays, model, geometry))
    decoherence = _vectorized_decoherence_errors(program, model, arrays)
    return _success_report(floor, crosstalk, decoherence, program.depth, program.total_duration_ns)


def _success_report(
    floor: Tuple[float, int, int, int],
    crosstalk: Tuple[float, float, float],
    decoherence: Dict[int, float],
    depth: int,
    duration_ns: float,
) -> SuccessReport:
    """Fold the Eq. (4) components into a :class:`SuccessReport`.

    ``floor`` is ``(gate fidelity, #2q, #1q, #virtual)`` and ``crosstalk``
    is ``(fidelity, error total, worst spectator)``.  Shared by
    :func:`estimate_success` and the incremental estimator, so both fold
    the decoherence product and the success rate in one order.
    """
    gate_fidelity, n2q, n1q, nvirtual = floor
    crosstalk_fidelity, crosstalk_total, worst_spectator = crosstalk
    decoherence_fidelity = 1.0
    for err in decoherence.values():
        decoherence_fidelity *= 1.0 - err
    return SuccessReport(
        success_rate=gate_fidelity * crosstalk_fidelity * decoherence_fidelity,
        gate_fidelity_product=gate_fidelity,
        crosstalk_fidelity_product=crosstalk_fidelity,
        decoherence_fidelity_product=decoherence_fidelity,
        crosstalk_error_total=crosstalk_total,
        decoherence_error_per_qubit=decoherence,
        worst_spectator_error=worst_spectator,
        depth=depth,
        duration_ns=duration_ns,
        num_two_qubit_gates=n2q,
        num_single_qubit_gates=n1q,
        num_virtual_single_qubit_gates=nvirtual,
    )


def success_rate(program: CompiledProgram, model: Optional[NoiseModel] = None) -> float:
    """Convenience wrapper returning only the scalar worst-case success rate."""
    return estimate_success(program, model).success_rate
