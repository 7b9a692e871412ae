"""Incremental Eq. (4) estimation for the compiler's inner loop.

The estimator in :mod:`repro.noise.metrics` re-derives the whole
dense program representation — the ``steps x qubits`` frequency matrix, the
busy/interacting masks, every spectator channel — on every call.  That is
the right shape for scoring a finished program, but the wrong shape for a
compiler that mutates one time step at a time: re-estimating after each
mutation costs O(program).

:class:`IncrementalEstimator` keeps per-step results *alive* between
mutations.  Each time step is evaluated once, from one row of the data
plane (its frequency row, presence/busy masks, interacting/inactive pair
masks), and keeps what the report folds: its presence mask, its flux-noise
rate row, its already-reduced spectator statistics (crosstalk fidelity,
error total, worst channel) and its per-gate-name counts.  Appending or
previewing a step therefore touches only that step's row — O(pairs)
work — and producing a full :class:`~repro.noise.SuccessReport`
only folds the per-step scalars plus one cheap dense pass over the
``steps x qubits`` decoherence weights (the program-duration normalisation
is inherently global).

**Bit-exactness contract.**  After any sequence of appends, :meth:`report`
is bit-identical to ``estimate_success(program, model)`` on
the program assembled from the current steps — for every strategy and every
noise-model configuration.  This works because both paths build the same
dense rows (:func:`~repro.noise.metrics._step_dense_row` here, the
vectorized :func:`~repro.noise.metrics._program_arrays` over the program's
columns there), share the same reduction kernels
(:func:`~repro.noise.metrics._step_spectator_reduction`,
:func:`~repro.noise.metrics._decoherence_from_dense`,
:func:`~repro.noise.metrics._floor_fidelity_from_counts`), and every
reduction is evaluated with a fixed shape and order; the differential suite
(``tests/differential/test_incremental_estimator.py``) locks the contract
down over randomized append and preview sequences.

**Incremental invariants.**  Between mutations the estimator holds, per
step: the step's duration and presence mask, its already
reduced spectator statistics (fidelity, error total, worst channel), its
flux-rate row and its per-gate-name counts.  Nothing global is cached —
the program-level folds (fidelity products, the duration-normalized
decoherence average) are re-evaluated per :meth:`~IncrementalEstimator.report`
call over the per-step scalars, which is what keeps every mutation O(one
step) while the report stays a pure function of the current step sequence.

The estimator can also *drive* compilation: a compiler built with
``admission="success"`` makes the scheduler score candidate step
compositions with :meth:`~IncrementalEstimator.preview_step` and emit the
one maximizing predicted success (see :mod:`repro.core.admission`).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..devices import Device
from ..program import TimeStep
from .metrics import (
    NoiseModel,
    SuccessReport,
    _combine_step_stats,
    _decoherence_from_dense,
    _device_param_arrays,
    _floor_fidelity_from_counts,
    _flux_rate_rows,
    _step_dense_row,
    _step_spectator_reduction,
    _success_report,
    spectator_geometry,
)

__all__ = ["IncrementalEstimator"]


class _StepState:
    """Everything the estimator keeps per time step."""

    __slots__ = (
        "duration",
        "present",
        "rate_row",
        "fidelity",
        "error_total",
        "worst",
        "gate_counts",
    )

    def __init__(
        self,
        duration: float,
        present: np.ndarray,
        rate_row: Optional[np.ndarray],
        fidelity: float,
        error_total: float,
        worst: float,
        gate_counts: Dict[str, int],
    ) -> None:
        self.duration = duration
        self.present = present
        self.rate_row = rate_row
        self.fidelity = fidelity
        self.error_total = error_total
        self.worst = worst
        self.gate_counts = gate_counts


class IncrementalEstimator:
    """Maintain Eq. (4) estimator state under single-step mutations.

    Parameters
    ----------
    device:
        The device the (partial) program runs on; the spectator geometry is
        resolved once through the device-level cache.
    model:
        Noise model the estimate is evaluated under (default
        :class:`NoiseModel()`); fixed for the lifetime of the estimator.

    The estimator is deliberately independent of any
    :class:`~repro.program.CompiledProgram` instance: the compilers append
    steps as they emit them.
    """

    def __init__(self, device: Device, model: Optional[NoiseModel] = None) -> None:
        self.device = device
        self.model = model or NoiseModel()
        self.geometry = spectator_geometry(device, self.model)
        self._params = _device_param_arrays(device)
        self._steps: List[_StepState] = []

    # ------------------------------------------------------------------
    # mutations
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._steps)

    def _evaluate_step(self, step: TimeStep) -> _StepState:
        """O(pairs) evaluation of one step's row of the data plane."""
        duration, frequencies, present, busy, interacting, inactive = _step_dense_row(
            step, self.geometry, self.device.num_qubits
        )
        fidelity, error_total, worst = _step_spectator_reduction(
            duration,
            frequencies,
            present,
            busy,
            interacting,
            inactive,
            self.model,
            self.geometry,
        )
        rate_row: Optional[np.ndarray] = None
        if self.model.include_flux_noise:
            rate_row = _flux_rate_rows(frequencies, self._params, self.model)
        counts: Dict[str, int] = {}
        for gate in step.gates:
            counts[gate.name] = counts.get(gate.name, 0) + 1
        return _StepState(
            duration=duration,
            present=present,
            rate_row=rate_row,
            fidelity=fidelity,
            error_total=error_total,
            worst=worst,
            gate_counts=counts,
        )

    def append_step(self, step: TimeStep) -> None:
        """Append a newly scheduled step (O(pairs))."""
        self._steps.append(self._evaluate_step(step))

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def report(self) -> SuccessReport:
        """Full success report for the current step sequence.

        Bit-identical to ``estimate_success(program, model)`` on a program
        holding the same steps.
        """
        steps = self._steps
        model = self.model

        counts: Dict[str, int] = {}
        for state in steps:
            for name, count in state.gate_counts.items():
                counts[name] = counts.get(name, 0) + count
        floor = _floor_fidelity_from_counts(counts, model)

        step_fids = np.array([state.fidelity for state in steps])
        step_sums = np.array([state.error_total for state in steps])
        step_worsts = np.array([state.worst for state in steps])
        crosstalk = _combine_step_stats(step_fids, step_sums, step_worsts)

        durations = np.array([state.duration for state in steps])
        num_qubits = self.device.num_qubits
        if steps:
            present = np.vstack([state.present for state in steps])
            rates: Optional[np.ndarray] = None
            if model.include_flux_noise:
                rates = np.vstack([state.rate_row for state in steps])
        else:
            present = np.zeros((0, num_qubits), dtype=bool)
            rates = None
        decoherence = _decoherence_from_dense(
            self.device, model, durations, present, rates
        )
        return _success_report(
            floor, crosstalk, decoherence, len(steps), sum(state.duration for state in steps)
        )

    def success_rate(self) -> float:
        """Scalar worst-case success rate of the current step sequence."""
        return self.report().success_rate

    def preview_step(self, step: TimeStep, index: Optional[int] = None) -> float:
        """Success rate *if* ``step`` were appended (or replaced at *index*).

        The candidate-evaluation entry point — the success-aware admission
        policy (:class:`repro.core.SuccessAdmission`) scores every
        candidate step composition through it.

        Parameters
        ----------
        step:
            The fully frequency-annotated candidate
            :class:`~repro.program.TimeStep`.
        index:
            ``None`` (default) previews an append; an integer previews
            replacing the step at that position.

        Returns
        -------
        float
            ``report().success_rate`` of the hypothetical program — one
            O(pairs) row evaluation plus the O(steps) fold; the
            estimator's own state is restored before returning, even if
            the evaluation raises.

        Raises
        ------
        IndexError
            If *index* is given and out of range.
        """
        state = self._evaluate_step(step)
        previous: Optional[_StepState] = None
        if index is None:
            self._steps.append(state)
        else:
            previous = self._steps[index]
            self._steps[index] = state
        try:
            return self.report().success_rate
        finally:
            if index is None:
                self._steps.pop()
            else:
                self._steps[index] = previous
