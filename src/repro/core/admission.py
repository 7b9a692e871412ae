"""Step-admission policies: who decides which gate enters the current step.

The noise-aware scheduler (Algorithm 1) admits gates on *structural*
grounds: gates are scanned in criticality order and a two-qubit gate
enters unless the ``noise_conflict`` predicate (crowding threshold,
``max_colors`` probe) rejects it.  An
:class:`~repro.noise.IncrementalEstimator` scores a *candidate* step in
O(pairs) (:meth:`~repro.noise.IncrementalEstimator.preview_step`), which
makes a second policy possible: let the predicted Eq. (4) success rate
pick the placement.

:class:`StepAdmission` is the protocol between the scheduler and such
policies.  Each cycle's criticality-order fill pass is composition 0.
When ``policy.beam`` is above 1 and the step admits a two-qubit gate, the
scheduler runs the pass up to ``beam - 1`` more times, each with one
two-qubit *leader* moved to the front, re-sorts every **candidate
composition** into criticality order (skipping duplicates) and lets
:meth:`StepAdmission.choose` pick one.  Single-qubit gates are the same in
every composition: gates that are ready together never share a qubit.

* :class:`StructuralAdmission` (``"structural"``, the default) always picks
  composition 0, the paper's behavior.  Its beam is 1, so the scheduler
  never builds an alternative; compilers given ``admission="structural"``
  pass no policy at all.
* :class:`SuccessAdmission` (``"success"``) annotates each composition into
  the time step it *would* become (the compiler supplies the callback) and
  admits the one maximizing the predicted success of the program so far
  plus that step, leaving criticality order only on a strict improvement.
  Which couplings share a step — and so the colorings, separations and
  retuning overheads the program pays — then follows the Eq. (4)
  objective rather than criticality alone.

Both policies admit every structurally admissible gate eventually; they
differ only in *placement*, which changes step composition whenever the
conflict checks are order-sensitive (crowding near the threshold, a
binding color budget, a serializing ``max_parallel_interactions`` cap).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Callable, Sequence, Tuple

from ..constants import ADMISSION_POLICIES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..noise.incremental import IncrementalEstimator
    from ..program import TimeStep
    from .scheduler import ScheduledStep

__all__ = [
    "ADMISSION_POLICIES",
    "StepAdmission",
    "StructuralAdmission",
    "SuccessAdmission",
]

Coupling = Tuple[int, int]


class StepAdmission(ABC):
    """Protocol deciding which candidate step composition is emitted.

    Attributes the scheduler reads
    ------------------------------
    name:
        Stable identifier (``"structural"``, ``"success"``, ...); folded
        into compiler cache signatures so differently admitted programs
        never share a store entry.
    beam:
        At most how many candidate compositions (the structural step plus
        one per distinct two-qubit leader) the scheduler assembles before
        asking :meth:`choose`.  ``1`` degrades to pure criticality order
        regardless of the policy.
    """

    name: str = "abstract"
    beam: int = 1

    @abstractmethod
    def choose(self, candidates: Sequence["ScheduledStep"]) -> int:
        """Pick the composition the current scheduling cycle emits.

        Parameters
        ----------
        candidates:
            Complete candidate steps, at least two.  Candidate 0 is the
            structural (criticality-order) step; every other candidate
            admits one two-qubit leader first and fills the remainder
            structurally, listed in criticality order.  All candidates
            share the same single-qubit gates; treat them as read-only.

        Returns
        -------
        int
            Index into *candidates* of the step to emit.
        """

    def observe(self, step: "TimeStep") -> None:  # noqa: B027 - optional hook, a no-op by design
        """Hook: a finalized, frequency-annotated step was emitted.

        Called by the compilers right after frequency annotation so
        stateful policies can track the program prefix.  The default is a
        no-op.
        """


class StructuralAdmission(StepAdmission):
    """Criticality-order admission — the paper's (and the default) policy.

    Exists so the policy space has an explicit origin.  With a beam of 1
    the scheduler never builds alternatives, so passing this policy and
    passing none run the same single fill pass; compilers given
    ``admission="structural"`` pass none
    (``tests/differential/test_admission_differential.py``).
    """

    name = "structural"
    beam = 1

    def choose(self, candidates: Sequence["ScheduledStep"]) -> int:
        """Always the structural composition."""
        return 0


class SuccessAdmission(StepAdmission):
    """Admit the composition maximizing predicted Eq. (4) success.

    Parameters
    ----------
    estimator:
        :class:`~repro.noise.IncrementalEstimator` holding the program
        prefix (every previously finalized step; :meth:`observe` keeps it
        current).  The policy owns this estimator: sharing one that callers
        also mutate would make compilation output depend on state outside
        the cache key.
    build_step:
        Callback assembling the frequency-annotated
        :class:`~repro.program.TimeStep` a candidate
        :class:`~repro.core.scheduler.ScheduledStep` would produce — the
        compiler's own annotation pipeline (coloring, solver, retuning
        overhead against the previous step), minus side effects.
    beam:
        Compositions considered per scheduling cycle (default 4).  Larger
        beams consider more placements per cycle at proportionally more
        preview cost.

    Raises
    ------
    ValueError
        If ``beam`` is smaller than 1.
    """

    name = "success"

    def __init__(
        self,
        estimator: "IncrementalEstimator",
        build_step: Callable[["ScheduledStep"], "TimeStep"],
        beam: int = 4,
    ) -> None:
        if beam < 1:
            raise ValueError("admission beam must be at least 1")
        self.estimator = estimator
        self.build_step = build_step
        self.beam = beam

    def choose(self, candidates: Sequence["ScheduledStep"]) -> int:
        """Preview every composition; strict improvement beats structural.

        The structural composition (candidate 0) wins all ties, so the
        policy only deviates from the paper's order when the estimator
        predicts a strictly higher success rate for the whole program
        prefix plus the candidate step.
        """
        if len(candidates) == 1:
            return 0
        best_index = 0
        best_score = float("-inf")
        for position, trial in enumerate(candidates):
            score = self.estimator.preview_step(self.build_step(trial))
            if score > best_score:
                best_score = score
                best_index = position
        return best_index

    def observe(self, step: "TimeStep") -> None:
        """Append the finalized step so later previews score the true prefix."""
        self.estimator.append_step(step)
