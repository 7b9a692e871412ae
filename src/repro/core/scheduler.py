"""Noise-aware queueing scheduler (Section V-B6, lines 9-16 of Algorithm 1).

The scheduler consumes a native-gate circuit and emits time steps (lists of
gates).  It differs from a plain ASAP scheduler in two ways:

* gates are considered in order of decreasing *criticality* (remaining
  critical-path length), so that when serialization is necessary it is the
  least critical gates that wait, keeping the program depth close to optimal;
* before admitting a two-qubit gate into the current step, the
  ``noise_conflict`` predicate checks whether the gate's coupling would be
  crowded by the couplings already admitted — either because too many of its
  crosstalk-graph neighbours are active, or because admitting it would push
  the number of required interaction-frequency colors beyond the budget
  (``max_colors``, the tunability knob studied in Fig. 11).

Gates that conflict are postponed to a later step: this is the controlled
trade of parallelism for crosstalk described in the paper.

The loop runs over integer-indexed kernels: the crosstalk graph is
flattened into a :class:`~repro.core.coloring.GraphIndex` once, the step's
active couplings are a bitset updated per admitted gate, crowding is a
popcount and the ``max_colors`` probe a bitset coloring.  One pass builds a
step from the ready queue in a given order, and every cycle emits the pass
in criticality order — unless a
:class:`~repro.core.admission.StepAdmission` policy with a beam above 1 is
passed to :meth:`NoiseAwareScheduler.schedule`.  Then the cycle also
builds alternative compositions, each led by one ready two-qubit gate, and
the policy picks the one emitted (the ``"success"`` policy scores them
with :meth:`~repro.noise.IncrementalEstimator.preview_step`).  With no
policy, or the beam-1 ``"structural"`` one, no alternative is built, so
the default is the paper's behavior.  The original graph-object loop and
policy-driven loop survive as test oracles
(``tests/differential/oracles.py``) that production is pinned against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Set, Tuple

from ..circuits import Circuit, Gate, gate_dependencies
from ..circuits.dag import criticality_scores
from ..graph import Graph
from .admission import StepAdmission
from .coloring import GraphIndex

__all__ = ["NoiseAwareScheduler", "ScheduledStep"]

Coupling = Tuple[int, int]


@dataclass
class ScheduledStep:
    """One scheduler cycle before frequency assignment.

    ``base_duration_ns`` is the longest gate duration of the step (the
    step's duration before flux-retuning overhead); the scheduler computes
    it while admitting gates so the compilers need not walk the gate list
    again.
    """

    gates: List[Gate] = field(default_factory=list)
    couplings: List[Coupling] = field(default_factory=list)
    indices: List[int] = field(default_factory=list)
    base_duration_ns: float = 0.0
    #: The two-qubit gate behind each entry of ``couplings``, in the same
    #: order, so frequency annotation never re-derives which gates interact.
    interaction_gates: List[Gate] = field(default_factory=list)


class NoiseAwareScheduler:
    """Queueing scheduler that throttles parallelism to avoid crosstalk.

    Parameters
    ----------
    crosstalk_graph:
        The device's crosstalk graph (vertices are couplings).  ``None``
        disables conflict checks entirely (the behaviour of the naive
        baseline scheduler).
    max_colors:
        Maximum number of interaction-frequency colors allowed per step.
        ``None`` means unbounded (the scheduler still avoids *direct*
        conflicts through ``conflict_threshold``).
    conflict_threshold:
        Maximum number of already-admitted crosstalk-graph neighbours a new
        two-qubit gate may have.  The paper postpones a gate when "too many"
        neighbours are active; the default of 3 keeps the per-step coloring
        small without over-serialising.
    allowed_couplings:
        Optional whitelist of couplings permitted per step index (used by the
        gmon tiling scheduler); a callable mapping the step index to a set of
        couplings.
    max_parallel_interactions:
        Hard cap on simultaneous two-qubit gates per step.  ``1`` gives the
        fully serial scheduler of Baseline U; ``None`` (default) leaves
        parallelism to the conflict checks.
    crosstalk_index:
        Pre-built :class:`GraphIndex` of ``crosstalk_graph`` (compilers
        build it once and share it across compiles); derived on demand when
        omitted.
    """

    def __init__(
        self,
        crosstalk_graph: Optional[Graph] = None,
        max_colors: Optional[int] = None,
        conflict_threshold: Optional[int] = 3,
        allowed_couplings=None,
        max_parallel_interactions: Optional[int] = None,
        crosstalk_index: Optional[GraphIndex] = None,
    ) -> None:
        if max_colors is not None and max_colors < 1:
            raise ValueError("max_colors must be at least 1")
        if conflict_threshold is not None and conflict_threshold < 1:
            raise ValueError("conflict_threshold must be at least 1")
        if max_parallel_interactions is not None and max_parallel_interactions < 1:
            raise ValueError("max_parallel_interactions must be at least 1")
        self.crosstalk_graph = crosstalk_graph
        self.max_colors = max_colors
        self.conflict_threshold = conflict_threshold
        self.allowed_couplings = allowed_couplings
        self.max_parallel_interactions = max_parallel_interactions
        if crosstalk_graph is not None and crosstalk_index is None:
            crosstalk_index = GraphIndex(crosstalk_graph)
        self.crosstalk_index = crosstalk_index

    # ------------------------------------------------------------------
    def schedule(
        self,
        circuit: Circuit,
        on_step: Optional[Callable[[ScheduledStep], None]] = None,
        admission: Optional[StepAdmission] = None,
    ) -> List[ScheduledStep]:
        """Slice *circuit* into crosstalk-aware time steps.

        Parameters
        ----------
        circuit:
            The program to schedule.  It must already be decomposed into
            native gates and mapped onto physical qubits; the scheduler
            preserves the dependency order of the input program.
        on_step:
            Invoked with each step the moment it is finalized — before the
            next scheduling cycle begins — so callers (the compilers) can
            annotate frequencies and feed an
            :class:`~repro.noise.IncrementalEstimator` one mutation at a
            time instead of re-deriving whole-program state afterwards.
        admission:
            Optional :class:`~repro.core.admission.StepAdmission` policy.
            With a ``beam`` above 1, each cycle that admits a two-qubit
            gate also builds up to ``beam - 1`` alternative compositions
            and lets the policy choose which one is emitted; ``None`` (or
            a beam of 1) emits the criticality-order step.

        Returns
        -------
        list[ScheduledStep]
            The finalized steps, in execution order.

        Raises
        ------
        RuntimeError
            If the ready gates can never be admitted: a run of empty
            cycles comes back to a tiling pattern it already tried (a
            ready coupling that no pattern allows).
        """
        gates = circuit.gates
        n = len(gates)
        successor_lists, indegree = gate_dependencies(circuit)
        scores = criticality_scores(successor_lists, gates, weighted=True)
        specs = [gate.spec for gate in gates]
        duration_of = [spec.duration_ns for spec in specs]
        coupling_of = [
            tuple(sorted(gate.qubits)) if spec.num_qubits == 2 else None
            for gate, spec in zip(gates, specs)
        ]
        sort_keys = [(-scores[i], i) for i in range(n)]

        index = self.crosstalk_index
        use_conflict = index is not None and self.crosstalk_graph is not None
        if use_conflict:
            adjacency = index.adjacency
            vertex_id = index.vertex_id
            coupling_id_of = [
                vertex_id.get(coupling) if coupling is not None else None
                for coupling in coupling_of
            ]
        threshold = self.conflict_threshold
        max_colors = self.max_colors
        max_parallel = self.max_parallel_interactions
        allowed_fn = self.allowed_couplings
        beam = admission.beam if admission is not None else 1

        def fill(order, allowed, resort: bool = False) -> ScheduledStep:
            """Admit the ready-queue entries of *order* in turn.

            Gates that are ready together never share a qubit
            (``gate_dependencies`` chains each qubit's gates), so only
            two-qubit gates are checked: against the tiling pattern
            *allowed*, the parallelism cap, the crowding threshold
            (popcount of the step's active-coupling bitset) and the
            ``max_colors`` probe.  *resort* puts the admitted gates back
            into criticality order, for an *order* headed by a leader.
            """
            step = ScheduledStep()
            step_couplings = step.couplings
            active_mask = 0
            base_duration = 0.0
            for entry in order:
                candidate = entry[1]
                coupling = coupling_of[candidate]
                if coupling is not None:
                    if allowed is not None and coupling not in allowed:
                        continue
                    if max_parallel is not None and len(step_couplings) >= max_parallel:
                        continue
                    if use_conflict:
                        coupling_id = coupling_id_of[candidate]
                        if (
                            threshold is not None
                            and coupling_id is not None
                            and (adjacency[coupling_id] & active_mask).bit_count()
                            >= threshold
                        ):
                            continue
                        if max_colors is not None:
                            if coupling_id is None:
                                # A coupling that is not an edge of the
                                # device is an error.
                                raise KeyError(
                                    f"coupling {coupling} is not an edge of the device"
                                )
                            # A set of <= max_colors vertices always colors
                            # within the budget (each vertex sees fewer
                            # colored neighbours than colors), so the probe
                            # only runs when a deferral is possible at all.
                            if len(step_couplings) + 1 > max_colors:
                                _, deferred = index.bounded(
                                    max_colors, step_couplings + [coupling]
                                )
                                if deferred:
                                    continue
                        if coupling_id is not None:
                            active_mask |= 1 << coupling_id
                    step_couplings.append(coupling)
                    step.interaction_gates.append(gates[candidate])
                step.gates.append(gates[candidate])
                step.indices.append(candidate)
                duration = duration_of[candidate]
                if duration > base_duration:
                    base_duration = duration
            step.base_duration_ns = base_duration
            if resort:
                step.indices.sort(key=sort_keys.__getitem__)
                step.gates = [gates[i] for i in step.indices]
                interacting = [i for i in step.indices if coupling_of[i] is not None]
                step.couplings = [coupling_of[i] for i in interacting]
                step.interaction_gates = [gates[i] for i in interacting]
            return step

        # The ready queue holds the (-score, index) key tuples themselves:
        # tuples sort at C speed without a key function, and the queue is
        # maintained incrementally (filter admitted + merge newly ready)
        # instead of being rebuilt and re-sorted from a set every cycle.
        ready_list = sorted(sort_keys[i] for i in range(n) if indegree[i] == 0)
        steps: List[ScheduledStep] = []
        step_index = 0
        # Tiling patterns tried by the current run of empty cycles.
        tried: Set[Optional[frozenset]] = set()

        while ready_list:
            allowed = allowed_fn(step_index) if allowed_fn is not None else None
            step = fill(ready_list, allowed)

            if beam > 1 and step.couplings:
                # Alternative compositions, most-different first: each
                # offers one leader before the criticality-order fill —
                # gates the step deferred (forcing one in changes the set
                # for sure), then its admitted two-qubit gates after the
                # first (which differ only when the conflict checks are
                # order-sensitive).  Duplicates are skipped, so an
                # unconflicted cycle costs the policy nothing.  A leader
                # is only ever rejected by the tiling pattern (nothing
                # else can reject the first gate of a step), and then the
                # pass repeats the step itself: a duplicate.
                candidates = [step]
                seen = {tuple(step.indices)}
                admitted = set(step.indices)
                leaders = [
                    entry[1]
                    for entry in ready_list
                    if coupling_of[entry[1]] is not None and entry[1] not in admitted
                ]
                leaders += [i for i in step.indices if coupling_of[i] is not None][1:]
                for leader in leaders:
                    if len(candidates) >= beam:
                        break
                    order = [sort_keys[leader]] + [e for e in ready_list if e[1] != leader]
                    alternative = fill(order, allowed, resort=True)
                    if tuple(alternative.indices) in seen:
                        continue
                    seen.add(tuple(alternative.indices))
                    candidates.append(alternative)
                if len(candidates) > 1:
                    step = candidates[admission.choose(candidates)]

            if not step.gates:
                # The tiling pattern blocks every ready gate: advance it,
                # until the run of empty cycles returns to a pattern it has
                # already tried.
                pattern = frozenset(allowed) if allowed is not None else None
                if pattern in tried:
                    blocked = sorted({coupling_of[entry[1]] for entry in ready_list})
                    raise RuntimeError(
                        f"scheduler made no progress: coupling(s) {blocked} are never admitted"
                    )
                tried.add(pattern)
                step_index += 1
                continue
            tried.clear()

            steps.append(step)
            if on_step is not None:
                on_step(step)

            admitted = set(step.indices)
            newly_ready: List[Tuple[float, int]] = []
            for admitted_index in step.indices:
                for successor in successor_lists[admitted_index]:
                    remaining = indegree[successor] - 1
                    indegree[successor] = remaining
                    if remaining == 0:
                        newly_ready.append(sort_keys[successor])
            remaining_ready = [e for e in ready_list if e[1] not in admitted]
            if newly_ready:
                newly_ready.sort()
                remaining_ready += newly_ready
                # Two sorted runs: timsort merges them in one C-level pass.
                remaining_ready.sort()
            ready_list = remaining_ready
            step_index += 1

        return steps
