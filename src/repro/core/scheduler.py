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
popcount and the ``max_colors`` probe a bitset coloring.  A second,
policy-driven loop runs when a
:class:`~repro.core.admission.StepAdmission` policy is passed to
:meth:`NoiseAwareScheduler.schedule`: single-qubit gates are admitted in
criticality order as usual, but each two-qubit admission is delegated to
the policy, which picks among a beam of structurally admissible candidates
(the ``"success"`` policy scores them with
:meth:`~repro.noise.IncrementalEstimator.preview_step`).  With no policy —
or the ``"structural"`` one — the structural loop runs untouched, so the
default remains bit-identical to the paper's behavior.  The original
networkx loop survives as a test oracle (``tests/differential/oracles.py``)
that both loops are pinned against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Set, Tuple

import networkx as nx

from ..circuits import Circuit, Gate, gate_dependencies
from ..circuits.dag import criticality_scores
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
        crosstalk_graph: Optional[nx.Graph] = None,
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
            Optional :class:`~repro.core.admission.StepAdmission` policy
            deciding which two-qubit gate enters the current step next.
            ``None`` — or a policy named ``"structural"`` — runs the
            criticality-order loop untouched; any other policy routes
            through the policy-driven loop, which gathers a beam of
            admissible candidates per decision and admits the policy's
            choice.

        Returns
        -------
        list[ScheduledStep]
            The finalized steps, in execution order.

        Raises
        ------
        RuntimeError
            If a scheduling cycle admits no gate while no tiling pattern is
            in play (a circular conflict; cannot happen for well-formed
            circuits).
        """
        if admission is not None and admission.name != "structural":
            return self._schedule_admission(circuit, on_step, admission)
        return self._schedule_structural(circuit, on_step)

    def _schedule_structural(
        self,
        circuit: Circuit,
        on_step: Optional[Callable[[ScheduledStep], None]] = None,
    ) -> List[ScheduledStep]:
        """The criticality-order scheduling loop.

        Flat successor lists and one criticality sweep stand in for a DAG
        object; per-gate metadata (sorted coupling, qubits) is resolved
        once instead of per readiness probe; the ready queue is a sorted
        list maintained incrementally under the static ``(-score, index)``
        key instead of being re-sorted every cycle; and the crosstalk
        conflict checks run on the step's active-coupling bitset.
        """
        gates = circuit.gates
        n = len(gates)
        successor_lists, indegree = gate_dependencies(circuit)
        scores = criticality_scores(successor_lists, gates, weighted=True)
        qubits_of = [gate.qubits for gate in gates]
        specs = [gate.spec for gate in gates]
        duration_of = [spec.duration_ns for spec in specs]
        coupling_of = [
            tuple(sorted(gate.qubits)) if spec.num_qubits == 2 else None
            for gate, spec in zip(gates, specs)
        ]
        sort_keys = [(-scores[i], i) for i in range(n)]

        index = self.crosstalk_index
        use_conflict = index is not None and self.crosstalk_graph is not None
        adjacency = index.adjacency if use_conflict else None
        if use_conflict:
            vertex_id = index.vertex_id
            coupling_id_of = [
                vertex_id.get(coupling) if coupling is not None else None
                for coupling in coupling_of
            ]
        else:
            coupling_id_of = None
        threshold = self.conflict_threshold
        max_colors = self.max_colors
        max_parallel = self.max_parallel_interactions
        allowed_fn = self.allowed_couplings

        # The ready queue holds the (-score, index) key tuples themselves:
        # tuples sort at C speed without a key function, and the queue is
        # maintained incrementally (filter admitted + merge newly ready)
        # instead of being rebuilt and re-sorted from a set every cycle.
        ready_list = sorted(sort_keys[i] for i in range(n) if indegree[i] == 0)
        steps: List[ScheduledStep] = []
        step_index = 0

        while ready_list:
            step = ScheduledStep()
            step_couplings = step.couplings
            busy_qubits: Set[int] = set()
            active_mask = 0
            base_duration = 0.0
            allowed = allowed_fn(step_index) if allowed_fn is not None else None

            for entry in ready_list:
                candidate = entry[1]
                qubits = qubits_of[candidate]
                if qubits[0] in busy_qubits or qubits[-1] in busy_qubits:
                    continue
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
                busy_qubits.update(qubits)

            if not step.gates:
                # Nothing admitted this cycle (e.g. the tiling pattern blocks
                # every ready gate); advance the pattern instead of looping
                # forever, but only when a pattern is in play.
                if allowed is None:
                    raise RuntimeError("scheduler made no progress; circular conflict")
                step_index += 1
                continue

            step.base_duration_ns = base_duration
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

    def _admission_checks(self) -> Tuple[Callable, Callable]:
        """``(conflicts, extend_mask)`` of the policy-driven loop.

        ``conflicts(coupling, step_couplings, active_mask)`` says whether
        the crosstalk checks reject *coupling* next to the step's admitted
        couplings, whose bitset is ``active_mask``;
        ``extend_mask(active_mask, coupling)`` adds an admitted coupling to
        that bitset.
        """
        index = self.crosstalk_index
        if index is None or self.crosstalk_graph is None:

            def never_conflicts(coupling, step_couplings, active_mask) -> bool:
                return False

            def same_mask(active_mask: int, coupling: Coupling) -> int:
                return active_mask

            return never_conflicts, same_mask
        threshold = self.conflict_threshold
        max_colors = self.max_colors
        adjacency = index.adjacency
        vertex_id = index.vertex_id

        # Deliberate duplicate of the predicate inlined in
        # _schedule_structural (kept inline there for hot-loop speed); the
        # two copies are pinned decision-identical by
        # tests/core/test_admission.py::TestStructuralPolicy — change one,
        # change both.
        def conflicts(coupling, step_couplings, active_mask) -> bool:
            coupling_id = vertex_id.get(coupling)
            if (
                threshold is not None
                and coupling_id is not None
                and (adjacency[coupling_id] & active_mask).bit_count() >= threshold
            ):
                return True
            if max_colors is not None:
                if coupling_id is None:
                    raise KeyError(f"coupling {coupling} is not an edge of the device")
                if len(step_couplings) + 1 > max_colors:
                    _, deferred = index.bounded(max_colors, step_couplings + [coupling])
                    if deferred:
                        return True
            return False

        def extend_mask(active_mask: int, coupling: Coupling) -> int:
            coupling_id = vertex_id.get(coupling)
            return active_mask | (1 << coupling_id) if coupling_id is not None else active_mask

        return conflicts, extend_mask

    def _schedule_admission(
        self,
        circuit: Circuit,
        on_step: Optional[Callable[[ScheduledStep], None]],
        policy: StepAdmission,
    ) -> List[ScheduledStep]:
        """Policy-driven scheduling loop (see the module docstring).

        Single-qubit gates are admitted in criticality order exactly like
        the structural loop.  For the two-qubit placement, up to
        ``policy.beam`` complete candidate compositions are assembled —
        composition *k* admits the *k*-th admissible two-qubit gate first
        and fills the remainder of the step structurally — and the policy
        chooses which composition the cycle emits.  Composition 0 is the
        structural step, so a policy that never deviates reproduces the
        structural loop's decisions exactly.

        Structural admissibility is evaluated by :meth:`_admission_checks`,
        the same bitset popcount/probe as the structural loop, so for a
        given admission order the two loops make identical decisions.
        """
        gates = circuit.gates
        n = len(gates)
        successor_lists, indegree = gate_dependencies(circuit)
        scores = criticality_scores(successor_lists, gates, weighted=True)
        coupling_of = [
            tuple(sorted(gate.qubits)) if gate.spec.num_qubits == 2 else None
            for gate in gates
        ]
        sort_keys = [(-scores[i], i) for i in range(n)]

        max_parallel = self.max_parallel_interactions
        allowed_fn = self.allowed_couplings
        beam = max(1, policy.beam)
        conflicts, extend_mask = self._admission_checks()

        ready_list = sorted(sort_keys[i] for i in range(n) if indegree[i] == 0)
        steps: List[ScheduledStep] = []
        step_index = 0

        while ready_list:
            busy_qubits: Set[int] = set()
            allowed = allowed_fn(step_index) if allowed_fn is not None else None

            # Phase 1: single-qubit gates in criticality order.  Gates that
            # are simultaneously ready never share a qubit (dependencies are
            # per-qubit chains), so these admissions are independent of the
            # two-qubit placement decisions below.
            single_qubit: List[int] = []
            pending: List[int] = []
            for entry in ready_list:
                candidate = entry[1]
                if set(gates[candidate].qubits) & busy_qubits:
                    continue
                if coupling_of[candidate] is not None:
                    pending.append(candidate)
                    continue
                single_qubit.append(candidate)
                busy_qubits.update(gates[candidate].qubits)

            def compose(leader: Optional[int]) -> Optional[List[int]]:
                """Two-qubit indices of the composition led by *leader*.

                Admits *leader* first (``None`` means pure criticality
                order), then fills the step structurally: the remaining
                pending gates are scanned in criticality order through the
                same busy/allowed/conflict checks as the structural loop.
                Returns ``None`` when *leader* itself is inadmissible.
                """
                admitted: List[int] = []
                couplings: List[Coupling] = []
                busy = set(busy_qubits)
                active_mask = 0
                order = pending if leader is None else [leader] + [
                    i for i in pending if i != leader
                ]
                for candidate in order:
                    if max_parallel is not None and len(couplings) >= max_parallel:
                        break
                    gate = gates[candidate]
                    if set(gate.qubits) & busy:
                        continue
                    coupling = coupling_of[candidate]
                    if allowed is not None and coupling not in allowed:
                        if candidate == leader:
                            return None
                        continue
                    if conflicts(coupling, couplings, active_mask):
                        if candidate == leader:
                            return None
                        continue
                    admitted.append(candidate)
                    couplings.append(coupling)
                    busy.update(gate.qubits)
                    active_mask = extend_mask(active_mask, coupling)
                return admitted

            def assemble(two_qubit: List[int]) -> ScheduledStep:
                """Build a criticality-ordered step from phase-1 + *two_qubit*."""
                step = ScheduledStep()
                step.indices = sorted(single_qubit + two_qubit, key=lambda i: sort_keys[i])
                step.gates = [gates[i] for i in step.indices]
                interacting = [i for i in step.indices if coupling_of[i] is not None]
                step.couplings = [coupling_of[i] for i in interacting]
                step.interaction_gates = [gates[i] for i in interacting]
                step.base_duration_ns = max(
                    (g.duration_ns for g in step.gates), default=0.0
                )
                return step

            # Phase 2: assemble one candidate composition per admissible
            # leader (criticality order, up to the beam) and let the policy
            # pick.  The structural composition is always candidate 0.
            structural = compose(None)
            candidates: List[ScheduledStep] = []
            if structural:
                candidates.append(assemble(structural))
                seen = {tuple(sorted(structural))}
                # Alternative leaders, most-different first: gates the
                # structural composition deferred (forcing one in changes
                # the set for sure), then reorderings of the admitted ones
                # (which differ only when the conflict checks are
                # order-sensitive).  Duplicate compositions are skipped, so
                # an unconflicted cycle costs the policy nothing.
                admitted_set = set(structural)
                deferred = [i for i in pending if i not in admitted_set]
                for leader in deferred + structural[1:]:
                    if len(candidates) >= beam:
                        break
                    alternative = compose(leader)
                    if alternative is None:
                        continue
                    key = tuple(sorted(alternative))
                    if key in seen:
                        continue
                    seen.add(key)
                    candidates.append(assemble(alternative))

            if candidates:
                pick = 0 if len(candidates) == 1 else policy.choose(candidates)
                step = candidates[pick]
            else:
                step = assemble([])

            if not step.gates:
                # Nothing admitted this cycle (e.g. the tiling pattern blocks
                # every ready gate); advance the pattern instead of looping
                # forever, but only when a pattern is in play.
                if allowed is None:
                    raise RuntimeError("scheduler made no progress; circular conflict")
                step_index += 1
                continue

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
                remaining_ready.sort()
            ready_list = remaining_ready
            step_index += 1

        return steps
