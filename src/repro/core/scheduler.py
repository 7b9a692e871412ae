"""Noise-aware queueing scheduler (Section V-B6, lines 9-16 of Algorithm 1).

The scheduler slices a native-gate circuit into time steps of gate
indices.  It differs from a plain ASAP scheduler in two ways:

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

The loop reads integers only: the circuit's
:class:`~repro.circuits.dag.GateTable` (lowered once; the compilers
memoize it on the device), the crosstalk graph's
:class:`~repro.core.coloring.GraphIndex`, and a bitset of the step's
active couplings (crowding is a popcount, the ``max_colors`` probe a
bitset coloring).  Each cycle runs one fill pass over the ready queue in
criticality order; a :class:`~repro.core.admission.StepAdmission` policy
with a beam above 1 also gets alternative compositions, each led by one
ready two-qubit gate, and picks the one emitted.  The graph-object loops
survive as test oracles (``tests/differential/oracles.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Set, Tuple, Union

from ..circuits import Circuit, GateTable
from ..graph import Graph
from .admission import StepAdmission
from .coloring import GraphIndex

__all__ = ["NoiseAwareScheduler", "ScheduledStep"]

Coupling = Tuple[int, int]


@dataclass
class ScheduledStep:
    """One scheduler cycle before frequency assignment, as gate indices.

    ``indices`` are the step's gates (into the scheduled
    :class:`~repro.circuits.dag.GateTable`) in criticality order,
    ``interacting`` its two-qubit gates and ``couplings`` their sorted
    pairs, in the same order.  ``base_duration_ns`` is the longest gate
    duration, the step's duration before flux-retuning overhead.
    """

    indices: List[int]
    couplings: List[Coupling]
    interacting: List[int]
    base_duration_ns: float = 0.0


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
        circuit: Union[Circuit, GateTable],
        on_step: Optional[Callable[[ScheduledStep], None]] = None,
        admission: Optional[StepAdmission] = None,
    ) -> List[ScheduledStep]:
        """Slice *circuit* (or its :class:`GateTable`) into time steps.

        The circuit must already be decomposed into native gates and mapped
        onto physical qubits; its dependency order is preserved.  The
        compilers pass the memoized table; a circuit is lowered here.
        *on_step* is invoked with each step the moment it is finalized,
        before the next cycle begins, so the compilers annotate and emit
        one step at a time.  With an *admission* policy whose ``beam`` is
        above 1, each cycle that admits a two-qubit gate also builds up to
        ``beam - 1`` alternative compositions and the policy chooses the
        one emitted.  Returns the finalized steps in execution order.

        Raises
        ------
        RuntimeError
            If the ready gates can never be admitted: a run of empty
            cycles comes back to a tiling pattern it already tried (a
            ready coupling that no pattern allows).
        """
        table = circuit if isinstance(circuit, GateTable) else GateTable(circuit)
        coupling_of = table.pair
        duration_of = table.duration
        sort_keys = [(-score, i) for i, score in enumerate(table.criticality)]
        successors = table.successors
        successor_offsets = table.successor_offsets
        indegree = list(table.indegree)

        index = self.crosstalk_index
        use_conflict = index is not None and self.crosstalk_graph is not None
        if use_conflict:
            adjacency = index.adjacency
            coupling_id_of = table.coupling_ids.get(index)
            if coupling_id_of is None:
                vertex_id = index.vertex_id
                coupling_id_of = table.coupling_ids[index] = [
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

            Gates that are ready together never share a qubit (each
            qubit's gates chain in the dependency DAG), so only two-qubit
            gates are checked: against the tiling pattern *allowed*, the
            parallelism cap, the crowding threshold (popcount of the
            step's active-coupling bitset) and the ``max_colors`` probe.
            *resort* puts the admitted gates back into criticality order,
            for an *order* headed by a leader.
            """
            indices: List[int] = []
            step_couplings: List[Coupling] = []
            interacting: List[int] = []
            active_mask = 0
            base_duration = 0.0
            for _, candidate in order:
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
                    interacting.append(candidate)
                indices.append(candidate)
                duration = duration_of[candidate]
                if duration > base_duration:
                    base_duration = duration
            if resort:
                indices.sort(key=sort_keys.__getitem__)
                interacting = [i for i in indices if coupling_of[i] is not None]
                step_couplings = [coupling_of[i] for i in interacting]
            return ScheduledStep(indices, step_couplings, interacting, base_duration)

        # The ready queue holds the (-score, index) key tuples themselves:
        # tuples sort at C speed without a key function, and the queue is
        # maintained incrementally (filter admitted + merge newly ready)
        # instead of being rebuilt and re-sorted from a set every cycle.
        ready_list = sorted(sort_keys[i] for i in table.roots)
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
                leaders += step.interacting[1:]
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

            if not step.indices:
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

            newly_ready: List[Tuple[float, int]] = []
            for admitted_index in step.indices:
                for successor in successors[
                    successor_offsets[admitted_index] : successor_offsets[admitted_index + 1]
                ]:
                    remaining = indegree[successor] - 1
                    indegree[successor] = remaining
                    if remaining == 0:
                        newly_ready.append(sort_keys[successor])
            newly_ready.sort()
            if len(step.indices) < len(ready_list):
                admitted = set(step.indices)
                ready_list = [e for e in ready_list if e[1] not in admitted]
                # Two sorted runs: timsort merges them in one C-level pass.
                ready_list += newly_ready
                ready_list.sort()
            else:  # the step took every ready gate
                ready_list = newly_ready
            step_index += 1

        return steps
