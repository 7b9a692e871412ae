"""The compile pipeline of Algorithm 1, shared by every Table I strategy.

:class:`CompilerPipeline` implements the pipeline once:

1. route the program onto the device (SWAP insertion when a two-qubit gate
   spans non-adjacent qubits),
2. decompose every entangling gate into hardware-native gates using the
   hybrid strategy (CNOT → CZ, SWAP → sqrt-iSWAP family),
3. color the device connectivity graph once to obtain parking (idle)
   frequencies, and build the distance-``d`` crosstalk graph once (both
   on first compile, so a compiler that only keys a cache hit builds
   neither),
4. slice the program into time steps with the noise-aware queueing
   scheduler (criticality ordering + crosstalk throttling) on the prepared
   circuit's :class:`~repro.circuits.dag.GateTable`,
5. give every step's active couplings their interaction frequencies and
   append the step, with its per-qubit frequencies, to the columns, and
6. emit a :class:`~repro.program.CompiledProgram` annotated with the number
   of colors used, the achieved frequency separations and the compile time.

The strategies differ only in how the scheduler throttles parallelism and
which interaction frequencies a step gets, so each one supplies small
hooks: its scheduler, a per-step interaction-frequency function, its active
couplers, and its cache-signature and metadata extras.

:class:`ColorDynamic` — the paper's contribution — colors the active
subgraph of the crosstalk graph every step and runs the max-separation
frequency solver over the interaction region.  Baseline S
(:class:`repro.baselines.BaselineStatic`) reuses one full-graph coloring;
Baselines N, G and U live in :mod:`repro.baselines` too.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..circuits import Circuit, GateTable, decompose_circuit, route_circuit
from ..devices import Device
from ..devices.device import PREPARED_CACHE_ATTR
from ..graph import Graph
from ..noise.flux import tuning_overhead_ns
from ..obs import get_metrics
from ..obs import span as _span
from ..program import ColumnsBuilder, CompiledProgram, Interaction, TimeStep
from .admission import ADMISSION_POLICIES, StepAdmission, SuccessAdmission
from .coloring import GraphIndex, num_colors
from .crosstalk_graph import build_crosstalk_graph
from .frequencies import IdleAssignment, StepFrequencyAssigner, assign_idle_frequencies
from .partition import FrequencyPartition, default_partition
from .scheduler import NoiseAwareScheduler, ScheduledStep
from .solver import assign_color_frequencies

__all__ = [
    "ColorDynamic",
    "CompilationResult",
    "CompilerPipeline",
    "prepare_gate_table",
    "prepare_native_circuit",
]

Coupling = Tuple[int, int]
#: One step's interaction frequencies: ``(frequency by coupling, number of
#: colors, separation)``; the separation is ``None`` for strategies that do
#: not solve for one.
StepFrequencies = Tuple[Dict[Coupling, float], int, Optional[float]]


def _circuit_needs_routing(device: Device, circuit: Circuit) -> bool:
    if circuit.num_qubits > device.num_qubits:
        return True
    return any(not device.has_edge(*pair) for pair in circuit.couplings())


_MEMO_LOOKUPS = get_metrics().counter(
    "repro_compile_memo_total",
    "In-process compile memo lookups by memo and outcome (hit, miss).",
    ("memo", "outcome"),
)


def prepare_gate_table(
    device: Device, circuit: Circuit, decomposition: str, use_routing: bool
) -> GateTable:
    """Route/remap *circuit* onto *device*, decompose it into native gates
    and lower the result to a :class:`GateTable` (``table.circuit``).

    The shared front half of every compile.  The table is memoized on the
    device instance (and shared with its
    :meth:`~repro.devices.Device.with_tunable_couplers` copies, which have
    the same topology), keyed by the circuit's content
    (gates, width, name) and the preparation knobs — in a sweep, every
    strategy sharing a device prepares and lowers each benchmark exactly
    once; lookups count in ``repro_compile_memo_total{memo="prepare"}``.
    Treat the table and its circuit as read-only.  Mutating
    ``device.graph`` in place without rebuilding the device requires
    :func:`repro.noise.clear_spectator_cache`, which also drops this memo.
    """
    cache: Optional[Dict] = getattr(device, PREPARED_CACHE_ATTR, None)
    if cache is None:
        cache = {}
        setattr(device, PREPARED_CACHE_ATTR, cache)
    # Entries are bucketed by cheap scalars and matched by gate-list
    # equality, which compares identical Gate objects by identity: no gate
    # is hashed, and a circuit extended after a compile lands elsewhere.
    gates = circuit.gates
    bucket = cache.setdefault(
        (len(gates), circuit.num_qubits, circuit.name, decomposition, use_routing), []
    )
    table = next((table for known, table in bucket if known == gates), None)
    _MEMO_LOOKUPS.inc(memo="prepare", outcome="miss" if table is None else "hit")
    if table is None:
        prepared = circuit
        if use_routing and _circuit_needs_routing(device, circuit):
            prepared = route_circuit(circuit, device.graph).circuit
        elif prepared.num_qubits < device.num_qubits:
            prepared = prepared.remap(
                {q: q for q in range(prepared.num_qubits)},
                num_qubits=device.num_qubits,
            )
        table = GateTable(decompose_circuit(prepared, decomposition))
        bucket.append((list(gates), table))
    return table


def prepare_native_circuit(
    device: Device, circuit: Circuit, decomposition: str, use_routing: bool
) -> Circuit:
    """The native circuit of :func:`prepare_gate_table` (same memo)."""
    return prepare_gate_table(device, circuit, decomposition, use_routing).circuit


@dataclass
class CompilationResult:
    """A compiled program plus compile-time statistics (Fig. 13 top panels).

    ``compile_time_s`` is measured with the monotonic ``time.perf_counter``
    clock and always reports the *cold* compilation cost: when a result is
    served from the :mod:`repro.service` program store, the service restores
    the originally measured compile time and reports the (much smaller)
    deserialization latency separately in ``load_time_s`` with
    ``cache_hit=True``, so cache-hit loads are never mistaken for compile
    work in Fig. 13-style compile-time plots.
    """

    program: CompiledProgram
    compile_time_s: float
    max_colors_used: int
    colors_per_step: List[int]
    separations: List[float]
    cache_hit: bool = False  # repro-lint: noncodec(provenance of this process, not of the artifact)
    load_time_s: float = 0.0  # repro-lint: noncodec(measured at load time, never stored)

    @property
    def depth(self) -> int:
        return self.program.depth

    def to_dict(self) -> Dict[str, object]:
        """Versioned plain-dict form (piggybacks on the program codec).

        ``cache_hit``/``load_time_s`` are deliberately not stored: they
        describe how *this* result object was obtained, not the compilation
        itself, and are filled in by the service on load.
        """
        return {
            "program": self.program.to_dict(),
            "compile_time_s": self.compile_time_s,
            "max_colors_used": self.max_colors_used,
            "colors_per_step": list(self.colors_per_step),
            "separations": list(self.separations),
        }

    @classmethod
    def from_dict(
        cls, payload: Dict[str, object], device: Optional["Device"] = None
    ) -> "CompilationResult":
        """Inverse of :meth:`to_dict`.

        *device* is forwarded to :meth:`CompiledProgram.from_dict` to skip
        decoding the stored device when a content-identical live instance is
        available (the program store's cache-hit path).
        """
        return cls(
            program=CompiledProgram.from_dict(payload["program"], device=device),
            compile_time_s=float(payload["compile_time_s"]),
            max_colors_used=int(payload["max_colors_used"]),
            colors_per_step=[int(c) for c in payload["colors_per_step"]],
            separations=[float(s) for s in payload["separations"]],
        )


class CompilerPipeline(ABC):
    """Route → decompose → schedule → annotate, once for every strategy.

    Parameters
    ----------
    device:
        Target device (topology + transmon parameters).
    decomposition:
        Native-gate decomposition strategy (``"hybrid"``, ``"cz"`` or
        ``"iswap"``).
    partition:
        Frequency partition; derived from the device when omitted.
    crosstalk_distance:
        Distance ``d`` used to build the crosstalk graph (default 1).
    use_routing:
        Route the circuit onto the device when it contains two-qubit gates on
        non-adjacent qubits.
    admission:
        Step-admission policy: ``"structural"`` (default) admits gates in
        criticality order, the paper's behaviour; ``"success"`` scores
        candidate gate-to-step placements with an
        :class:`~repro.noise.IncrementalEstimator` preview and admits the
        placement maximizing predicted Eq. (4) success (see
        :mod:`repro.core.admission`).  Part of :meth:`cache_signature`, so
        the two policies key disjoint store entries.
    admission_beam:
        Candidate window per success-admission decision (default 4);
        ignored by the structural policy.

    Subclasses implement :meth:`_make_scheduler` and
    :meth:`_interaction_frequencies`, and may override
    :meth:`_active_couplers`, :meth:`_signature_extras` and
    :meth:`_metadata`.

    Construction only stores knobs: the compile stages (crosstalk graph,
    idle coloring, step-frequency assigner and each strategy's own) are
    cached properties built on first use, so a compiler that serves only
    :meth:`cache_signature` — every cache hit — builds none of them.
    """

    name = "Pipeline"

    def __init__(
        self,
        device: Device,
        *,
        decomposition: str = "hybrid",
        partition: Optional[FrequencyPartition] = None,
        crosstalk_distance: int = 1,
        use_routing: bool = True,
        admission: str = "structural",
        admission_beam: int = 4,
    ) -> None:
        if admission not in ADMISSION_POLICIES:
            raise ValueError(
                f"unknown admission policy {admission!r}; use one of "
                f"{ADMISSION_POLICIES}"
            )
        if admission_beam < 1:
            raise ValueError("admission_beam must be at least 1")
        self.device = device
        self.decomposition = decomposition
        self.partition = partition or default_partition(device)
        self.crosstalk_distance = crosstalk_distance
        self.use_routing = use_routing
        self.admission = admission
        self.admission_beam = admission_beam

    @cached_property
    def crosstalk_graph(self) -> Graph:
        """Distance-``d`` crosstalk graph of the device, built on first use."""
        return build_crosstalk_graph(self.device.graph, self.crosstalk_distance)

    @cached_property
    def idle_assignment(self) -> IdleAssignment:
        """Parking frequencies from coloring the connectivity graph, built on first use."""
        return assign_idle_frequencies(self.device, self.partition)

    @cached_property
    def _assign_step_frequencies(self) -> StepFrequencyAssigner:
        """Per-step qubit frequencies around the idle assignment, built on first use."""
        return StepFrequencyAssigner(self.device, self.idle_assignment.qubit_frequencies)

    @cached_property
    def crosstalk_index(self) -> GraphIndex:
        """Integer-indexed crosstalk graph, built once on first use.

        Shared by every compile of this compiler; strategies whose
        schedulers ignore crosstalk (N, G) never build it.
        """
        return GraphIndex(self.crosstalk_graph)

    # ------------------------------------------------------------------
    # hooks
    # ------------------------------------------------------------------
    @abstractmethod
    def _make_scheduler(self) -> NoiseAwareScheduler:
        """Return the scheduler implementing this strategy's policy."""

    @abstractmethod
    def _interaction_frequencies(self, couplings: Sequence[Coupling]) -> StepFrequencies:
        """Interaction frequencies of one step's active (sorted) couplings.

        Must be a pure function of *couplings*: a compile calls it once per
        distinct sequence of interacting (pair, gate name) and reuses the
        answer for every step that repeats it.
        """

    def _active_couplers(self, step: ScheduledStep) -> Optional[Set[Coupling]]:
        """Couplers switched on during *step*; ``None`` means fixed couplers."""
        return None

    def _signature_extras(self) -> Dict[str, object]:
        """Strategy-specific knobs folded into :meth:`cache_signature`."""
        return {}

    def _metadata(self, compile_time_s: float) -> Dict[str, object]:
        """The emitted program's metadata."""
        return {"decomposition": self.decomposition, "compile_time_s": compile_time_s}

    def _make_admission(self, build_step) -> Optional[StepAdmission]:
        """Admission policy for one compile, or ``None`` for structural.

        The ``"success"`` policy gets a fresh
        :class:`~repro.noise.IncrementalEstimator` under the default noise
        model per compile, so the emitted program depends only on state
        inside :meth:`cache_signature`.
        """
        if self.admission != "success":
            return None
        from ..noise.incremental import IncrementalEstimator

        return SuccessAdmission(
            IncrementalEstimator(self.device), build_step, beam=self.admission_beam
        )

    # ------------------------------------------------------------------
    # cache identity
    # ------------------------------------------------------------------
    def cache_signature(self) -> Dict[str, object]:
        """Everything that determines this compiler's output for a circuit.

        The :mod:`repro.service` cache key hashes this dict together with the
        circuit, so any change to the device physics (couplings, qubit
        parameters, topology) or to a compiler knob produces a different key.
        It reads only the knobs, the partition and the device, never a
        compile stage.
        """
        p = self.partition
        signature: Dict[str, object] = {
            "class": type(self).__name__,
            "device": self.device.to_dict(),
            "crosstalk_distance": self.crosstalk_distance,
            "decomposition": self.decomposition,
            "partition": [
                p.parking_low,
                p.parking_high,
                p.exclusion_low,
                p.exclusion_high,
                p.interaction_low,
                p.interaction_high,
            ],
            "use_routing": self.use_routing,
            "admission": self.admission,
            "admission_beam": self.admission_beam,
        }
        signature.update(self._signature_extras())
        return signature

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def compile(self, circuit: Circuit, name: Optional[str] = None) -> CompilationResult:
        """Compile *circuit* for this device; see the module docstring for stages."""
        start = time.perf_counter()
        # Manually paired (__enter__ here, __exit__ after the schedule loop)
        # so the method body keeps its indentation; if the compile raises,
        # the span is abandoned unrecorded along with the failed compile.
        compile_span = _span(
            "compile",
            circuit=circuit.name,
            strategy=self.name,
            qubits=self.device.num_qubits,
        )
        compile_span.__enter__()
        with _span("prepare"):
            table = prepare_gate_table(self.device, circuit, self.decomposition, self.use_routing)
        scheduler = self._make_scheduler()
        interaction_frequencies = self._interaction_frequencies
        assign_step_frequencies = self._assign_step_frequencies
        active_couplers = self._active_couplers
        settle = self.device.qubits[0].params.flux_tuning_time_ns
        kind_of = table.kind.__getitem__
        builder = ColumnsBuilder(self.device.num_qubits)
        colors_per_step: List[int] = []
        separations: List[float] = []
        # Per distinct sequence of interacting (pair, name): [id, frequency
        # map, interaction frequencies, colors, separation, row once emitted].
        variants: Dict[Tuple[int, ...], List] = {}
        overheads: Dict[Tuple[int, int], float] = {}
        previous: Optional[List] = None

        def interactions_of(step: ScheduledStep, frequencies) -> List[Interaction]:
            names = [table.names[table.name_ids[i]] for i in step.interacting]
            return list(map(Interaction.presorted, step.couplings, names, frequencies))

        def annotate(step: ScheduledStep) -> Tuple[List, float]:
            """A scheduled step's variant and duration, the retuning overhead
            priced against the preceding *finalized* step (no side effects)."""
            key = tuple(map(kind_of, step.interacting))
            variant = variants.get(key)
            if variant is None:
                by_coupling, n_colors, separation = interaction_frequencies(step.couplings)
                frequencies = [by_coupling[coupling] for coupling in step.couplings]
                step_frequencies = assign_step_frequencies(interactions_of(step, frequencies))
                variant = [len(variants), step_frequencies, frequencies, n_colors, separation, None]
                variants[key] = variant
            overhead = 0.0
            if previous is not None:
                overhead = overheads.get((previous[0], variant[0]))
                if overhead is None:
                    overhead = overheads[previous[0], variant[0]] = tuning_overhead_ns(
                        previous[1], variant[1], settle_time_ns=settle
                    )
            return variant, step.base_duration_ns + overhead

        def view(step: ScheduledStep) -> TimeStep:
            """The :class:`TimeStep` a scheduled step becomes (admission previews)."""
            (_, frequencies, interaction_freqs, *_), duration = annotate(step)
            return TimeStep(
                gates=[table.circuit.gates[i] for i in step.indices],
                frequencies=dict(frequencies),
                interactions=interactions_of(step, interaction_freqs),
                duration_ns=duration,
                active_couplers=active_couplers(step),
            )

        admission = self._make_admission(view)

        def emit(step: ScheduledStep) -> None:
            nonlocal previous
            variant, duration = annotate(step)
            if admission is not None:
                admission.observe(view(step))
            row = variant[5]
            if row is None:
                row = variant[5] = builder.add_row(variant[1])
            couplers = active_couplers(step)
            builder.add_step(step.indices, step.interacting, variant[2], row, duration, couplers)
            colors_per_step.append(variant[3])
            if variant[4] is not None and step.couplings:
                separations.append(variant[4])
            previous = variant

        with _span("schedule"):
            scheduler.schedule(table, on_step=emit, admission=admission)
        columns = builder.build(table)
        elapsed = time.perf_counter() - start
        compile_span.__exit__(None, None, None)
        program = CompiledProgram(
            device=self.device,
            columns=columns,
            name=name or circuit.name,
            strategy=self.name,
            idle_frequencies=dict(self.idle_assignment.qubit_frequencies),
            metadata=self._metadata(elapsed),
        )
        return CompilationResult(
            program=program,
            compile_time_s=elapsed,
            max_colors_used=max(colors_per_step, default=0),
            colors_per_step=colors_per_step,
            separations=separations,
        )


class ColorDynamic(CompilerPipeline):
    """Program-specific frequency-aware compiler (the paper's main contribution).

    Every step, the active subgraph of the crosstalk graph is colored and
    the max-separation solver places the colors in the interaction region.

    Parameters
    ----------
    device:
        Target device (topology + transmon parameters).
    max_colors:
        Optional cap on simultaneous interaction frequencies (the tunability
        knob of Fig. 11).  ``None`` leaves the scheduler free.
    conflict_threshold:
        Crowding threshold of the scheduler's crosstalk check.
    **kwargs:
        The shared pipeline parameters of :class:`CompilerPipeline`
        (``crosstalk_distance``, ``decomposition``, ``partition``,
        ``use_routing``, ``admission``, ``admission_beam``).
    """

    name = "ColorDynamic"
    #: Program metadata flag: ``True`` recolors every step, ``False`` (Baseline
    #: S) reuses one program-independent coloring.
    dynamic = True

    def __init__(
        self,
        device: Device,
        *,
        max_colors: Optional[int] = None,
        conflict_threshold: Optional[int] = 3,
        **kwargs,
    ) -> None:
        super().__init__(device, **kwargs)
        self.max_colors = max_colors
        self.conflict_threshold = conflict_threshold
        # Step assignments are pure functions of the active coupling set;
        # layered circuits (XEB, QAOA) repeat the same sets step after step.
        self._step_memo: Dict[Tuple[Coupling, ...], StepFrequencies] = {}

    def _signature_extras(self) -> Dict[str, object]:
        return {"max_colors": self.max_colors, "conflict_threshold": self.conflict_threshold}

    def _metadata(self, compile_time_s: float) -> Dict[str, object]:
        return {
            "decomposition": self.decomposition,
            "crosstalk_distance": self.crosstalk_distance,
            "max_colors": self.max_colors,
            "compile_time_s": compile_time_s,
            "dynamic": self.dynamic,
        }

    def _make_scheduler(self) -> NoiseAwareScheduler:
        return NoiseAwareScheduler(
            crosstalk_graph=self.crosstalk_graph,
            max_colors=self.max_colors,
            conflict_threshold=self.conflict_threshold,
            crosstalk_index=self.crosstalk_index,
        )

    def _interaction_frequencies(self, couplings: Sequence[Coupling]) -> StepFrequencies:
        """Color the step's active subgraph and solve for its frequencies.

        Memoized per active coupling set: layered benchmarks revisit the
        same sets constantly, and the assignment is a pure function of the
        set given this compiler's frozen graph and partition.
        """
        if not couplings:
            return {}, 0, float("inf")
        memo_key = tuple(sorted(couplings))
        cached = self._step_memo.get(memo_key)
        if cached is not None:
            return cached
        with _span("coloring"):
            coloring = self.crosstalk_index.welsh_powell(couplings)
        with _span("solver"):
            freq_by_color, solution = assign_color_frequencies(
                coloring,
                self.partition.interaction_low,
                self.partition.interaction_high,
                anharmonicity=self.device.qubits[0].params.anharmonicity,
            )
        result = (
            {c: freq_by_color[coloring[c]] for c in couplings},
            num_colors(coloring),
            solution.separation,
        )
        self._step_memo[memo_key] = result
        return result
