"""repro — frequency-aware compilation for crosstalk mitigation on superconducting qubits.

A from-scratch reproduction of Ding et al., "Systematic Crosstalk Mitigation
for Superconducting Qubits via Frequency-Aware Compilation" (MICRO 2020).

The top-level namespace re-exports the pieces most users need:

* :class:`~repro.devices.Device` and the topology generators,
* the benchmark circuit generators (:func:`~repro.workloads.benchmark_circuit`),
* the :class:`~repro.core.ColorDynamic` compiler and the Table I baselines,
* the worst-case success estimator (:func:`~repro.noise.estimate_success`)
  and its incremental form (:class:`~repro.noise.IncrementalEstimator`),
* the step-admission policies (:class:`~repro.core.StepAdmission`,
  ``admission="structural" | "success"`` on every compiler), and
* the compilation service (:class:`~repro.service.CompileService`) and its
  program cache (:class:`~repro.service.ProgramStore`: a local tier plus an
  optional shared-server tier).

The guides under ``docs/`` cover the architecture, cache operations and
extension points; every code example there is executed in CI.

Quickstart::

    from repro import Device, ColorDynamic, benchmark_circuit, estimate_success

    device = Device.grid(16, seed=1)
    circuit = benchmark_circuit("xeb(16,5)", seed=1)
    program = ColorDynamic(device).compile(circuit).program
    print(estimate_success(program).success_rate)
"""

from .circuits import Circuit, Gate, decompose_circuit, route_circuit
from .devices import Device, TransmonParams, Transmon, topology_by_name
from .program import CompiledProgram, TimeStep, Interaction
from .noise import IncrementalEstimator, NoiseModel, estimate_success, success_rate
from .core import (
    ADMISSION_POLICIES,
    ColorDynamic,
    CompilationResult,
    StepAdmission,
    StructuralAdmission,
    SuccessAdmission,
    build_crosstalk_graph,
    welsh_powell_coloring,
    solve_max_separation,
    FrequencyPartition,
    default_partition,
)
from .baselines import (
    BaselineNaive,
    BaselineGmon,
    BaselineUniform,
    BaselineStatic,
    STRATEGY_REGISTRY,
)
from .workloads import benchmark_circuit
from .service import CompileJob, CompileService, ProgramStore

__version__ = "1.1.0"

__all__ = [
    "Circuit",
    "Gate",
    "decompose_circuit",
    "route_circuit",
    "Device",
    "TransmonParams",
    "Transmon",
    "topology_by_name",
    "CompiledProgram",
    "TimeStep",
    "Interaction",
    "IncrementalEstimator",
    "NoiseModel",
    "estimate_success",
    "success_rate",
    "ADMISSION_POLICIES",
    "StepAdmission",
    "StructuralAdmission",
    "SuccessAdmission",
    "ColorDynamic",
    "CompilationResult",
    "build_crosstalk_graph",
    "welsh_powell_coloring",
    "solve_max_separation",
    "FrequencyPartition",
    "default_partition",
    "BaselineNaive",
    "BaselineGmon",
    "BaselineUniform",
    "BaselineStatic",
    "STRATEGY_REGISTRY",
    "benchmark_circuit",
    "CompileJob",
    "CompileService",
    "ProgramStore",
    "__version__",
]
