"""One entry point per figure of the paper's evaluation (Figs. 2, 7, 9-15).

Every ``figNN_*`` function builds the devices and benchmark circuits, runs
the requested compilation strategies, evaluates the Eq. (4) success
estimator, and returns plain data structures.  The benchmark harness
(``benchmarks/``) and the examples print these results.  The only I/O is
the program store's: the compile service reads and writes programs, and
:class:`SweepRunner` reads and writes report entries.

All experiments accept reduced benchmark lists / parameter grids so that the
same code path can run both as a quick smoke test and as the full
paper-scale reproduction.

The figure sweeps (9-13) are expressed as flat lists of :class:`SweepJob`
grid points executed by a :class:`SweepRunner`.  Each sweep's grid is
declared once, by its builder in ``_SWEEP_GRIDS``: the figure function runs
its jobs, and :func:`figure_compile_jobs` (``repro cache warm``) derives
the distinct compilations from the same jobs.  With a program store, each
point is first looked up as a stored *report* (its outcome under its noise
model, keyed by the job spec); the rest go to
:meth:`repro.service.CompileService.compile_batch` and are scored
in-process.  The same job list runs serially (the default) or with cold
compiles fanned out across processes (``max_workers > 1`` or
``REPRO_SWEEP_WORKERS=N``), with identical results.

This module imports neither numpy nor the compile stack: a sweep served
from stored reports never loads them.  The estimator loads with the first
job a sweep scores, the compilers with the first batch the service
resolves, and the other figures import what they compute with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..constants import FIG13_TOPOLOGY_NAMES, STRATEGIES
from ..envvars import read_env_int
from ..lazy import Deferred
from ..noise.model import NoiseModel
from ..obs import get_metrics
from ..obs import span as _span
from ..service import CompileJob, get_service, make_compiler
from ..service.cache_key import job_report_key
from ..service.compile_service import build_device_for
from ..workloads.suite import (
    benchmark_circuit,
    fig09_benchmarks,
    fig10_benchmarks,
    fig11_benchmarks,
    fig12_benchmarks,
    fig13_benchmarks,
)
from .report import arithmetic_mean, geometric_mean, improvement_ratios

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.compiler import CompilationResult
    from ..devices import Device
    from ..noise.metrics import estimate_success

#: The estimator, imported when a sweep scores its first job; a run served
#: from stored reports scores none.
_ESTIMATOR = Deferred(globals(), {"..noise.metrics": ("estimate_success",)})
__getattr__, __dir__ = _ESTIMATOR.getattr, _ESTIMATOR.dir

__all__ = [
    "STRATEGIES",
    "FIG10_STRATEGIES",
    "FIG11_COLOR_BUDGETS",
    "FIG12_FACTORS",
    "FIG13_STRATEGIES",
    "StrategyOutcome",
    "SweepJob",
    "SweepRunner",
    "admission_comparison",
    "clear_sweep_caches",
    "fig02_interaction_strength",
    "fig07_mesh_coloring",
    "fig09_success_rates",
    "fig10_depth_decoherence",
    "fig11_color_sweep",
    "fig12_residual_coupling",
    "fig13_connectivity",
    "fig14_example_frequencies",
    "fig15_state_transition",
    "figure_compile_jobs",
    "headline_improvement",
    "build_device_for",
    "compile_with",
]

#: Per-figure grid defaults (``STRATEGIES``, the Fig. 9 strategies, lives
#: in :mod:`repro.constants` for the CLI parser).
FIG10_STRATEGIES: Tuple[str, ...] = ("Baseline G", "Baseline U", "ColorDynamic")
FIG11_COLOR_BUDGETS: Tuple[int, ...] = (1, 2, 3, 4)
FIG12_FACTORS: Tuple[float, ...] = (0.0, 0.2, 0.4, 0.6, 0.8)
FIG13_STRATEGIES: Tuple[str, ...] = ("Baseline U", "ColorDynamic")

_DEFAULT_SEED = 2020


@dataclass
class StrategyOutcome:
    """Result of running one strategy on one benchmark."""

    benchmark: str
    strategy: str
    success_rate: float
    depth: int
    duration_ns: float
    decoherence_error: float
    crosstalk_fidelity: float
    compile_time_s: float
    max_colors: int


#: The ``StrategyOutcome`` fields a stored report holds (everything a job
#: does not carry), each with the types its decoded value may have.  JSON
#: keeps 3 and 3.0 apart, and a float depth would print as "3.0" in a
#: figure table.  Changing this table means bumping REPORT_FORMAT_VERSION.
_REPORT_FIELDS = {
    "success_rate": (int, float),
    "depth": int,
    "duration_ns": (int, float),
    "decoherence_error": (int, float),
    "crosstalk_fidelity": (int, float),
    "compile_time_s": (int, float),
    "max_colors": int,
}

_SWEEP_REPORTS = get_metrics().counter(
    "repro_sweep_reports_total",
    "Sweep report-entry lookups and writes by outcome (hit, miss, stored).",
    ("outcome",),
)


def _report_fields(payload: object) -> Optional[Dict[str, float]]:
    """A stored report's fields, or ``None`` unless it has exactly the
    report's field set, each value of its field's types (never a ``bool``)."""
    if not isinstance(payload, dict) or payload.keys() != _REPORT_FIELDS.keys():
        return None
    for name, value in payload.items():
        if isinstance(value, bool) or not isinstance(value, _REPORT_FIELDS[name]):
            return None
    return payload


def _evaluate(
    benchmark: str,
    strategy: str,
    result: CompilationResult,
    model: NoiseModel,
) -> StrategyOutcome:
    """Score one compilation result under one noise model."""
    _ESTIMATOR.bind()
    report = estimate_success(result.program, model)
    return StrategyOutcome(
        benchmark=benchmark,
        strategy=strategy,
        success_rate=report.success_rate,
        depth=result.program.depth,
        duration_ns=result.program.total_duration_ns,
        decoherence_error=1.0 - report.decoherence_fidelity_product,
        crosstalk_fidelity=report.crosstalk_fidelity_product,
        compile_time_s=result.compile_time_s,
        max_colors=result.max_colors_used,
    )


def compile_with(
    strategy: str,
    benchmark: str,
    device: Optional[Device] = None,
    noise_model: Optional[NoiseModel] = None,
    seed: int = _DEFAULT_SEED,
    max_colors: Optional[int] = None,
    admission: str = "structural",
) -> StrategyOutcome:
    """Compile one benchmark with one strategy and evaluate it."""
    device = device or build_device_for(benchmark, seed=seed)
    circuit = benchmark_circuit(benchmark, seed=seed)
    compiler = make_compiler(
        strategy, device, max_colors=max_colors, admission=admission
    )
    result: CompilationResult = compiler.compile(circuit)
    return _evaluate(benchmark, strategy, result, noise_model or NoiseModel())


# ---------------------------------------------------------------------------
# SweepRunner — the parallel experiment grid executor behind Figs. 9-13
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SweepJob:
    """One grid point of an experiment sweep: benchmark x strategy x knobs.

    ``noise_model`` carries per-point model variations (e.g. the Fig. 12
    residual-coupling factors); ``key`` is an opaque label the figure
    functions use to regroup flat results (color budget, factor, topology).
    Only the compile spec of a job (everything but ``noise_model`` and
    ``key``) reaches the compile service; scoring stays in-process.
    """

    benchmark: str
    strategy: str
    topology: str = "grid"
    seed: int = _DEFAULT_SEED
    max_colors: Optional[int] = None
    noise_model: Optional[NoiseModel] = None
    key: Optional[Hashable] = None
    admission: str = "structural"


# Per-process memo of compiled programs, keyed by compile spec, so a grid
# that revisits a point (Fig. 11 budgets share devices, Fig. 12 scores one
# program under many noise models) compiles it at most once per process.
# Devices, compilers and circuits are *not* memoized here: compiler identity
# lives in the :class:`~repro.service.CompileService` value-keyed memos.
_PROGRAM_CACHE: Dict[CompileJob, CompilationResult] = {}


def clear_sweep_caches() -> None:
    """Reset the per-process program memo (the service holds the rest)."""
    _PROGRAM_CACHE.clear()


def _compile_spec(job: SweepJob) -> CompileJob:
    return CompileJob(
        benchmark=job.benchmark,
        strategy=job.strategy,
        topology=job.topology,
        seed=job.seed,
        max_colors=job.max_colors,
        admission=job.admission,
    )


class SweepRunner:
    """Executes experiment grids through the compile service.

    Parameters
    ----------
    max_workers:
        Worker processes for the grid's cold compiles, passed to
        :meth:`~repro.service.CompileService.compile_batch`; ``1`` (the
        default) compiles in-process.  ``None`` reads ``REPRO_SWEEP_WORKERS``
        from the environment (falling back to 1) so the CLI and CI can opt
        in without code changes.

    A job without its own noise model is scored under the runner's one
    default ``NoiseModel()``.

    With a program store behind the default service
    (:func:`repro.service.get_service`; install another with
    :func:`repro.service.service_override`), each job is first looked up as
    a stored *report*: its outcome scalars under
    :func:`~repro.service.cache_key.job_report_key` (job spec x noise model
    x toolchain digest).  A hit builds no circuit, device or compiler and
    derives no program key.  The distinct compilations behind the
    misses that the in-process program memo does not hold go to the service
    in one batch, so store reads, store writes and remote compiles happen
    once, in this process, at any worker count; those jobs are then scored
    here, in job order.  A fresh report is written back only when its
    program was loaded from the store (second access), so a cold run writes
    programs, the next run writes reports, and later runs read only
    reports.  A grid produces identical numbers at any worker count and any
    cache state: every job is a pure function of its (value-keyed) inputs,
    cached or worker-compiled programs decode bit-exactly, and stored
    reports round-trip their floats exactly.
    """

    def __init__(self, max_workers: Optional[int] = None) -> None:
        if max_workers is None:
            max_workers = read_env_int("REPRO_SWEEP_WORKERS", 1)
        self.noise_model = NoiseModel()
        self.max_workers = max(1, max_workers)

    def run(self, jobs: Iterable[SweepJob]) -> List[StrategyOutcome]:
        """Execute all jobs and return their outcomes in job order."""
        jobs = list(jobs)
        specs = [_compile_spec(job) for job in jobs]
        models = [job.noise_model or self.noise_model for job in jobs]
        service = get_service()
        store = service.store
        # report key -> stored (or, this run, scored) report fields
        reports: Dict[Optional[str], Optional[Dict[str, float]]] = {}
        keys: List[Optional[str]] = [None] * len(jobs)
        if store is not None and store.holds_reports():
            with _span("report.key"):
                keys = [job_report_key(s, m) for s, m in zip(specs, models)]
                distinct = list(dict.fromkeys(keys))
                if len(distinct) > 1:
                    store.prefetch(distinct)
            for key in distinct:
                with _span("report.load"):
                    reports[key] = _report_fields(store.get(key))
                _SWEEP_REPORTS.inc(outcome="miss" if reports[key] is None else "hit")
        pending = list(dict.fromkeys(
            spec
            for spec, key in zip(specs, keys)
            if reports.get(key) is None and spec not in _PROGRAM_CACHE
        ))
        if pending:
            results = service.compile_batch(pending, max_workers=self.max_workers)
            _PROGRAM_CACHE.update(zip(pending, results))
        outcomes = []
        for job, spec, model, key in zip(jobs, specs, models, keys):
            with _span("sweep.job", benchmark=job.benchmark, strategy=job.strategy):
                fields = reports.get(key)
                if fields is not None:
                    outcomes.append(StrategyOutcome(job.benchmark, job.strategy, **fields))
                    continue
                result = _PROGRAM_CACHE[spec]
                outcome = _evaluate(job.benchmark, job.strategy, result, model)
                outcomes.append(outcome)
                # Second access only: a program compiled in this run stays
                # unscored in the store until a later run loads it, which
                # keeps the fill path lean and the report's compile time
                # the stored one.
                if key is None:
                    # No store, or one that held no report when the run
                    # began: derive the key only to write a report.
                    if store is None or not result.cache_hit:
                        continue
                    key = job_report_key(spec, model)
                fields = {name: getattr(outcome, name) for name in _REPORT_FIELDS}
                reports[key] = fields
                if result.cache_hit:
                    with _span("store.put"):
                        if store.put_report(key, fields):
                            _SWEEP_REPORTS.inc(outcome="stored")
        return outcomes


# ---------------------------------------------------------------------------
# Sweep grids — the jobs of each figure sweep, declared once
# ---------------------------------------------------------------------------
# Each builder takes its figure function's arguments (benchmarks=None: the
# figure's own list) and returns the figure's empty result table (a row per
# benchmark; Fig. 13: per benchmark and topology) and the jobs that fill it.
def _fig09_grid(benchmarks, seed, admission, model=None, strategies=STRATEGIES):
    benchmarks = list(benchmarks) if benchmarks is not None else fig09_benchmarks()
    # An explicitly passed model rides on the jobs themselves so it wins even
    # when the caller also supplies a pre-built runner with its own default.
    jobs = [
        SweepJob(b, s, seed=seed, noise_model=model, admission=admission)
        for b in benchmarks
        for s in strategies
    ]
    return {b: {} for b in benchmarks}, jobs


def _fig10_grid(benchmarks, seed, admission, model=None, strategies=FIG10_STRATEGIES):
    benchmarks = list(benchmarks) if benchmarks is not None else fig10_benchmarks()
    return _fig09_grid(benchmarks, seed, admission, model, strategies)


def _fig11_grid(benchmarks, seed, admission, model=None, budgets=FIG11_COLOR_BUDGETS):
    benchmarks = list(benchmarks) if benchmarks is not None else fig11_benchmarks()
    jobs = [
        SweepJob(
            b,
            "ColorDynamic",
            seed=seed,
            max_colors=k,
            noise_model=model,
            key=k,
            admission=admission,
        )
        for b in benchmarks
        for k in budgets
    ]
    return {b: {} for b in benchmarks}, jobs


def _fig12_grid(benchmarks, seed, admission, model=None, factors=FIG12_FACTORS):
    benchmarks = list(benchmarks) if benchmarks is not None else fig12_benchmarks()
    base_model = model or NoiseModel()
    models = {f: base_model.with_residual_coupling(f) for f in factors}
    jobs = [
        SweepJob(b, "Baseline G", seed=seed, noise_model=models[f], key=f, admission=admission)
        for b in benchmarks
        for f in factors
    ]
    return {b: {} for b in benchmarks}, jobs


def _fig13_grid(
    benchmarks, seed, admission, model=None, topologies=None, strategies=FIG13_STRATEGIES
):
    benchmarks = list(benchmarks) if benchmarks is not None else fig13_benchmarks()
    topologies = list(topologies) if topologies is not None else list(FIG13_TOPOLOGY_NAMES)
    jobs = [
        SweepJob(b, s, topology=t, seed=seed, noise_model=model, admission=admission)
        for b in benchmarks
        for t in topologies
        for s in strategies
    ]
    return {b: {t: {} for t in topologies} for b in benchmarks}, jobs


#: Sweep figure -> its grid builder; ``builder(benchmarks, seed, admission)``
#: gives the figure's default grid.
_SWEEP_GRIDS: Dict[str, Callable[..., Tuple[dict, List[SweepJob]]]] = {
    "fig09": _fig09_grid,
    "fig10": _fig10_grid,
    "fig11": _fig11_grid,
    "fig12": _fig12_grid,
    "fig13": _fig13_grid,
}


def figure_compile_jobs(
    name: str,
    benchmarks: Optional[Sequence[str]] = None,
    seed: int = _DEFAULT_SEED,
    admission: str = "structural",
) -> List[CompileJob]:
    """The distinct compilations a figure sweep needs, as service jobs.

    ``python -m repro cache warm`` feeds these into
    :meth:`~repro.service.CompileService.compile_batch` so a later
    ``figure`` run of the same grid is entirely cache-hot.  They are the
    distinct compile specs of the figure's own jobs, in job order.  Only the
    compile-heavy sweep figures (9-13) have a warmable grid.
    """
    grid = _SWEEP_GRIDS.get(name)
    if grid is None:
        raise ValueError(f"figure {name!r} has no compile grid to warm; use fig09-fig13")
    _, jobs = grid(benchmarks, seed, admission)
    return list(dict.fromkeys(_compile_spec(job) for job in jobs))


# ---------------------------------------------------------------------------
# Fig. 2 — interaction strength vs detuning
# ---------------------------------------------------------------------------
def fig02_interaction_strength(
    omega_b: float = 5.44,
    g0: float = 0.005,
    sweep_low: float = 5.38,
    sweep_high: float = 5.50,
    points: int = 121,
) -> Dict[str, List[float]]:
    """Interaction strength between two coupled transmons as ``omega_A`` is swept.

    Reproduces the saturating resonance peak of Fig. 2: the strength equals
    the bare coupling on resonance and falls off as ``g0^2 / delta`` away
    from it.
    """
    import numpy as np

    from ..noise.crosstalk import effective_coupling

    omegas = np.linspace(sweep_low, sweep_high, points)
    strengths = [effective_coupling(g0, float(w) - omega_b) for w in omegas]
    return {"omega_a": [float(w) for w in omegas], "strength": strengths}


# ---------------------------------------------------------------------------
# Fig. 7 — coloring the 2-D mesh and its crosstalk graph
# ---------------------------------------------------------------------------
def fig07_mesh_coloring(side: int = 5) -> Dict[str, int]:
    """Colors needed for the connectivity and crosstalk graphs of an N x N mesh."""
    from ..core import build_crosstalk_graph, num_colors, welsh_powell_coloring
    from ..devices import grid_graph

    mesh = grid_graph(side * side)
    connectivity_colors = num_colors(welsh_powell_coloring(mesh))
    crosstalk = build_crosstalk_graph(mesh, distance=1)
    crosstalk_colors = num_colors(welsh_powell_coloring(crosstalk))
    return {
        "side": side,
        "connectivity_colors": connectivity_colors,
        "crosstalk_colors": crosstalk_colors,
        "crosstalk_vertices": crosstalk.number_of_nodes(),
        "crosstalk_edges": crosstalk.number_of_edges(),
    }


# ---------------------------------------------------------------------------
# Fig. 9 — worst-case success rates across the benchmark suite
# ---------------------------------------------------------------------------
def fig09_success_rates(
    benchmarks: Optional[Sequence[str]] = None,
    strategies: Sequence[str] = STRATEGIES,
    noise_model: Optional[NoiseModel] = None,
    seed: int = _DEFAULT_SEED,
    runner: Optional[SweepRunner] = None,
    admission: str = "structural",
) -> Dict[str, Dict[str, StrategyOutcome]]:
    """Success rate of every strategy on every benchmark (the Fig. 9 bars)."""
    results, jobs = _fig09_grid(benchmarks, seed, admission, noise_model, strategies)
    for job, outcome in zip(jobs, (runner or SweepRunner()).run(jobs)):
        results[job.benchmark][job.strategy] = outcome
    return results


def admission_comparison(
    benchmarks: Optional[Sequence[str]] = None,
    strategies: Sequence[str] = STRATEGIES,
    seed: int = _DEFAULT_SEED,
    runner: Optional[SweepRunner] = None,
) -> Dict[str, Dict[str, Dict[str, StrategyOutcome]]]:
    """The Fig. 9 grid under both admission policies.

    Runs every (benchmark x strategy) point of the Fig. 9 grid twice — once
    with the structural (criticality-order) admission policy and once with
    the success-aware policy — so the two schedules can be compared under
    the same Eq. (4) noise model.  Returns
    ``results[admission][benchmark][strategy]``; ``python -m repro
    admission-report`` renders the comparison (and the committed
    ``docs/reports/admission-fig09.md`` is its output).
    """
    return {
        policy: fig09_success_rates(
            benchmarks=benchmarks,
            strategies=strategies,
            seed=seed,
            runner=runner,
            admission=policy,
        )
        for policy in ("structural", "success")
    }


def headline_improvement(
    fig09: Mapping[str, Mapping[str, StrategyOutcome]],
    ours: str = "ColorDynamic",
    baseline: str = "Baseline U",
) -> Dict[str, float]:
    """Average improvement of one strategy over another across a Fig. 9 run.

    Returns the arithmetic and geometric means of the per-benchmark success
    ratios (the abstract quotes the arithmetic mean vs Baseline U).
    """
    ours_values = {b: r[ours].success_rate for b, r in fig09.items() if ours in r}
    base_values = {b: r[baseline].success_rate for b, r in fig09.items() if baseline in r}
    ratios = improvement_ratios(ours_values, base_values)
    return {
        "arithmetic_mean": arithmetic_mean(ratios.values()),
        "geometric_mean": geometric_mean(ratios.values()),
        "num_benchmarks": float(len(ratios)),
        "max": max(ratios.values()) if ratios else float("nan"),
        "min": min(ratios.values()) if ratios else float("nan"),
    }


# ---------------------------------------------------------------------------
# Fig. 10 — circuit depth and decoherence error
# ---------------------------------------------------------------------------
def fig10_depth_decoherence(
    benchmarks: Optional[Sequence[str]] = None,
    strategies: Sequence[str] = FIG10_STRATEGIES,
    noise_model: Optional[NoiseModel] = None,
    seed: int = _DEFAULT_SEED,
    runner: Optional[SweepRunner] = None,
    admission: str = "structural",
) -> Dict[str, Dict[str, StrategyOutcome]]:
    """Depth and decoherence error of the XEB sweep (the two panels of Fig. 10)."""
    results, jobs = _fig10_grid(benchmarks, seed, admission, noise_model, strategies)
    for job, outcome in zip(jobs, (runner or SweepRunner()).run(jobs)):
        results[job.benchmark][job.strategy] = outcome
    return results


# ---------------------------------------------------------------------------
# Fig. 11 — sensitivity to tunability (max number of colors)
# ---------------------------------------------------------------------------
def fig11_color_sweep(
    benchmarks: Optional[Sequence[str]] = None,
    max_colors_values: Sequence[int] = FIG11_COLOR_BUDGETS,
    noise_model: Optional[NoiseModel] = None,
    seed: int = _DEFAULT_SEED,
    runner: Optional[SweepRunner] = None,
    admission: str = "structural",
) -> Dict[str, Dict[int, StrategyOutcome]]:
    """ColorDynamic success rate as the interaction-frequency budget varies."""
    results, jobs = _fig11_grid(benchmarks, seed, admission, noise_model, max_colors_values)
    for job, outcome in zip(jobs, (runner or SweepRunner()).run(jobs)):
        results[job.benchmark][job.key] = outcome
    return results


# ---------------------------------------------------------------------------
# Fig. 12 — gmon sensitivity to residual coupling
# ---------------------------------------------------------------------------
def fig12_residual_coupling(
    benchmarks: Optional[Sequence[str]] = None,
    factors: Sequence[float] = FIG12_FACTORS,
    noise_model: Optional[NoiseModel] = None,
    seed: int = _DEFAULT_SEED,
    runner: Optional[SweepRunner] = None,
    admission: str = "structural",
) -> Dict[str, Dict[float, float]]:
    """Baseline G success rate as deactivated couplers leak residual coupling.

    Each benchmark is compiled once (the runner sends only a grid's distinct
    compilations to the compile service) and scored under one noise model
    per residual-coupling factor.
    """
    results, jobs = _fig12_grid(benchmarks, seed, admission, noise_model, factors)
    for job, outcome in zip(jobs, (runner or SweepRunner()).run(jobs)):
        results[job.benchmark][job.key] = outcome.success_rate
    return results


# ---------------------------------------------------------------------------
# Fig. 13 — general device connectivity
# ---------------------------------------------------------------------------
def fig13_connectivity(
    benchmarks: Optional[Sequence[str]] = None,
    topologies: Optional[Sequence[str]] = None,
    strategies: Sequence[str] = FIG13_STRATEGIES,
    noise_model: Optional[NoiseModel] = None,
    seed: int = _DEFAULT_SEED,
    runner: Optional[SweepRunner] = None,
    admission: str = "structural",
) -> Dict[str, Dict[str, Dict[str, StrategyOutcome]]]:
    """Success / colors / compile time across the express-cube topology family.

    Returns ``results[benchmark][topology][strategy]``.
    """
    results, jobs = _fig13_grid(benchmarks, seed, admission, noise_model, topologies, strategies)
    for job, outcome in zip(jobs, (runner or SweepRunner()).run(jobs)):
        results[job.benchmark][job.topology][job.strategy] = outcome
    return results


# ---------------------------------------------------------------------------
# Fig. 14 (Appendix A) — example idle and interaction frequencies
# ---------------------------------------------------------------------------
def fig14_example_frequencies(
    side: int = 4,
    cycles: int = 1,
    seed: int = _DEFAULT_SEED,
    admission: str = "structural",
) -> Dict[str, object]:
    """Idle and interaction frequencies ColorDynamic picks for a 4x4 XEB layer."""
    from ..core import ColorDynamic
    from ..devices import Device

    n = side * side
    device = Device.grid(n, seed=seed)
    compiler = ColorDynamic(device, admission=admission)
    circuit = benchmark_circuit(f"xeb({n},{cycles})", seed=seed)
    result = compiler.compile(circuit)

    idle = compiler.idle_assignment.qubit_frequencies
    idle_grid = [[round(idle[r * side + c], 3) for c in range(side)] for r in range(side)]

    interaction_steps: List[Dict[Tuple[int, int], float]] = []
    for step in result.program.steps:
        if step.interactions:
            interaction_steps.append(
                {i.pair: i.frequency for i in step.interactions}
            )
    return {
        "idle_frequencies": idle_grid,
        "idle_colors": compiler.idle_assignment.coloring,
        "interaction_steps": interaction_steps,
        "partition": compiler.partition,
    }


# ---------------------------------------------------------------------------
# Fig. 15 (Appendix B) — state-transition probability maps
# ---------------------------------------------------------------------------
def fig15_state_transition(
    g0: float = 0.005,
    omega_b: float = 6.5,
    anharmonicity: float = -0.2,
    detuning_span: float = 0.08,
    detuning_points: int = 41,
    max_time_ns: float = 120.0,
    time_points: int = 61,
) -> Dict[str, object]:
    """|01>-|10> and |11>-|20> transition-probability maps vs detuning and time."""
    import numpy as np

    from ..noise.crosstalk import effective_coupling, exchange_probability

    detunings = np.linspace(-detuning_span, detuning_span, detuning_points)
    times = np.linspace(0.0, max_time_ns, time_points)
    iswap_map = np.zeros((time_points, detuning_points))
    cz_map = np.zeros((time_points, detuning_points))
    for j, delta in enumerate(detunings):
        # |01>-|10> channel: direct exchange at detuning delta.
        g_iswap = effective_coupling(g0, float(delta))
        # |11>-|20> channel: sqrt(2)-enhanced coupling; the detuning axis is
        # measured from that channel's own resonance point (which sits one
        # anharmonicity below the 01-01 resonance).
        g_cz = effective_coupling(math.sqrt(2.0) * g0, float(delta))
        for i, t in enumerate(times):
            iswap_map[i, j] = exchange_probability(g_iswap, float(t))
            cz_map[i, j] = exchange_probability(g_cz, float(t))
    return {
        "detunings": detunings.tolist(),
        "times_ns": times.tolist(),
        "iswap_transition": iswap_map.tolist(),
        "cz_transition": cz_map.tolist(),
        "iswap_full_transfer_time_ns": float(1.0 / (4.0 * g0)),
        "cz_full_cycle_time_ns": float(1.0 / (2.0 * math.sqrt(2.0) * g0)),
    }
