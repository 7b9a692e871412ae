"""One entry point per figure of the paper's evaluation (Figs. 2, 7, 9-15).

Every ``figNN_*`` function is pure computation: it builds the devices and
benchmark circuits, runs the requested compilation strategies, evaluates the
Eq. (4) success estimator, and returns plain data structures.  The benchmark
harness (``benchmarks/``) and the examples print these results; nothing in
this module does I/O.

All experiments accept reduced benchmark lists / parameter grids so that the
same code path can run both as a quick smoke test and as the full
paper-scale reproduction.

The figure sweeps (9-13) are expressed as flat lists of :class:`SweepJob`
grid points executed by a :class:`SweepRunner`: a ``concurrent.futures``
fan-out with per-worker device/compiler/program caches, so the same job list
runs serially in-process (the default, fully deterministic) or across
processes (``max_workers > 1`` or ``REPRO_SWEEP_WORKERS=N``) with identical
results.
"""

from __future__ import annotations

import contextlib
import math
import threading
from dataclasses import dataclass, replace
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core import ColorDynamic, build_crosstalk_graph, welsh_powell_coloring, num_colors
from ..core.compiler import CompilationResult
from ..devices import Device, grid_graph
from ..envvars import read_env_int
from ..noise import NoiseModel, estimate_success
from ..obs import get_tracer, is_enabled as _trace_enabled, span as _span
from ..noise.crosstalk import effective_coupling, exchange_probability
from ..service import (
    CompileJob,
    configure_service,
    get_service,
    make_compiler,
    service_override,
)
from ..service.compile_service import build_device_for as _service_build_device_for
from ..workloads import (
    benchmark_circuit,
    fig09_benchmarks,
    fig10_benchmarks,
    fig11_benchmarks,
    fig12_benchmarks,
    fig13_benchmarks,
)
from .report import arithmetic_mean, geometric_mean, improvement_ratios

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

#: Strategy display order used throughout the figures.
STRATEGIES: Tuple[str, ...] = (
    "Baseline N",
    "Baseline G",
    "Baseline U",
    "Baseline S",
    "ColorDynamic",
)

#: Per-figure grid defaults, shared by the figure functions and
#: :func:`figure_compile_jobs` so `cache warm` always precompiles exactly
#: the grid the figure sweep will request.
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


def build_device_for(
    benchmark: str,
    topology: str = "grid",
    seed: int = _DEFAULT_SEED,
) -> Device:
    """Device sized for a benchmark (square grid by default, as in the paper)."""
    return _service_build_device_for(benchmark, topology=topology, seed=seed)


def _make_compiler(strategy: str, device: Device, max_colors: Optional[int] = None):
    """Back-compat alias for :func:`repro.service.make_compiler`."""
    return make_compiler(strategy, device, max_colors=max_colors)


def _evaluate(
    benchmark: str,
    strategy: str,
    result: CompilationResult,
    model: NoiseModel,
) -> StrategyOutcome:
    """Score one compilation result under one noise model."""
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
    Jobs are immutable and picklable so they can cross process boundaries.
    """

    benchmark: str
    strategy: str
    topology: str = "grid"
    seed: int = _DEFAULT_SEED
    max_colors: Optional[int] = None
    noise_model: Optional[NoiseModel] = None
    key: Optional[Hashable] = None
    admission: str = "structural"


# Per-process memo of compiled programs so a worker compiles each grid point
# at most once even when the grid revisits it (Fig. 11 budgets share devices,
# Fig. 12 evaluates one program under many noise models).  Keyed by value —
# never by object identity — so results are independent of which worker runs
# which job.  Devices, compilers and circuits are *not* memoized here:
# compiler identity lives in exactly one place, the
# :class:`~repro.service.CompileService` value-keyed memos that
# ``service.compile`` resolves a job through.
_ProgramKey = Tuple[str, str, str, int, Optional[int], str]
_PROGRAM_CACHE: Dict[_ProgramKey, CompilationResult] = {}
# Per-key locks so thread-pool sweeps compile each distinct grid point
# exactly once (two threads hitting the same cold key serialize on the key,
# not on the whole sweep).
_PROGRAM_LOCKS: Dict[_ProgramKey, threading.Lock] = {}
_PROGRAM_LOCKS_GUARD = threading.Lock()


def clear_sweep_caches() -> None:
    """Reset the per-process program memo (the service holds the rest)."""
    _PROGRAM_CACHE.clear()
    with _PROGRAM_LOCKS_GUARD:
        _PROGRAM_LOCKS.clear()


def _cached_compilation(job: SweepJob) -> CompilationResult:
    program_key: _ProgramKey = (
        job.strategy, job.benchmark, job.topology, job.seed, job.max_colors,
        job.admission,
    )
    result = _PROGRAM_CACHE.get(program_key)
    if result is not None:
        return result
    with _PROGRAM_LOCKS_GUARD:
        lock = _PROGRAM_LOCKS.setdefault(program_key, threading.Lock())
    with lock:
        result = _PROGRAM_CACHE.get(program_key)
        if result is None:
            # The compile service resolves the job spec through its own
            # value-keyed device/compiler/circuit memos and adds the
            # cross-run layer underneath: on-disk cache hits skip
            # compilation entirely, misses compile here and are persisted
            # for the next run.
            result = get_service().compile(
                CompileJob(
                    benchmark=job.benchmark,
                    strategy=job.strategy,
                    topology=job.topology,
                    seed=job.seed,
                    max_colors=job.max_colors,
                    admission=job.admission,
                )
            )
            _PROGRAM_CACHE[program_key] = result
    return result


def _execute_sweep_job(job: SweepJob) -> StrategyOutcome:
    """Run one grid point (compile if not cached, then score)."""
    with _span("sweep.job", benchmark=job.benchmark, strategy=job.strategy):
        result = _cached_compilation(job)
        model = job.noise_model or NoiseModel()
        return _evaluate(job.benchmark, job.strategy, result, model)


def _execute_sweep_job_traced(job: SweepJob) -> Tuple[StrategyOutcome, list]:
    """Worker-side wrapper shipping each job's span buffer back with it.

    Used only on the process-pool path when the parent is tracing: the
    worker drains its process-local tracer after every job, so span records
    ride the existing result pickle instead of a side channel, and a reused
    worker never re-sends earlier jobs' spans.  Records carry the worker's
    pid (stamped at span exit) and ``perf_counter_ns`` timestamps, which on
    Linux share the parent's monotonic clock — the merged timeline lines up
    without any offset arithmetic.
    """
    outcome = _execute_sweep_job(job)
    return outcome, get_tracer().drain()


def _init_sweep_worker(
    cache_dir: Optional[str],
    use_cache: Optional[bool],
    remote_cache: Optional[str],
    max_bytes: Optional[int],
    remote_compile: Optional[str] = None,
    trace: bool = False,
) -> None:
    """Configure the per-process compile service in a sweep subprocess.

    The parent always resolves its *effective* cache configuration and sends
    it explicitly (see :meth:`SweepRunner._worker_cache_config`), so workers
    behave identically under fork and spawn start methods — a spawned worker
    cannot inherit the parent's in-memory ``service_override``.  The same
    goes for *trace*: a forked worker would inherit the parent's span
    buffer, so the tracer is cleared here and re-enabled only when the
    parent was tracing.
    """
    configure_service(
        cache_dir=cache_dir,
        enabled=use_cache,
        remote_cache=remote_cache,
        max_bytes=max_bytes,
        remote_compile=remote_compile,
    )
    tracer = get_tracer()
    tracer.clear()
    tracer.enabled = bool(trace)


class SweepRunner:
    """Executes experiment grids, optionally fanning out across processes.

    Parameters
    ----------
    noise_model:
        Default noise model for jobs that don't carry their own.
    max_workers:
        ``1`` (default) runs jobs serially in-process; ``> 1`` fans out via
        ``concurrent.futures``.  ``None`` reads ``REPRO_SWEEP_WORKERS`` from
        the environment (falling back to 1) so the CLI and CI can opt in
        without code changes.
    executor:
        ``"process"`` (default) isolates workers in subprocesses — each
        builds its own device/compiler caches; ``"thread"`` shares the
        caches of the current process, which is mainly useful for tests.
    cache_dir:
        Root directory of the on-disk compiled-program store for this run
        (default: the process-wide service, i.e. ``REPRO_CACHE_DIR`` or the
        XDG cache path).
    use_cache:
        ``False`` disables the on-disk store for this run; ``None`` defers
        to the ``REPRO_CACHE`` toggle.  Only the disk layer is governed
        here — the in-process program memo still applies, so call
        :func:`clear_sweep_caches` first to force truly cold compiles
        within one process.
    remote_cache:
        Shared cache server URL for this run (``python -m repro cache
        serve``); the store becomes tiered local -> remote, so a fleet of
        runners shares one warm cache.  ``None`` defers to the
        ``REPRO_REMOTE_CACHE`` environment variable.
    cache_max_bytes:
        LRU byte budget for the local store tier, enforced after every
        write (``None`` defers to ``REPRO_CACHE_MAX_BYTES``).
    remote_compile:
        Remote compile-server URL for this run; spec-driven store misses
        are compiled server-side (with cross-client dedup) instead of
        locally.  ``None`` defers to ``REPRO_REMOTE_COMPILE``; an empty
        string forces local compilation.  Remote failures degrade to local
        cold compiles, so results never depend on server availability.

    Results are returned in job order regardless of completion order, and a
    grid produces identical numbers at any worker count and any cache state:
    every job is a pure function of its (value-keyed) inputs, and cached
    programs deserialize bit-exactly.
    """

    def __init__(
        self,
        noise_model: Optional[NoiseModel] = None,
        max_workers: Optional[int] = None,
        executor: str = "process",
        cache_dir: Optional[str] = None,
        use_cache: Optional[bool] = None,
        remote_cache: Optional[str] = None,
        cache_max_bytes: Optional[int] = None,
        remote_compile: Optional[str] = None,
    ) -> None:
        if max_workers is None:
            max_workers = read_env_int("REPRO_SWEEP_WORKERS", 1)
        if executor not in ("process", "thread"):
            raise ValueError(f"unknown executor {executor!r}; use 'process' or 'thread'")
        self.noise_model = noise_model or NoiseModel()
        self.max_workers = max(1, max_workers)
        self.executor = executor
        self.cache_dir = cache_dir
        self.use_cache = use_cache
        self.remote_cache = remote_cache
        self.cache_max_bytes = cache_max_bytes
        self.remote_compile = remote_compile

    def _resolve(self, job: SweepJob) -> SweepJob:
        if job.noise_model is None:
            return replace(job, noise_model=self.noise_model)
        return job

    def _has_cache_config(self) -> bool:
        return not (
            self.cache_dir is None
            and self.use_cache is None
            and self.remote_cache is None
            and self.cache_max_bytes is None
            and self.remote_compile is None
        )

    def _service_scope(self):
        """Install this run's cache configuration on the compile service."""
        if not self._has_cache_config():
            return contextlib.nullcontext()
        return service_override(
            cache_dir=self.cache_dir,
            enabled=self.use_cache,
            remote_cache=self.remote_cache,
            max_bytes=self.cache_max_bytes,
            remote_compile=self.remote_compile,
        )

    def _worker_cache_config(
        self,
    ) -> Tuple[
        Optional[str], Optional[bool], Optional[str], Optional[int], Optional[str]
    ]:
        """The effective worker cache/compile configuration, as a 5-tuple
        ``(cache_dir, enabled, remote_cache, max_bytes, remote_compile)``.

        When this runner has no explicit configuration, the currently
        installed service's state is forwarded instead, so an enclosing
        ``service_override`` reaches spawn-based workers too.  The remote
        URLs are forwarded as ``""`` (not ``None``) when the parent has no
        remote tier, so a worker never re-resolves ``REPRO_REMOTE_CACHE`` /
        ``REPRO_REMOTE_COMPILE`` into a configuration the parent did not
        have.

        Only this standard shape crosses the process boundary: a service
        mounted on a hand-built backend composition (e.g. a pure
        ``HTTPBackend`` store or a read-only ``TieredStore``) cannot be
        pickled into workers, and subprocesses will approximate it from
        these values.  Run such sweeps with ``executor="thread"`` or
        ``max_workers=1`` if the exact composition matters.
        """
        if self._has_cache_config():
            return (
                self.cache_dir,
                self.use_cache,
                self.remote_cache,
                self.cache_max_bytes,
                self.remote_compile,
            )
        service = get_service()
        if service.store is None:
            return (None, False, None, None, service.remote_compile or "")
        root = service.store.root
        return (
            str(root) if root is not None else None,
            True,
            service.store.remote_url or "",
            service.store.max_bytes,
            service.remote_compile or "",
        )

    def run(self, jobs: Iterable[SweepJob]) -> List[StrategyOutcome]:
        """Execute all jobs and return their outcomes in job order."""
        resolved = [self._resolve(job) for job in jobs]
        if self.max_workers == 1 or len(resolved) <= 1:
            with self._service_scope():
                return [_execute_sweep_job(job) for job in resolved]
        from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

        if self.executor == "process":
            # Subprocesses build their own service; the initializer forwards
            # this run's effective cache configuration (and the trace flag)
            # to each of them.
            tracing = _trace_enabled()
            with ProcessPoolExecutor(
                max_workers=self.max_workers,
                initializer=_init_sweep_worker,
                initargs=self._worker_cache_config() + (tracing,),
            ) as pool:
                if not tracing:
                    return list(pool.map(_execute_sweep_job, resolved))
                # Each worker ships its span buffer back with the outcome;
                # ingesting preserves job order here, and exports sort by
                # (ts_ns, pid, tid, name) anyway, so the merged timeline is
                # deterministic regardless of completion order.
                tracer = get_tracer()
                outcomes: List[StrategyOutcome] = []
                for outcome, records in pool.map(_execute_sweep_job_traced, resolved):
                    tracer.ingest(records)
                    outcomes.append(outcome)
                return outcomes
        with self._service_scope(), ThreadPoolExecutor(max_workers=self.max_workers) as pool:
            return list(pool.map(_execute_sweep_job, resolved))


# ---------------------------------------------------------------------------
# cache warming — the compile grid behind each figure sweep
# ---------------------------------------------------------------------------
def figure_compile_jobs(
    name: str,
    benchmarks: Optional[Sequence[str]] = None,
    seed: int = _DEFAULT_SEED,
    admission: str = "structural",
) -> List[CompileJob]:
    """The distinct compilations a figure sweep needs, as service jobs.

    ``python -m repro cache warm`` feeds these into
    :meth:`~repro.service.CompileService.compile_batch` so a later
    ``figure`` run of the same grid is entirely cache-hot.  Only the
    compile-heavy sweep figures (9-13) have a warmable grid.
    """
    if name == "fig09":
        benches = list(benchmarks) if benchmarks is not None else fig09_benchmarks()
        grid = [(b, s, "grid", None) for b in benches for s in STRATEGIES]
    elif name == "fig10":
        benches = list(benchmarks) if benchmarks is not None else fig10_benchmarks()
        grid = [(b, s, "grid", None) for b in benches for s in FIG10_STRATEGIES]
    elif name == "fig11":
        benches = list(benchmarks) if benchmarks is not None else fig11_benchmarks()
        grid = [(b, "ColorDynamic", "grid", k) for b in benches for k in FIG11_COLOR_BUDGETS]
    elif name == "fig12":
        # One compilation per benchmark; the residual-coupling factors only
        # change the scoring noise model.
        benches = list(benchmarks) if benchmarks is not None else fig12_benchmarks()
        grid = [(b, "Baseline G", "grid", None) for b in benches]
    elif name == "fig13":
        from ..devices.topologies import FIG13_TOPOLOGY_NAMES

        benches = list(benchmarks) if benchmarks is not None else fig13_benchmarks()
        grid = [
            (b, s, t, None)
            for b in benches
            for t in FIG13_TOPOLOGY_NAMES
            for s in FIG13_STRATEGIES
        ]
    else:
        raise ValueError(
            f"figure {name!r} has no compile grid to warm; use fig09-fig13"
        )
    return [
        CompileJob(
            benchmark=b, strategy=s, topology=t, seed=seed, max_colors=k,
            admission=admission,
        )
        for b, s, t, k in grid
    ]


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
    omegas = np.linspace(sweep_low, sweep_high, points)
    strengths = [effective_coupling(g0, float(w) - omega_b) for w in omegas]
    return {"omega_a": [float(w) for w in omegas], "strength": strengths}


# ---------------------------------------------------------------------------
# Fig. 7 — coloring the 2-D mesh and its crosstalk graph
# ---------------------------------------------------------------------------
def fig07_mesh_coloring(side: int = 5) -> Dict[str, int]:
    """Colors needed for the connectivity and crosstalk graphs of an N x N mesh."""
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
    max_workers: Optional[int] = None,
    admission: str = "structural",
) -> Dict[str, Dict[str, StrategyOutcome]]:
    """Success rate of every strategy on every benchmark (the Fig. 9 bars)."""
    benchmarks = list(benchmarks) if benchmarks is not None else fig09_benchmarks()
    runner = runner or SweepRunner(max_workers=max_workers)
    # An explicitly passed model rides on the jobs themselves so it wins even
    # when the caller also supplies a pre-built runner with its own default.
    jobs = [
        SweepJob(
            benchmark=benchmark,
            strategy=strategy,
            seed=seed,
            noise_model=noise_model,
            admission=admission,
        )
        for benchmark in benchmarks
        for strategy in strategies
    ]
    outcomes = runner.run(jobs)
    results: Dict[str, Dict[str, StrategyOutcome]] = {b: {} for b in benchmarks}
    for job, outcome in zip(jobs, outcomes):
        results[job.benchmark][job.strategy] = outcome
    return results


def admission_comparison(
    benchmarks: Optional[Sequence[str]] = None,
    strategies: Sequence[str] = STRATEGIES,
    seed: int = _DEFAULT_SEED,
    runner: Optional[SweepRunner] = None,
    max_workers: Optional[int] = None,
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
            max_workers=max_workers,
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
    max_workers: Optional[int] = None,
    admission: str = "structural",
) -> Dict[str, Dict[str, StrategyOutcome]]:
    """Depth and decoherence error of the XEB sweep (the two panels of Fig. 10)."""
    benchmarks = list(benchmarks) if benchmarks is not None else fig10_benchmarks()
    return fig09_success_rates(
        benchmarks=benchmarks,
        strategies=strategies,
        noise_model=noise_model,
        seed=seed,
        runner=runner,
        max_workers=max_workers,
        admission=admission,
    )


# ---------------------------------------------------------------------------
# Fig. 11 — sensitivity to tunability (max number of colors)
# ---------------------------------------------------------------------------
def fig11_color_sweep(
    benchmarks: Optional[Sequence[str]] = None,
    max_colors_values: Sequence[int] = FIG11_COLOR_BUDGETS,
    noise_model: Optional[NoiseModel] = None,
    seed: int = _DEFAULT_SEED,
    runner: Optional[SweepRunner] = None,
    max_workers: Optional[int] = None,
    admission: str = "structural",
) -> Dict[str, Dict[int, StrategyOutcome]]:
    """ColorDynamic success rate as the interaction-frequency budget varies."""
    benchmarks = list(benchmarks) if benchmarks is not None else fig11_benchmarks()
    runner = runner or SweepRunner(max_workers=max_workers)
    jobs = [
        SweepJob(
            benchmark=benchmark,
            strategy="ColorDynamic",
            seed=seed,
            max_colors=budget,
            noise_model=noise_model,
            key=budget,
            admission=admission,
        )
        for benchmark in benchmarks
        for budget in max_colors_values
    ]
    outcomes = runner.run(jobs)
    results: Dict[str, Dict[int, StrategyOutcome]] = {b: {} for b in benchmarks}
    for job, outcome in zip(jobs, outcomes):
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
    max_workers: Optional[int] = None,
    admission: str = "structural",
) -> Dict[str, Dict[float, float]]:
    """Baseline G success rate as deactivated couplers leak residual coupling.

    Each benchmark is compiled once (the program cache inside the sweep
    workers de-duplicates the grid) and scored under one noise model per
    residual-coupling factor.
    """
    benchmarks = list(benchmarks) if benchmarks is not None else fig12_benchmarks()
    base_model = noise_model or NoiseModel()
    runner = runner or SweepRunner(max_workers=max_workers)
    jobs = [
        SweepJob(
            benchmark=benchmark,
            strategy="Baseline G",
            seed=seed,
            noise_model=base_model.with_residual_coupling(factor),
            key=factor,
            admission=admission,
        )
        for benchmark in benchmarks
        for factor in factors
    ]
    outcomes = runner.run(jobs)
    results: Dict[str, Dict[float, float]] = {b: {} for b in benchmarks}
    for job, outcome in zip(jobs, outcomes):
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
    max_workers: Optional[int] = None,
    admission: str = "structural",
) -> Dict[str, Dict[str, Dict[str, StrategyOutcome]]]:
    """Success / colors / compile time across the express-cube topology family.

    Returns ``results[benchmark][topology][strategy]``.
    """
    from ..devices.topologies import FIG13_TOPOLOGY_NAMES

    benchmarks = list(benchmarks) if benchmarks is not None else fig13_benchmarks()
    topologies = list(topologies) if topologies is not None else list(FIG13_TOPOLOGY_NAMES)
    runner = runner or SweepRunner(max_workers=max_workers)
    jobs = [
        SweepJob(
            benchmark=benchmark,
            strategy=strategy,
            topology=topology,
            seed=seed,
            noise_model=noise_model,
            admission=admission,
        )
        for benchmark in benchmarks
        for topology in topologies
        for strategy in strategies
    ]
    outcomes = runner.run(jobs)
    results: Dict[str, Dict[str, Dict[str, StrategyOutcome]]] = {
        b: {t: {} for t in topologies} for b in benchmarks
    }
    for job, outcome in zip(jobs, outcomes):
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
