"""The compilation front end: cache lookups, batch dedup, process fan-out.

:class:`CompileService` is the single entry point the sweep runner, the CLI
and the benchmark harness use to obtain a :class:`CompilationResult`:

* ``compile_circuit(compiler, circuit)`` — the hot path.  Computes the
  content-addressed cache key, serves a hit from the on-disk
  :class:`~repro.service.store.ProgramStore` (deserialization latency is
  tracked separately and never reported as compile time), or compiles cold
  and persists the result.
* ``compile(job)`` / ``compile_batch(jobs)`` — spec-driven variants taking
  picklable :class:`CompileJob` grid points (benchmark x strategy x device
  knobs, mirroring the sweep runner's job shape).  ``compile_batch``
  deduplicates identical jobs within the batch, answers what it can from the
  store, and fans the remaining cold compilations out over worker processes
  with ``concurrent.futures`` — the same machinery (and the same
  value-keyed determinism argument) as :class:`repro.analysis.SweepRunner`.

Every service instance keeps hit/miss/latency statistics in ``stats``.
A process-wide default instance is available via :func:`get_service`, and
:func:`service_override` installs a replacement for a scoped block (the
sweep runner uses this to honour per-run ``--cache-dir`` / ``--no-cache``).
"""

from __future__ import annotations

import copy
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..circuits import Circuit
from ..core.compiler import ColorDynamic, CompilationResult
from ..devices import Device
from ..obs import get_metrics
from ..obs import span as _span
from ..workloads import benchmark_circuit, parse_benchmark_name
from .cache_key import cache_key, circuit_digest, compiler_digest
from .store import (
    ProgramStore,
    cache_enabled_default,
    cache_max_bytes_default,
    remote_cache_default,
    remote_compile_default,
)

__all__ = [
    "CompileJob",
    "CompileService",
    "ServiceStats",
    "make_compiler",
    "get_service",
    "configure_service",
    "service_override",
]

# Service-level metrics (process-local; see docs/observability.md for the
# catalog).  Registered at import so `GET /metrics` lists them as soon as
# the service module is loaded, even before the first request.
_COMPILE_REQUESTS = get_metrics().counter(
    "repro_compile_requests_total",
    "Compile service requests by outcome (hit, miss, dedup).",
    ("outcome",),
)
_COMPILE_LOAD_SECONDS = get_metrics().histogram(
    "repro_compile_load_seconds",
    "Store-load latency of cache hits (deserialization included).",
)
_COMPILE_COLD_SECONDS = get_metrics().histogram(
    "repro_compile_cold_seconds",
    "Cold compile latency of cache misses.",
)


def make_compiler(
    strategy: str,
    device: Device,
    max_colors: Optional[int] = None,
    admission: str = "structural",
):
    """Instantiate a Table I strategy by its figure name.

    Parameters
    ----------
    strategy:
        Figure name of the strategy (``"ColorDynamic"``, ``"Baseline N"``,
        ...; see :data:`repro.baselines.STRATEGY_REGISTRY`).
    device:
        Target device the compiler is bound to.
    max_colors:
        Interaction-frequency color budget (ColorDynamic only; the Fig. 11
        knob).
    admission:
        Step-admission policy (``"structural"`` or ``"success"``), passed
        through to the strategy's constructor.

    Raises
    ------
    ValueError
        If *strategy* or *admission* names nothing known.
    """
    from ..baselines import STRATEGY_REGISTRY

    if strategy == "ColorDynamic":
        return ColorDynamic(device, max_colors=max_colors, admission=admission)
    cls = STRATEGY_REGISTRY.get(strategy)
    if cls is None:
        raise ValueError(f"unknown strategy {strategy!r}")
    return cls(device, admission=admission)


@dataclass(frozen=True)
class CompileJob:
    """One compilation request: benchmark x strategy x device knobs.

    Jobs are immutable and picklable so batches can cross process
    boundaries; the cache key is *not* derived from these fields directly
    but from the device/compiler/circuit content they resolve to, so a
    change in device physics or compiler defaults is never masked by an
    unchanged job spec.
    """

    benchmark: str
    strategy: str
    topology: str = "grid"
    seed: int = 2020
    max_colors: Optional[int] = None
    admission: str = "structural"


@dataclass
class ServiceStats:
    """Hit/miss/latency counters of one :class:`CompileService` instance."""

    hits: int = 0
    misses: int = 0
    deduplicated: int = 0
    remote_compiles: int = 0
    compile_time_s: float = 0.0
    load_time_s: float = 0.0

    @property
    def requests(self) -> int:
        return self.hits + self.misses + self.deduplicated + self.remote_compiles

    @property
    def hit_rate(self) -> float:
        looked_up = self.hits + self.misses + self.remote_compiles
        return self.hits / looked_up if looked_up else 0.0

    def snapshot(self) -> Dict[str, float]:
        return {
            "requests": self.requests,
            "hits": self.hits,
            "misses": self.misses,
            "deduplicated": self.deduplicated,
            "remote_compiles": self.remote_compiles,
            "hit_rate": self.hit_rate,
            "compile_time_s": self.compile_time_s,
            "load_time_s": self.load_time_s,
        }

    def reset(self) -> None:
        self.hits = self.misses = self.deduplicated = self.remote_compiles = 0
        self.compile_time_s = self.load_time_s = 0.0


def build_device(topology: str, num_qubits: int, seed: int) -> Device:
    """The single source of truth for (topology, size, seed) -> Device.

    The figure sweeps (via :func:`repro.analysis.build_device_for` and the
    sweep workers' device cache) and the service's job resolution all call
    this, so warmed cache keys always match the keys a later sweep computes.
    """
    if topology == "grid":
        return Device.grid(num_qubits, seed=seed)
    return Device.from_topology_name(topology, num_qubits, seed=seed)


def build_device_for(benchmark: str, topology: str = "grid", seed: int = 2020) -> Device:
    """Device sized for a benchmark (square grid by default, as in the paper)."""
    return build_device(topology, parse_benchmark_name(benchmark).num_qubits, seed)


def _build_job_device(job: CompileJob) -> Device:
    return build_device_for(job.benchmark, topology=job.topology, seed=job.seed)


def _compile_job_cold(job: CompileJob) -> CompilationResult:
    """Compile one job from scratch (runs inside batch worker processes)."""
    compiler = make_compiler(
        job.strategy, _build_job_device(job), job.max_colors, admission=job.admission
    )
    circuit = benchmark_circuit(job.benchmark, seed=job.seed)
    return compiler.compile(circuit)


class CompileService:
    """Compilation with an on-disk program cache and batch fan-out.

    Parameters
    ----------
    cache_dir:
        Root of the on-disk store; defaults to ``REPRO_CACHE_DIR`` or an
        XDG cache path (see :func:`~repro.service.store.default_cache_dir`).
    enabled:
        ``False`` bypasses the store entirely (every request compiles
        cold).  ``None`` reads the ``REPRO_CACHE`` environment toggle.
    store:
        Pre-built :class:`ProgramStore`, overriding ``cache_dir``,
        ``remote_cache`` and ``max_bytes``.
    remote_cache:
        Shared cache server URL (``python -m repro cache serve``); the
        store becomes tiered — local first, then the remote, with remote
        hits written back locally.  ``None`` reads ``REPRO_REMOTE_CACHE``;
        an empty string forces local-only regardless of the environment.
    max_bytes:
        LRU byte budget for the local store tier, enforced after every
        write.  ``None`` reads ``REPRO_CACHE_MAX_BYTES``.
    remote_compile:
        Remote compile-server URL (the ``POST /v<codec>/compile`` route of
        ``python -m repro cache serve``); spec-driven store misses are then
        shipped to the server instead of compiling cold locally, with the
        returned payloads persisted into the *local* store tier (never
        re-published to the remote — the server already stored them).
        ``None`` reads ``REPRO_REMOTE_COMPILE``; an empty string forces
        local compilation regardless of the environment.  Remote failures
        (dead server, open breaker, malformed payloads) degrade to local
        cold compiles, never to errors.
    """

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        enabled: Optional[bool] = None,
        store: Optional[ProgramStore] = None,
        remote_cache: Optional[str] = None,
        max_bytes: Optional[int] = None,
        remote_compile: Optional[str] = None,
    ) -> None:
        if enabled is None:
            enabled = cache_enabled_default()
        self.enabled = enabled
        self.store: Optional[ProgramStore] = None
        if enabled:
            if store is None:
                if remote_cache is None:
                    remote_cache = remote_cache_default()
                if max_bytes is None:
                    max_bytes = cache_max_bytes_default()
                store = ProgramStore(
                    cache_dir, remote_url=remote_cache or None, max_bytes=max_bytes
                )
            self.store = store
        if remote_compile is None:
            remote_compile = remote_compile_default()
        self.remote_compile = remote_compile or None
        self._remote_client_instance = None
        self.stats = ServiceStats()
        # Per-service memos so spec-driven requests rebuild each device,
        # compiler and circuit at most once (value-keyed, like the sweep
        # runner's per-worker caches).
        self._devices: Dict[Tuple[str, int, int], Device] = {}
        self._compilers: Dict[Tuple[str, str, int, int, Optional[int], str], object] = {}
        self._circuits: Dict[Tuple[str, int], Circuit] = {}
        # Content sub-digests, memoized alongside the objects they describe
        # (a spec-built device/compiler/circuit is never mutated afterwards,
        # so memoizing its digest is safe; the direct compile_circuit path
        # takes no such shortcut).
        self._compiler_shas: Dict[
            Tuple[str, str, int, int, Optional[int], str], str
        ] = {}
        self._circuit_shas: Dict[Tuple[str, int], str] = {}

    # ------------------------------------------------------------------
    # spec resolution (memoized)
    # ------------------------------------------------------------------
    def _device_for(self, job: CompileJob) -> Device:
        num_qubits = parse_benchmark_name(job.benchmark).num_qubits
        key = (job.topology, num_qubits, job.seed)
        device = self._devices.get(key)
        if device is None:
            device = _build_job_device(job)
            self._devices[key] = device
        return device

    def _compiler_for(self, job: CompileJob):
        num_qubits = parse_benchmark_name(job.benchmark).num_qubits
        key = (
            job.strategy, job.topology, num_qubits, job.seed, job.max_colors,
            job.admission,
        )
        compiler = self._compilers.get(key)
        if compiler is None:
            compiler = make_compiler(
                job.strategy, self._device_for(job), job.max_colors, admission=job.admission
            )
            self._compilers[key] = compiler
        return compiler

    def _circuit_for(self, job: CompileJob) -> Circuit:
        key = (job.benchmark, job.seed)
        circuit = self._circuits.get(key)
        if circuit is None:
            circuit = benchmark_circuit(job.benchmark, seed=job.seed)
            self._circuits[key] = circuit
        return circuit

    def job_key(self, job: CompileJob) -> str:
        """Content-addressed cache key a job resolves to."""
        compiler_key = (job.strategy, job.topology,
                        parse_benchmark_name(job.benchmark).num_qubits,
                        job.seed, job.max_colors, job.admission)
        compiler_sha = self._compiler_shas.get(compiler_key)
        if compiler_sha is None:
            compiler_sha = compiler_digest(self._compiler_for(job))
            self._compiler_shas[compiler_key] = compiler_sha
        circuit_key = (job.benchmark, job.seed)
        circuit_sha = self._circuit_shas.get(circuit_key)
        if circuit_sha is None:
            circuit_sha = circuit_digest(self._circuit_for(job))
            self._circuit_shas[circuit_key] = circuit_sha
        return cache_key(None, None, compiler_sha=compiler_sha, circuit_sha=circuit_sha)

    # ------------------------------------------------------------------
    # remote compilation
    # ------------------------------------------------------------------
    def _remote_client(self):
        """The lazily built remote-compile client, or ``None`` when off."""
        if self.remote_compile is None:
            return None
        if self._remote_client_instance is None:
            # Imported here: remote_compile imports this module for
            # CompileJob, so a top-level import would be circular.
            from .remote_compile import RemoteCompileClient

            self._remote_client_instance = RemoteCompileClient(self.remote_compile)
        return self._remote_client_instance

    def _adopt_remote(
        self,
        key: Optional[str],
        payload: dict,
        job: CompileJob,
        name: Optional[str] = None,
    ) -> Optional[CompilationResult]:
        """A server-compiled payload -> result, persisted locally.

        ``None`` when the payload does not decode — the caller falls back
        to a local cold compile, upholding the corrupt-entry contract.
        The entry is written to the *local* store tier only: the compile
        server already holds it, so publishing it back would be a
        redundant upload per grid point.
        """
        try:
            with _span("codec.decode"):
                result = CompilationResult.from_dict(
                    payload, device=self._compiler_for(job).device
                )
        except (KeyError, TypeError, ValueError):
            return None
        if name is not None:
            result.program.name = name
        self.stats.remote_compiles += 1
        _COMPILE_REQUESTS.inc(outcome="remote")
        if self.store is not None and key is not None:
            with _span("store.put"):
                self.store.put_local(key, payload)
        return result

    def _renamed(
        self, result: CompilationResult, name: Optional[str]
    ) -> CompilationResult:
        """*result* carrying *name*, copied when a shared instance differs.

        Batch dedup hands the same result object to every duplicate job, so
        renaming in place would leak one caller's name into another's
        result; the copy is shallow (program steps are shared, only the
        ``name`` diverges).
        """
        if name is None or result.program.name == name:
            return result
        renamed = copy.copy(result)
        renamed.program = copy.copy(result.program)
        renamed.program.name = name
        return renamed

    # ------------------------------------------------------------------
    # compilation
    # ------------------------------------------------------------------
    def _try_load(
        self,
        key: str,
        device: Optional[Device] = None,
        name: Optional[str] = None,
    ) -> Optional[CompilationResult]:
        """Serve *key* from the store; ``None`` on any kind of miss.

        A stored entry that fails to decode (valid JSON of the wrong shape —
        bit rot, hand-edited cache, foreign file) degrades to a miss and a
        recompile, upholding the store's corrupt-entry contract.
        """
        if self.store is None:
            return None
        start = time.perf_counter()
        with _span("cache.load"):
            payload = self.store.get(key)
        if payload is None:
            return None
        try:
            # The cache key hashes the full device content, so a hit
            # guarantees the stored device is identical to the caller's:
            # interning the live instance skips decoding the stored copy and
            # lets every program of a sweep share one Device (and its cached
            # spectator geometry) instead of rebuilding both per warm load.
            with _span("codec.decode"):
                result = CompilationResult.from_dict(payload, device=device)
        except (KeyError, TypeError, ValueError):
            return None
        elapsed_s = time.perf_counter() - start
        if name is not None:
            # Mirror the miss path, which passes the caller's name through to
            # compiler.compile(); the stored entry carries the circuit name.
            result.program.name = name
        result.cache_hit = True
        result.load_time_s = elapsed_s
        self.stats.hits += 1
        self.stats.load_time_s += elapsed_s
        _COMPILE_REQUESTS.inc(outcome="hit")
        _COMPILE_LOAD_SECONDS.observe(elapsed_s)
        return result

    def _record_miss(
        self,
        key: Optional[str],
        result: CompilationResult,
        canonical_name: Optional[str] = None,
    ) -> None:
        self.stats.misses += 1
        self.stats.compile_time_s += result.compile_time_s
        _COMPILE_REQUESTS.inc(outcome="miss")
        _COMPILE_COLD_SECONDS.observe(result.compile_time_s)
        if self.store is not None and key is not None:
            with _span("codec.encode"):
                payload = result.to_dict()
            if canonical_name is not None:
                # Store under the circuit's own name regardless of the name
                # this caller requested: a cache entry is name-independent,
                # and hits re-apply the requesting caller's name.
                payload["program"]["name"] = canonical_name
            with _span("store.put"):
                self.store.put(key, payload)

    def compile_circuit(
        self, compiler, circuit: Circuit, name: Optional[str] = None
    ) -> CompilationResult:
        """Compile *circuit* with *compiler*, consulting the program store.

        *compiler* is any strategy object exposing ``cache_signature()`` and
        ``compile()``.  Cache hits keep the originally measured
        ``compile_time_s`` and report only ``load_time_s`` for the
        deserialization.
        """
        key: Optional[str] = None
        if self.store is not None:
            key = cache_key(compiler, circuit)
            loaded = self._try_load(key, device=compiler.device, name=name)
            if loaded is not None:
                return loaded
        result = compiler.compile(circuit, name=name)
        self._record_miss(key, result, canonical_name=circuit.name)
        return result

    def compile(self, job: CompileJob, name: Optional[str] = None) -> CompilationResult:
        """Compile one grid point (cache-aware).

        Parameters
        ----------
        job:
            The :class:`CompileJob` spec; the device, compiler and circuit
            it names are resolved through this service's value-keyed memos
            (each is built at most once per service instance).
        name:
            Optional program name to carry on the result, forwarded exactly
            like :meth:`compile_circuit` forwards it — applied on store
            hits, remote results and cold compiles alike (entries are
            stored under the circuit's canonical name regardless).

        Returns
        -------
        CompilationResult
            Served from the program store when possible (``cache_hit=True``
            with the originally measured ``compile_time_s`` and the load
            latency in ``load_time_s``), resolved by the remote compile
            server when one is configured, compiled cold locally otherwise.

        Raises
        ------
        ValueError
            If the job names an unknown strategy, admission policy,
            topology or benchmark family.
        """
        key: Optional[str] = None
        if self.store is not None:
            key = self.job_key(job)
            loaded = self._try_load(
                key, device=self._compiler_for(job).device, name=name
            )
            if loaded is not None:
                return loaded
        client = self._remote_client()
        if client is not None:
            payloads = client.compile_jobs([job])
            if payloads:
                adopted = self._adopt_remote(key, payloads[0], job, name=name)
                if adopted is not None:
                    return adopted
        circuit = self._circuit_for(job)
        result = self._compiler_for(job).compile(circuit, name=name)
        self._record_miss(key, result, canonical_name=circuit.name)
        return result

    def compile_batch(
        self,
        jobs: Iterable[CompileJob],
        max_workers: int = 1,
        names: Optional[Sequence[Optional[str]]] = None,
    ) -> List[CompilationResult]:
        """Compile a batch, deduplicating and fanning misses out.

        Parameters
        ----------
        jobs:
            :class:`CompileJob` specs; duplicates (same cache key) are
            compiled once per batch and counted in ``stats.deduplicated``.
        max_workers:
            With ``> 1``, cold compilations run in subprocesses and their
            results are persisted by the parent, so a shared cache
            directory sees one writer per entry.  Store hits never reach
            the worker pool.
        names:
            Optional per-job program names (same length as *jobs*,
            ``None`` entries keep the canonical circuit name) — the batch
            counterpart of the ``name=`` pass-through on
            :meth:`compile_circuit`.  Duplicate jobs requesting different
            names each get their own (shallow-copied) result, so the
            shared dedup instance is never renamed in place.

        Returns
        -------
        list[CompilationResult]
            In job order, identical at any worker count.

        Raises
        ------
        ValueError
            If any job names an unknown strategy, admission policy,
            topology or benchmark family (raised before any compilation
            starts — the whole batch is keyed first), or if *names* has
            the wrong length.
        """
        jobs = list(jobs)
        if names is not None:
            names = list(names)
            if len(names) != len(jobs):
                raise ValueError(
                    f"names has {len(names)} entries for {len(jobs)} jobs"
                )
        keys = [self.job_key(job) for job in jobs]
        first_job: Dict[str, CompileJob] = {}
        first_name: Dict[str, Optional[str]] = {}
        for index, (job, key) in enumerate(zip(jobs, keys)):
            if key in first_job:
                self.stats.deduplicated += 1
                _COMPILE_REQUESTS.inc(outcome="dedup")
            else:
                first_job[key] = job
                first_name[key] = names[index] if names is not None else None

        resolved: Dict[str, CompilationResult] = {}
        missing: List[Tuple[str, CompileJob]] = []
        if self.store is not None and len(first_job) > 1:
            # One batched round trip warms the local tier with every remote
            # entry this batch will need (a no-op on local-only stores), so
            # the per-key loads below never pay per-entry remote latency.
            self.store.prefetch(list(first_job))
        for key, job in first_job.items():
            loaded = self._try_load(
                key, device=self._compiler_for(job).device, name=first_name[key]
            )
            if loaded is not None:
                resolved[key] = loaded
            else:
                missing.append((key, job))

        client = self._remote_client()
        if missing and client is not None:
            payloads = client.compile_jobs([job for _, job in missing])
            if payloads is not None:
                still_missing: List[Tuple[str, CompileJob]] = []
                for (key, job), payload in zip(missing, payloads):
                    adopted = self._adopt_remote(
                        key, payload, job, name=first_name[key]
                    )
                    if adopted is None:
                        still_missing.append((key, job))
                    else:
                        resolved[key] = adopted
                missing = still_missing

        if len(missing) > 1 and max_workers > 1:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=max_workers) as pool:
                cold = list(pool.map(_compile_job_cold, [job for _, job in missing]))
            for (key, _), result in zip(missing, cold):
                self._record_miss(key, result)
                resolved[key] = result
        else:
            for key, job in missing:
                result = self._compiler_for(job).compile(
                    self._circuit_for(job), name=first_name[key]
                )
                self._record_miss(key, result, canonical_name=self._circuit_for(job).name)
                resolved[key] = result

        if names is None:
            return [resolved[key] for key in keys]
        return [
            self._renamed(resolved[key], name) for key, name in zip(keys, names)
        ]


# ---------------------------------------------------------------------------
# process-wide default instance
# ---------------------------------------------------------------------------
_SERVICE: Optional[CompileService] = None


def get_service() -> CompileService:
    """The process-wide default service (created lazily from environment)."""
    global _SERVICE
    if _SERVICE is None:
        _SERVICE = CompileService()
    return _SERVICE


def configure_service(
    cache_dir: Optional[str] = None,
    enabled: Optional[bool] = None,
    remote_cache: Optional[str] = None,
    max_bytes: Optional[int] = None,
    remote_compile: Optional[str] = None,
) -> CompileService:
    """Replace the process-wide default service (used by sweep workers)."""
    global _SERVICE
    _SERVICE = CompileService(
        cache_dir=cache_dir,
        enabled=enabled,
        remote_cache=remote_cache,
        max_bytes=max_bytes,
        remote_compile=remote_compile,
    )
    return _SERVICE


def reset_service() -> None:
    """Drop the process-wide default service; the next use rebuilds it lazily.

    Call after changing ``REPRO_CACHE_DIR`` / ``REPRO_CACHE`` in the
    environment so the new settings take effect (test fixtures use this).
    """
    global _SERVICE
    _SERVICE = None


@contextmanager
def service_override(
    cache_dir: Optional[str] = None,
    enabled: Optional[bool] = None,
    service: Optional[CompileService] = None,
    remote_cache: Optional[str] = None,
    max_bytes: Optional[int] = None,
    remote_compile: Optional[str] = None,
) -> Iterator[CompileService]:
    """Temporarily install a different default service for a scoped block.

    The default service is a process-wide global with no locking: overlapping
    overrides from concurrent threads (e.g. two simultaneous
    ``SweepRunner.run`` calls with *different* cache configurations) would
    see each other's service.  Run such sweeps sequentially, from separate
    processes, or against the same configuration.
    """
    global _SERVICE
    if service is None:
        service = CompileService(
            cache_dir,
            enabled,
            remote_cache=remote_cache,
            max_bytes=max_bytes,
            remote_compile=remote_compile,
        )
    replacement = service
    previous = _SERVICE
    _SERVICE = replacement
    try:
        yield replacement
    finally:
        _SERVICE = previous
