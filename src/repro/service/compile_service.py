"""The compilation front end: cache lookups, batch dedup, process fan-out.

:class:`CompileService` is the single entry point the sweep runner, the CLI,
the compile server and the benchmark harness use to obtain a
:class:`CompilationResult` for picklable :class:`CompileJob` grid points
(benchmark x strategy x device knobs, mirroring the sweep runner's job
shape).  ``compile_batch(jobs)`` is the one place a job is resolved: it
deduplicates identical jobs within the batch, serves what it can from the
content-addressed :class:`~repro.service.store.ProgramStore`
(deserialization latency is tracked separately and never reported as
compile time), hands the rest to a remote compile server when one is
configured, and compiles what is left cold — serially, or over worker
processes with ``concurrent.futures`` — persisting every result.  It is the
only fan-out in the package: :class:`repro.analysis.SweepRunner` hands its
figure grids to it.  ``compile(job)`` is a batch of one.

Every service instance keeps hit/miss/latency statistics in ``stats``.
A process-wide default instance is available via :func:`get_service`, and
:func:`service_override` installs a replacement for a scoped block (the
``figure`` command uses this to honour ``--cache-dir`` / ``--no-cache``).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Tuple

from ..circuits import Circuit
from ..core.compiler import ColorDynamic, CompilationResult
from ..devices import Device
from ..obs import get_metrics, get_tracer
from ..obs import span as _span
from ..workloads import benchmark_circuit, parse_benchmark_name
from .cache_key import cache_key, circuit_digest, compiler_digest
from .backends import (
    cache_enabled_default,
    cache_max_bytes_default,
    remote_cache_default,
    remote_compile_default,
)
from .store import ProgramStore

__all__ = [
    "CompileJob",
    "CompileService",
    "ServiceStats",
    "make_compiler",
    "get_service",
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


def build_device_for(benchmark: str, topology: str = "grid", seed: int = 2020) -> Device:
    """Device sized for a benchmark (square grid by default, as in the paper).

    The single source of truth for (benchmark, topology, seed) -> Device,
    re-exported as :func:`repro.analysis.build_device_for`: the sweeps and
    the service's job resolution both call it, so warmed cache keys always
    match the keys a later sweep computes.
    """
    num_qubits = parse_benchmark_name(benchmark).num_qubits
    if topology == "grid":
        return Device.grid(num_qubits, seed=seed)
    return Device.from_topology_name(topology, num_qubits, seed=seed)


#: A batch worker's own service: store-less and local-only, so store I/O and
#: remote compiles stay with the parent that owns the batch, and a reused
#: worker keeps its device/compiler/circuit memos across jobs.
_WORKER_SERVICE: Optional["CompileService"] = None


def _init_batch_worker(trace: bool) -> None:
    """Start a batch worker with an empty tracer, enabled iff the parent traces.

    A forked worker would otherwise inherit the parent's span buffer and
    ship it back with its first job.
    """
    tracer = get_tracer()
    tracer.clear()
    tracer.enabled = trace


def _compile_job_payload(job: CompileJob) -> Tuple[dict, list]:
    """Compile one job cold in a batch worker; returns ``(payload, spans)``.

    The result crosses the process boundary encoded: the parent decodes it
    onto its own interned device and stores the payload as received.  The
    worker's span buffer is drained after every job (empty unless the parent
    traces), so a reused worker never re-sends earlier jobs' spans.  Records
    keep the worker's pid and ``perf_counter_ns`` timestamps, which on Linux
    share the parent's monotonic clock, so the merged timeline needs no
    offset arithmetic.
    """
    global _WORKER_SERVICE
    if _WORKER_SERVICE is None:
        _WORKER_SERVICE = CompileService(enabled=False, remote_compile="")
    result = _WORKER_SERVICE.compile(job)
    with _span("codec.encode"):
        payload = result.to_dict()
    return payload, get_tracer().drain()


class CompileService:
    """Compilation with an on-disk program cache and batch fan-out.

    Parameters
    ----------
    cache_dir:
        Root of the on-disk store; defaults to ``REPRO_CACHE_DIR`` or an
        XDG cache path (see :func:`~repro.service.backends.default_cache_dir`).
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
        # compiler and circuit at most once (value-keyed).
        self._devices: Dict[Tuple[str, int, int], Device] = {}
        self._compilers: Dict[Tuple[str, str, int, int, Optional[int], str], object] = {}
        self._circuits: Dict[Tuple[str, int], Circuit] = {}
        # Content sub-digests, memoized alongside the objects they describe
        # (a spec-built device/compiler/circuit is never mutated afterwards,
        # so memoizing its digest is safe).
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
            device = build_device_for(job.benchmark, topology=job.topology, seed=job.seed)
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
        self, key: Hashable, payload: dict, job: CompileJob
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
        self.stats.remote_compiles += 1
        _COMPILE_REQUESTS.inc(outcome="remote")
        if self.store is not None:
            with _span("store.put"):
                self.store.put_local(key, payload)
        return result

    # ------------------------------------------------------------------
    # compilation
    # ------------------------------------------------------------------
    def _try_load(self, key: Hashable, device: Device) -> Optional[CompilationResult]:
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
        result.cache_hit = True
        result.load_time_s = elapsed_s
        self.stats.hits += 1
        self.stats.load_time_s += elapsed_s
        _COMPILE_REQUESTS.inc(outcome="hit")
        _COMPILE_LOAD_SECONDS.observe(elapsed_s)
        return result

    def _record_miss(
        self, key: Hashable, result: CompilationResult, payload: Optional[dict] = None
    ) -> None:
        """Count a cold compile and persist it (*payload* if already encoded)."""
        self.stats.misses += 1
        self.stats.compile_time_s += result.compile_time_s
        _COMPILE_REQUESTS.inc(outcome="miss")
        _COMPILE_COLD_SECONDS.observe(result.compile_time_s)
        if self.store is not None:
            if payload is None:
                with _span("codec.encode"):
                    payload = result.to_dict()
            with _span("store.put"):
                self.store.put(key, payload)

    def compile(self, job: CompileJob) -> CompilationResult:
        """Compile one grid point: a batch of one (see :meth:`compile_batch`)."""
        return self.compile_batch([job])[0]

    def compile_batch(
        self, jobs: Iterable[CompileJob], max_workers: int = 1
    ) -> List[CompilationResult]:
        """Compile a batch: dedup, store, remote server, then cold compiles.

        Parameters
        ----------
        jobs:
            :class:`CompileJob` specs; the device, compiler and circuit each
            names are resolved through this service's value-keyed memos
            (each is built at most once per service instance).  Duplicates
            (same cache key, or the same spec on a store-less service) are
            compiled once per batch and counted in ``stats.deduplicated``.
        max_workers:
            With ``> 1``, cold compilations run in subprocesses, each
            through a store-less, local-only service of its own.  Workers
            return encoded payloads; the parent decodes, counts and
            persists them, so store I/O and remote compiles happen only in
            the parent and a shared cache directory sees one writer per
            entry.  Store hits never reach the worker pool.

        Returns
        -------
        list[CompilationResult]
            In job order, identical at any worker count.  Each is served
            from the program store when possible (``cache_hit=True`` with
            the originally measured ``compile_time_s`` and the load latency
            in ``load_time_s``), resolved by the remote compile server when
            one is configured, compiled cold locally otherwise.

        Raises
        ------
        ValueError
            If any job names an unknown strategy, admission policy,
            topology or benchmark family (raised before any compilation
            starts — every distinct job is resolved first).
        """
        jobs = list(jobs)
        # Only the store needs content keys: a store-less batch
        # deduplicates by spec and builds no circuit just to hash it.
        keys: List[Hashable] = [
            self.job_key(job) if self.store is not None else job for job in jobs
        ]
        first_job: Dict[Hashable, CompileJob] = {}
        for job, key in zip(jobs, keys):
            if key in first_job:
                self.stats.deduplicated += 1
                _COMPILE_REQUESTS.inc(outcome="dedup")
            else:
                first_job[key] = job

        resolved: Dict[Hashable, CompilationResult] = {}
        missing: List[Tuple[Hashable, CompileJob]] = []
        if self.store is not None and len(first_job) > 1:
            # One batched round trip warms the local tier with every remote
            # entry this batch will need (a no-op on local-only stores), so
            # the per-key loads below never pay per-entry remote latency.
            self.store.prefetch(list(first_job))
        for key, job in first_job.items():
            loaded = self._try_load(key, self._compiler_for(job).device)
            if loaded is not None:
                resolved[key] = loaded
            else:
                missing.append((key, job))

        client = self._remote_client()
        if missing and client is not None:
            payloads = client.compile_jobs([job for _, job in missing])
            if payloads is not None:
                still_missing: List[Tuple[Hashable, CompileJob]] = []
                for (key, job), payload in zip(missing, payloads):
                    adopted = self._adopt_remote(key, payload, job)
                    if adopted is None:
                        still_missing.append((key, job))
                    else:
                        resolved[key] = adopted
                missing = still_missing

        if len(missing) > 1 and max_workers > 1:
            from concurrent.futures import ProcessPoolExecutor

            tracer = get_tracer()
            workers = min(max_workers, len(missing))
            with ProcessPoolExecutor(
                max_workers=workers,
                initializer=_init_batch_worker,
                initargs=(tracer.enabled,),
            ) as pool:
                # About four chunks per worker: few round trips, and results
                # (in job order) still arrive early enough to be decoded
                # while the workers compile the rest.
                shipped = pool.map(
                    _compile_job_payload,
                    [job for _, job in missing],
                    chunksize=max(1, len(missing) // (4 * workers)),
                )
                for (key, job), (payload, records) in zip(missing, shipped):
                    # Ingesting in job order keeps the merged timeline
                    # deterministic; exports sort by (ts_ns, pid, tid, name).
                    tracer.ingest(records)
                    with _span("codec.decode"):
                        result = CompilationResult.from_dict(
                            payload, device=self._compiler_for(job).device
                        )
                    self._record_miss(key, result, payload=payload)
                    resolved[key] = result
        else:
            for key, job in missing:
                result = self._compiler_for(job).compile(self._circuit_for(job))
                self._record_miss(key, result)
                resolved[key] = result

        return [resolved[key] for key in keys]


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

    A :class:`~repro.analysis.SweepRunner` run inside the block resolves its
    whole grid through this service at any worker count: batch workers
    compile cold through store-less services of their own, so the installed
    service performs every store read and write and counts every hit and
    miss.  The default service is a process-wide global with no locking:
    overlapping overrides from concurrent threads would see each other's
    service, so run such blocks sequentially or from separate processes.
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
