"""The four Fig. 9 workloads, their pass hygiene and the cache server they use.

A *pass* is the 110-point fig09 grid (22 benchmarks x 5 strategies, grid
seed 2020), each point a compile (or store load) plus the Eq. (4) estimate,
in the run's seeded order.  Hygiene, the same in every run:

* ``clear_sweep_caches()`` and a fresh ``service_override`` scope (or, for
  remote-compile, fresh client services) before every pass, so the program
  memo and the service's device, compiler and circuit memos start empty;
* sweep-fill writes each pass into its own new store directory; the
  previous pass's directory is deleted before the timer starts;
* sweep-warm fills its store once, before the warm-up pass;
* remote-compile deletes every entry of the server's store through its
  HTTP API before every pass, and gives each client a new empty store.

Known limitation: the process-wide ``lru_cache`` memos in
``core/solver.py`` and ``circuits/decompose.py`` cannot be cleared through a
public API and stay warm after the first pass; so do the cache server's own
in-process memos.  The first pass of a process is therefore a warm-up and is
never part of the end-to-end figures.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import traceback
import urllib.error
import urllib.request
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, sleep
from typing import Dict, List, Optional

import expected
import layers

WORKLOADS = ("sweep-nocache", "sweep-fill", "sweep-warm", "remote-compile")

#: Local HTTP only: an ambient proxy setting must never route loopback calls.
_HTTP = urllib.request.build_opener(urllib.request.ProxyHandler({}))

_SERVER_SERIES = {
    "server.compiled": 'repro_server_compile_jobs_total{outcome="compiled"}',
    "server.hits": 'repro_server_compile_jobs_total{outcome="hit"}',
    "server.deduplicated": 'repro_server_compile_jobs_total{outcome="deduplicated"}',
    "server.throttled": "repro_server_compile_throttled_total",
    "server.compile_s": "repro_server_compile_seconds_sum",
}


@dataclass
class PassResult:
    """What one pass measured; ``counters`` are this pass's deltas.

    A pass is timed in segments, with the machine's speed sampled after
    each; ``job_scales`` holds, per job, the nominal-over-measured speed
    factor of its segment and ``scaled_wall_s`` the segments' scaled sum.
    """

    wall_s: float
    latencies_s: List[float]
    job_scales: List[float]
    scaled_wall_s: float
    attempted: int
    failed: int
    counters: Dict[str, float] = field(default_factory=dict)
    clock: Optional[layers.LayerClock] = None

    @property
    def scale(self) -> float:
        """The pass's overall speed factor, for its per-layer times."""
        return self.scaled_wall_s / self.wall_s

    def latencies(self, scaled: bool = True) -> List[float]:
        if not scaled:
            return self.latencies_s
        return [t * s for t, s in zip(self.latencies_s, self.job_scales)]


def _scale(speed) -> float:
    """Nominal over measured speed since the last sample; 1 when not measuring."""
    return 1.0 if speed is None else speed.scale_since_last()


class Checker:
    """Compares outcomes with the expected records and keeps the first error."""

    def __init__(self, records: Dict[str, dict]) -> None:
        self.records = records
        self.reported = False

    def ok(self, benchmark, strategy, outcome) -> bool:
        if outcome is None:
            return False
        if expected.matches(self.records[expected.point_id(benchmark, strategy)], *outcome):
            return True
        self.note(f"{benchmark} / {strategy}: outcome {outcome} differs from the expected one")
        return False

    def note(self, message: str) -> None:
        if not self.reported:
            self.reported = True
            print(f"perfbench: {message}", file=sys.stderr)


def _http(method: str, url: str):
    request = urllib.request.Request(url, method=method)
    with _HTTP.open(request, timeout=30) as response:
        return response.read()


class ServerProcess:
    """A ``python -m repro cache serve`` child on a free loopback port."""

    def __init__(self, store: Path, log: Path, env: Dict[str, str], cwd: Path) -> None:
        self.store, self.log, self.env, self.cwd = store, log, env, cwd
        self.proc: Optional[subprocess.Popen] = None
        self.url = ""

    def start(self, timeout_s: float = 60.0) -> float:
        """Launch and wait until ``GET /stats`` answers; returns the seconds taken."""
        start = perf_counter()
        with open(self.log, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-u", "-m", "repro", "cache", "serve",
                 "--cache-dir", str(self.store), "--port", "0"],
                stdout=log, stderr=subprocess.DEVNULL, env=self.env, cwd=self.cwd,
            )
        while perf_counter() - start < timeout_s:
            if self.proc.poll() is not None:
                raise RuntimeError(f"cache server exited with {self.proc.returncode}")
            if not self.url:
                found = re.search(r" at (http://\S+)", self.log.read_text())
                self.url = found.group(1) if found else ""
            if self.url and self._answers():
                return perf_counter() - start
            sleep(0.005)
        raise RuntimeError("cache server did not answer GET /stats in time")

    def _answers(self) -> bool:
        try:
            _http("GET", f"{self.url}/stats")
        except (urllib.error.URLError, OSError):
            return False
        return True

    def stop(self) -> None:
        if self.proc is None:
            return
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc = None

    def stats(self) -> dict:
        return json.loads(_http("GET", f"{self.url}/stats"))

    def empty_store(self) -> None:
        """Delete every entry through the HTTP API and check the store is empty."""
        from repro.program import PROGRAM_CODEC_VERSION

        listing = f"{self.url}/v{PROGRAM_CODEC_VERSION}/"
        for key in json.loads(_http("GET", listing))["keys"]:
            _http("DELETE", f"{listing}{key}")
        if self.stats()["entries"]:
            raise RuntimeError("cache server store is not empty after clearing it")

    def scrape(self) -> Dict[str, float]:
        """The ``server.*`` series from ``GET /metrics``."""
        values = {}
        for line in _http("GET", f"{self.url}/metrics").decode().splitlines():
            if line and not line.startswith("#"):
                name, _, value = line.rpartition(" ")
                values[name] = float(value)
        return {metric: values.get(series, 0.0) for metric, series in _SERVER_SERIES.items()}


@contextmanager
def _traced(clock: Optional[layers.LayerClock]):
    """Layer wrappers plus the ``repro.obs`` tracer, for traced passes only."""
    if clock is None:
        yield
        return
    from repro.obs import get_tracer

    tracer = get_tracer()
    tracer.clear()
    tracer.enabled = True
    try:
        with layers.installed(clock):
            yield
    finally:
        tracer.enabled = False
        clock.phases = layers.phase_ms(tracer.drain())


def _solver_memo() -> Dict[str, float]:
    from repro.core.solver import solve_max_separation_cached

    info = solve_max_separation_cached.cache_info()
    return {"solver.hits": info.hits, "solver.misses": info.misses}


def _service_counters(services) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for service in services:
        for name in ("hits", "misses", "deduplicated", "remote_compiles"):
            totals[f"service.{name}"] = totals.get(f"service.{name}", 0) + getattr(
                service.stats, name
            )
    return totals


def _entry_kb(stats: dict) -> float:
    return stats["total_bytes"] / stats["entries"] / 1024 if stats["entries"] else 0.0


class SerialSweep:
    """sweep-nocache, sweep-fill and sweep-warm: the grid through
    ``SweepRunner(max_workers=1)``, one ``run([job])`` call per grid point."""

    def __init__(self, name: str, points, checker: Checker, workdir: Path) -> None:
        from repro.analysis.experiments import SweepJob

        self.name = name
        self.checker = checker
        self.workdir = workdir
        self.jobs = [SweepJob(benchmark=b, strategy=s, seed=expected.GRID_SEED) for b, s in points]
        self.store: Optional[Path] = None
        self._fills = 0
        self._last_stats: Optional[dict] = None

    def prepare(self) -> Optional[PassResult]:
        """sweep-warm fills its store here, outside timing."""
        if self.name != "sweep-warm":
            return None
        self.store = self.workdir / "warm-store"
        return self._sweep(None, None)

    def setup_store(self, launch: int) -> Optional[Path]:
        """The store a set-up launch opens: none, a new empty one, or the
        filled warm store (``prepare`` has run by then)."""
        if self.name == "sweep-nocache":
            return None
        if self.name == "sweep-warm":
            return self.store
        return self.workdir / f"setup-store-{launch}"

    def run_pass(self, speed, clock: Optional[layers.LayerClock] = None) -> PassResult:
        """One pass, a single segment: *speed* is sampled once, after it."""
        if self.name == "sweep-fill":
            if self.store is not None:
                shutil.rmtree(self.store)
            self._fills += 1
            self.store = self.workdir / f"fill-store-{self._fills}"
        return self._sweep(speed, clock)

    def _sweep(self, speed, clock: Optional[layers.LayerClock]) -> PassResult:
        from repro.analysis.experiments import SweepRunner, clear_sweep_caches
        from repro.service import service_override

        clear_sweep_caches()
        runner = SweepRunner(max_workers=1)
        outcomes, latencies = [], []
        memo_before = _solver_memo()
        with service_override(
            cache_dir=str(self.store) if self.store else None,
            enabled=self.store is not None,
            remote_cache="",
            remote_compile="",
        ) as service, _traced(clock):
            start = perf_counter()
            for job in self.jobs:
                began = perf_counter()
                try:
                    (outcome,) = runner.run([job])
                except Exception:  # noqa: BLE001 - a failed job is counted, the run goes on
                    traceback.print_exc()
                    outcome = None
                latencies.append(perf_counter() - began)
                outcomes.append(outcome)
            wall = perf_counter() - start
        scale = _scale(speed)
        failed = sum(
            not self.checker.ok(
                job.benchmark, job.strategy,
                None if o is None else (o.success_rate, o.depth, o.duration_ns, o.max_colors),
            )
            for job, o in zip(self.jobs, outcomes)
        )
        counters = _service_counters([service])
        memo_after = _solver_memo()
        counters.update({k: memo_after[k] - memo_before[k] for k in memo_after})
        if service.store is not None:
            self._last_stats = service.store.stats()
            counters["store.entries"] = self._last_stats["entries"]
        else:
            counters["store.entries"] = 0
        return PassResult(
            wall, latencies, [scale] * len(latencies), wall * scale, len(self.jobs), failed,
            counters, clock,
        )

    def entry_kb(self) -> float:
        """Bytes per entry of the store after a pass.

        sweep-nocache has no store; it reports what the same grid occupies
        when compiled into a throwaway store, after its timed passes.
        """
        if self._last_stats is not None:
            return _entry_kb(self._last_stats)
        from repro.service import CompileJob, CompileService

        service = CompileService(
            cache_dir=str(self.workdir / "entry-size-store"), enabled=True,
            remote_cache="", remote_compile="",
        )
        service.compile_batch(
            [CompileJob(benchmark=j.benchmark, strategy=j.strategy, seed=j.seed) for j in self.jobs]
        )
        return _entry_kb(service.store.stats())

    def close(self) -> None:
        pass


class RemoteCompile:
    """remote-compile: two clients taking turns against one ``cache serve`` child.

    Client A walks the grid forward and client B backward, each through its
    own ``CompileService(cache_dir=<empty>, remote_compile=URL)``, scoring
    every result with ``estimate_success``.  One load thread alternates
    between them, so one request is in flight at a time: the server compiles
    the 110 keys the two meet first and answers the other 110 requests from
    its store.  Per-job latency is one ``service.compile`` plus the estimate.

    A pass takes several seconds, long enough for the machine to change
    speed more than once, so it is timed in segments of ``SEGMENT_JOBS``
    requests with the machine's speed sampled after each (NOTES.md).
    """

    SEGMENT_JOBS = 20

    def __init__(self, points, checker: Checker, workdir: Path, server: ServerProcess) -> None:
        from repro.service import CompileJob

        self.name = "remote-compile"
        self.checker = checker
        self.workdir = workdir
        self.server = server
        self.jobs = [CompileJob(benchmark=b, strategy=s, seed=expected.GRID_SEED) for b, s in points]

    def prepare(self) -> None:
        """Start the run's cache server (outside timing)."""
        self.server.start()

    def setup_store(self, launch: int) -> Path:
        """A new, empty client store for a set-up launch."""
        return self.workdir / f"setup-client-{launch}"

    def run_pass(self, speed, clock: Optional[layers.LayerClock] = None) -> PassResult:
        from repro.analysis import experiments
        from repro.noise import NoiseModel
        from repro.service import CompileService

        self.server.empty_store()
        stores = [self.workdir / "client-a", self.workdir / "client-b"]
        for store in stores:
            shutil.rmtree(store, ignore_errors=True)
        experiments.clear_sweep_caches()
        a, b = (
            CompileService(
                cache_dir=str(store), enabled=True, remote_cache="",
                remote_compile=self.server.url,
            )
            for store in stores
        )
        turns = [turn for pair in zip(self.jobs, self.jobs[::-1]) for turn in zip((a, b), pair)]
        model = NoiseModel()
        before = self.server.scrape()
        memo_before = _solver_memo()
        latencies, job_scales, outcomes = [], [], []
        wall = scaled_wall = 0.0
        with _traced(clock):
            for offset in range(0, len(turns), self.SEGMENT_JOBS):
                segment = turns[offset : offset + self.SEGMENT_JOBS]
                start = perf_counter()
                for service, job in segment:
                    began = perf_counter()
                    misses = service.stats.misses
                    try:
                        result = service.compile(job)
                        report = experiments.estimate_success(result.program, model)
                        outcome = (
                            report.success_rate, result.program.depth,
                            result.program.total_duration_ns, result.max_colors_used,
                        )
                    except Exception:  # noqa: BLE001 - a failed job is counted, the run goes on
                        traceback.print_exc()
                        outcome = None
                    latencies.append(perf_counter() - began)
                    # A local cold compile means the remote tier was bypassed.
                    outcomes.append((job, outcome, service.stats.misses > misses))
                elapsed = perf_counter() - start
                scale = _scale(speed)
                wall += elapsed
                scaled_wall += elapsed * scale
                job_scales += [scale] * len(segment)
        after = self.server.scrape()
        counters = {k: after[k] - before[k] for k in after}
        counters.update(_service_counters([a, b]))
        memo_after = _solver_memo()
        counters.update({k: memo_after[k] - memo_before[k] for k in memo_after})
        counters["store.entries"] = self.server.stats()["entries"]
        failed = int(counters["server.throttled"])
        for job, outcome, fell_back in outcomes:
            if fell_back:
                self.checker.note(f"{job.benchmark} / {job.strategy} compiled locally")
            failed += fell_back or not self.checker.ok(job.benchmark, job.strategy, outcome)
        return PassResult(
            wall, latencies, job_scales, scaled_wall, len(latencies), failed, counters, clock,
        )

    def entry_kb(self) -> float:
        return _entry_kb(self.server.stats())

    def close(self) -> None:
        self.server.stop()
