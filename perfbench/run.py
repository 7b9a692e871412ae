"""Fig. 9 sweep benchmark: the 110-point grid in several cache modes.

Run from the repository root::

    python3 perfbench/run.py --workload sweep-warm --seed 2020 --seconds 22 --trace 0

Workloads: ``sweep-fill``, ``sweep-warm`` and ``remote-compile``, the ones
``BENCHMARK.json`` lists, and ``sweep-nocache``, a control kept for runs by
hand (see ``perfbench/NOTES.md``).  One process performs the run, pinned
with every child to one CPU: one warm-up pass, then timed passes until
``--seconds`` have elapsed, with fresh-interpreter set-up launches spread
between them.  ``--seed`` fixes the order of the grid points in every pass;
the grid itself is always fig09 at grid seed 2020.  Every job's outcome is
checked against reference-path records (``expected.py``).

Pass timings are reported at a nominal machine speed: a fixed Python
reference loop is timed before a pass and after each of its segments (the
whole pass on the serial sweeps, 20 requests on remote-compile), and each
segment's times are scaled by ``NOMINAL_REF_MS`` over the mean of the two
samples around it (see ``NOTES.md`` for why).  Set-up launches are scaled
likewise, by ``NOMINAL_SETUP_REF_MS`` over a fresh-interpreter reference
launch made right before each one.  The unscaled values are printed to
standard error.

``--trace 0`` prints the end-to-end metrics, measured with nothing wrapped.
``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics; ``trace.overhead_ratio`` compares the two kinds.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (``{name: {value, unit}}``).  The
line before it carries the machine context (reference-loop time and a
fingerprint), which is not gated.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import random
import resource
import shutil
import subprocess
import sys
from hashlib import blake2b
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh-interpreter launches, spread over the run, whose median is ``setup_s``.
SETUP_LAUNCHES = 5
#: Timed passes a run makes at least (of each kind, in a traced run).
MIN_PASSES = 3
#: The measuring loop stops adding passes after this long, whatever happens.
MAX_MEASURE_S = 110.0
#: Reference-loop time that defines the nominal machine speed (about what a
#: quiet 2-core x86_64 container measures).
NOMINAL_REF_MS = 10.0
#: Set-up reference time (``setup_probe.py --reference``) that defines the
#: nominal set-up speed, measured the same way.
NOMINAL_SETUP_REF_MS = 80.0

Metrics = Dict[str, Tuple[float, str]]


def parse_args(argv=None):
    import sweep

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sweep.WORKLOADS)
    parser.add_argument("--seed", type=int, default=2020)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _reference_loop() -> int:
    """Fixed interpreter-bound work: dicts, sets, sorting, small lists.

    It is shaped like the sweep's own Python work on purpose: a NumPy-heavy
    loop slows about 1.9x when this machine is loaded while the sweep slows
    about 1.3x, so scaling by it would over-correct.
    """
    checksum = 0
    for _ in range(2):
        adjacency: Dict[int, set] = {}
        for i in range(3000):
            adjacency.setdefault(i % 211, set()).add((i * 7) % 211)
        colors: Dict[int, int] = {}
        for node in sorted(adjacency, key=lambda n: -len(adjacency[n])):
            used = {colors.get(v) for v in adjacency[node]}
            colors[node] = next(c for c in range(300) if c not in used)
        rows = [
            tuple(sorted((k, v) for k, v in colors.items() if (k + j) % 5 == 0))
            for j in range(40)
        ]
        checksum += len({row: len(row) for row in rows})
        for _ in range(20):
            checksum += int(sum(map(sum, [[i * 0.5 for i in range(100)] for _ in range(20)])))
    return checksum


class Speedometer:
    """Times a fixed reference loop to read the machine's speed right now."""

    def __init__(self) -> None:
        self.samples_ms: List[float] = []
        self.last_ms = self.sample()

    def sample(self) -> float:
        """The fastest of three loops: a regime shows in all three, a spike in one."""
        times = []
        for _ in range(3):
            start = perf_counter()
            _reference_loop()
            times.append(perf_counter() - start)
        elapsed_ms = min(times) * 1e3
        self.samples_ms.append(elapsed_ms)
        return elapsed_ms

    def restart(self) -> None:
        """Start a new stretch: work since the last sample is not a pass."""
        self.last_ms = self.sample()

    def scale_since_last(self) -> float:
        """Nominal over measured speed for the stretch since the last sample."""
        before, self.last_ms = self.last_ms, self.sample()
        return NOMINAL_REF_MS / ((before + self.last_ms) / 2)


def fingerprint() -> Tuple[str, List[str]]:
    import networkx
    import numpy
    from repro.program import PROGRAM_CODEC_VERSION

    parts = [
        f"nproc={os.cpu_count()}",
        f"cpu={platform.processor() or platform.machine()}",
        f"python={platform.python_version()}",
        f"numpy={numpy.__version__}",
        f"networkx={networkx.__version__}",
        f"codec={PROGRAM_CODEC_VERSION}",
    ]
    digest = blake2b("|".join(parts).encode(), digest_size=8)
    return digest.hexdigest(), parts


def pin_to_one_cpu() -> str:
    """Keep the run, and every process it starts, on one CPU.

    remote-compile's client and server take turns, so sharing a core costs
    them nothing (paired passes ran 3-24% faster pinned), and the reference
    loop then times the core the work runs on.  Returns the CPU, or
    ``"none"`` where affinity cannot be set.
    """
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return "none"
    return str(cpu)


class SetupLauncher:
    """Set-up of fresh interpreters: import, service/store open, server ready.

    The launches are spread evenly over the measuring time, between passes
    and outside their timers (back to back, a run's launches all fell in one
    stretch of machine speed).  Each opens the store its workload opens:
    none, a new empty one, or sweep-warm's filled store, which opening only
    reads.

    Set-up time does not follow the pass reference loop, but it does follow
    a fresh interpreter importing fixed standard-library modules; each launch
    is scaled by one such reference launch made right before it.
    """

    def __init__(self, workload, workdir: Path, env: Dict[str, str]) -> None:
        self.workload, self.workdir, self.env = workload, workdir, env
        self.parts: Dict[str, List[float]] = {
            "import_s": [], "service_open_s": [], "server_ready_s": [],
        }
        self.reference_ms: List[float] = []
        self.spent_s = 0.0  # wall time taken by the launches, kept out of the measuring time

    def scaled(self, values: List[float]) -> List[float]:
        """Per-launch *values* at the nominal set-up speed."""
        return [v * NOMINAL_SETUP_REF_MS / r for v, r in zip(values, self.reference_ms)]

    def _probe(self, *args: str) -> dict:
        probe = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), *args], env=self.env, cwd=ROOT,
            capture_output=True, text=True, timeout=60, check=True,
        )
        return json.loads(probe.stdout.strip().splitlines()[-1])

    @property
    def launched(self) -> int:
        return len(self.parts["import_s"])

    def due(self, elapsed: float, seconds: float) -> bool:
        launched = self.launched
        return launched < SETUP_LAUNCHES and elapsed >= launched * seconds / SETUP_LAUNCHES

    def launch(self) -> None:
        import sweep

        began = perf_counter()
        launch = self.launched
        reference_s = self._probe("--reference")["reference_s"]
        store = self.workload.setup_store(launch)
        fresh = store is not None and not store.exists()
        args = [] if store is None else ["--cache-dir", str(store)]
        server = None
        try:
            if self.workload.name == "remote-compile":
                server = sweep.ServerProcess(
                    self.workdir / f"setup-server-{launch}",
                    self.workdir / f"setup-server-{launch}.log", self.env, ROOT,
                )
                server_ready_s = server.start()
                args += ["--remote-compile", server.url]
            else:
                server_ready_s = 0.0
            measured = self._probe(*args)
        finally:
            if server is not None:
                server.stop()
                shutil.rmtree(server.store, ignore_errors=True)
            if fresh:
                shutil.rmtree(store, ignore_errors=True)
        self.reference_ms.append(reference_s * 1e3)
        self.parts["import_s"].append(measured["import_s"])
        self.parts["service_open_s"].append(measured["service_open_s"])
        self.parts["server_ready_s"].append(server_ready_s)
        self.spent_s += perf_counter() - began


def measure(workload, seconds: float, trace: bool, speed: Speedometer, setup: SetupLauncher):
    """Warm-up pass, then timed passes; traced runs alternate untraced/traced.

    Set-up launches fall between passes, on their schedule, and the rest
    after the last pass; their time does not count towards ``seconds``.
    """
    from layers import LayerClock

    prefill = workload.prepare()
    speed.restart()
    warmup = workload.run_pass(speed)
    untraced, traced = [], []
    start = perf_counter()
    while True:
        while setup.due(perf_counter() - start - setup.spent_s, seconds):
            setup.launch()
            speed.restart()
        tracing = trace and len(traced) < len(untraced)
        result = workload.run_pass(speed, LayerClock() if tracing else None)
        (traced if tracing else untraced).append(result)
        enough = len(untraced) >= MIN_PASSES and (not trace or len(traced) >= MIN_PASSES)
        elapsed = perf_counter() - start - setup.spent_s
        if (enough and elapsed >= seconds) or (
            elapsed >= MAX_MEASURE_S and untraced and (traced or not trace)
        ):
            break
    while setup.launched < SETUP_LAUNCHES:
        setup.launch()
    extra = [p for p in (prefill, warmup) if p is not None]
    return extra, warmup, untraced, traced


def jobs_per_s(passes, scaled: bool = True) -> float:
    walls = [p.scaled_wall_s if scaled else p.wall_s for p in passes]
    return len(passes[0].latencies_s) / median(walls)


def end_to_end(passes, setup: SetupLauncher, peak_rss_mb: float,
               entry_kb: float, scaled: bool = True) -> Metrics:
    """Per-pass job percentiles, then the median over passes."""
    p50s, p90s = [], []
    for p in passes:
        latencies = p.latencies(scaled)
        p50s.append(median(latencies))
        p90s.append(quantiles(latencies, n=10)[8])
    totals = [sum(launch) for launch in zip(*setup.parts.values())]
    return {
        "jobs_per_s": (jobs_per_s(passes, scaled), "1/s"),
        "job_p50_ms": (median(p50s) * 1e3, "ms"),
        "job_p90_ms": (median(p90s) * 1e3, "ms"),
        "setup_s": (median(setup.scaled(totals) if scaled else totals), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "entry_kb": (entry_kb, "kB"),
    }


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(traced, untraced, warmup, setup, speed: Speedometer, server_rss_mb: float) -> Metrics:
    from layers import COMPILE_PHASES, LAYERS

    def med(f) -> float:
        return median(f(p) for p in traced)

    def count(name: str) -> float:
        return med(lambda p: p.counters.get(name, 0))

    def scaled_ms(f) -> float:
        return med(lambda p: f(p) * p.scale)

    metrics: Metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}_ms"] = (scaled_ms(lambda p, k=layer: p.clock.self_ns.get(k, 0) / 1e6), "ms")
    for phase in COMPILE_PHASES:
        metrics[f"compile.{phase}_ms"] = (scaled_ms(lambda p, k=phase: p.clock.phases[k]), "ms")
    for name in ("hits", "misses", "deduplicated", "remote_compiles"):
        metrics[f"service.{name}"] = (count(f"service.{name}"), "count")
    metrics["service.hit_ratio"] = (med(lambda p: _ratio(
        p.counters["service.hits"],
        p.counters["service.hits"] + p.counters["service.misses"]
        + p.counters["service.remote_compiles"],
    )), "ratio")
    metrics["solver.memo_hit_ratio"] = (med(lambda p: _ratio(
        p.counters["solver.hits"], p.counters["solver.hits"] + p.counters["solver.misses"]
    )), "ratio")
    metrics["store.entries"] = (count("store.entries"), "count")
    metrics["remote.calls"] = (med(lambda p: p.clock.calls.get("remote.compile_call", 0)), "count")
    for name in ("compiled", "hits", "deduplicated", "throttled"):
        metrics[f"server.{name}"] = (count(f"server.{name}"), "count")
    metrics["server.compile_s"] = (med(lambda p: p.counters.get("server.compile_s", 0) * p.scale), "s")
    metrics["server.dedup_ratio"] = (med(lambda p: _ratio(
        p.counters.get("server.deduplicated", 0),
        sum(p.counters.get(f"server.{k}", 0) for k in ("compiled", "hits", "deduplicated")),
    )), "ratio")
    metrics["server.peak_rss_mb"] = (server_rss_mb, "MB")
    metrics["sweep.unattributed_ms"] = (
        scaled_ms(lambda p: p.wall_s * 1e3 - p.clock.attributed_ns() / 1e6), "ms"
    )
    metrics["sweep.warmup_pass_s"] = (warmup.scaled_wall_s, "s")
    metrics["trace.coverage"] = (
        med(lambda p: p.clock.attributed_ns() / 1e9 / p.wall_s), "ratio"
    )
    metrics["trace.overhead_ratio"] = (jobs_per_s(traced) / jobs_per_s(untraced), "ratio")
    for name, values in setup.parts.items():
        metrics[f"setup.{name}"] = (median(setup.scaled(values)), "s")
    metrics["machine.ref_ms"] = (median(speed.samples_ms), "ms")
    metrics["machine.setup_ref_ms"] = (median(setup.reference_ms), "ms")
    metrics["machine.speed_scale"] = (median(p.scale for p in traced + untraced), "ratio")
    return metrics


def run(args, workdir: Path, env: Dict[str, str]) -> dict:
    import expected
    import sweep

    pinned_cpu = pin_to_one_cpu()
    speed = Speedometer()
    digest, parts = fingerprint()
    checker = sweep.Checker(expected.load())
    # The seed orders the grid, not its content: seed-dependent devices and
    # circuits move job_p90_ms by up to 37% (NOTES.md), more than any bound.
    points = expected.grid()
    random.Random(args.seed).shuffle(points)
    if args.workload == "remote-compile":
        server = sweep.ServerProcess(workdir / "server-store", workdir / "server.log", env, ROOT)
        workload = sweep.RemoteCompile(points, checker, workdir, server)
    else:
        workload = sweep.SerialSweep(args.workload, points, checker, workdir)
    setup = SetupLauncher(workload, workdir, env)
    try:
        extra, warmup, untraced, traced = measure(
            workload, args.seconds, bool(args.trace), speed, setup
        )
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        entry_kb = workload.entry_kb()
    finally:
        workload.close()
    # Children are reaped by now, so this is the largest of the set-up
    # probes and the cache servers -- the servers on remote-compile.
    server_rss_mb = (
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        if args.workload == "remote-compile" else 0.0
    )
    unscaled = end_to_end(untraced, setup, peak_rss_mb, entry_kb, scaled=False)
    if args.trace:
        metrics = per_layer(traced, untraced, warmup, setup, speed, server_rss_mb)
    else:
        metrics = end_to_end(untraced, setup, peak_rss_mb, entry_kb)
    passes = extra + untraced + traced
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>14.6g} {unit}", file=sys.stderr)
    print(f"  {args.workload}: {len(untraced)} untraced + {len(traced)} traced timed passes, "
          f"{attempted} jobs checked, {failed} failed", file=sys.stderr)
    print("  unscaled: " + ", ".join(f"{k}={v:.6g}" for k, (v, _) in unscaled.items()),
          file=sys.stderr)
    print(json.dumps({"machine": {
        "ref_ms": median(speed.samples_ms), "setup_ref_ms": median(setup.reference_ms),
        "fingerprint": digest, "parts": parts, "pinned_cpu": pinned_cpu,
        "unscaled": {k: v for k, (v, _) in unscaled.items()},
    }}))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)
    # The benchmark configures every cache and server explicitly; ambient
    # REPRO_* settings and proxies must not leak into it or its children.
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = run(args, workdir, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
