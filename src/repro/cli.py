"""Command-line interface for the reproduction toolchain.

Usage (after ``pip install -e .``)::

    python -m repro compile --benchmark "xeb(16,5)" --strategy ColorDynamic
    python -m repro compare --benchmark "xeb(16,10)"
    python -m repro compare --benchmark "xeb(16,10)" --admission success
    python -m repro admission-report --out docs/reports/admission-fig09.md
    python -m repro figure fig09 --benchmarks "bv(9)" "xeb(16,5)"
    python -m repro figure fig09 --workers 8     # parallel sweep processes
    python -m repro figure fig12 --cache-dir /tmp/repro-cache
    python -m repro cache warm fig09             # precompile the fig09 grid
    python -m repro cache stats
    python -m repro cache serve --port 8750      # share this store over HTTP
    python -m repro figure fig09 --remote-cache http://buildhost:8750
    python -m repro figure fig09 --remote-compile http://buildhost:8750
    python -m repro list

The CLI is a thin wrapper over :mod:`repro.analysis`; every command prints
the same tables the benchmark harness produces.  Figure sweeps run through
:class:`~repro.analysis.SweepRunner` — pass ``--workers N`` (or set
``REPRO_SWEEP_WORKERS``) to fan the grid's cold compiles out across
processes; results are identical at any worker count.

Compilation is served by the :mod:`repro.service` layer: compiled programs
are cached on disk (``REPRO_CACHE_DIR`` or an XDG path; ``--cache-dir``
overrides, ``--no-cache`` or ``REPRO_CACHE=0`` disables) and optionally
shared through a cache server (``cache serve`` on one machine,
``--remote-cache URL`` or ``REPRO_REMOTE_CACHE`` on the others), so
re-running a figure is cache-hot — even on a fresh machine — and skips
every compilation while printing identical output.  An explicit
``--cache-dir``/``--remote-cache`` wins over ``REPRO_CACHE=0``;
``--no-cache`` wins over everything.  ``cache
{stats,clear,warm,serve,push,pull,evict}`` manages the store; ``--max-bytes``
bounds it with LRU eviction.

The server is also a remote *compile* tier: ``figure --remote-compile URL``
(or ``REPRO_REMOTE_COMPILE``) ships cold misses to the server as batched
``CompileJob`` specs instead of compiling them locally, with cross-client
in-flight dedup server-side; ``--remote-compile ''`` forces local cold
compiles.  ``cache serve --token SECRET`` (or ``REPRO_CACHE_TOKEN``)
requires ``Authorization: Bearer`` on mutating and compile routes, and
``--max-pending``/``--max-payload-bytes`` bound the compile queue and the
accepted request size (the queue answers 429 + ``Retry-After`` when full).

``--admission {structural,success}`` (on ``compile``, ``compare``,
``figure`` and ``cache warm``) selects the scheduler's step-admission
policy; ``admission-report`` compares the two over the Fig. 9 grid (the
committed ``docs/reports/admission-fig09.md`` is its output).  Every
``--help`` epilog lists the ``REPRO_*`` environment variables the command
reads, rendered from the shared :mod:`repro.envvars` table.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

from . import obs
from .constants import ADMISSION_POLICIES, FIGURE_NAMES, STRATEGIES, SWEEP_FIGURE_NAMES
from .envvars import format_epilog, read_env, read_env_int
from .service import (
    CompileService,
    HTTPBackend,
    LocalFSBackend,
    ProgramStore,
    cache_max_bytes_default,
    copy_missing,
    remote_cache_default,
    service_override,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .analysis import SweepRunner

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the ``repro`` command.

    Every parser's epilog lists the ``REPRO_*`` environment variables the
    command reads, rendered from the shared :mod:`repro.envvars` table (the
    same table ``docs/cache-operations.md`` embeds).
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Frequency-aware compilation for crosstalk mitigation "
            "(MICRO 2020 reproduction)"
        ),
        epilog=format_epilog(None),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, help_text: str) -> argparse.ArgumentParser:
        return sub.add_parser(
            name,
            help=help_text,
            epilog=format_epilog(name),
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )

    def add_admission_flag(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument(
            "--admission",
            default="structural",
            choices=list(ADMISSION_POLICIES),
            help="step-admission policy: structural (criticality order, the "
            "default) or success (estimator-guided placement)",
        )

    compile_cmd = add_command("compile", "compile one benchmark with one strategy")
    compile_cmd.add_argument("--benchmark", required=True, help='e.g. "xeb(16,5)" or "bv(9)"')
    compile_cmd.add_argument("--strategy", default="ColorDynamic", choices=list(STRATEGIES))
    compile_cmd.add_argument(
        "--topology", default="grid", help="device topology (grid, linear, 1EX-3, ...)"
    )
    compile_cmd.add_argument("--seed", type=int, default=2020)
    add_admission_flag(compile_cmd)
    compile_cmd.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record compile-stage spans and write a Chrome trace JSON here "
        "(view in chrome://tracing; default: REPRO_TRACE/REPRO_TRACE_DIR)",
    )

    compare_cmd = add_command("compare", "compare all five strategies on one benchmark")
    compare_cmd.add_argument("--benchmark", required=True)
    compare_cmd.add_argument("--topology", default="grid")
    compare_cmd.add_argument("--seed", type=int, default=2020)
    add_admission_flag(compare_cmd)

    report_cmd = add_command(
        "admission-report",
        "compare structural vs success admission on the Fig. 9 grid",
    )
    report_cmd.add_argument(
        "--benchmarks", nargs="*", default=None, help="optional benchmark subset"
    )
    report_cmd.add_argument("--seed", type=int, default=2020)
    report_cmd.add_argument(
        "--workers", type=int, default=None, help="parallel sweep processes"
    )
    report_cmd.add_argument(
        "--out",
        default="-",
        help="write the Markdown report here ('-' prints to stdout; "
        "docs/reports/admission-fig09.md is this command's committed output)",
    )

    figure_cmd = add_command("figure", "regenerate one of the paper's figures")
    figure_cmd.add_argument("name", choices=list(FIGURE_NAMES))
    figure_cmd.add_argument(
        "--benchmarks", nargs="*", default=None, help="optional benchmark subset"
    )
    figure_cmd.add_argument("--seed", type=int, default=2020)
    figure_cmd.add_argument(
        "--workers",
        type=int,
        default=None,
        help="parallel sweep processes (default: REPRO_SWEEP_WORKERS or serial)",
    )
    figure_cmd.add_argument(
        "--cache-dir",
        default=None,
        help="compiled-program cache root (default: REPRO_CACHE_DIR or XDG cache)",
    )
    figure_cmd.add_argument(
        "--no-cache",
        action="store_true",
        help="compile everything cold, bypassing the program store",
    )
    figure_cmd.add_argument(
        "--remote-cache",
        default=None,
        metavar="URL",
        help="shared cache server (default: REPRO_REMOTE_CACHE); "
        "tiers the store local -> remote",
    )
    figure_cmd.add_argument(
        "--remote-compile",
        default=None,
        metavar="URL",
        help="compile cold misses on this cache server instead of locally "
        "(default: REPRO_REMOTE_COMPILE; pass '' to force local compiles)",
    )
    figure_cmd.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        help="LRU byte budget for the local store "
        "(default: REPRO_CACHE_MAX_BYTES or unbounded)",
    )
    add_admission_flag(figure_cmd)
    figure_cmd.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record spans across the sweep (all workers, merged into one "
        "timeline) and write a Chrome trace JSON here "
        "(default: REPRO_TRACE/REPRO_TRACE_DIR)",
    )

    cache_cmd = add_command("cache", "manage the compiled-program store")
    cache_sub = cache_cmd.add_subparsers(dest="cache_command", required=True)
    for sub_name, sub_help in (
        ("stats", "show entry count and footprint (one scan of the entry files)"),
        ("clear", "remove every stored program"),
        ("warm", "precompile the grid behind a figure sweep"),
        ("serve", "share this machine's store over HTTP with a worker fleet"),
        ("push", "upload local entries missing from a remote cache server"),
        ("pull", "download remote entries missing from the local store"),
        ("evict", "LRU-evict entries until the store fits a byte budget"),
    ):
        cache_sub_cmd = cache_sub.add_parser(
            sub_name,
            help=sub_help,
            epilog=format_epilog("cache"),
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        cache_sub_cmd.add_argument(
            "--cache-dir",
            default=None,
            help="cache root (default: REPRO_CACHE_DIR or XDG cache)",
        )
        if sub_name == "warm":
            cache_sub_cmd.add_argument("figure", choices=list(SWEEP_FIGURE_NAMES))
            cache_sub_cmd.add_argument("--benchmarks", nargs="*", default=None)
            cache_sub_cmd.add_argument("--seed", type=int, default=2020)
            cache_sub_cmd.add_argument(
                "--workers",
                type=int,
                default=None,
                help="processes for cold compilations (default: REPRO_SWEEP_WORKERS or serial)",
            )
            cache_sub_cmd.add_argument(
                "--remote-cache",
                default=None,
                metavar="URL",
                help="also publish warmed programs to this cache server",
            )
            cache_sub_cmd.add_argument(
                "--admission",
                default="structural",
                choices=list(ADMISSION_POLICIES),
                help="warm the grid compiled under this admission policy",
            )
        elif sub_name == "serve":
            from .service.backends import DEFAULT_MAX_PAYLOAD_BYTES, DEFAULT_MAX_PENDING

            cache_sub_cmd.add_argument("--host", default="127.0.0.1")
            cache_sub_cmd.add_argument("--port", type=int, default=8750)
            cache_sub_cmd.add_argument(
                "--max-bytes",
                type=int,
                default=None,
                help="LRU byte budget enforced after every upload",
            )
            cache_sub_cmd.add_argument(
                "--token",
                default=None,
                metavar="SECRET",
                help="require 'Authorization: Bearer SECRET' on mutating and "
                "compile routes (default: REPRO_CACHE_TOKEN; unset serves "
                "anonymously)",
            )
            cache_sub_cmd.add_argument(
                "--max-pending",
                type=int,
                default=None,
                help="compile-queue slots before the server answers "
                f"429 + Retry-After (default: {DEFAULT_MAX_PENDING})",
            )
            cache_sub_cmd.add_argument(
                "--max-payload-bytes",
                type=int,
                default=None,
                help="largest accepted request body; oversized uploads get "
                f"413 (default: {DEFAULT_MAX_PAYLOAD_BYTES})",
            )
        elif sub_name in ("push", "pull"):
            cache_sub_cmd.add_argument(
                "--remote-cache",
                default=None,
                metavar="URL",
                help="cache server URL (default: REPRO_REMOTE_CACHE)",
            )
        elif sub_name == "evict":
            cache_sub_cmd.add_argument(
                "--max-bytes",
                type=int,
                required=True,
                help="byte budget the store must fit after eviction",
            )
        elif sub_name == "stats":
            cache_sub_cmd.add_argument(
                "--remote-cache",
                default=None,
                metavar="URL",
                help="also report this cache server's footprint",
            )

    add_command("list", "list available strategies and benchmark families")

    lint_cmd = add_command(
        "lint",
        "run the project-specific AST invariant checker "
        "(see docs/static-analysis.md)",
    )
    from .devtools.options import add_arguments as add_lint_arguments

    add_lint_arguments(lint_cmd)
    return parser


#: Values of REPRO_TRACE that leave tracing off (same set as REPRO_CACHE).
_TRACE_FALSY = {"", "0", "false", "off", "no"}


def _trace_destination(args: argparse.Namespace, command: str) -> Optional[Path]:
    """Where to write the trace file, or ``None`` when tracing stays off.

    Precedence: an explicit ``--trace PATH`` always enables tracing and
    names the file; otherwise ``REPRO_TRACE`` enables it and the file goes
    to ``REPRO_TRACE_DIR`` (default: the current directory) under a
    deterministic, command-derived name.
    """
    explicit = getattr(args, "trace", None)
    if explicit:
        return Path(explicit)
    if (read_env("REPRO_TRACE", "") or "").strip().lower() in _TRACE_FALSY:
        return None
    trace_dir = (read_env("REPRO_TRACE_DIR", "") or "").strip()
    base = Path(trace_dir) if trace_dir else Path(".")
    return base / f"repro-trace-{command}.json"


def _finish_trace(trace_path: Optional[Path]) -> None:
    """Export and disable tracing after a traced CLI run."""
    if trace_path is None:
        return
    records = obs.merge_records(obs.get_tracer().drain())
    obs.set_enabled(False)
    obs.write_chrome_trace(trace_path, records)
    print(f"trace: {len(records)} span(s) -> {trace_path} (open in chrome://tracing)")
    print(obs.summary_tree(records))


def _run_compile(args: argparse.Namespace) -> int:
    from .analysis import build_device_for, compile_with, format_table

    trace_path = _trace_destination(args, "compile")
    if trace_path is not None:
        obs.set_enabled(True)
    device = build_device_for(args.benchmark, topology=args.topology, seed=args.seed)
    outcome = compile_with(
        args.strategy,
        args.benchmark,
        device=device,
        seed=args.seed,
        admission=args.admission,
    )
    rows = [
        ["strategy", outcome.strategy],
        ["benchmark", outcome.benchmark],
        ["depth", outcome.depth],
        ["duration (ns)", outcome.duration_ns],
        ["interaction colors", outcome.max_colors],
        ["compile time (s)", outcome.compile_time_s],
        ["crosstalk fidelity", outcome.crosstalk_fidelity],
        ["decoherence error", outcome.decoherence_error],
        ["worst-case success", outcome.success_rate],
    ]
    print(format_table(["metric", "value"], rows, title=f"{args.strategy} on {args.benchmark}"))
    _finish_trace(trace_path)
    return 0


def _run_compare(args: argparse.Namespace) -> int:
    from .analysis import build_device_for, compile_with, format_table

    device = build_device_for(args.benchmark, topology=args.topology, seed=args.seed)
    rows = []
    for strategy in STRATEGIES:
        outcome = compile_with(
            strategy,
            args.benchmark,
            device=device,
            seed=args.seed,
            admission=args.admission,
        )
        rows.append(
            [
                strategy,
                outcome.success_rate,
                outcome.depth,
                outcome.duration_ns,
                outcome.max_colors,
            ]
        )
    print(
        format_table(
            ["strategy", "success", "depth", "duration (ns)", "colors"],
            rows,
            float_format="{:.4g}",
            title=f"Strategy comparison on {args.benchmark} "
            f"({args.topology}, {args.admission} admission)",
        )
    )
    return 0


def _run_admission_report(args: argparse.Namespace) -> int:
    from .analysis import SweepRunner, admission_comparison
    from .analysis.report import admission_report_markdown

    runner = SweepRunner(max_workers=args.workers)
    comparison = admission_comparison(
        benchmarks=args.benchmarks or None, seed=args.seed, runner=runner
    )
    markdown = admission_report_markdown(comparison, seed=args.seed)
    if args.out == "-":
        print(markdown, end="")
    else:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(markdown)
        print(f"wrote {args.out}")
    return 0


def _run_figure(args: argparse.Namespace) -> int:
    from .analysis import SweepRunner

    trace_path = _trace_destination(args, f"figure-{args.name}")
    if trace_path is not None:
        obs.set_enabled(True)
    cache_dir = getattr(args, "cache_dir", None)
    remote_cache = getattr(args, "remote_cache", None)
    # Precedence: --no-cache beats everything; an explicit --cache-dir or
    # --remote-cache requests caching and therefore beats REPRO_CACHE=0;
    # otherwise the environment toggle decides.
    if getattr(args, "no_cache", False):
        use_cache: Optional[bool] = False
    elif cache_dir or remote_cache:
        use_cache = True
    else:
        use_cache = None
    settings = {
        "cache_dir": cache_dir,
        "enabled": use_cache,
        "remote_cache": remote_cache,
        "max_bytes": getattr(args, "max_bytes", None),
        "remote_compile": getattr(args, "remote_compile", None),
    }
    # Without a cache flag the current default service (the environment's,
    # or an enclosing service_override) runs the figure.
    if any(value is not None for value in settings.values()):
        scope = service_override(**settings)
    else:
        scope = contextlib.nullcontext()
    with scope:
        _print_figure(args, SweepRunner(max_workers=getattr(args, "workers", None)))
    _finish_trace(trace_path)
    return 0


def _print_figure(args: argparse.Namespace, runner: SweepRunner) -> None:
    from .analysis import (
        FIG10_STRATEGIES,
        fig02_interaction_strength,
        fig07_mesh_coloring,
        fig09_success_rates,
        fig10_depth_decoherence,
        fig11_color_sweep,
        fig12_residual_coupling,
        fig13_connectivity,
        fig14_example_frequencies,
        format_table,
        headline_improvement,
    )

    name = args.name
    benchmarks = args.benchmarks or None
    admission = getattr(args, "admission", "structural")
    if name == "fig02":
        data = fig02_interaction_strength()
        rows = list(zip(data["omega_a"][::10], data["strength"][::10]))
        print(format_table(["omega_A (GHz)", "g_eff (GHz)"], rows, title="Fig. 2"))
    elif name == "fig07":
        data = fig07_mesh_coloring()
        print(format_table(["key", "value"], sorted(data.items()), title="Fig. 7"))
    elif name == "fig09":
        results = fig09_success_rates(
            benchmarks=benchmarks, seed=args.seed, runner=runner, admission=admission
        )
        rows = [[b] + [r[s].success_rate for s in STRATEGIES] for b, r in results.items()]
        print(
            format_table(
                ["benchmark"] + list(STRATEGIES),
                rows,
                float_format="{:.3g}",
                title="Fig. 9",
            )
        )
        summary = headline_improvement(results)
        print(f"ColorDynamic vs Baseline U: {summary['arithmetic_mean']:.1f}x mean")
    elif name == "fig10":
        results = fig10_depth_decoherence(
            benchmarks=benchmarks, seed=args.seed, runner=runner, admission=admission
        )
        strategies = FIG10_STRATEGIES
        rows = [
            [b] + [r[s].depth for s in strategies] + [r[s].decoherence_error for s in strategies]
            for b, r in results.items()
        ]
        headers = (
            ["benchmark"]
            + [f"depth {s}" for s in strategies]
            + [f"deco {s}" for s in strategies]
        )
        print(format_table(headers, rows, float_format="{:.3g}", title="Fig. 10"))
    elif name == "fig11":
        results = fig11_color_sweep(
            benchmarks=benchmarks, seed=args.seed, runner=runner, admission=admission
        )
        budgets = sorted(next(iter(results.values())))
        rows = [[b] + [r[k].success_rate for k in budgets] for b, r in results.items()]
        print(
            format_table(
                ["benchmark"] + [f"{k} colors" for k in budgets],
                rows,
                float_format="{:.3g}",
                title="Fig. 11",
            )
        )
    elif name == "fig12":
        results = fig12_residual_coupling(
            benchmarks=benchmarks, seed=args.seed, runner=runner, admission=admission
        )
        factors = sorted(next(iter(results.values())))
        rows = [[b] + [r[f] for f in factors] for b, r in results.items()]
        print(
            format_table(
                ["benchmark"] + [f"r={f}" for f in factors],
                rows,
                float_format="{:.3g}",
                title="Fig. 12",
            )
        )
    elif name == "fig13":
        results = fig13_connectivity(
            benchmarks=benchmarks, seed=args.seed, runner=runner, admission=admission
        )
        for bench, per_topology in results.items():
            rows = [
                [
                    t,
                    r["ColorDynamic"].max_colors,
                    r["Baseline U"].success_rate,
                    r["ColorDynamic"].success_rate,
                ]
                for t, r in per_topology.items()
            ]
            print(
                format_table(
                    ["topology", "colors", "Baseline U", "ColorDynamic"],
                    rows,
                    float_format="{:.3g}",
                    title=f"Fig. 13 — {bench}",
                )
            )
    elif name == "fig14":
        data = fig14_example_frequencies(seed=args.seed, admission=admission)
        print("Idle frequencies (GHz):")
        for row in data["idle_frequencies"]:
            print("  " + "  ".join(f"{v:.3f}" for v in row))
        print("First interaction step:")
        for pair, freq in sorted(data["interaction_steps"][0].items()):
            print(f"  {pair}: {freq:.3f} GHz")


def _run_cache(args: argparse.Namespace) -> int:
    from .analysis import figure_compile_jobs, format_table

    if args.cache_command == "stats":
        store = ProgramStore(
            args.cache_dir, remote_url=getattr(args, "remote_cache", None) or None
        )
        rows = [[key, value] for key, value in store.stats().items()]
        print(format_table(["key", "value"], rows, title="Compiled-program store"))
        return 0
    if args.cache_command == "clear":
        store = ProgramStore(args.cache_dir)
        removed = store.clear()
        print(f"removed {removed} cached program(s) from {store.root}")
        return 0
    if args.cache_command == "warm":
        jobs = figure_compile_jobs(
            args.figure,
            benchmarks=args.benchmarks or None,
            seed=args.seed,
            admission=args.admission,
        )
        service = CompileService(
            cache_dir=args.cache_dir, enabled=True, remote_cache=args.remote_cache
        )
        workers = read_env_int("REPRO_SWEEP_WORKERS", 1) if args.workers is None else args.workers
        service.compile_batch(jobs, max_workers=max(1, workers))
        stats = service.stats
        print(
            f"{args.figure}: {len(jobs)} job(s) -> {stats.misses} compiled, "
            f"{stats.hits} already cached, {stats.deduplicated} duplicate(s); "
            f"compile time {stats.compile_time_s:.2f}s"
        )
        remote = service.store.remote
        remote_errors = remote.errors + remote.refused if remote is not None else 0
        if remote_errors:
            print(
                f"warning: {remote_errors} request(s) to the remote cache failed "
                "or were refused; the shared server may not have been warmed",
                file=sys.stderr,
            )
            return 1
        return 0
    if args.cache_command == "serve":
        from .service.backends import DEFAULT_MAX_PAYLOAD_BYTES, DEFAULT_MAX_PENDING
        from .service.server import CacheServer

        server = CacheServer(
            root=args.cache_dir,
            host=args.host,
            port=args.port,
            max_bytes=args.max_bytes,
            quiet=False,
            token=args.token,
            max_pending=(
                args.max_pending if args.max_pending is not None else DEFAULT_MAX_PENDING
            ),
            max_payload_bytes=(
                args.max_payload_bytes
                if args.max_payload_bytes is not None
                else DEFAULT_MAX_PAYLOAD_BYTES
            ),
        )
        print(f"serving compiled-program store {server.backend.root} at {server.url}")
        auth = "bearer-token" if server.token else "anonymous"
        print(
            f"compile queue: {server.max_pending} slot(s); "
            f"max payload: {server.max_payload_bytes} bytes; auth: {auth}"
        )
        print("press Ctrl-C to stop")
        try:
            with contextlib.suppress(KeyboardInterrupt):
                server.serve_forever()
        finally:
            server.close()
        return 0
    if args.cache_command in ("push", "pull"):
        url = args.remote_cache or remote_cache_default()
        if not url:
            print(
                "error: a cache server URL is required "
                "(--remote-cache or REPRO_REMOTE_CACHE)",
                file=sys.stderr,
            )
            return 2
        # The byte budget applies to the pull destination exactly as it does
        # to every other local write path (figure/warm puts evict per write).
        local = LocalFSBackend(args.cache_dir, max_bytes=cache_max_bytes_default())
        remote = HTTPBackend(url)
        pull = args.cache_command == "pull"
        source, destination = (remote, local) if pull else (local, remote)
        origin, target = (url, local.root) if pull else (local.root, url)
        try:
            copied, present = copy_missing(source, destination)
        except OSError as exc:
            # Only a local write raises (a full or read-only disk); remote
            # failures and refusals are counted below.
            print(f"error: could not write entries to {target}: {exc}", file=sys.stderr)
            return 1
        print(
            f"{origin} -> {target}: {copied} entr{'y' if copied == 1 else 'ies'} copied, "
            f"{present} already present"
        )
        if remote.errors or remote.refused:
            print(
                f"warning: {remote.errors + remote.refused} request(s) to {url} "
                "failed or were refused",
                file=sys.stderr,
            )
            return 1
        return 0
    if args.cache_command == "evict":
        store = ProgramStore(args.cache_dir)
        removed, freed = store.evict(args.max_bytes)
        stats = store.stats()
        print(
            f"evicted {removed} entr{'y' if removed == 1 else 'ies'} "
            f"({freed} bytes) from {store.root}; "
            f"{stats['entries']} remain ({stats['total_bytes']} bytes)"
        )
        return 0
    return 2


def _run_list() -> int:
    from .analysis import format_table
    from .workloads import fig09_benchmarks, table2_rows

    print(format_table(["strategy"], [[s] for s in STRATEGIES], title="Strategies (Table I)"))
    print(
        format_table(
            ["family", "description"],
            table2_rows(),
            title="Benchmark families (Table II)",
        )
    )
    print(
        format_table(
            ["Fig. 9 instance"],
            [[n] for n in fig09_benchmarks()],
            title="Fig. 9 benchmark instances",
        )
    )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``python -m repro``; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "compile":
        return _run_compile(args)
    if args.command == "compare":
        return _run_compare(args)
    if args.command == "admission-report":
        return _run_admission_report(args)
    if args.command == "figure":
        return _run_figure(args)
    if args.command == "cache":
        return _run_cache(args)
    if args.command == "list":
        return _run_list()
    if args.command == "lint":
        from .devtools import lint as lint_module

        return lint_module.run(args)
    return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
