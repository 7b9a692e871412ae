"""What a CLI run imports: no networkx, and no network or executor modules.

Each check runs in a fresh interpreter, since this test session has long
since imported everything.  networkx is a test-only dependency: blocking
it (``sys.modules["networkx"] = None`` makes any import of it raise) must
not stop a figure sweep, cold or warm.  numpy and repro's compute modules
load on the first compile, decode or estimate: importing the CLI, opening
a store, starting a cache server and a figure served from stored reports
load none of them.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules that load only with the first compile, decode or estimate.
COMPUTE_MODULES = [
    "numpy",
    "repro.core",
    "repro.circuits",
    "repro.devices",
    "repro.noise.metrics",
    "repro.program",
    "repro.baselines",
    "repro.workloads.families",
]

FIG09 = ["figure", "fig09", "--benchmarks", "bv(4)", "xeb(4,2)"]


def _run_python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_importing_the_cli_skips_networkx_network_and_executor_modules():
    result = _run_python(
        """
        import sys
        import repro.cli
        heavy = ["networkx", "urllib.request", "http.client", "concurrent.futures"]
        print([name for name in heavy if name in sys.modules])
        """
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_figure_sweeps_run_with_networkx_blocked(tmp_path):
    result = _run_python(
        f"""
        import contextlib, io, sys
        sys.modules["networkx"] = None
        from repro.cli import main

        def run(*argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(list(argv)) == 0, argv
            return out.getvalue()

        fig09 = ["figure", "fig09", "--benchmarks", "bv(4)", "xeb(4,2)"]
        store = ["--cache-dir", {str(tmp_path)!r}]
        cold = run(*fig09, "--no-cache")
        run(*fig09, *store)
        warm = run(*fig09, *store)
        assert warm == cold, (cold, warm)
        run("figure", "fig13", "--benchmarks", "bv(4)", "--no-cache")
        print("ok", "concurrent.futures" in sys.modules)
        """
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok False"


def _fill_and_warm(argv):
    """Run a figure twice, each in a fresh interpreter: the first run fills
    the store with programs, the second stores the reports."""
    for _ in range(2):
        filled = _run_python(
            f"""
            import contextlib, io
            from repro.cli import main

            with contextlib.redirect_stdout(io.StringIO()):
                assert main({argv!r}) == 0
            """
        )
        assert filled.returncode == 0, filled.stderr


def test_cli_and_an_open_store_load_no_compute_modules(tmp_path):
    result = _run_python(
        f"""
        import sys
        import repro.cli
        from repro.service import CompileService

        service = CompileService(cache_dir={str(tmp_path)!r}, enabled=True, remote_cache="")
        service.store.stats()
        print([name for name in {COMPUTE_MODULES!r} if name in sys.modules])
        """
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "figure", [FIG09, ["figure", "fig13", "--benchmarks", "bv(4)"]], ids=["fig09", "fig13"]
)
def test_report_warm_figure_runs_with_numpy_blocked(tmp_path, figure):
    """A figure served from stored reports prints the ``--no-cache`` table
    in an interpreter where any import of numpy raises."""
    argv = figure + ["--cache-dir", str(tmp_path)]
    _fill_and_warm(argv)
    cold = _run_python(
        f"""
        from repro.cli import main

        assert main({figure + ["--no-cache"]!r}) == 0
        """
    )
    assert cold.returncode == 0, cold.stderr
    blocked = _run_python(
        f"""
        import sys
        sys.modules["numpy"] = None
        from repro.cli import main

        assert main({argv!r}) == 0
        """
    )
    assert blocked.returncode == 0, blocked.stderr
    assert blocked.stdout == cold.stdout


def test_cache_server_answers_stats_without_the_compile_stack(tmp_path):
    result = _run_python(
        f"""
        import json, sys, urllib.request
        from repro.service.server import CacheServer

        server = CacheServer(root={str(tmp_path)!r}, port=0).start()
        try:
            with urllib.request.urlopen(server.url + "/stats") as response:
                stats = json.loads(response.read())
        finally:
            server.stop()
        print(stats["entries"], [name for name in {COMPUTE_MODULES!r} if name in sys.modules])
        """
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "0 []"


def test_report_warm_figure_loads_no_server_or_linter(tmp_path):
    """A figure served from stored reports builds its parser and answers
    every job without loading numpy, the HTTP stack, the cache server or
    the linter."""
    fig09 = FIG09 + ["--cache-dir", str(tmp_path)]
    _fill_and_warm(fig09)
    result = _run_python(
        f"""
        import contextlib, io, sys
        from repro.cli import main
        from repro.obs import get_metrics

        with contextlib.redirect_stdout(io.StringIO()):
            assert main({fig09!r}) == 0
        reports = get_metrics().counter("repro_sweep_reports_total", "", ("outcome",))
        absent = ["numpy", "http.server", "http.client", "socketserver",
                  "repro.service.server", "repro.devtools.lint"]
        print(reports.value(outcome="hit"), [name for name in absent if name in sys.modules])
        """
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "10.0 []"
