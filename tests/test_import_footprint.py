"""What a CLI run imports: no networkx, and no network or executor modules.

Each check runs in a fresh interpreter, since this test session has long
since imported everything.  networkx is a test-only dependency: blocking
it (``sys.modules["networkx"] = None`` makes any import of it raise) must
not stop a figure sweep, cold or warm.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


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
