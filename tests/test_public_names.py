"""Every public name stays importable from where it always was.

The package namespaces resolve most names on first access (PEP 562), so
each check runs in a fresh interpreter that first imports a generator
module directly: that binds the module on ``repro.workloads`` under the
name of the generator function the package exports.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.analysis import SweepJob
from repro.noise import NoiseModel
from repro.service import CompileJob

SRC = Path(__file__).resolve().parents[1] / "src"

PACKAGES = [
    "repro",
    "repro.service",
    "repro.noise",
    "repro.core",
    "repro.workloads",
    "repro.analysis",
]

#: Public names that are neither classes nor functions -> defining module.
CONSTANTS = {
    "ADMISSION_POLICIES": "repro.constants",
    "STRATEGY_REGISTRY": "repro.baselines",
    "DEFAULT_FLUX_NOISE_AMPLITUDE": "repro.noise.model",
    "BENCHMARK_FAMILIES": "repro.workloads.families",
    "STRATEGIES": "repro.analysis.experiments",
    "FIG10_STRATEGIES": "repro.analysis.experiments",
    "FIG11_COLOR_BUDGETS": "repro.analysis.experiments",
    "FIG12_FACTORS": "repro.analysis.experiments",
    "FIG13_STRATEGIES": "repro.analysis.experiments",
}


def test_public_names_resolve_to_their_defining_objects():
    script = f"""
        import importlib
        from repro.workloads.qaoa import qaoa_maxcut  # binds the module first

        star = {{}}
        exec("from repro import *", star)
        problems = []
        for package_name in {PACKAGES!r}:
            package = importlib.import_module(package_name)
            listed = dir(package)
            for name in package.__all__:
                value = getattr(package, name)
                if name not in listed:
                    problems.append(f"{{package_name}}.{{name}}: missing from dir()")
                if name == "__version__":
                    continue
                if hasattr(value, "__qualname__"):
                    home, attribute = value.__module__, value.__qualname__
                else:
                    home, attribute = {CONSTANTS!r}.get(name), name
                if home is None:
                    problems.append(f"{{package_name}}.{{name}}: no defining module listed")
                elif getattr(importlib.import_module(home), attribute) is not value:
                    problems.append(f"{{package_name}}.{{name}}: not {{home}}.{{attribute}}")
                if package_name == "repro" and star.get(name) is not value:
                    problems.append(f"repro.{{name}}: lost by 'from repro import *'")
        print(problems)
        """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_generator_functions_keep_their_names_on_the_workloads_package():
    import repro.workloads as workloads
    from repro.workloads import bv, qaoa, xeb

    assert callable(bv) and callable(qaoa) and callable(xeb)
    assert workloads.BENCHMARK_FAMILIES["qaoa"][0] is qaoa


def test_jobs_and_noise_models_survive_pickling():
    """Batch workers receive these by pickle."""
    model = NoiseModel().with_residual_coupling(0.4)
    for value in (
        CompileJob(benchmark="xeb(4,2)", strategy="Baseline G", max_colors=2),
        SweepJob(benchmark="bv(4)", strategy="ColorDynamic", noise_model=model, key=0.4),
        model,
    ):
        assert pickle.loads(pickle.dumps(value)) == value
