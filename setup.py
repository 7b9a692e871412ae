"""Setuptools metadata for the reproduction toolchain.

There is deliberately no pyproject.toml: the package predates one, and the
CI matrix (.github/workflows/ci.yml) validates exactly what is declared
here — ``python_requires`` bounds the interpreter matrix,
``install_requires`` pins the minimum runtime stack an editable install
pulls in, and the ``test`` extra adds what the test suites need (networkx
is only a test dependency: the differential oracles compare the in-tree
graph code against it).
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
VERSION = re.search(r'__version__ = "([^"]+)"', _INIT.read_text()).group(1)

setup(
    name="repro-crosstalk-compiler",
    version=VERSION,
    description=(
        "Reproduction of Ding et al., 'Systematic Crosstalk Mitigation for "
        "Superconducting Qubits via Frequency-Aware Compilation' (MICRO 2020)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=[
        "numpy>=1.24",
    ],
    extras_require={
        "test": ["networkx>=2.8", "pytest", "pytest-benchmark", "hypothesis"],
    },
    entry_points={
        "console_scripts": ["repro = repro.cli:main"],
    },
)
