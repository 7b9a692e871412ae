"""Benchmark-suite registry (Table II of the paper).

Benchmarks are addressed by the same textual names the paper's figures use
— ``"bv(16)"``, ``"qaoa(9)"``, ``"xeb(16,10)"`` — and grouped into the
per-figure suites used by :mod:`repro.analysis.experiments`.

Parsing a name and listing a suite import no generator: the generators
(:data:`BENCHMARK_FAMILIES`, in :mod:`repro.workloads.families`) load on
the first :func:`benchmark_circuit` call.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..lazy import Deferred

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..circuits import Circuit
    from .families import BENCHMARK_FAMILIES

__all__ = [
    "BenchmarkSpec",
    "BENCHMARK_FAMILIES",
    "benchmark_circuit",
    "parse_benchmark_name",
    "fig09_benchmarks",
    "fig10_benchmarks",
    "fig11_benchmarks",
    "fig12_benchmarks",
    "fig13_benchmarks",
    "table2_rows",
]


@dataclass(frozen=True)
class BenchmarkSpec:
    """A parsed benchmark name: family plus integer arguments."""

    family: str
    args: Tuple[int, ...]

    @property
    def num_qubits(self) -> int:
        return self.args[0]

    def __str__(self) -> str:
        return f"{self.family}({','.join(str(a) for a in self.args)})"


#: family name -> description used for Table II
FAMILY_DESCRIPTIONS: Dict[str, str] = {
    "bv": "Bernstein-Vazirani algorithm on n qubits",
    "qaoa": "QAOA for MAX-CUT on an Erdos-Renyi random graph with n vertices",
    "ising": "Linear Ising model simulation of a spin chain of length n",
    "qgan": "Quantum GAN generator with training data of dimension 2^n",
    "xeb": "Cross-entropy benchmarking circuit on n qubits with p cycles",
}

_GENERATORS = Deferred(globals(), {".families": ("BENCHMARK_FAMILIES",)})
__getattr__, __dir__ = _GENERATORS.getattr, _GENERATORS.dir

_NAME_RE = re.compile(r"^(?P<family>[a-z]+)\((?P<args>[0-9,\s]+)\)$")


def parse_benchmark_name(name: str) -> BenchmarkSpec:
    """Parse a figure-style benchmark name like ``"xeb(16,10)"``."""
    match = _NAME_RE.match(name.strip().lower())
    if not match:
        raise ValueError(f"cannot parse benchmark name {name!r}")
    family = match.group("family")
    if family not in FAMILY_DESCRIPTIONS:
        raise ValueError(
            f"unknown benchmark family {family!r}; known: {sorted(FAMILY_DESCRIPTIONS)}"
        )
    args = tuple(int(a) for a in match.group("args").split(","))
    return BenchmarkSpec(family=family, args=args)


def benchmark_circuit(name: str, seed: Optional[int] = None) -> Circuit:
    """Build the benchmark circuit referred to by a figure-style name."""
    spec = parse_benchmark_name(name)
    _GENERATORS.bind()
    constructor, _ = BENCHMARK_FAMILIES[spec.family]
    if spec.family == "xeb":
        if len(spec.args) != 2:
            raise ValueError("xeb benchmarks need two arguments: xeb(n,p)")
        return constructor(spec.args[0], spec.args[1], seed=seed)
    if len(spec.args) != 1:
        raise ValueError(f"{spec.family} benchmarks take a single argument")
    return constructor(spec.args[0], seed=seed)


def fig09_benchmarks() -> List[str]:
    """The benchmark list along the x-axis of Fig. 9."""
    names = [
        "bv(4)", "bv(9)", "bv(16)",
        "qaoa(4)", "qaoa(9)",
        "ising(4)",
        "qgan(4)", "qgan(9)", "qgan(16)", "qgan(25)",
    ]
    for cycles in (5, 10, 15):
        for n in (4, 9, 16, 25):
            names.append(f"xeb({n},{cycles})")
    return names


def fig10_benchmarks() -> List[str]:
    """The XEB sweep used for the depth/decoherence comparison of Fig. 10."""
    return [f"xeb({n},{p})" for p in (5, 10, 15) for n in (4, 9, 16, 25)]


def fig11_benchmarks() -> List[str]:
    """Benchmarks of the tunability (max-colors) sweep of Fig. 11."""
    return [
        "bv(16)", "qaoa(4)", "ising(4)", "qgan(4)", "qgan(16)",
        "xeb(16,5)", "xeb(16,10)", "xeb(16,15)",
    ]


def fig12_benchmarks() -> List[str]:
    """Benchmarks of the residual-coupling sweep of Fig. 12."""
    return ["xeb(9,10)", "xeb(16,10)", "xeb(9,15)", "xeb(16,15)"]


def fig13_benchmarks() -> List[str]:
    """Benchmarks of the general-connectivity study of Fig. 13."""
    return ["bv(9)", "qaoa(4)", "ising(4)", "qgan(16)", "xeb(16,1)"]


def table2_rows() -> List[Tuple[str, str]]:
    """(name, description) rows reproducing Table II."""
    return [
        ("BV(n)", FAMILY_DESCRIPTIONS["bv"]),
        ("QAOA(n)", FAMILY_DESCRIPTIONS["qaoa"]),
        ("ISING(n)", FAMILY_DESCRIPTIONS["ising"]),
        ("QGAN(n)", FAMILY_DESCRIPTIONS["qgan"]),
        ("XEB(n, p)", FAMILY_DESCRIPTIONS["xeb"]),
    ]
