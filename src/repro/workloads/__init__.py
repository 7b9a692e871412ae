"""NISQ benchmark circuit generators (Table II of the paper).

The benchmark names and suites (:mod:`~repro.workloads.suite`) load with
the package; the generators, which build circuits and load numpy, load on
first access (see :mod:`repro.lazy`).
"""

import sys
import types

from ..lazy import Deferred
from .suite import (
    BenchmarkSpec,
    benchmark_circuit,
    parse_benchmark_name,
    fig09_benchmarks,
    fig10_benchmarks,
    fig11_benchmarks,
    fig12_benchmarks,
    fig13_benchmarks,
    table2_rows,
)

_DEFERRED = Deferred(
    globals(),
    {
        ".bv": ("bernstein_vazirani", "bv"),
        ".qaoa": ("qaoa_maxcut", "qaoa", "random_maxcut_graph"),
        ".ising": ("ising_chain", "ising"),
        ".qgan": ("qgan_generator", "qgan"),
        ".xeb": ("xeb_circuit", "xeb", "xeb_patterns"),
        ".families": ("BENCHMARK_FAMILIES",),
    },
)
__getattr__, __dir__ = _DEFERRED.getattr, _DEFERRED.dir


_SHADOWED_BY_FUNCTIONS = frozenset({"bv", "qaoa", "ising", "qgan", "xeb"})


class _Package(types.ModuleType):
    """Keeps the generator functions bound over their modules' names.

    Importing ``repro.workloads.bv`` binds that module on the package as
    ``bv``, the name of the generator function the package exports; the
    function wins, as it did when the package imported every generator up
    front.
    """

    def __setattr__(self, name: str, value: object) -> None:
        if isinstance(value, types.ModuleType) and name in _SHADOWED_BY_FUNCTIONS:
            value = getattr(value, name)
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package

__all__ = [
    "bernstein_vazirani",
    "bv",
    "qaoa_maxcut",
    "qaoa",
    "random_maxcut_graph",
    "ising_chain",
    "ising",
    "qgan_generator",
    "qgan",
    "xeb_circuit",
    "xeb",
    "xeb_patterns",
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
