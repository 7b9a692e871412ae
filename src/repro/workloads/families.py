"""The benchmark generators by family name (Table II of the paper).

Importing this module imports every generator, and through them the
circuit IR and numpy; :mod:`repro.workloads.suite` defers it to the first
circuit it builds.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from ..circuits import Circuit
from .bv import bv
from .ising import ising
from .qaoa import qaoa
from .qgan import qgan
from .xeb import xeb
from .suite import FAMILY_DESCRIPTIONS

__all__ = ["BENCHMARK_FAMILIES"]

#: family name -> (constructor, description used for Table II)
BENCHMARK_FAMILIES: Dict[str, Tuple[Callable[..., Circuit], str]] = {
    "bv": (bv, FAMILY_DESCRIPTIONS["bv"]),
    "qaoa": (qaoa, FAMILY_DESCRIPTIONS["qaoa"]),
    "ising": (ising, FAMILY_DESCRIPTIONS["ising"]),
    "qgan": (qgan, FAMILY_DESCRIPTIONS["qgan"]),
    "xeb": (xeb, FAMILY_DESCRIPTIONS["xeb"]),
}
