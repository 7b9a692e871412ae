"""Constants the light layers share with the compute modules.

The CLI parser, the program store and the cache keys need these values
before anything is compiled; defining them here, in a module that imports
nothing, keeps numpy, the compile stack and the sweep runner out of a
process until they are used.  :mod:`repro.program`, :mod:`repro.core.admission`,
:mod:`repro.devices.topologies` and :mod:`repro.analysis.experiments` re-export them.
"""

from __future__ import annotations

from typing import Tuple

__all__ = [
    "ADMISSION_POLICIES",
    "FIG13_TOPOLOGY_NAMES",
    "FIGURE_NAMES",
    "PROGRAM_CODEC_VERSION",
    "STRATEGIES",
    "SWEEP_FIGURE_NAMES",
]

#: Version of the CompiledProgram dict codec.  Bump whenever the serialized
#: shape changes (or whenever compilation semantics change in a way that
#: makes previously stored programs stale); the on-disk program store
#: namespaces its entries by this version, so a bump silently invalidates
#: every cached program.  Version 2 stored the schedule as the columnar
#: block of :class:`~repro.program.ProgramColumns`; version 3 stores each
#: distinct per-step frequency row once, plus every step's row index.
PROGRAM_CODEC_VERSION: int = 3

#: The admission policies the compilers accept by name.
ADMISSION_POLICIES: Tuple[str, ...] = ("structural", "success")

#: Strategy display order used throughout the figures.
STRATEGIES: Tuple[str, ...] = (
    "Baseline N",
    "Baseline G",
    "Baseline U",
    "Baseline S",
    "ColorDynamic",
)

#: The figure sweeps (Figs. 9-13): each has one job grid, which ``repro
#: figure`` runs and ``repro cache warm`` precompiles.
SWEEP_FIGURE_NAMES: Tuple[str, ...] = ("fig09", "fig10", "fig11", "fig12", "fig13")

#: The figures ``repro figure`` regenerates.
FIGURE_NAMES: Tuple[str, ...] = ("fig02", "fig07", *SWEEP_FIGURE_NAMES, "fig14")

#: The device topologies of Fig. 13, in the figure's order (see
#: :func:`repro.devices.topology_by_name`).
FIG13_TOPOLOGY_NAMES: Tuple[str, ...] = (
    "linear",
    "1EX-5",
    "1EX-4",
    "1EX-3",
    "1EX-2",
    "grid",
    "2EX-5",
    "2EX-4",
    "2EX-3",
    "2EX-2",
)
