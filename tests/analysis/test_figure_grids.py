"""Each figure sweep's grid is declared once, for the sweep and for `cache warm`.

``figure_compile_jobs`` (what ``repro cache warm`` compiles) must be exactly
the distinct compile specs the figure function hands to its runner, in job
order, so a warmed store serves the figure without a compile.
"""

from __future__ import annotations

import pytest

from repro.analysis import (
    StrategyOutcome,
    fig09_success_rates,
    fig10_depth_decoherence,
    fig11_color_sweep,
    fig12_residual_coupling,
    fig13_connectivity,
    figure_compile_jobs,
)
from repro.analysis.experiments import _SWEEP_GRIDS
from repro.cli import build_parser
from repro.constants import ADMISSION_POLICIES, FIGURE_NAMES, SWEEP_FIGURE_NAMES
from repro.service import CompileJob

FIGURES = {
    "fig09": fig09_success_rates,
    "fig10": fig10_depth_decoherence,
    "fig11": fig11_color_sweep,
    "fig12": fig12_residual_coupling,
    "fig13": fig13_connectivity,
}

#: Distinct compilations of each default grid.
DEFAULT_GRID_SIZES = {"fig09": 110, "fig10": 36, "fig11": 32, "fig12": 4, "fig13": 100}


class RecordingRunner:
    """A runner that records the jobs it is handed and scores nothing."""

    def __init__(self):
        self.jobs = []

    def run(self, jobs):
        jobs = list(jobs)
        self.jobs.extend(jobs)
        return [
            StrategyOutcome(j.benchmark, j.strategy, 0.5, 1, 1.0, 0.0, 1.0, 0.0, 1) for j in jobs
        ]


def _distinct_specs(jobs):
    specs = [
        CompileJob(
            benchmark=job.benchmark,
            strategy=job.strategy,
            topology=job.topology,
            seed=job.seed,
            max_colors=job.max_colors,
            admission=job.admission,
        )
        for job in jobs
    ]
    return list(dict.fromkeys(specs))


@pytest.mark.parametrize("admission", ADMISSION_POLICIES)
@pytest.mark.parametrize("benchmarks", [None, ["bv(4)", "xeb(4,2)"]])
@pytest.mark.parametrize("name", sorted(FIGURES))
def test_warm_jobs_are_the_figure_compile_specs(name, benchmarks, admission):
    runner = RecordingRunner()
    FIGURES[name](benchmarks=benchmarks, seed=7, runner=runner, admission=admission)
    warm = figure_compile_jobs(name, benchmarks, seed=7, admission=admission)
    assert warm == _distinct_specs(runner.jobs)
    if benchmarks is None:
        assert len(warm) == DEFAULT_GRID_SIZES[name]


def test_every_sweep_figure_has_one_grid_and_a_warm_command():
    assert tuple(_SWEEP_GRIDS) == SWEEP_FIGURE_NAMES
    assert set(SWEEP_FIGURE_NAMES) <= set(FIGURE_NAMES)
    for name in SWEEP_FIGURE_NAMES:
        assert build_parser().parse_args(["cache", "warm", name]).figure == name
    for name in set(FIGURE_NAMES) - set(SWEEP_FIGURE_NAMES):
        with pytest.raises(ValueError, match="no compile grid to warm"):
            figure_compile_jobs(name)


def test_an_empty_axis_keeps_one_row_per_benchmark():
    runner = RecordingRunner()
    bench = ["bv(4)"]
    assert fig09_success_rates(bench, strategies=(), runner=runner) == {"bv(4)": {}}
    assert fig11_color_sweep(bench, max_colors_values=(), runner=runner) == {"bv(4)": {}}
    assert fig12_residual_coupling(bench, factors=(), runner=runner) == {"bv(4)": {}}
    grid = fig13_connectivity(bench, topologies=["grid"], strategies=(), runner=runner)
    assert grid == {"bv(4)": {"grid": {}}}
    assert runner.jobs == []
