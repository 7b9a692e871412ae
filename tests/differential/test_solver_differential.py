"""Differential: the NumPy max-separation solver vs the scalar oracle.

Placements must be bit-identical (tuple equality of raw floats), not merely
close: the solver's output feeds directly into compiled-program frequencies,
and the program store asserts bit-exact round trips.
"""

from __future__ import annotations

import random

import pytest

import oracles
from repro.core.solver import (
    _greedy_place,
    assign_color_frequencies,
    solve_max_separation,
    solve_max_separation_cached,
)

SEEDS = range(120)


def _random_instance(seed: int):
    rng = random.Random(seed)
    count = rng.randint(1, 10)
    low = rng.uniform(3.5, 6.5)
    high = low + rng.uniform(0.005, 2.5)
    alpha = -rng.uniform(0.02, 0.45)
    return rng, count, low, high, alpha


@pytest.mark.differential
@pytest.mark.parametrize("seed", SEEDS)
def test_greedy_place_vectorized_is_bit_identical(seed):
    rng, count, low, high, alpha = _random_instance(seed)
    for _ in range(5):
        delta = rng.uniform(1e-6, (high - low) * 0.8)
        reference = oracles.greedy_place(count, low, high, delta, alpha)
        fast = _greedy_place(count, low, high, delta, alpha)
        if reference is None:
            assert fast is None
        else:
            assert fast == reference  # exact float equality, placement by placement


@pytest.mark.differential
@pytest.mark.parametrize("seed", SEEDS)
def test_solve_max_separation_engines_agree(seed):
    _, count, low, high, alpha = _random_instance(seed)
    reference = oracles.solve_max_separation(count, low, high, alpha)
    fast = solve_max_separation(count, low, high, alpha)
    assert fast == reference  # frozen dataclass: frequencies, separation, feasible
    cached = solve_max_separation_cached(count, low, high, alpha)
    assert cached == reference


@pytest.mark.differential
@pytest.mark.parametrize("seed", range(30))
def test_assign_color_frequencies_engines_agree(seed):
    rng = random.Random(seed)
    coloring = {
        (i, i + 1): rng.randrange(rng.randint(1, 5))
        for i in range(rng.randint(1, 12))
    }
    low, high = 6.6, 6.8
    fast_map, fast_solution = assign_color_frequencies(
        coloring, low, high, anharmonicity=-0.2
    )
    ref_map, ref_solution = oracles.assign_color_frequencies(
        coloring, low, high, anharmonicity=-0.2
    )
    assert fast_map == ref_map
    assert fast_solution == ref_solution


@pytest.mark.differential
def test_infeasible_instances_agree():
    # Band far too small for the requested count: both engines must flag
    # infeasibility and fall back to the same uniform spread.
    reference = oracles.solve_max_separation(8, 5.0, 5.0005, -0.2)
    fast = solve_max_separation(8, 5.0, 5.0005, -0.2)
    assert not reference.feasible
    assert fast == reference
