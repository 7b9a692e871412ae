"""Frequency-assignment solver (the paper's ``smt_find``, Section V-B3).

Given ``k`` colors, the solver finds ``k`` frequency values inside a band
``[omega_lo, omega_hi]`` satisfying the crosstalk constraints of Section
IV-A / V-B3::

    (1)  omega_lo <= x_c <= omega_hi                for every color c
    (2)  |x_ci - x_cj|        >= delta              for every pair ci != cj
    (3)  |x_ci + alpha - x_cj| >= delta             for every pair ci != cj

where ``alpha`` is the (negative) anharmonicity, so that no 0-1 transition
collides with another color's 0-1 *or* 1-2 transition.  Like the paper's
``smt_find`` we binary-search the largest separation threshold ``delta`` for
which a feasible assignment exists and return that assignment.

The paper delegates the feasibility check to the Z3 SMT solver; the instance
is a one-dimensional interval-exclusion problem, so this module implements a
dedicated leftmost-greedy feasibility routine instead (see DESIGN.md for the
substitution rationale).  The greedy scan places values bottom-up, skipping
the exclusion zones induced by already-placed values; for this family of
constraints the leftmost placement is feasible whenever any placement is.

A second responsibility of the solver is the **usage-ordering rule**: colors
that appear more often are mapped to *higher* frequencies, because higher
interaction frequencies give faster gates (``t_gate ~ 1/omega``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Hashable, List, Mapping, Optional, Tuple

import numpy as np

__all__ = [
    "FrequencySolution",
    "solve_max_separation",
    "solve_max_separation_cached",
    "assign_color_frequencies",
]


@dataclass(frozen=True)
class FrequencySolution:
    """Result of the max-separation frequency search.

    Attributes
    ----------
    frequencies:
        The ``k`` frequency values, sorted ascending (GHz).
    separation:
        The separation threshold ``delta`` achieved (GHz).
    feasible:
        ``False`` when not even an infinitesimal separation admits ``k``
        values in the band (can only happen for ``k`` larger than the band
        can hold given the anharmonicity constraint).
    """

    frequencies: Tuple[float, ...]
    separation: float
    feasible: bool


def _greedy_place(
    count: int,
    low: float,
    high: float,
    delta: float,
    alpha: float,
) -> Optional[List[float]]:
    """Place ``count`` values bottom-up honouring constraints (1)-(3).

    Returns the placements or ``None`` when they do not fit below ``high``.
    Each new value starts at the last one and is pushed up until it stays
    at least ``delta`` above every placed value (constraint (2)) and outside
    the windows around ``p + |alpha|`` and ``p + 2|alpha|`` (constraint
    (3)): the first keeps its 0-1 transition away from ``p``'s 1-2
    transition, the second keeps a CZ partner (parked ``|alpha|`` above its
    color) away from the other color's 1-2 transition.  The constraint
    grids are evaluated as NumPy arrays over all placed values at once.

    Every push lands on the least value satisfying the violated constraint,
    so the scan converges to the unique least fixed point whatever order it
    checks constraints in; the scalar value-by-value scan in
    ``tests/differential/oracles.py`` is pinned placement for placement.
    """
    placements: List[float] = []
    candidate = low
    alpha_mag = abs(alpha)
    for n in range(count):
        if n:
            placed = np.asarray(placements)
            lower_bounds = placed + delta
            uppers_1 = placed + alpha_mag + delta
            lowers_1 = placed + alpha_mag - delta
            uppers_2 = placed + 2 * alpha_mag + delta
            lowers_2 = placed + 2 * alpha_mag - delta
            while True:
                floor = float(lower_bounds.max())
                if candidate < floor - 1e-12:
                    candidate = floor
                    continue
                in_1 = (lowers_1 - 1e-12 < candidate) & (candidate < uppers_1 - 1e-12)
                in_2 = (lowers_2 - 1e-12 < candidate) & (candidate < uppers_2 - 1e-12)
                if in_1.any() or in_2.any():
                    bump = -math.inf
                    if in_1.any():
                        bump = float(uppers_1[in_1].max())
                    if in_2.any():
                        bump = max(bump, float(uppers_2[in_2].max()))
                    candidate = bump
                    continue
                break
        if candidate > high + 1e-9:
            return None
        placements.append(candidate)
    return placements


def solve_max_separation(
    count: int,
    low: float,
    high: float,
    anharmonicity: float = -0.2,
    min_separation: float = 1e-4,
    tolerance: float = 1e-5,
    center: bool = True,
) -> FrequencySolution:
    """Find ``count`` frequencies in ``[low, high]`` with maximal separation.

    Parameters
    ----------
    count:
        Number of distinct frequencies (colors) to place.
    low, high:
        The frequency band in GHz (e.g. the interaction region of the
        partition).
    anharmonicity:
        The transmon anharmonicity ``alpha`` (GHz, negative).
    min_separation:
        Smallest separation considered "feasible"; below this the solution is
        reported infeasible.
    tolerance:
        Binary-search convergence tolerance on ``delta`` (GHz).
    center:
        When ``True`` the returned values are shifted so the unused headroom
        of the band is split evenly above and below the assignment.

    Returns
    -------
    FrequencySolution
    """
    if count <= 0:
        return FrequencySolution(frequencies=(), separation=float("inf"), feasible=True)
    if high < low:
        raise ValueError("frequency band is empty (high < low)")
    if count == 1:
        midpoint = (low + high) / 2.0
        return FrequencySolution((midpoint,), separation=high - low, feasible=True)

    lo_delta, hi_delta = 0.0, (high - low)
    best: Optional[List[float]] = _greedy_place(count, low, high, min_separation, anharmonicity)
    if best is None:
        # Not even the minimum separation fits; fall back to an unconstrained
        # uniform spread so the caller still gets *some* assignment, flagged
        # infeasible so it can choose to serialize instead.
        spread = [low + (high - low) * i / (count - 1) for i in range(count)]
        return FrequencySolution(tuple(spread), separation=0.0, feasible=False)

    best_delta = min_separation
    lo_delta = min_separation
    while hi_delta - lo_delta > tolerance:
        mid = (lo_delta + hi_delta) / 2.0
        attempt = _greedy_place(count, low, high, mid, anharmonicity)
        if attempt is not None:
            best, best_delta, lo_delta = attempt, mid, mid
        else:
            hi_delta = mid
    assert best is not None

    if center:
        headroom = high - best[-1]
        shift = headroom / 2.0
        best = [value + shift for value in best]

    return FrequencySolution(tuple(best), separation=best_delta, feasible=True)


@lru_cache(maxsize=4096)
def solve_max_separation_cached(
    count: int,
    low: float,
    high: float,
    anharmonicity: float = -0.2,
    min_separation: float = 1e-4,
    tolerance: float = 1e-5,
    center: bool = True,
) -> FrequencySolution:
    """Memoized :func:`solve_max_separation`.

    The solver is a pure function of its scalar arguments, and compilation
    asks for the same handful of instances over and over — every step with
    ``k`` colors on the same partition shares one solution — so compiles
    memoize the (immutable) :class:`FrequencySolution` by value.  Callers
    must not mutate the shared result (they cannot: it is a frozen
    dataclass holding a tuple).
    """
    return solve_max_separation(
        count,
        low,
        high,
        anharmonicity=anharmonicity,
        min_separation=min_separation,
        tolerance=tolerance,
        center=center,
    )


def assign_color_frequencies(
    coloring: Mapping[Hashable, int],
    low: float,
    high: float,
    anharmonicity: float = -0.2,
    usage: Optional[Mapping[int, int]] = None,
) -> Tuple[Dict[int, float], FrequencySolution]:
    """Map each color of *coloring* to a frequency in ``[low, high]``.

    Implements the full ``smt_find`` step of Algorithm 1: solve for the
    maximally separated frequency values, then apply the usage-ordering rule
    (colors used by more couplings get the higher frequencies, because
    ``t_gate ~ 1/omega`` makes them cheaper).

    Parameters
    ----------
    coloring:
        Vertex → color mapping (vertices are typically couplings).
    low, high:
        Frequency band (GHz).
    anharmonicity:
        Transmon anharmonicity (GHz, negative).
    usage:
        Optional explicit color → multiplicity mapping; derived from
        *coloring* when omitted.

    Returns
    -------
    (frequency_by_color, solution)
    """
    colors = sorted(set(coloring.values()))
    if not colors:
        return {}, FrequencySolution((), float("inf"), True)

    if usage is None:
        usage_counts: Dict[int, int] = {c: 0 for c in colors}
        for color in coloring.values():
            usage_counts[color] += 1
    else:
        usage_counts = {c: int(usage.get(c, 0)) for c in colors}

    solution = solve_max_separation_cached(len(colors), low, high, anharmonicity)
    # Highest frequency -> most used color.
    ordered_colors = sorted(colors, key=lambda c: (-usage_counts[c], c))
    ordered_freqs = sorted(solution.frequencies, reverse=True)
    frequency_by_color = {
        color: freq for color, freq in zip(ordered_colors, ordered_freqs)
    }
    return frequency_by_color, solution
