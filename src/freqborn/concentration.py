"""Concentration diagnostics: window masses, variance tail bounds, localization.

The weight of a two-level decomposition concentrates at the level probability
as N grows; these helpers measure how much mass escapes an epsilon-window and
compare it with the variance/eps^2 tail bound, which is the finite-N evidence
for that limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .decomposition import FrequencyDecomposition, SingleCopyState, two_level_band
from .errors import check_a_sq, check_copies, check_eps, check_whole, exact_sum, unit_mass

LOCALIZATION_INPUT_TOLERANCE = 1e-6
_LARGEST_DOUBLE = Fraction(np.finfo(np.float64).max)


@dataclass(frozen=True)
class WindowMass:
    """Mass split at the window [r0 - eps, r0 + eps].

    The edges are exact decimals: ``r0`` and ``eps`` are read as the decimal
    their shortest ``repr`` prints (the value a user typed), and a count n of
    N is inside iff r0 - eps <= n/N <= r0 + eps in exact arithmetic.  So a
    frequency on an edge counts as inside: at r0 = 0.7, eps = 0.1, N = 10 the
    count 8 (r = 0.8) is inside, although 0.7 + 0.1 is 0.7999999999999999 in
    floats.  ``mass_below``/``mass_above`` hold the counts strictly outside.
    """

    r0: float
    eps: float
    mass_below: float
    mass_inside: float
    mass_above: float
    chebyshev_bound: float

    @property
    def mass_outside(self) -> float:
        return self.mass_below + self.mass_above


@dataclass(frozen=True)
class LocalizationVerdict:
    localized: bool
    q0_estimate: float
    residual_outside: float


def chebyshev_bound(a_sq: float, num_copies: int, eps: float) -> float:
    """Tail bound a_sq (1 - a_sq) / (eps^2 N) on the mass outside the window."""
    a_sq = check_a_sq(a_sq)  # a -0.0 input bounds by 0.0, not -0.0
    check_eps(eps)
    num_copies = check_copies(num_copies)
    # left-to-right division keeps round cases like (0.5, 100, 0.1) -> 0.25 exact
    return a_sq * (1.0 - a_sq) / eps / eps / num_copies


def window_masses(
    decomp: FrequencyDecomposition, level: int, r0: float, eps: float
) -> WindowMass:
    """Partition one level's frequency mass at the window around ``r0``.

    Strictly below r0 - eps, strictly above r0 + eps, closed window between,
    classified in integer count space against exact decimal edges (see
    :class:`WindowMass`); ``eps = inf`` keeps every sector inside.  The
    attached bound uses the level probability.  Each mass is an exactly
    rounded sum, so sectors of weight 0.0 may be left out.
    """
    counts, prob = decomp.level_counts(level), float(decomp.level_probs[int(level)])
    check_eps(eps)
    if not math.isfinite(r0):
        raise ValueError(f"r0 must be finite, got {r0!r}")
    num_copies, weights = decomp.num_copies, decomp.weights
    lower, upper = _decimal_edges(r0, eps)
    lo = min(max(math.ceil(num_copies * lower), 0), num_copies + 1)
    hi = min(max(math.floor(num_copies * upper), -1), num_copies)
    below = counts < lo
    above = counts > hi
    return WindowMass(
        r0=float(r0),
        eps=float(eps),
        mass_below=exact_sum(weights[below]),
        mass_inside=exact_sum(weights[~(below | above)]),
        mass_above=exact_sum(weights[above]),
        chebyshev_bound=chebyshev_bound(prob, num_copies, eps),
    )


def _decimal_edges(r0: float, eps: float) -> tuple[Fraction, Fraction]:
    """Exact edges r0 -/+ eps read as decimals, clamped to the finite doubles."""
    if math.isinf(eps):
        return -_LARGEST_DOUBLE, _LARGEST_DOUBLE
    center, half_width = Fraction(repr(float(r0))), Fraction(repr(float(eps)))
    return max(center - half_width, -_LARGEST_DOUBLE), min(center + half_width, _LARGEST_DOUBLE)


def convergence_scan(
    state: SingleCopyState, eps: float, copy_counts: Sequence[int]
) -> tuple[WindowMass, ...]:
    """Windows at r0 = |a|^2, one per N of a strictly increasing list, in order."""
    counts = [check_whole(n, "num_copies") for n in copy_counts]
    if not counts:
        raise ValueError("need at least one copy count")
    if any(b <= a for a, b in zip(counts, counts[1:])):
        raise ValueError(f"copy counts must be strictly increasing, got {counts}")
    check_eps(eps)
    a_sq = float(state.level_probs[0])
    return tuple(window_masses(two_level_band(state, n), 0, a_sq, eps) for n in counts)


def check_localization(
    r: np.ndarray, mass: np.ndarray, eps: float, mass_tolerance: float
) -> LocalizationVerdict:
    """Decide whether a distribution over a real variable sits in one window.

    ``r`` and ``mass`` are equal-length 1-D arrays of points and their masses;
    a point may repeat, as one level's frequency does across multi-level
    sectors.  The candidate location q0 is the weighted median (first point
    where the cumulative mass reaches half the total); the verdict is
    localized iff the mass outside [q0 - eps, q0 + eps], edges as in
    :class:`WindowMass` rounded to doubles, is at most ``mass_tolerance``.
    The masses must sum to 1 within ``LOCALIZATION_INPUT_TOLERANCE`` (checked
    by :func:`~freqborn.errors.unit_mass`, no rescaling).  Works for any
    finitely supported distribution, not only frequency decompositions.
    """
    check_eps(eps)
    if not mass_tolerance >= 0.0:
        raise ValueError(f"mass_tolerance must be nonnegative, got {mass_tolerance!r}")
    qs = np.asarray(r, dtype=np.float64)
    masses = np.asarray(mass, dtype=np.float64)
    if qs.ndim != 1 or qs.shape != masses.shape or qs.size == 0:
        raise ValueError(
            "r and mass must be nonempty 1-D arrays of equal length, "
            f"got shapes {qs.shape} and {masses.shape}"
        )
    if not np.all(np.isfinite(qs)):
        raise ValueError("points must be finite")
    if np.any(masses < 0.0):
        raise ValueError("weights must be nonnegative")
    unit_mass(masses, 1.0, LOCALIZATION_INPUT_TOLERANCE, False, "weight")
    order = np.argsort(qs, kind="stable")
    qs = qs[order]
    masses = masses[order]
    cumulative = np.cumsum(masses)
    q0 = float(qs[np.searchsorted(cumulative, 0.5 * cumulative[-1])])
    lower, upper = map(float, _decimal_edges(q0, eps))
    outside = exact_sum(masses[(qs < lower) | (qs > upper)])
    return LocalizationVerdict(outside <= mass_tolerance, q0, outside)
