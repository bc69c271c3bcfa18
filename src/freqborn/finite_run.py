"""Statistics of many-but-finite measurement runs.

A run of N_inner identical two-level measurements has outcome-count masses
equal to the linear two-level sector weights.  Repeating the whole run many
times concentrates the frequency of any particular count at that count's
mass, which the outer check measures through the hit-vs-miss marginal.
"""

from __future__ import annotations

import numpy as np

from .concentration import WindowMass, window_masses
from .decomposition import SingleCopyState, two_level_band
from .errors import check_eps, check_whole, exact_sum


def finite_run_distribution(state: SingleCopyState, num_measurements: int) -> np.ndarray:
    """Read-only masses of n = 0..N_inner successes in one run: the two-level band, padded with 0.0."""
    band = two_level_band(state, num_measurements)
    first = int(band.level_counts(0)[0])
    masses = np.zeros(band.num_copies + 1)
    masses[first : first + band.num_sectors] = band.weights
    masses.setflags(write=False)
    return masses


def check_observed_count(observed_count: int, num_measurements: int) -> int:
    observed_count = check_whole(observed_count, "observed_count")
    if not 0 <= observed_count <= num_measurements:
        raise ValueError(f"observed_count={observed_count} out of range 0..{num_measurements}")
    return observed_count


def outer_frequency_check(
    masses: np.ndarray, num_runs: int, observed_count: int, eps: float
) -> WindowMass:
    """Concentration of 'exactly observed_count successes per run' over many runs.

    ``masses`` is a finite-run distribution over 0..N_inner successes.  Uses
    the two-level hit-vs-miss marginal of the full (N_inner+1)-level
    expansion, which agrees with it for single-count frequencies; the window
    sits at r0 = masses[observed_count] and is reduced over the band only.
    """
    hit_probability = float(masses[check_observed_count(observed_count, masses.size - 1)])
    check_eps(eps)
    state = SingleCopyState.from_alpha_probability(hit_probability)
    return window_masses(two_level_band(state, num_runs), 0, hit_probability, eps)


def surprise_index(masses: np.ndarray, observed_count: int) -> float:
    """Total mass of outcomes no more likely than the observed count.

    1.0 means maximally typical (the mode); small values flag outcomes whose
    likelihood class is collectively improbable.
    """
    threshold = masses[check_observed_count(observed_count, masses.size - 1)]
    return exact_sum(masses[masses <= threshold])
