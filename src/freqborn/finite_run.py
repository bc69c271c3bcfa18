"""Statistics of many-but-finite measurement runs.

A run of N_inner identical two-level measurements has outcome-count masses
equal to the linear two-level sector weights.  Repeating the whole run many
times concentrates the frequency of any particular count at that count's
mass, which the outer check measures through the hit-vs-miss marginal.
"""

from __future__ import annotations

import numpy as np

from .concentration import WindowMass, window_masses
from .decomposition import SingleCopyState, decompose_two_level
from .errors import check_eps


def finite_run_distribution(state: SingleCopyState, num_measurements: int) -> np.ndarray:
    """Read-only masses of observing n = 0..N_inner successes in one finite run."""
    decomp = decompose_two_level(state, num_measurements)
    masses = np.exp(decomp.log_weights)
    masses.setflags(write=False)
    return masses


def _check_count(masses: np.ndarray, observed_count: int) -> int:
    observed_count = int(observed_count)
    if not 0 <= observed_count < masses.size:
        raise ValueError(f"observed_count={observed_count} out of range 0..{masses.size - 1}")
    return observed_count


def outer_frequency_check(
    masses: np.ndarray, num_runs: int, observed_count: int, eps: float
) -> WindowMass:
    """Concentration of 'exactly observed_count successes per run' over many runs.

    ``masses`` is a finite-run distribution over 0..N_inner successes.  Uses
    the two-level hit-vs-miss marginal of the full (N_inner+1)-level
    expansion, which agrees with it for single-count frequencies; the window
    sits at r0 = masses[observed_count].
    """
    hit_probability = float(masses[_check_count(masses, observed_count)])
    check_eps(eps)
    state = SingleCopyState.from_alpha_probability(hit_probability)
    decomp = decompose_two_level(state, num_runs)
    return window_masses(decomp, 0, hit_probability, eps)


def surprise_index(masses: np.ndarray, observed_count: int) -> float:
    """Total mass of outcomes no more likely than the observed count.

    1.0 means maximally typical (the mode); small values flag outcomes whose
    likelihood class is collectively improbable.
    """
    threshold = masses[_check_count(masses, observed_count)]
    return float(masses[masses <= threshold].sum())
