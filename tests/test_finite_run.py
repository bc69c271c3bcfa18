"""Unit tests for finite-run distributions, surprise, and the outer check."""

import math
import tracemalloc

import numpy as np
import pytest

from freqborn.concentration import chebyshev_bound
from freqborn.decomposition import SingleCopyState, decompose_two_level
from freqborn.finite_run import (
    finite_run_distribution,
    outer_frequency_check,
    surprise_index,
)


def run_distribution(prob, measurements):
    return finite_run_distribution(SingleCopyState.from_alpha_probability(prob), measurements)


# --- distribution ------------------------------------------------------------


def test_masses_are_exponentials_of_the_two_level_weights():
    state = SingleCopyState.from_alpha_probability(0.3)
    masses = finite_run_distribution(state, 100)
    decomp = decompose_two_level(state, 100)
    assert np.array_equal(masses, decomp.weights)
    assert not masses.flags.writeable


def test_single_measurement_masses():
    masses = run_distribution(0.3, 1)
    assert masses[0] == pytest.approx(0.7, abs=1e-12)
    assert masses[1] == pytest.approx(0.3, abs=1e-12)


def test_hundred_measurement_mode_and_mass():
    masses = run_distribution(0.3, 100)
    assert int(np.argmax(masses)) == 30
    assert abs(masses.sum() - 1.0) <= 1e-10


def test_distribution_needs_two_levels():
    state = SingleCopyState.from_probabilities([0.2, 0.3, 0.5])
    with pytest.raises(ValueError):
        finite_run_distribution(state, 10)


# --- surprise index ------------------------------------------------------------


def test_surprise_at_the_mode_counts_everything():
    masses = run_distribution(0.3, 100)
    mode = int(np.argmax(masses))
    assert surprise_index(masses, mode) == pytest.approx(1.0, abs=1e-10)


def test_surprise_of_never_observing_a_balanced_outcome():
    masses = run_distribution(0.5, 100)
    assert surprise_index(masses, 0) <= 2.0**-90


def test_surprise_symmetry_for_balanced_states():
    masses = run_distribution(0.5, 60)
    for n in (0, 7, 23, 30):
        assert surprise_index(masses, n) == pytest.approx(
            surprise_index(masses, 60 - n), rel=1e-12
        )


def test_surprise_is_monotone_in_outcome_likelihood():
    masses = run_distribution(0.3, 80)
    by_mass = sorted(range(81), key=lambda n: masses[n])
    surprises = [surprise_index(masses, n) for n in by_mass]
    assert all(a <= b + 1e-15 for a, b in zip(surprises, surprises[1:]))
    assert surprises[-1] == pytest.approx(1.0, abs=1e-10)


def test_surprise_index_copies_only_the_band():
    # the band holds about 1% of the 0..10^6 counts; every other mass is 0.0
    masses = run_distribution(0.3, 10**6)
    tracemalloc.start()
    try:
        surprise_index(masses, 300_000 + 900)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < masses.nbytes / 2


def test_surprise_index_range_check():
    masses = run_distribution(0.3, 10)
    with pytest.raises(ValueError):
        surprise_index(masses, 11)
    with pytest.raises(ValueError):
        surprise_index(masses, -1)


# --- outer frequency check --------------------------------------------------------


def test_outer_check_concentrates_at_the_observed_mass():
    # masses[1] = 2 * 0.5 * 0.5 = 0.5 by enumerating the four two-shot sequences
    masses = run_distribution(0.5, 2)
    window = outer_frequency_check(masses, 500, 1, 0.05)
    assert window.r0 == pytest.approx(0.5, abs=1e-12)
    assert window.mass_outside <= window.chebyshev_bound + 1e-12


def test_outer_check_bound_uses_outer_parameters():
    masses = run_distribution(0.3, 100)
    hit = float(masses[30])
    window = outer_frequency_check(masses, 10**4, 30, 0.05)
    assert window.chebyshev_bound == chebyshev_bound(hit, 10**4, 0.05)


def test_outer_check_wide_window_has_no_outside_mass():
    masses = run_distribution(0.5, 2)
    window = outer_frequency_check(masses, 100, 1, 1.5)
    assert window.mass_outside == 0.0


def test_outer_check_range_check():
    masses = run_distribution(0.3, 10)
    with pytest.raises(ValueError):
        outer_frequency_check(masses, 100, 11, 0.05)
