"""Unit tests for window masses, tail bounds, and the localization checker."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqborn import concentration, continuum, finite_run
from freqborn.concentration import (
    chebyshev_bound,
    check_localization,
    convergence_scan,
    window_masses,
)
from freqborn.continuum import GridWavefunction, Region
from freqborn.decomposition import (
    SingleCopyState,
    decompose_multilevel,
    decompose_two_level,
    total_mass,
)
from freqborn.errors import NormalizationError


def two_level(prob, copies):
    return decompose_two_level(SingleCopyState.from_alpha_probability(prob), copies)


def frequency_masses(decomp, level=0):
    return decomp.level_counts(level) / decomp.num_copies, decomp.weights


# --- chebyshev_bound ---------------------------------------------------------


def test_bound_round_case_is_exact():
    assert chebyshev_bound(0.5, 100, 0.1) == 0.25


def test_bound_formula_value():
    # 0.3 * 0.7 / (0.1^2 * 10) = 2.1
    assert chebyshev_bound(0.3, 10, 0.1) == pytest.approx(2.1, rel=1e-12)


def test_bound_degenerate_probability():
    assert chebyshev_bound(1.0, 50, 0.2) == 0.0
    assert chebyshev_bound(0.0, 50, 0.2) == 0.0


def test_bound_validation():
    with pytest.raises(ValueError):
        chebyshev_bound(1.5, 10, 0.1)
    with pytest.raises(ValueError):
        chebyshev_bound(0.5, 10, 0.0)
    with pytest.raises(ValueError):
        chebyshev_bound(0.5, 0, 0.1)


def test_nan_eps_is_rejected_everywhere():
    nan = float("nan")
    decomp = decompose_two_level(SingleCopyState.from_alpha_probability(0.3), 10)
    with pytest.raises(ValueError, match="eps"):
        chebyshev_bound(0.5, 10, nan)
    with pytest.raises(ValueError, match="eps"):
        window_masses(decomp, 0, 0.3, nan)
    with pytest.raises(ValueError, match="eps"):
        check_localization(np.array([0.0, 1.0]), np.array([0.5, 0.5]), eps=nan, mass_tolerance=0.1)


WINDOW_PIPELINES = {
    concentration: lambda eps: concentration.convergence_scan(
        SingleCopyState.from_alpha_probability(0.3), eps, [10]
    ),
    continuum: lambda eps: continuum.region_frequency_analysis(
        GridWavefunction(0.0, 0.25, np.ones(4)), Region.parse("0:0.5"), 10, eps
    ),
    finite_run: lambda eps: finite_run.outer_frequency_check(np.array([0.25, 0.5, 0.25]), 10, 1, eps),
}


@pytest.mark.parametrize("eps", [0.0, float("nan")])
@pytest.mark.parametrize("module", WINDOW_PIPELINES, ids=lambda module: module.__name__)
def test_bad_eps_is_rejected_before_decomposing(monkeypatch, module, eps):
    def refuse(*args):
        raise AssertionError("decomposed before checking eps")

    monkeypatch.setattr(module, "two_level_band", refuse)
    with pytest.raises(ValueError, match="eps"):
        WINDOW_PIPELINES[module](eps)


# --- window masses --------------------------------------------------------------


def test_window_boundary_points_count_as_inside():
    decomp = two_level(0.3, 10)
    weights = decomp.weights
    window = window_masses(decomp, 0, 0.5, 0.2)
    # lower edge 0.5-0.2 equals 3/10 as a double, so n=3 sits inside;
    # upper edge 0.5+0.2 lands just above 7/10, so n=7 sits inside too
    assert window.mass_below == math.fsum(weights[:3])
    assert window.mass_inside == math.fsum(weights[3:8])
    assert window.mass_above == math.fsum(weights[8:])


# README cases: each edge is an exact decimal multiple of 1/N that its float
# sum or difference rounds inward (0.7 + 0.1 = 0.7999999999999999,
# 0.6 + 0.3 = 0.8999999999999999, 0.45 - 0.15 = 0.30000000000000004)
@pytest.mark.parametrize(
    "r0, eps, copies, first_inside, last_inside",
    [(0.7, 0.1, 10, 6, 8), (0.6, 0.3, 10, 3, 9), (0.45, 0.15, 20, 6, 12)],
)
def test_window_decimal_edges_count_as_inside(r0, eps, copies, first_inside, last_inside):
    decomp = two_level(0.5, copies)
    weights = decomp.weights
    window = window_masses(decomp, 0, r0, eps)
    assert window.mass_below == math.fsum(weights[:first_inside])
    assert window.mass_inside == math.fsum(weights[first_inside : last_inside + 1])
    assert window.mass_above == math.fsum(weights[last_inside + 1 :])


@settings(max_examples=60, deadline=None)
@given(
    # coarse decimals and round N put many edges exactly on a count
    k=st.integers(0, 100).map(lambda x: 100 * x) | st.integers(min_value=0, max_value=10**4),
    j=st.integers(1, 100).map(lambda x: 10 * x) | st.integers(min_value=1, max_value=10**3),
    copies=st.sampled_from([10, 20, 100, 2000]) | st.integers(min_value=1, max_value=2000),
    level=st.sampled_from([0, 1]),
)
def test_window_classifies_counts_against_exact_decimal_edges(k, j, copies, level):
    r0, eps = k / 10**4, j / 10**3
    decomp = two_level(0.3, copies)
    weights = decomp.weights
    low = Fraction(k, 10**4) - Fraction(j, 10**3)
    high = Fraction(k, 10**4) + Fraction(j, 10**3)
    freqs = [Fraction(n, copies) for n in decomp.level_counts(level).tolist()]
    below = np.array([f < low for f in freqs])
    above = np.array([f > high for f in freqs])
    window = window_masses(decomp, level, r0, eps)
    assert window.mass_below == math.fsum(weights[below])
    assert window.mass_inside == math.fsum(weights[~(below | above)])
    assert window.mass_above == math.fsum(weights[above])


def test_window_rejects_non_finite_center():
    decomp = two_level(0.3, 10)
    for r0 in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="r0"):
            window_masses(decomp, 0, r0, 0.1)


def test_window_covering_everything_has_no_outside():
    for eps in (0.6, float("inf")):
        window = window_masses(two_level(0.3, 50), 0, 0.5, eps)
        assert window.mass_below == 0.0
        assert window.mass_above == 0.0


def test_window_example_bound_value():
    window = window_masses(two_level(0.3, 10**4), 0, 0.3, 0.05)
    assert window.chebyshev_bound == pytest.approx(0.0084, rel=1e-12)
    assert window.mass_outside <= window.chebyshev_bound


def test_window_outside_mass_matches_exact_rational_sum():
    # |a|^2 = 0.5, N = 100, eps = 0.1: exact big-rational tail of C(100,n)/2^100
    window = window_masses(two_level(0.5, 100), 0, 0.5, 0.1)
    exact = sum(
        Fraction(math.comb(100, n), 2**100) for n in range(101) if abs(n - 50) > 10
    )
    assert window.mass_outside == pytest.approx(float(exact), rel=1e-12)
    assert window.mass_outside <= 0.25


@pytest.mark.parametrize("prob", [0.3, 0.5])
@pytest.mark.parametrize("eps", [0.05, 0.1])
@pytest.mark.parametrize("copies", [100, 1000])
def test_window_bound_dominance(prob, eps, copies):
    window = window_masses(two_level(prob, copies), 0, prob, eps)
    assert window.mass_outside <= window.chebyshev_bound + 1e-12


@settings(max_examples=40, deadline=None)
@given(
    prob=st.floats(min_value=0.0, max_value=1.0),
    r0=st.floats(min_value=0.0, max_value=1.0),
    eps=st.floats(min_value=1e-3, max_value=0.9),
    copies=st.integers(min_value=1, max_value=2000),
)
def test_window_partition_identity(prob, r0, eps, copies):
    decomp = two_level(prob, copies)
    window = window_masses(decomp, 0, r0, eps)
    partition = window.mass_below + window.mass_inside + window.mass_above
    assert abs(partition - total_mass(decomp)) <= 1e-10


def test_window_masses_multilevel_level_selection():
    state = SingleCopyState.from_probabilities([0.5, 0.3, 0.2])
    decomp = decompose_multilevel(state, 30)
    window = window_masses(decomp, 1, 0.3, 0.2)
    assert window.chebyshev_bound == pytest.approx(chebyshev_bound(0.3, 30, 0.2), rel=1e-15)
    assert abs(window.mass_below + window.mass_inside + window.mass_above - 1.0) <= 1e-10


# --- convergence scan -------------------------------------------------------------


def test_scan_outside_mass_strictly_decreases_by_decade():
    state = SingleCopyState.from_alpha_probability(0.3)
    windows = convergence_scan(state, 0.05, [100, 1000, 10000])
    outside = [window.mass_outside for window in windows]
    assert outside[0] > outside[1] > outside[2]


def test_scan_bound_column_is_the_formula():
    state = SingleCopyState.from_alpha_probability(0.4)
    ns = [10, 100]
    windows = convergence_scan(state, 0.05, ns)
    assert len(windows) == len(ns)
    for n, window in zip(ns, windows):
        expected = chebyshev_bound(0.4, n, 0.05)
        assert window.chebyshev_bound == expected


def test_scan_degenerate_state_has_zero_outside_mass():
    windows = convergence_scan(SingleCopyState([1.0, 0.0]), 0.05, [10, 100, 1000])
    assert all(window.mass_outside == 0.0 for window in windows)


def test_scan_requires_increasing_counts():
    state = SingleCopyState.from_alpha_probability(0.3)
    with pytest.raises(ValueError):
        convergence_scan(state, 0.05, [100, 100])
    with pytest.raises(ValueError):
        convergence_scan(state, 0.05, [])


def test_scan_needs_two_levels():
    state = SingleCopyState.from_probabilities([0.2, 0.3, 0.5])
    with pytest.raises(ValueError, match="expected 2"):
        convergence_scan(state, 0.05, [10, 100])


# eps capped at 0.1: above ~0.3 the top-decade outside mass underflows to an
# exact float zero and "strictly decreasing" is unattainable in float64
@settings(max_examples=25, deadline=None)
@given(
    prob=st.floats(min_value=0.1, max_value=0.9),
    eps=st.floats(min_value=0.05, max_value=0.1),
)
def test_scan_monotone_vanishing_property(prob, eps):
    state = SingleCopyState.from_alpha_probability(prob)
    windows = convergence_scan(state, eps, [100, 1000, 10000])
    outside = [window.mass_outside for window in windows]
    assert outside[0] > outside[1] > outside[2]


# --- localization checker -----------------------------------------------------------


def test_point_mass_is_localized():
    verdict = check_localization(np.array([3.0]), np.array([1.0]), eps=0.01, mass_tolerance=0.0)
    assert verdict.localized
    assert verdict.q0_estimate == 3.0
    assert verdict.residual_outside == 0.0


def test_uniform_distribution_is_not_localized():
    verdict = check_localization(np.arange(100) / 99, np.full(100, 0.01), eps=0.05, mass_tolerance=0.05)
    assert not verdict.localized
    assert verdict.residual_outside == pytest.approx(0.91, abs=1e-9)


def test_concentrated_decomposition_is_localized():
    decomp = two_level(0.3, 10**5)
    verdict = check_localization(*frequency_masses(decomp), eps=0.01, mass_tolerance=0.03)
    assert verdict.localized
    assert abs(verdict.q0_estimate - 0.3) <= 0.01
    assert verdict.residual_outside <= 0.021


def test_residual_never_exceeds_bound_at_larger_copy_counts():
    for copies in (2000, 20000):
        decomp = two_level(0.3, copies)
        verdict = check_localization(*frequency_masses(decomp), eps=0.05, mass_tolerance=1.0)
        assert verdict.residual_outside <= chebyshev_bound(0.3, copies, 0.05) + 1e-12


def test_localization_median_tie_takes_first_point():
    # the cumulative mass reaches one half exactly at the first point: the median tie takes it
    verdict = check_localization(np.array([0.0, 1.0]), np.array([0.5, 0.5]), eps=0.2, mass_tolerance=0.6)
    assert verdict.q0_estimate == 0.0
    assert verdict.residual_outside == pytest.approx(0.5, abs=1e-15)


def test_localization_rejects_bad_mass():
    nan = float("nan")
    r = np.array([0.0, 1.0])
    with pytest.raises(NormalizationError):
        check_localization(r, np.array([0.4, 0.4]), eps=0.1, mass_tolerance=0.1)
    with pytest.raises(ValueError):
        check_localization(np.array([]), np.array([]), eps=0.1, mass_tolerance=0.1)
    with pytest.raises(ValueError):
        check_localization(r, np.array([1.2, -0.2]), eps=0.1, mass_tolerance=0.1)
    with pytest.raises(NormalizationError):
        check_localization(r, np.array([nan, 0.5]), eps=0.1, mass_tolerance=0.1)
    with pytest.raises(ValueError, match="mass_tolerance"):
        check_localization(r, np.array([0.5, 0.5]), eps=0.1, mass_tolerance=nan)
    with pytest.raises(ValueError, match="equal length"):
        check_localization(r, np.array([1.0]), eps=0.1, mass_tolerance=0.1)
    with pytest.raises(ValueError, match="equal length"):
        check_localization(np.array([[0.0, 1.0]]), np.array([[0.5, 0.5]]), eps=0.1, mass_tolerance=0.1)
    with pytest.raises(ValueError, match="finite"):
        check_localization(np.array([nan, 1.0]), np.array([0.5, 0.5]), eps=0.1, mass_tolerance=0.1)


@pytest.mark.parametrize("r0, eps, copies", [(0.7, 0.1, 10), (0.6, 0.3, 10), (0.45, 0.15, 20)])
def test_localization_edges_match_window_masses_on_readme_cases(r0, eps, copies):
    # on each case one float edge r0 -/+ eps rounds inward past a point n/N; the decimal edge keeps it inside
    decomp = two_level(r0, copies)
    verdict = check_localization(*frequency_masses(decomp), eps=eps, mass_tolerance=1.0)
    assert verdict.q0_estimate == r0
    assert abs(verdict.residual_outside - window_masses(decomp, 0, r0, eps).mass_outside) <= 1e-15


def test_localization_wide_windows_leave_nothing_outside():
    masses = np.array([0.5, 0.5])
    # q0 + eps is past the largest double: the edge acts as inf, not OverflowError
    wide = check_localization(np.array([1e308, 1.5e308]), masses, eps=1e308, mass_tolerance=0.0)
    assert wide.residual_outside == 0.0
    infinite = check_localization(np.array([-1e308, 1e308]), masses, eps=math.inf, mass_tolerance=0.0)
    assert infinite.residual_outside == 0.0


# --- repeated points ---------------------------------------------------------------


def test_localization_accumulates_shared_frequencies():
    # level-0 frequencies of the six sectors are 0, 0, 0, 1/2, 1/2, 1 with
    # masses 1/9, 2/9, 1/9, 2/9, 2/9, 1/9: grouped, 4/9 at 0, 4/9 at 1/2, 1/9 at 1
    state = SingleCopyState.from_probabilities([1 / 3, 1 / 3, 1 / 3], renormalize=True)
    r, mass = frequency_masses(decompose_multilevel(state, 2), level=0)
    verdict = check_localization(r, mass, eps=0.1, mass_tolerance=0.1)
    assert verdict.q0_estimate == 0.5
    assert verdict.residual_outside == pytest.approx(5 / 9, abs=1e-12)
    assert not verdict.localized
