"""The banded two-level route against the dense route, bit for bit.

``two_level_band`` runs the kernel only on a window of counts around the
nonzero two-level weights and returns those rows alone, as a
``FrequencyDecomposition`` whose rows are a contiguous ascending run of the
dense rows.  Every reduction is an exactly rounded sum, which ignores the
order of its terms and the 0.0 weights outside the band, so the same
reduction over the band and over all N + 1 rows of the dense
``decompose_two_level`` route must print the same bits.  Each side of a
window, the moments and the surprise index are also checked against a
50-digit reference that shares no code with the kernel.
"""

import dataclasses
import math
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqborn import decomposition
from freqborn.concentration import convergence_scan, window_masses
from freqborn.continuum import GridWavefunction, Region, region_frequency_analysis
from freqborn.decomposition import (
    MAX_DECOMPOSITION_BYTES,
    SingleCopyState,
    decompose_two_level,
    frequency_moments,
    total_mass,
    two_level_band,
)
from freqborn.errors import CapacityError, exact_sum
from freqborn.finite_run import finite_run_distribution, outer_frequency_check, surprise_index

# 2089/2090 straddle the N where 0.7^N underflows, so the p = 0.3 band's
# lower edge moves off 0 there; 20/21 straddle the Stirling table edge.
BAND_PROBS = [0.0, -0.0, 1e-320, 0.001, 0.05, 0.3, 0.5, 1.0]
BAND_COPIES = [1, 20, 21, 2089, 2090, 10**4, 10**5, 5 * 10**6]
LARGEST = float(np.finfo(np.float64).max)


def bits(report) -> bytes:
    return np.array(dataclasses.astuple(report), dtype=np.float64).tobytes()


@pytest.mark.parametrize("copies", BAND_COPIES)
@pytest.mark.parametrize("prob", BAND_PROBS)
def test_band_route_matches_dense_route_bitwise(prob, copies):
    state = SingleCopyState.from_alpha_probability(prob)
    dense = decompose_two_level(state, copies)
    dense_weights = np.exp(dense.log_weights)
    band = two_level_band(state, copies)
    ns = band.level_counts(0)
    assert band.counts.tobytes() == dense.counts[ns].tobytes()
    assert band.log_weights.tobytes() == dense.log_weights[ns].tobytes()
    assert band.weights.tobytes() == dense.weights[ns].tobytes()
    assert not np.any(np.delete(dense_weights, ns))
    for level in range(2):
        level_prob = float(state.level_probs[level])
        for eps in (0.01, 3.0 / math.sqrt(copies)):
            assert bits(window_masses(band, level, level_prob, eps)) == bits(
                window_masses(dense, level, level_prob, eps)
            )
        assert bits(frequency_moments(band, level)) == bits(frequency_moments(dense, level))
    assert total_mass(band).hex() == total_mass(dense).hex()
    masses = finite_run_distribution(state, copies)
    assert masses.tobytes() == dense_weights.tobytes()
    for observed in {0, ns[0], ns[np.argmax(band.log_weights)], ns[-1], copies}:
        assert surprise_index(masses, observed).hex() == surprise_index(dense_weights, observed).hex()


def test_scan_evaluates_the_kernel_on_the_band_only(monkeypatch):
    copies = 5_000_000
    sectors = []

    def counting(total, level_counts, level_probs):
        sectors.append(level_counts[0].size)
        return kernel(total, level_counts, level_probs)

    kernel = decomposition.occupancy_log_weights
    monkeypatch.setattr(decomposition, "occupancy_log_weights", counting)
    convergence_scan(SingleCopyState.from_alpha_probability(0.3), 1e-3, [copies])
    # the window is 81,979 counts (1.64%) around the 78,695-sector band
    assert sum(sectors) <= 0.02 * (copies + 1)


BAND_ROUTES = {
    "convergence_scan": lambda copies: convergence_scan(SingleCopyState.from_alpha_probability(0.3), 1e-3, [copies]),
    "region_frequency_analysis": lambda copies: region_frequency_analysis(
        GridWavefunction(0.0, 0.25, np.ones(4)), Region.parse("0:0.5"), copies, 1e-3
    ),
    "outer_frequency_check": lambda copies: outer_frequency_check(np.array([0.25, 0.5, 0.25]), copies, 1, 1e-3),
}


@pytest.mark.parametrize("route", sorted(BAND_ROUTES))
def test_band_routes_allocate_no_dense_array(route):
    # one float64 array over all 5e6 + 1 counts is 40 MB; the band is about 80,000 counts
    tracemalloc.start()
    try:
        BAND_ROUTES[route](5_000_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_band_weights_are_read_only():
    state = SingleCopyState.from_alpha_probability(0.3)
    band = two_level_band(state, 10)
    for weights in (band.counts, band.log_weights, band.weights, finite_run_distribution(state, 10)):
        with pytest.raises(ValueError):
            weights[0] = 1.0


@pytest.mark.parametrize(
    "state, copies, error, message",
    [
        (SingleCopyState.from_probabilities([0.2, 0.3, 0.5]), 10, ValueError, "state has 3 levels, expected 2"),
        (SingleCopyState.from_alpha_probability(0.3), 0, ValueError, "num_copies must be positive, got 0"),
        (
            SingleCopyState.from_alpha_probability(0.3),
            10**7 + 1,
            CapacityError,
            f"decomposition needs {24 * (10**7 + 2)} bytes, above the limit of {MAX_DECOMPOSITION_BYTES} bytes",
        ),
    ],
)
def test_band_route_keeps_the_dense_guards(state, copies, error, message):
    for route in (decompose_two_level, two_level_band):
        with pytest.raises(error) as raised:
            route(state, copies)
        assert str(raised.value) == message


# --- each side of a window, the moments and the surprise index against an independent reference --


def reference_weights(prob, copies, counts):
    """The two-level weights at ``counts``, a contiguous ascending run, to 50 digits.

    They come from the ratio recurrence W(n + 1) / W(n) = (N - n) (p/q) / (n + 1),
    p/q = Fraction(p) / Fraction(1.0 - p), run outward from the mode and normalized by their
    own sum, so no factorial enters.
    """
    ratio = Fraction(prob) / Fraction(1.0 - prob)
    first, last = int(counts[0]), int(counts[-1])
    mode = min(max(math.floor((copies + 1) * ratio / (1 + ratio)), first), last)
    with localcontext(prec=50):
        step = Decimal(ratio.numerator) / Decimal(ratio.denominator)
        weights = {mode: Decimal(1)}
        for n in range(mode, last):
            weights[n + 1] = weights[n] * (copies - n) * step / (n + 1)
        for n in range(mode, first, -1):
            weights[n - 1] = weights[n] * n / ((copies - n + 1) * step)
        total = sum(weights.values())
        return [weights[n] / total for n in range(first, last + 1)]


# (p, N, eps) -> bounds on the relative errors of the mean, of the variance about p and of the
# surprise index at n = round(Np + 2 sqrt(Npq)): ten times the worst measured, which follows each
# case and is the same on numpy's loops with and without AVX-512
BAND_REFERENCES = {
    (0.3, 5 * 10**6, 0.001): (3.2e-15, 3.7e-16, 2.3e-15),  # 3.15e-16, 3.69e-17, 2.26e-16
    (0.6437, 5 * 10**6, 0.001): (3.5e-15, 5.7e-16, 4.7e-15),  # 3.45e-16, 5.62e-17, 4.66e-16
    (0.3, 10**5, 0.005): (8.0e-15, 7.2e-15, 2.7e-15),  # 7.96e-16, 7.11e-16, 2.61e-16
    (0.05, 10**3, 0.02): (1.8e-15, 3.7e-16, 6.5e-15),  # 1.80e-16, 3.70e-17, 6.41e-16
}
# pytest groups a module fixture's tests by parameter index, so the windows take the same four
# cases first, each made once for all three tests, and add N = 10^7 last
WINDOW_CASES = [*BAND_REFERENCES, (0.3, 10**7, 0.001)]


def case_id(case):
    return "-".join(map(str, case))


@pytest.fixture(scope="module")
def reference(request):
    """A case, its band and the band's weights to 50 digits, made once per case."""
    prob, copies, _ = request.param
    band = two_level_band(SingleCopyState.from_alpha_probability(prob), copies)
    return request.param, band, reference_weights(prob, copies, band.level_counts(0))


# The worst relative error measured per side is (below, inside, above); both outer sides
# err by the kernel's slope in the log weight away from the mode (ROADMAP item 8):
# (0.3, 5e6, 0.001) 1.38e-13, 2.97e-16, 1.37e-13; (0.6437, 5e6, 0.001) 3.01e-13, 3.01e-16, 3.02e-13;
# (0.3, 1e5, 0.005) 1.44e-14, 6.94e-16, 1.40e-14; (0.05, 1e3, 0.02) 1.2e-16, 2.2e-16, 5.1e-17;
# (0.3, 1e7, 0.001) 2.70e-13, 5.20e-16, 2.69e-13.
@pytest.mark.parametrize("reference", WINDOW_CASES, ids=case_id, indirect=True)
def test_window_sides_match_a_50_digit_ratio_recurrence(reference):
    (prob, copies, eps), band, exact = reference
    window = window_masses(band, 0, prob, eps)
    got = (window.mass_below, window.mass_inside, window.mass_above)
    # a count is inside iff p - eps <= n/N <= p + eps for the decimals that p and eps print
    lower, upper = Fraction(repr(prob)) - Fraction(repr(eps)), Fraction(repr(prob)) + Fraction(repr(eps))
    lo, hi = math.ceil(copies * lower), math.floor(copies * upper)
    with localcontext(prec=50):
        sides = [Decimal(0)] * 3
        for n, weight in zip(band.level_counts(0).tolist(), exact):
            sides[(n >= lo) + (n > hi)] += weight
        errors = [float(abs(Decimal(value) - side) / side) for value, side in zip(got, sides)]
    assert errors[0] <= 1e-12 and errors[2] <= 1e-12, errors
    assert errors[1] <= 1e-14, errors


@pytest.mark.parametrize("reference", BAND_REFERENCES, ids=case_id, indirect=True)
def test_moments_match_a_50_digit_ratio_recurrence(reference):
    case, band, exact = reference
    prob, copies, _ = case
    mean_bound, variance_bound, _ = BAND_REFERENCES[case]
    moments = frequency_moments(band)
    counts = band.level_counts(0).tolist()
    with localcontext(prec=50):
        center = copies * Decimal(prob)
        mean = sum(n * weight for n, weight in zip(counts, exact)) / copies
        # about p, as frequency_moments takes it: the sum of (n - Np)^2 w, over N^2
        variance = sum((n - center) ** 2 * weight for n, weight in zip(counts, exact)) / copies**2
        mean_error = float(abs(Decimal(moments.mean) - mean) / mean)
        variance_error = float(abs(Decimal(moments.variance) - variance) / variance)
    assert mean_error <= mean_bound and variance_error <= variance_bound, (mean_error, variance_error)


@pytest.mark.parametrize("reference", BAND_REFERENCES, ids=case_id, indirect=True)
def test_surprise_index_matches_a_50_digit_ratio_recurrence(reference):
    case, band, exact = reference
    prob, copies, _ = case
    observed = round(copies * prob + 2 * math.sqrt(copies * prob * (1 - prob)))
    masses = finite_run_distribution(SingleCopyState.from_alpha_probability(prob), copies)
    got = surprise_index(masses, observed)
    # summed over the band counts that surprise_index's own comparison selects; the counts
    # outside the band weigh 0.0 in freqborn and less than the smallest subnormal in truth
    first = int(band.level_counts(0)[0])
    selected = np.flatnonzero(masses[first : first + band.num_sectors] <= masses[observed]).tolist()
    with localcontext(prec=50):
        expected = sum(exact[index] for index in selected)
        error = float(abs(Decimal(got) - expected) / expected)
    assert error <= BAND_REFERENCES[case][2], error


# --- the exactly rounded sum ------------------------------------------------------

FINITE = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False, allow_infinity=False)
EDGES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, 1e-16, 2.0**53])


@settings(max_examples=200, deadline=None)
@given(values=st.lists(FINITE | EDGES, max_size=40), zeros=st.lists(st.sampled_from([0.0, -0.0]), max_size=10),
       data=st.data())
def test_exact_sum_is_the_rounded_rational_sum(values, zeros, data):
    expected = float(sum(map(Fraction, values)))
    assert exact_sum(np.array(values)).hex() == expected.hex()
    shuffled = data.draw(st.permutations(values + zeros))
    assert exact_sum(np.array(shuffled)).hex() == expected.hex()


@pytest.mark.parametrize(
    "values, expected",
    [
        ([LARGEST, LARGEST], math.inf),
        ([-LARGEST, -LARGEST], -math.inf),
        ([LARGEST, LARGEST, -LARGEST], LARGEST),
        ([LARGEST, 2.0**969], LARGEST),
        ([math.inf, LARGEST, LARGEST], math.inf),
        ([], 0.0),
        ([-0.0, -0.0], 0.0),
    ],
)
def test_exact_sum_rounds_past_the_float_range(values, expected):
    assert exact_sum(np.array(values)).hex() == expected.hex()


def test_exact_sum_propagates_nan():
    assert math.isnan(exact_sum(np.array([1.0, math.nan])))
    assert math.isnan(exact_sum(np.array([math.inf, -math.inf, 1.0])))
