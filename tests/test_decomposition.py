"""Unit tests for the N-copy occupation-sector expansion."""

import itertools
import math
import re
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import max_weight_deviation
from freqborn.combinatorics import LOG_ZERO
from freqborn.decomposition import (
    BRUTE_FORCE_BLOCK,
    FrequencyDecomposition,
    SingleCopyState,
    brute_force_decompose,
    compositions,
    decompose_multilevel,
    decompose_two_level,
    frequency_moments,
    total_mass,
    two_level_band,
)
from freqborn import decomposition
from freqborn.concentration import chebyshev_bound, convergence_scan, window_masses
from freqborn.errors import CapacityError, NormalizationError, check_capacity
from freqborn.finite_run import check_observed_count


# --- SingleCopyState --------------------------------------------------------


def test_state_requires_two_levels():
    with pytest.raises(ValueError):
        SingleCopyState([1.0])


def test_state_rejects_bad_norm():
    with pytest.raises(NormalizationError):
        SingleCopyState([1.0, 1.0])


@pytest.mark.parametrize("renormalize", [False, True])
def test_state_rejects_non_finite_amplitudes(renormalize):
    for bad in (float("nan"), float("inf"), complex(0.0, float("nan"))):
        with pytest.raises(ValueError, match="finite"):
            SingleCopyState([bad, 1.0], renormalize=renormalize)


@pytest.mark.parametrize("renormalize", [False, True])
def test_from_probabilities_rejects_non_finite_values(renormalize):
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            SingleCopyState.from_probabilities([bad, 0.5], renormalize=renormalize)


def test_state_renormalizes_on_request():
    state = SingleCopyState([2.0, 0.0], renormalize=True)
    assert state.level_probs[0] == pytest.approx(1.0, abs=1e-15)
    # a squared norm that overflows to inf or falls into subnormals is not
    # rescaled, and the gate names it
    for amplitudes, total in (([1e200, 1e200], "is inf,"), ([1e-160, 1e-160], "is 2e-320,"), ([1e-170, 1e-170], "is 0.0,")):
        with pytest.raises(NormalizationError, match=total):
            SingleCopyState(amplitudes, renormalize=True)
    with pytest.raises(NormalizationError, match="is inf,"):
        SingleCopyState.from_probabilities([1e308, 1e308], renormalize=True)
    with pytest.raises(ValueError, match="zero") as info:
        SingleCopyState([0.0, 0.0], renormalize=True)
    assert not isinstance(info.value, NormalizationError)


def test_state_accepts_tolerated_norm_slack():
    state = SingleCopyState([math.sqrt(0.3), math.sqrt(0.7)])
    assert state.num_levels == 2


def test_from_probabilities_keeps_exact_values():
    state = SingleCopyState.from_probabilities([0.3, 0.7])
    assert float(state.level_probs[0]) == 0.3
    assert float(state.level_probs[1]) == 0.7


def test_from_probabilities_rejects_negative_values_and_single_levels():
    with pytest.raises(ValueError, match="nonnegative"):
        SingleCopyState.from_probabilities([-0.5, 1.5])
    with pytest.raises(ValueError, match="at least two level probabilities"):
        SingleCopyState.from_probabilities([1.0])


def test_from_alpha_probability_range():
    with pytest.raises(ValueError):
        SingleCopyState.from_alpha_probability(1.5)
    with pytest.raises(ValueError):
        SingleCopyState.from_alpha_probability(-0.1)


def test_state_arrays_are_immutable():
    state = SingleCopyState.from_alpha_probability(0.3)
    with pytest.raises(ValueError):
        state.level_probs[0] = 0.5


# --- two-level decomposition -------------------------------------------------


def test_pure_state_concentrates_all_weight():
    decomp = decompose_two_level(SingleCopyState([1.0, 0.0]), 5)
    assert decomp.log_weights[5] == 0.0
    assert all(w == LOG_ZERO for w in decomp.log_weights[:5])


def test_two_level_matches_enumerated_values():
    # expansion of all 2^3 outcome sequences for |a|^2 = 0.3 grouped by count
    weights = decompose_two_level(SingleCopyState.from_alpha_probability(0.3), 3).weights
    expected = [0.343, 0.441, 0.189, 0.027]
    assert np.max(np.abs(weights - expected)) <= 1e-12


def test_balanced_state_weights_are_symmetric_bitwise():
    decomp = decompose_two_level(SingleCopyState.from_alpha_probability(0.5), 14)
    assert np.array_equal(decomp.log_weights, decomp.log_weights[::-1])


def test_two_level_rejects_other_level_counts():
    state = SingleCopyState.from_probabilities([0.2, 0.3, 0.5])
    with pytest.raises(ValueError):
        decompose_two_level(state, 4)


def test_two_level_requires_positive_copies():
    with pytest.raises(ValueError):
        decompose_two_level(SingleCopyState.from_alpha_probability(0.5), 0)


def test_two_level_capacity_guard():
    # the byte budget admits N = 10**7 at two levels: 24 bytes per sector
    state = SingleCopyState.from_alpha_probability(0.5)
    with pytest.raises(
        CapacityError, match="^decomposition needs 240000048 bytes, above the limit of 240000024 bytes$"
    ):
        decompose_two_level(state, 10**7 + 1)


def test_exact_rational_oracle_at_hundred_copies():
    # exact pmf C(100,n) 3^n 7^(100-n) / 10^100 via big rationals
    weights = decompose_two_level(SingleCopyState.from_alpha_probability(0.3), 100).weights
    for n in range(101):
        exact = Fraction(math.comb(100, n) * 3**n * 7 ** (100 - n), 10**100)
        assert weights[n] == pytest.approx(float(exact), rel=1e-13)


# --- multi-level decomposition ------------------------------------------------


def test_compositions_are_lexicographic():
    rows = [tuple(row) for row in compositions(2, 3).tolist()]
    assert rows == [(0, 0, 2), (0, 1, 1), (0, 2, 0), (1, 0, 1), (1, 1, 0), (2, 0, 0)]


@pytest.mark.parametrize(
    "total,parts", [(5, 2), (4, 3), (6, 4), (0, 3), (0, 1), (5, 1), (0, 4), (1, 1024)]
)
def test_compositions_cover_every_vector_once(total, parts):
    matrix = compositions(total, parts)
    assert matrix.dtype == np.int64
    assert matrix.flags.f_contiguous
    rows = [tuple(row) for row in matrix.tolist()]
    assert len(rows) == math.comb(total + parts - 1, parts - 1)
    assert len(set(rows)) == len(rows)
    assert all(len(row) == parts and min(row) >= 0 and sum(row) == total for row in rows)
    assert rows == sorted(rows)


def test_compositions_peak_is_about_the_matrix_it_returns():
    tracemalloc.start()
    try:
        matrix = compositions(1, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * matrix.nbytes


def test_multilevel_uniform_three_level_example():
    # all 3^2 sequences grouped: doubles carry 1/9 each, mixed pairs 2/9
    state = SingleCopyState.from_probabilities([1 / 3, 1 / 3, 1 / 3], renormalize=True)
    decomp = decompose_multilevel(state, 2)
    for counts, log_weight in zip(decomp.counts.tolist(), decomp.log_weights.tolist()):
        expected = 1 / 9 if 2 in counts else 2 / 9
        assert math.exp(log_weight) == pytest.approx(expected, abs=1e-12)


def test_multilevel_degenerate_amplitudes():
    state = SingleCopyState.from_probabilities([1.0, 0.0, 0.0])
    decomp = decompose_multilevel(state, 4)
    rows = dict(zip(map(tuple, decomp.counts.tolist()), decomp.log_weights.tolist()))
    assert rows.pop((4, 0, 0)) == 0.0
    assert all(w == LOG_ZERO for w in rows.values())


def test_multilevel_zero_level_matches_reduced_two_level():
    state = SingleCopyState.from_probabilities([0.5, 0.5, 0.0])
    reduced = decompose_two_level(SingleCopyState.from_alpha_probability(0.5), 3)
    decomp = decompose_multilevel(state, 3)
    for counts, log_weight, weight in zip(decomp.counts.tolist(), decomp.log_weights.tolist(), decomp.weights):
        if counts[2] > 0:
            assert log_weight == LOG_ZERO
        else:
            assert weight == pytest.approx(reduced.weights[counts[0]], abs=1e-12)


@pytest.mark.parametrize("prob", [0.3, 0.5, 1.0])
@pytest.mark.parametrize("copies", [1, 7, 40, 200])
def test_multilevel_two_level_reduction_is_bit_identical(prob, copies):
    state = SingleCopyState.from_alpha_probability(prob)
    dense = decompose_two_level(state, copies)
    sparse = decompose_multilevel(state, copies)
    assert np.array_equal(sparse.level_counts(0), np.arange(copies + 1))
    assert np.array_equal(sparse.log_weights, dense.log_weights)


def test_multilevel_capacity_guard_reports_bytes():
    # int64 counts plus float64 log weights: 8 (M + 1) bytes per sector
    state = SingleCopyState.from_probabilities([0.25] * 4, renormalize=True)
    needed = 8 * 5 * math.comb(10**4 + 3, 3)
    with pytest.raises(CapacityError, match=f"^decomposition needs {needed} bytes, above the limit of "):
        decompose_multilevel(state, 10**4)


# --- brute-force oracle -------------------------------------------------------


def test_brute_force_single_copy_weights_are_level_probs():
    state = SingleCopyState.from_probabilities([0.2, 0.3, 0.5])
    oracle = brute_force_decompose(state, 1)
    assert oracle.counts.tolist() == [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
    weights = oracle.weights
    assert weights[0] == pytest.approx(0.5, abs=1e-15)
    assert weights[1] == pytest.approx(0.3, abs=1e-15)
    assert weights[2] == pytest.approx(0.2, abs=1e-15)


def test_brute_force_capacity_guard():
    with pytest.raises(CapacityError):
        brute_force_decompose(SingleCopyState.from_alpha_probability(0.5), 25)


@given(st.integers(min_value=14_300, max_value=100_000), st.integers(min_value=0, max_value=2**64))
def test_capacity_message_names_a_power_of_ten_below_a_long_count(bits, low):
    # 2^14300 has 4305 digits, past Python's int-to-str limit, so the count is named by a power of ten
    requested = 2**bits + low
    with pytest.raises(CapacityError) as error:
        check_capacity(requested, 10, "enumeration", "sequences")
    message = re.fullmatch(r"enumeration needs more than 10\^(\d+) sequences, above the limit of 10 sequences", str(error.value))
    power = int(message.group(1))
    assert 10**power < requested < 10 ** (power + 2)


def test_brute_force_shares_the_decomposition_byte_budget(monkeypatch):
    # N = 1 at M levels needs 8 (M + 1) M bytes, far below the sequence guard's M^N
    state = SingleCopyState.from_probabilities([0.25] * 4)
    monkeypatch.setattr(decomposition, "MAX_DECOMPOSITION_BYTES", 8 * 5 * 4 - 1)
    with pytest.raises(CapacityError) as closed:
        decompose_multilevel(state, 1)
    with pytest.raises(CapacityError) as oracle:
        brute_force_decompose(state, 1)
    assert str(oracle.value) == str(closed.value)
    assert str(oracle.value) == "decomposition needs 160 bytes, above the limit of 159 bytes"


def reference_brute_force(amplitudes, copies):
    # one sequence at a time in itertools.product order, one Python complex
    # product and one float sum per sequence: the plain loop the oracle's
    # blocks must reproduce bit for bit
    amps = [complex(a) for a in amplitudes]
    masses = {}
    for seq in itertools.product(range(len(amps)), repeat=copies):
        amp = complex(1.0)
        occupation = [0] * len(amps)
        for s in seq:
            amp *= amps[s]
            occupation[s] += 1
        key = tuple(occupation)
        masses[key] = masses.get(key, 0.0) + (amp.real * amp.real + amp.imag * amp.imag)
    keys = sorted(masses)
    log_weights = [math.log(masses[k]) if masses[k] > 0.0 else LOG_ZERO for k in keys]
    return np.array(keys, dtype=np.int64), np.array(log_weights)


def unit_amplitudes(count, seed, zero_level=None):
    rng = np.random.default_rng(seed)
    amps = rng.uniform(0.1, 1.0, count) * np.exp(2j * np.pi * rng.uniform(size=count))
    if zero_level is not None:
        amps[zero_level] = 0.0
    return amps / math.sqrt(float(np.sum(np.abs(amps) ** 2)))


@pytest.mark.parametrize(
    "amplitudes,copies",
    [
        ([0.6, 0.8j], 9),
        (unit_amplitudes(2, 1), 12),
        (unit_amplitudes(3, 2), 7),
        (unit_amplitudes(3, 3, zero_level=1), 6),
        (unit_amplitudes(4, 4), 5),
        (unit_amplitudes(4, 5, zero_level=0), 4),
        # M^N equal to the block, just above it, and one copy more
        (unit_amplitudes(2, 6), 16),
        (unit_amplitudes(4, 7), 8),
        (unit_amplitudes(5, 8), 7),
        (unit_amplitudes(2, 9), 17),
        # many levels: (N + 1)^M passes 2^63, so no base-(N + 1) code of the counts fits int64
        (unit_amplitudes(64, 10), 2),
        (unit_amplitudes(70, 11), 1),
        (unit_amplitudes(32, 12), 3),
    ],
)
def test_brute_force_matches_plain_loop_bit_for_bit(amplitudes, copies):
    state = SingleCopyState(amplitudes)
    oracle = brute_force_decompose(state, copies)
    counts, log_weights = reference_brute_force(state.amplitudes, copies)
    assert oracle.counts.dtype == np.int64
    assert oracle.counts.flags.c_contiguous
    assert np.array_equal(oracle.counts, counts)
    assert oracle.log_weights.tobytes() == log_weights.tobytes()


def test_brute_force_block_bounds_the_test_cases():
    # the cases above straddle the block: 2^16 = 4^8 fill it, 5^7 and 2^17 exceed it
    assert BRUTE_FORCE_BLOCK == 2**16 == 4**8 < 5**7 < 2**17


def test_brute_force_sequence_guard_keeps_counts_in_uint8():
    # M^N <= the guard < 2^25 keeps N <= 24 at M >= 2, so the oracle's uint8 sector rows cannot wrap
    assert decomposition.MAX_BRUTE_FORCE_SEQUENCES < 2**25


def test_brute_force_on_thousands_of_levels_is_fast():
    # the guards admit up to 5,476 levels at N = 1, where (N + 1)^M is far beyond int64
    state = SingleCopyState.from_probabilities([1.0] * 3000, renormalize=True)
    start = time.perf_counter()
    oracle = brute_force_decompose(state, 1)
    elapsed = time.perf_counter() - start
    assert np.array_equal(oracle.counts, decompose_multilevel(state, 1).counts)
    assert elapsed < 3.0


@pytest.mark.parametrize("prob", [0.0, 0.3, 0.5, 1.0])
def test_two_level_agrees_with_brute_force(prob):
    state = SingleCopyState.from_alpha_probability(prob)
    for copies in range(1, 13):
        closed = decompose_two_level(state, copies)
        oracle = brute_force_decompose(state, copies)
        assert max_weight_deviation(closed, oracle) <= 1e-12


def test_complex_amplitudes_agree_with_brute_force():
    state = SingleCopyState([0.6, 0.8j])
    for copies in range(1, 9):
        closed = decompose_two_level(state, copies)
        oracle = brute_force_decompose(state, copies)
        assert max_weight_deviation(closed, oracle) <= 1e-12


@pytest.mark.parametrize(
    "probs,max_copies",
    [((0.2, 0.3, 0.5), 6), ((0.1, 0.2, 0.3, 0.4), 5)],
)
def test_multilevel_agrees_with_brute_force(probs, max_copies):
    state = SingleCopyState.from_probabilities(list(probs))
    for copies in range(1, max_copies + 1):
        closed = decompose_multilevel(state, copies)
        oracle = brute_force_decompose(state, copies)
        assert max_weight_deviation(closed, oracle) <= 1e-12


# --- invariants ---------------------------------------------------------------


def test_total_mass_single_copy_is_exact_probability_sum():
    decomp = decompose_two_level(SingleCopyState.from_alpha_probability(0.3), 1)
    assert total_mass(decomp) == pytest.approx(1.0, abs=1e-12)


def test_total_mass_matches_brute_force_for_four_levels():
    state = SingleCopyState.from_probabilities([0.1, 0.2, 0.3, 0.4])
    closed = decompose_multilevel(state, 8)
    oracle = brute_force_decompose(state, 8)
    assert total_mass(closed) == pytest.approx(1.0, abs=1e-10)
    assert total_mass(oracle) == pytest.approx(1.0, abs=1e-10)


def test_total_mass_matches_exactly_rounded_sum():
    # 60 seeded states with 2-4 levels (sometimes a zero level); N is capped
    # per level count so each decomposition stays under 50,000 sectors
    rng = np.random.default_rng(10)
    max_copies = {2: 3000, 3: 300, 4: 60}
    for _ in range(60):
        m = int(rng.integers(2, 5))
        probs = rng.dirichlet(np.full(m, 0.5))
        if m > 2 and rng.random() < 0.5:
            probs[rng.integers(m)] = 0.0
        state = SingleCopyState.from_probabilities((probs / probs.sum()).tolist(), renormalize=True)
        decomp = decompose_multilevel(state, int(rng.integers(1, max_copies[m] + 1)))
        reference = math.fsum(decomp.weights.tolist())
        assert abs(total_mass(decomp) - reference) <= 1e-15 * reference


@settings(max_examples=40, deadline=None)
@given(
    prob=st.floats(min_value=0.0, max_value=1.0),
    copies=st.integers(min_value=1, max_value=3000),
)
def test_normalization_and_moment_identities(prob, copies):
    state = SingleCopyState.from_alpha_probability(prob)
    decomp = decompose_two_level(state, copies)
    assert abs(total_mass(decomp) - 1.0) <= 1e-10
    report = frequency_moments(decomp, 0)
    assert abs(report.mean - prob) <= 1e-10
    predicted = prob * (1.0 - prob) / copies
    assert abs(report.variance - predicted) <= 1e-10 * max(predicted, 1e-30)


def test_moment_report_example_values():
    decomp = decompose_two_level(SingleCopyState.from_alpha_probability(0.3), 10)
    report = frequency_moments(decomp)
    assert report.variance == pytest.approx(0.021, abs=1e-12)
    assert report.predicted_variance == pytest.approx(0.021, abs=1e-15)


def test_moment_report_deterministic_state():
    decomp = decompose_two_level(SingleCopyState.from_alpha_probability(1.0), 9)
    report = frequency_moments(decomp)
    assert report.mean == 1.0
    assert report.variance == 0.0


def test_moment_report_negative_zero_probability_predicts_positive_zero():
    decomp = decompose_two_level(SingleCopyState.from_alpha_probability(-0.0), 5)
    assert math.copysign(1.0, frequency_moments(decomp).predicted_variance) == 1.0


def test_moment_report_multilevel_first_level():
    state = SingleCopyState.from_probabilities([0.5, 0.3, 0.2])
    report = frequency_moments(decompose_multilevel(state, 6), level=0)
    assert report.variance == pytest.approx(0.5 * 0.5 / 6, rel=1e-12)


def test_moment_identities_hold_for_every_level():
    state = SingleCopyState.from_probabilities([0.1, 0.2, 0.3, 0.4])
    decomp = decompose_multilevel(state, 40)
    for level, p in enumerate([0.1, 0.2, 0.3, 0.4]):
        report = frequency_moments(decomp, level)
        assert abs(report.mean - p) <= 1e-10
        assert abs(report.variance - report.predicted_variance) <= 1e-10 * report.predicted_variance


def test_moment_report_bad_level():
    decomp = decompose_two_level(SingleCopyState.from_alpha_probability(0.3), 4)
    with pytest.raises(ValueError):
        frequency_moments(decomp, 2)


@settings(max_examples=25, deadline=None)
@given(
    probs=st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=3, max_size=4),
    copies=st.integers(min_value=1, max_value=25),
    phases=st.lists(st.sampled_from([1, 1j, -1, -1j]), min_size=4, max_size=4),
)
def test_phase_rotations_leave_weights_unchanged_bitwise(probs, copies, phases):
    # quarter-turn phases preserve |a|^2 bit for bit, so weights must not move
    raw = np.sqrt(np.array(probs) / sum(probs))
    state = SingleCopyState(raw, renormalize=True)
    rotated = SingleCopyState(raw * np.array(phases[: len(raw)]), renormalize=True)
    a = decompose_multilevel(state, copies)
    b = decompose_multilevel(rotated, copies)
    assert np.array_equal(a.log_weights, b.log_weights)


def test_marginalizing_multilevel_reproduces_two_level():
    state = SingleCopyState.from_probabilities([0.5, 0.3, 0.2])
    copies = 12
    decomp = decompose_multilevel(state, copies)
    marginal = np.bincount(decomp.level_counts(0), weights=decomp.weights, minlength=copies + 1)
    reduced = decompose_two_level(SingleCopyState.from_alpha_probability(0.5), copies)
    assert np.max(np.abs(marginal - reduced.weights)) <= 1e-10


# --- whole numbers ---------------------------------------------------------------

TWO = SingleCopyState.from_alpha_probability(0.3)
THREE = SingleCopyState.from_probabilities([0.2, 0.3, 0.5])
SMALL = decompose_two_level(TWO, 10)
WHOLE_NUMBER_ROUTES = {
    "decompose_two_level": lambda v: decompose_two_level(TWO, v),
    "decompose_multilevel": lambda v: decompose_multilevel(THREE, v),
    "two_level_band": lambda v: two_level_band(TWO, v),
    "brute_force_decompose": lambda v: brute_force_decompose(TWO, v),
    "compositions_total": lambda v: compositions(v, 2),
    "compositions_parts": lambda v: compositions(3, v),
    "chebyshev_bound": lambda v: chebyshev_bound(0.3, v, 0.1),
    "convergence_scan": lambda v: convergence_scan(TWO, 0.1, [v]),
    "check_observed_count": lambda v: check_observed_count(v, 10),
    "level_counts": lambda v: SMALL.level_counts(v),
    "window_masses": lambda v: window_masses(SMALL, v, 0.3, 0.1),
    "frequency_moments": lambda v: frequency_moments(SMALL, v),
}


@pytest.mark.parametrize("value", [10.5, math.nan, math.inf, 0.5])
@pytest.mark.parametrize("route", sorted(WHOLE_NUMBER_ROUTES))
def test_counts_must_be_whole_numbers(route, value):
    with pytest.raises(ValueError, match=f"must be a whole number, got {value!r}$"):
        WHOLE_NUMBER_ROUTES[route](value)


def test_whole_floats_and_numpy_ints_count_like_ints():
    assert np.array_equal(decompose_two_level(TWO, 10.0).log_weights, SMALL.log_weights)
    three = decompose_multilevel(THREE, 6).log_weights
    assert np.array_equal(decompose_multilevel(THREE, np.int64(6)).log_weights, three)
    assert chebyshev_bound(0.3, 1e6, 0.1) == chebyshev_bound(0.3, 10**6, 0.1)
    assert convergence_scan(TWO, 0.1, [np.int64(10), 20.0]) == convergence_scan(TWO, 0.1, [10, 20])
    assert check_observed_count(np.int64(3), 10) == 3
    assert np.array_equal(SMALL.level_counts(np.int64(1)), SMALL.level_counts(1))
    assert window_masses(SMALL, 1.0, 0.7, 0.1) == window_masses(SMALL, 1, 0.7, 0.1)
    assert frequency_moments(SMALL, np.int64(1)) == frequency_moments(SMALL, 1)
    assert frequency_moments(SMALL, 1.0) == frequency_moments(SMALL, 1)
    assert compositions(3.0, np.int32(2)).tolist() == compositions(3, 2).tolist()


# --- container behaviour --------------------------------------------------------


def test_two_level_count_rows():
    decomp = decompose_two_level(SingleCopyState.from_alpha_probability(0.3), 3)
    assert decomp.counts.tolist() == [[0, 3], [1, 2], [2, 1], [3, 0]]


@pytest.mark.parametrize(
    "build,probs,copies",
    [
        (decompose_multilevel, [0.3, 0.7], 9),
        (decompose_multilevel, [0.2, 0.3, 0.5], 6),
        (brute_force_decompose, [0.2, 0.3, 0.5], 4),
    ],
)
def test_counts_matrix_is_the_sector_table(build, probs, copies):
    decomp = build(SingleCopyState.from_probabilities(probs), copies)
    counts = decomp.counts
    assert counts.dtype == np.int64
    assert counts.shape == (decomp.num_sectors, len(probs))
    assert np.all(counts.sum(axis=1) == copies)
    rows = [tuple(row) for row in counts.tolist()]
    assert all(a < b for a, b in zip(rows, rows[1:]))
    assert np.array_equal(counts, compositions(copies, len(probs)))
    with pytest.raises(ValueError):
        counts[0, 0] = 1


def test_log_weights_are_immutable():
    decomp = decompose_two_level(SingleCopyState.from_alpha_probability(0.3), 3)
    with pytest.raises(ValueError):
        decomp.log_weights[0] = 0.0


# the band at N = 10^5 starts past n = 0; the oracle's weights are exp(log(mass))
WEIGHT_ROUTES = {
    "dense two-level": lambda: decompose_two_level(TWO, 2090),
    "dense three-level": lambda: decompose_multilevel(THREE, 40),
    "band": lambda: two_level_band(TWO, 10**5),
    "oracle": lambda: brute_force_decompose(SingleCopyState([0.6, 0.8j]), 12),
}


@pytest.mark.parametrize("route", sorted(WEIGHT_ROUTES))
def test_every_route_carries_read_only_weights_equal_to_exp_of_its_log_weights(route):
    decomp = WEIGHT_ROUTES[route]()
    assert decomp.weights.dtype == np.float64
    assert decomp.weights.tobytes() == np.exp(decomp.log_weights).tobytes()
    with pytest.raises(ValueError):
        decomp.weights[0] = 1.0
