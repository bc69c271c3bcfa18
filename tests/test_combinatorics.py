"""Unit tests for the log-domain combinatorial kernel."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from freqborn.combinatorics import LOG_ZERO, _bd0, _stirlerr, log_sum_exp_array, occupancy_log_weights
from freqborn.decomposition import SingleCopyState, compositions, decompose_two_level


def compositions_oracle(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions_oracle(total - first, parts - 1):
            yield (first,) + rest


def kernel_log_multinomial(counts):
    # ln((sum counts)! / prod counts_i!) from the kernel: at uniform
    # probabilities 1/M the sector weight is that plus N ln(1/M)
    total = sum(counts)
    prob = 1.0 / len(counts)
    columns = [np.array([c], dtype=np.int64) for c in counts]
    weight = occupancy_log_weights(total, columns, [prob] * len(counts))[0]
    return float(weight) - total * math.log(prob)


def kernel_log_factorial(n):
    # n! is the multinomial of n copies spread one per level
    return kernel_log_multinomial([1] * n)


def kernel_log_binomial(total, chosen):
    return kernel_log_multinomial([chosen, total - chosen])


def log_sum_exp_list(values):
    # exactly rounded reference: max shift, then math.fsum over the list
    vals = [float(v) for v in values]
    if not vals or max(vals) == LOG_ZERO:
        return LOG_ZERO
    peak = max(vals)
    return peak + math.log(math.fsum(math.exp(v - peak) for v in vals if v != LOG_ZERO))


# --- log factorials through the kernel --------------------------------------


def test_log_factorial_trivial_values():
    assert kernel_log_factorial(1) == 0.0


def test_log_factorial_ten():
    # 10! = 3628800 by direct product
    assert kernel_log_factorial(10) == pytest.approx(math.log(3628800), abs=1e-13)
    assert kernel_log_factorial(10) == pytest.approx(15.104412573075516, abs=1e-12)


@pytest.mark.parametrize("n", [2, 5, 13, 20, 21, 40, 100, 500, 5000])
def test_log_factorial_matches_big_integer_oracle(n):
    assert kernel_log_factorial(n) == pytest.approx(math.log(math.factorial(n)), rel=1e-12)


# --- log binomials through the kernel ---------------------------------------


def test_log_binomial_edges():
    assert kernel_log_binomial(7, 0) == pytest.approx(0.0, abs=1e-12)
    assert kernel_log_binomial(7, 7) == pytest.approx(0.0, abs=1e-12)
    assert kernel_log_binomial(4, 2) == pytest.approx(math.log(6), abs=1e-12)


def test_log_binomial_large_matches_big_integer_oracle():
    assert kernel_log_binomial(100, 50) == pytest.approx(math.log(math.comb(100, 50)), rel=1e-12)


@given(total=st.integers(1, 500), chosen=st.integers(0, 500))
def test_log_binomial_symmetry_bitwise(total, chosen):
    # swapping two equal-probability levels permutes the weights bit for bit
    chosen = min(chosen, total)
    assert kernel_log_binomial(total, chosen) == kernel_log_binomial(total, total - chosen)


def test_pascal_recurrence_in_linear_domain():
    # W(N, n) = p W(N-1, n-1) + (1-p) W(N-1, n) for the two-level weights
    prob = 0.3
    state = SingleCopyState.from_alpha_probability(prob)
    previous = np.exp(decompose_two_level(state, 1).log_weights)
    for total in range(2, 61):
        current = np.exp(decompose_two_level(state, total).log_weights)
        for chosen in range(1, total):
            parts = prob * previous[chosen - 1] + (1.0 - prob) * previous[chosen]
            assert abs(current[chosen] - parts) <= 1e-9 * current[chosen]
        previous = current


# --- log multinomials through the kernel ------------------------------------


def test_log_multinomial_examples():
    assert kernel_log_multinomial([9]) == 0.0
    assert kernel_log_multinomial([2, 1, 1]) == pytest.approx(math.log(12), abs=1e-12)
    assert kernel_log_multinomial([3, 3]) == pytest.approx(math.log(20), abs=1e-12)


def test_log_multinomial_matches_big_integer_oracle_everywhere():
    # every composition of every 1 <= N <= 30 into at most 4 parts, one kernel
    # call per (N, parts) over all of its compositions
    for parts in range(1, 5):
        prob = 1.0 / parts
        for total in range(1, 31):
            rows = np.array(list(compositions_oracle(total, parts)), dtype=np.int64)
            weights = occupancy_log_weights(
                total, [rows[:, i] for i in range(parts)], [prob] * parts
            )
            for counts, weight in zip(rows.tolist(), weights.tolist()):
                exact = math.factorial(total)
                for c in counts:
                    exact //= math.factorial(c)
                assert weight - total * math.log(prob) == pytest.approx(
                    math.log(exact), rel=1e-12, abs=1e-12
                )


# --- log_sum_exp_array ------------------------------------------------------


def test_log_sum_exp_empty_and_all_zero():
    assert log_sum_exp_array(np.array([])) == LOG_ZERO
    assert log_sum_exp_array(np.array([LOG_ZERO, LOG_ZERO])) == LOG_ZERO


def test_log_sum_exp_halves():
    assert abs(log_sum_exp_array(np.log(np.array([0.5, 0.5])))) <= 1e-15


def test_log_sum_exp_uniform_thousand():
    values = np.full(1000, math.log(0.001))
    assert abs(log_sum_exp_array(values)) <= 1e-12


def test_log_sum_exp_ignores_zero_sentinel():
    assert log_sum_exp_array(np.array([0.0, LOG_ZERO])) == 0.0


def test_log_sum_exp_array_agrees_with_list_version():
    values = [math.log(w) for w in (0.1, 0.2, 0.3, 0.4)]
    assert log_sum_exp_array(np.array(values)) == pytest.approx(log_sum_exp_list(values), abs=1e-14)
    weights = np.log(np.random.default_rng(7).random(1000))
    assert log_sum_exp_array(weights) == pytest.approx(log_sum_exp_list(weights), abs=1e-14)


# --- zero sentinel algebra --------------------------------------------------


def test_zero_sentinel_absorbs_and_exponentiates_to_zero():
    assert LOG_ZERO + 3.5 == LOG_ZERO
    assert math.exp(LOG_ZERO) == 0.0


# --- deviance kernel vs the literal log-binomial route ----------------------


@pytest.mark.parametrize("prob", [0.1, 0.3, 0.5, 0.9])
@pytest.mark.parametrize("total", [1, 5, 50, 400])
def test_occupancy_weights_match_log_binomial_route(total, prob):
    ns = np.arange(total + 1, dtype=np.int64)
    kernel = occupancy_log_weights(total, [ns, total - ns], [prob, 1.0 - prob])
    for n in range(total + 1):
        literal = (
            math.log(math.comb(total, n)) + n * math.log(prob) + (total - n) * math.log(1.0 - prob)
        )
        assert kernel[n] == pytest.approx(literal, abs=1e-9)


def test_occupancy_weights_zero_probability_levels_use_sentinel():
    ns = np.arange(4, dtype=np.int64)
    weights = occupancy_log_weights(3, [ns, 3 - ns], [0.0, 1.0])
    assert weights[0] == 0.0
    assert all(w == LOG_ZERO for w in weights[1:])


# --- per-count tables vs the per-sector formula -----------------------------


def per_sector_log_weights(total, level_counts, level_probs):
    # the kernel's formula evaluated once per sector: deviance terms on
    # occupied counts, the expected count on empty levels, and the sentinel
    # wherever a zero-probability level is occupied
    ntot = np.array([float(total)])
    base = float((_stirlerr(ntot) + _bd0(ntot, float(total)) + 0.5 * np.log(2.0 * np.pi * ntot))[0])
    subtrahend = np.zeros(level_counts[0].shape[0])
    dead = np.zeros(subtrahend.shape, dtype=bool)
    for counts, prob in zip(level_counts, level_probs):
        occupied = counts > 0
        if prob == 0.0:
            dead |= occupied
            continue
        center = float(total) * float(prob)
        nf = counts[occupied].astype(np.float64)
        contribution = np.full(subtrahend.shape, center)
        contribution[occupied] = _stirlerr(nf) + _bd0(nf, center) + 0.5 * np.log(2.0 * np.pi * nf)
        subtrahend += contribution
    out = base - subtrahend
    out[dead] = LOG_ZERO
    return out


@pytest.mark.parametrize("prob", [0.3, 0.0, -0.0, 1.0, 1e-320])
@pytest.mark.parametrize("total", [1, 20, 21, 22, 1000])
def test_two_level_tables_match_per_sector_formula_bitwise(total, prob):
    ns = np.arange(total + 1, dtype=np.int64)
    columns, probs = [ns, total - ns], [prob, 1.0 - prob]
    kernel = occupancy_log_weights(total, columns, probs)
    assert kernel.tobytes() == per_sector_log_weights(total, columns, probs).tobytes()


@pytest.mark.parametrize(
    "probs", [[0.36, 0.0, 0.64], [0.2, 0.0, 0.3, 0.5], [0.0, 0.5, 0.0, 0.5], [1e-320, 0.5, 0.5]]
)
@pytest.mark.parametrize("total", [1, 7, 25])
def test_multilevel_tables_match_per_sector_formula_bitwise(total, probs):
    columns = compositions(total, len(probs)).T
    kernel = occupancy_log_weights(total, columns, probs)
    assert kernel.tobytes() == per_sector_log_weights(total, columns, probs).tobytes()
