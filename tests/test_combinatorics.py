"""Unit tests for the log-domain combinatorial kernel."""

import hashlib
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy._core._multiarray_umath import __cpu_features__

from freqborn.combinatorics import LOG_ZERO, _bd0, _stirlerr, occupancy_log_weights
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
    previous = decompose_two_level(state, 1).weights
    for total in range(2, 61):
        current = decompose_two_level(state, total).weights
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


# --- kernel vs exact rational weights ---------------------------------------


def exact_weights(total, rows, probs):
    # N!/prod n_i! * prod q_i^{n_i} with q_i = Fraction(p_i) / sum_j Fraction(p_j).
    # Over a common denominator q_i = ints[i] / sum(ints), so each weight is
    # one integer ratio, and int / int rounds it correctly to a double.
    fracs = [Fraction(p) for p in probs]
    scale = math.lcm(*(f.denominator for f in fracs))
    ints = [int(f * scale) for f in fracs]
    denominator = sum(ints) ** total
    weights = []
    for counts in rows:
        multinomial = math.factorial(total) // math.prod(math.factorial(n) for n in counts)
        weights.append(multinomial * math.prod(m**n for m, n in zip(ints, counts)) / denominator)
    return weights


def test_kernel_matches_exact_rational_weights():
    # random states with up to four levels, Dirichlet(1/2) probabilities and
    # sometimes a zero level, N <= 3000; sectors drawn around the bulk
    # (multinomial at the state) and into the tails (multinomial at uniform)
    rng = np.random.default_rng(9)
    checked = dead = 0
    for _ in range(50):
        m = int(rng.integers(2, 5))
        probs = rng.dirichlet(np.full(m, 0.5))
        if m > 2 and rng.random() < 0.5:
            probs[rng.integers(m)] = 0.0
        probs = (probs / probs.sum()).tolist()
        total = int(rng.integers(1, 3001))
        rows = np.concatenate(
            [rng.multinomial(total, probs, size=6), rng.multinomial(total, np.full(m, 1.0 / m), size=2)]
        )
        log_weights = occupancy_log_weights(total, rows.T, probs).tolist()
        rows = rows.tolist()
        for counts, log_weight, exact in zip(rows, log_weights, exact_weights(total, rows, probs)):
            if any(n > 0 and p == 0.0 for n, p in zip(counts, probs)):
                assert log_weight == LOG_ZERO
                dead += 1
                continue
            assert log_weight > LOG_ZERO
            weight = math.exp(log_weight)
            if min(exact, weight) >= sys.float_info.min:
                assert abs(weight - exact) <= 2e-12 * exact, (total, probs, counts)
                checked += 1
    # both outcomes occur on this seed: 342 weights compared, 36 sentinels
    assert checked >= 300 and dead >= 30


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


# --- count sub-ranges -------------------------------------------------------


@pytest.mark.parametrize(
    "prob, total, lo, hi",
    [
        (0.3, 40, 0, 12),  # from count 0
        (0.3, 40, 10, 30),  # both levels cross the Stirling table edge at 21
        (0.3, 21, 1, 20),
        (0.3, 2000, 480, 500),  # level 0 crosses near/far at 600 * 9/11
        (0.3, 2000, 725, 740),  # level 0 crosses near/far at 600 * 11/9
        (0.3, 2000, 280, 300),  # level 1 crosses near/far at 2000 - 1400 * 11/9
        (0.05, 200000, 8100, 8300),
        (0.0, 22, 0, 3),
        (1.0, 22, 19, 22),
        (1e-320, 1000, 0, 1000),
    ],
)
def test_kernel_on_a_count_range_matches_the_full_table_bitwise(prob, total, lo, hi):
    ns = np.arange(total + 1)
    probs = [prob, 1.0 - prob]
    full = occupancy_log_weights(total, [ns, total - ns], probs)
    sub = np.arange(lo, hi + 1)
    assert occupancy_log_weights(total, [sub, total - sub], probs).tobytes() == full[lo : hi + 1].tobytes()
    for n in (lo, hi):
        single = np.array([n])
        assert occupancy_log_weights(total, [single, total - single], probs).tobytes() == full[n : n + 1].tobytes()


@pytest.mark.parametrize("probs", [[0.36, 0.0, 0.64], [0.2, 0.3, 0.5]])
def test_kernel_on_a_multilevel_row_subset_matches_the_full_table_bitwise(probs):
    counts = compositions(40, len(probs))
    full = occupancy_log_weights(40, counts.T, probs)
    rows = (counts[:, 0] >= 15) & (counts[:, 0] <= 30) & (counts[:, 1] >= 5)
    assert occupancy_log_weights(40, counts[rows].T, probs).tobytes() == full[rows].tobytes()


# --- recorded kernel bits ---------------------------------------------------

# SHA-256 of occupancy_log_weights(...).tobytes(), recorded from a known-good
# build.  The totals straddle the Stirling table edge at 21, and the count
# ranges cross the deviance's near/far boundary at |n - Np| = 0.1 (n + Np).
# Re-record a hash only when the kernel's bits are meant to change, and say
# so in the change log.
#
# numpy's exp and log loops with AVX-512 round some entries differently from
# its other loops, so the two N = 200,000 cases at p = 0.3 and 0.05 carry one
# hash per path, chosen by the path numpy reports it runs on.
AVX512 = __cpu_features__["AVX512_SKX"]

TWO_LEVEL_KERNEL_BITS = [
    (0.3, 1, "b267ed85ea25e5608ffdc7887ec27bbc19cc7cfcedb30f0c0b06a29b6bb2cb7c"),
    (0.3, 20, "8b58063986e5e258c812a1e6bfc2da9d714f18e23205859f374e691c622d63db"),
    (0.3, 21, "584427be58201c08460423e46c0c50f9568b64af22933b76ef940ef10b43bfa4"),
    (0.3, 22, "8e361735fa3ffdad63948f9cef7aec821d5b48857f0b95ee9da82abce843458f"),
    (0.3, 1000, "4a3c4d89898929ecc7f6fd2e828068cde312c6bbd9ee7a8c7b0880ce40df86da"),
    (0.3, 200000, "d174b9615d1d82296286f8af79353c98350905df75e7396576f8e98850ede444" if AVX512
     else "2af6491254f7a15cafd80701b29730aed71018f8141f412c94cf971158e6c353"),
    (0.05, 1, "a377e371ac851641e7ab49dcc63a324ee25e781f293df04e30588ef3cb236e8e"),
    (0.05, 20, "cad138b0279b00848d2734a06638ace9cd8ffe06d7a03316c6f00994ac73af67"),
    (0.05, 21, "ef1d66443458ed5840d324c47f5f9eeff8e170604ca6c7a7f785281741911229"),
    (0.05, 22, "1316cbbfec8544267094d1303dac50700a3f60c912355b6d2e011c739769fa99"),
    (0.05, 1000, "3de5b49e0c786ea90c00b8fc9dbb363329016404109a220d3e8f4c6fcd175183"),
    (0.05, 200000, "e89789ccfaafaae8dbb78cf536deda3e494dc274fa27ca9b9dda68894b6831f0" if AVX512
     else "0ac0d0efca2fea40b9c8a3f6928c02aa5841df594111026967dd094ac3c0734c"),
    (0.0, 1, "38e55d56cbd825451cf44bd884b2ded4f5bda1e38522dbae360e22967259e56a"),
    (0.0, 20, "fc6b5a165def416c08a2e2f13d32c14fb752f7498c751315aa6a7c0b29732fec"),
    (0.0, 21, "b4f547f3275fab13341554f207c70701aec88d5d7a3921af94f7ffec33ad8a21"),
    (0.0, 22, "95d32cdeaf8dc85375332558b009a8cf791e1387cd9e7cc2348a30c5ee5c9b28"),
    (0.0, 1000, "becd04ae7711419279741d5ddc1e5fea5136f39f587d0ff18e959aa66bd7b69f"),
    (0.0, 200000, "f7de5b66c15062fc4b730fbd57bb16173b85cf819e2afb46b15821a9068e5cf9"),
    (-0.0, 1, "38e55d56cbd825451cf44bd884b2ded4f5bda1e38522dbae360e22967259e56a"),
    (-0.0, 20, "fc6b5a165def416c08a2e2f13d32c14fb752f7498c751315aa6a7c0b29732fec"),
    (-0.0, 21, "b4f547f3275fab13341554f207c70701aec88d5d7a3921af94f7ffec33ad8a21"),
    (-0.0, 22, "95d32cdeaf8dc85375332558b009a8cf791e1387cd9e7cc2348a30c5ee5c9b28"),
    (-0.0, 1000, "becd04ae7711419279741d5ddc1e5fea5136f39f587d0ff18e959aa66bd7b69f"),
    (-0.0, 200000, "f7de5b66c15062fc4b730fbd57bb16173b85cf819e2afb46b15821a9068e5cf9"),
    (1.0, 1, "c23edcb2c59853bc31c78140bc3516bd75b99ad5ed37d061934f7085c1452819"),
    (1.0, 20, "4ce143d5564c382beebed464e6ad50f42f735a003015619dcec05f5edefb4ae1"),
    (1.0, 21, "7033fdb8cb9e4d4cc1e8ead36d9b46cc0a0e7fa917415befc8f367d637e18b08"),
    (1.0, 22, "1b7591d630782fc5cd8d5d307da0a40de212c00a948997aa0ad5dde25c3ff986"),
    (1.0, 1000, "b096cfca5d2ec463b8b2dcb5fe4a9f3b5957867e3e911bf53d3a77c1dccd8674"),
    (1.0, 200000, "7dc959ab49301eae2ad14375487b26a25e2e3dee16641ec7dab1bfcc3353afe2"),
    (1e-320, 1, "38e55d56cbd825451cf44bd884b2ded4f5bda1e38522dbae360e22967259e56a"),
    (1e-320, 20, "fc6b5a165def416c08a2e2f13d32c14fb752f7498c751315aa6a7c0b29732fec"),
    (1e-320, 21, "b4f547f3275fab13341554f207c70701aec88d5d7a3921af94f7ffec33ad8a21"),
    (1e-320, 22, "95d32cdeaf8dc85375332558b009a8cf791e1387cd9e7cc2348a30c5ee5c9b28"),
    (1e-320, 1000, "becd04ae7711419279741d5ddc1e5fea5136f39f587d0ff18e959aa66bd7b69f"),
    (1e-320, 200000, "f7de5b66c15062fc4b730fbd57bb16173b85cf819e2afb46b15821a9068e5cf9"),
]

MULTILEVEL_KERNEL_BITS = [
    ([0.36, 0.0, 0.64], 25, "7e2ad9f0ffa0656af372c98678980e31012444440777fea0ef221ebd8c9170ba"),
    ([0.2, 0.0, 0.3, 0.5], 60, "f908658513f928f2ec420b525adda9628317b7414d7312f1908e258ea2cfad96"),
    ([0.1] * 10, 5, "ce57f777d88d3af57f87b7a80b51a4cb19c0f0874ce336c83c84d4763401e698"),
]


@pytest.mark.parametrize(
    "prob,total,expected", [pytest.param(*case, id=f"p{case[0]!r}-N{case[1]}") for case in TWO_LEVEL_KERNEL_BITS]
)
def test_two_level_kernel_bits_match_recorded_hash(prob, total, expected):
    ns = np.arange(total + 1, dtype=np.int64)
    weights = occupancy_log_weights(total, [ns, total - ns], [prob, 1.0 - prob])
    assert hashlib.sha256(weights.tobytes()).hexdigest() == expected


@pytest.mark.parametrize(
    "probs,total,expected", [pytest.param(*case, id=f"M{len(case[0])}-N{case[1]}") for case in MULTILEVEL_KERNEL_BITS]
)
def test_multilevel_kernel_bits_match_recorded_hash(probs, total, expected):
    weights = occupancy_log_weights(total, compositions(total, len(probs)).T, probs)
    assert hashlib.sha256(weights.tobytes()).hexdigest() == expected
