"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import max_weight_deviation
from freqborn.cli import main as cli_main
from freqborn.concentration import (
    chebyshev_bound,
    check_localization,
    window_masses,
)
from freqborn.continuum import GridWavefunction, Region, region_probability
from freqborn.decomposition import (
    SingleCopyState,
    brute_force_decompose,
    decompose_multilevel,
    decompose_two_level,
    frequency_moments,
    total_mass,
)
from freqborn.finite_run import finite_run_distribution, outer_frequency_check

PROBABILITY_GRID = (0.1, 0.3, 0.5, 0.9)
COPY_GRID = (10, 10**3, 10**5, 10**6)


def report(number, label, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {number}: {label} ({detail})")
    assert passed, f"criterion {number}: {label} ({detail})"


def test_criterion_1_normalization_at_scale():
    start = time.perf_counter()
    worst = 0.0
    for prob in PROBABILITY_GRID:
        state = SingleCopyState.from_alpha_probability(prob)
        for copies in COPY_GRID:
            worst = max(worst, abs(total_mass(decompose_two_level(state, copies)) - 1.0))
    elapsed = time.perf_counter() - start
    report(
        1,
        "normalization",
        worst <= 1e-10 and elapsed < 5.0,
        f"max |mass-1| = {worst:.3e}, tolerance 1e-10, runtime {elapsed:.2f}s < 5s",
    )


def test_criterion_2_variance_identity():
    worst = 0.0
    for prob in PROBABILITY_GRID:
        state = SingleCopyState.from_alpha_probability(prob)
        for copies in COPY_GRID:
            measured = frequency_moments(decompose_two_level(state, copies)).variance
            predicted = prob * (1.0 - prob) / copies
            worst = max(worst, abs(measured - predicted) / predicted)
    multi_states = (
        SingleCopyState.from_probabilities([0.2, 0.3, 0.5]),
        SingleCopyState.from_probabilities([0.1, 0.2, 0.3, 0.4]),
    )
    for state in multi_states:
        for copies in (20, 97, 200):
            decomp = decompose_multilevel(state, copies)
            for level in range(state.num_levels):
                prob = float(state.level_probs[level])
                measured = frequency_moments(decomp, level).variance
                predicted = prob * (1.0 - prob) / copies
                worst = max(worst, abs(measured - predicted) / predicted)
    report(
        2,
        "variance identity",
        worst <= 1e-10,
        f"max relative deviation from p(1-p)/N = {worst:.3e}, tolerance 1e-10",
    )


def test_criterion_3_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for prob in (0.0, 0.3, 0.5, 1.0):
        state = SingleCopyState.from_alpha_probability(prob)
        for copies in range(1, 13):
            closed = decompose_two_level(state, copies)
            oracle = brute_force_decompose(state, copies)
            worst = max(worst, max_weight_deviation(closed, oracle))
    multi_cases = (
        (SingleCopyState.from_probabilities([0.2, 0.3, 0.5]), 9),
        (SingleCopyState.from_probabilities([0.1, 0.2, 0.3, 0.4]), 7),
    )
    for state, max_copies in multi_cases:
        for copies in range(1, max_copies + 1):
            closed = decompose_multilevel(state, copies)
            oracle = brute_force_decompose(state, copies)
            worst = max(worst, max_weight_deviation(closed, oracle))
    elapsed = time.perf_counter() - start
    report(
        3,
        "oracle equivalence",
        worst <= 1e-12 and elapsed < 60.0,
        f"max per-weight deviation = {worst:.3e}, tolerance 1e-12, runtime {elapsed:.2f}s < 60s",
    )


def test_criterion_4_chebyshev_dominance_and_decay():
    dominated = True
    decreasing = True
    worst_margin = -math.inf
    for prob in (0.1, 0.3, 0.5):
        state = SingleCopyState.from_alpha_probability(prob)
        for eps in (0.02, 0.05, 0.1):
            previous = None
            for copies in (10**2, 10**3, 10**4, 10**5):
                window = window_masses(decompose_two_level(state, copies), 0, prob, eps)
                outside = window.mass_outside
                dominated &= outside <= window.chebyshev_bound + 1e-12
                worst_margin = max(worst_margin, outside - window.chebyshev_bound)
                if previous is not None:
                    decreasing &= outside < previous
                previous = outside
    report(
        4,
        "tail bound dominance",
        dominated and decreasing,
        f"outside <= bound on all 36 cells (worst outside-bound = {worst_margin:.3e}), "
        "outside mass strictly decreasing along every decade sequence",
    )


def test_criterion_5_concrete_bound_value():
    bound = chebyshev_bound(0.5, 100, 0.1)
    window = window_masses(
        decompose_two_level(SingleCopyState.from_alpha_probability(0.5), 100), 0, 0.5, 0.1
    )
    exact = sum(Fraction(math.comb(100, n), 2**100) for n in range(101) if abs(n - 50) > 10)
    matches_exact = abs(window.mass_outside - float(exact)) <= 1e-12
    report(
        5,
        "concrete bound check",
        bound == 0.25 and window.mass_outside <= 0.25 and matches_exact,
        f"bound = {bound!r} (exactly 0.25), measured outside mass = {window.mass_outside:.6f} <= 0.25",
    )


def test_criterion_6_localization_verdicts():
    decomp = decompose_two_level(SingleCopyState.from_alpha_probability(0.3), 10**5)
    verdict = check_localization(
        decomp.level_counts(0) / 10**5, decomp.weights, eps=0.01, mass_tolerance=0.021
    )
    uniform = check_localization(np.arange(100) / 99, np.full(100, 0.01), eps=0.01, mass_tolerance=0.021)
    passed = (
        verdict.localized
        and abs(verdict.q0_estimate - 0.3) <= 0.01
        and verdict.residual_outside <= 0.021
        and not uniform.localized
    )
    report(
        6,
        "localization checker",
        passed,
        f"q0 = {verdict.q0_estimate:.5f} (within 0.01 of 0.3), residual = "
        f"{verdict.residual_outside:.3e} <= 0.021; uniform distribution not localized",
    )


def test_criterion_7_region_reduction_equivalence():
    worst = 0.0
    for a_sq in (Fraction(1, 4), Fraction(1, 2)):
        state = SingleCopyState.from_alpha_probability(float(a_sq))
        for copies in (10, 100, 1000):
            weights = decompose_two_level(state, copies).weights
            for n in range(copies + 1):
                exact = math.comb(copies, n) * a_sq**n * (1 - a_sq) ** (copies - n)
                worst = max(worst, abs(float(weights[n]) - float(exact)))
    spacing = 0.01
    count = int(round(16.0 / spacing))
    x = -8.0 + spacing * np.arange(count)
    psi = GridWavefunction(
        -8.0, spacing, (2.0 * math.pi) ** -0.25 * np.exp(-x * x / 4.0), renormalize=True
    )
    half_line = region_probability(psi, Region.parse("0:inf"))
    gaussian_ok = abs(half_line - 0.5) <= 10 * spacing
    report(
        7,
        "region reduction equivalence",
        worst <= 1e-12 and gaussian_ok,
        f"max two-level/exact rational deviation = {worst:.3e} (tolerance 1e-12); "
        f"Gaussian half-line mass = {half_line:.4f} within 10h of 0.5",
    )


def test_criterion_8_finite_run_reproduction():
    masses = finite_run_distribution(SingleCopyState.from_alpha_probability(0.3), 100)
    argmax = int(np.argmax(masses))
    # independent oracle: compare exact integers C(100,n) 3^n 7^(100-n)
    exact_argmax = max(
        range(101), key=lambda n: math.comb(100, n) * 3**n * 7 ** (100 - n)
    )
    mass_total = float(masses.sum())
    window = outer_frequency_check(masses, 10**4, 30, 0.05)
    passed = (
        argmax == 30
        and exact_argmax == 30
        and abs(mass_total - 1.0) <= 1e-10
        and window.mass_outside <= window.chebyshev_bound + 1e-12
    )
    report(
        8,
        "finite-run reproduction",
        passed,
        f"argmax = {argmax} (oracle {exact_argmax}), sum = 1{mass_total - 1.0:+.1e}, "
        f"outer outside mass {window.mass_outside:.3e} <= bound {window.chebyshev_bound:.3e}",
    )


def test_criterion_9_cli_determinism(tmp_path):
    runner = CliRunner()
    jobs = (
        ["decompose", "--a2", "0.3", "--n", "200"],
        ["decompose", "--a2", "0.3", "--n", "200", "--format", "json"],
        ["scan", "--a2", "0.5", "--eps", "0.05", "--ns", "100,1000,10000"],
        ["finite-run", "--a2", "0.3", "--n-inner", "100", "--observed", "30"],
        ["oracle-check", "--a2", "0.3", "--n", "10"],
    )
    identical = True
    for index, job in enumerate(jobs):
        first = tmp_path / f"first-{index}"
        second = tmp_path / f"second-{index}"
        assert runner.invoke(cli_main, job + ["--out", str(first)]).exit_code == 0
        assert runner.invoke(cli_main, job + ["--out", str(second)]).exit_code == 0
        identical &= first.read_bytes() == second.read_bytes()
    report(
        9,
        "CLI determinism",
        identical,
        f"{len(jobs)} command pairs produced byte-identical documents",
    )
