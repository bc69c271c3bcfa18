"""The banded two-level route against the dense route, bit for bit.

``two_level_weights`` runs the kernel only on a window around the counts
whose two-level weight is nonzero in floats and zero-fills the rest, so
every reduction over its weights must see the same arrays, and print the
same bits, as the dense ``decompose_two_level`` route.
"""

import dataclasses
import math

import numpy as np
import pytest

from freqborn import decomposition
from freqborn.concentration import convergence_scan, window_masses, window_masses_over
from freqborn.decomposition import (
    MAX_DECOMPOSITION_BYTES,
    SingleCopyState,
    decompose_two_level,
    frequency_moments,
    frequency_moments_over,
    two_level_weights,
)
from freqborn.errors import CapacityError
from freqborn.finite_run import surprise_index

# 2089/2090 straddle the N where 0.7^N underflows, so the p = 0.3 band's
# lower edge moves off 0 there; 20/21 straddle the Stirling table edge.
BAND_PROBS = [0.0, -0.0, 1e-320, 0.001, 0.05, 0.3, 0.5, 1.0]
BAND_COPIES = [1, 20, 21, 2089, 2090, 10**4, 10**5, 5 * 10**6]


def bits(report) -> bytes:
    return np.array(dataclasses.astuple(report), dtype=np.float64).tobytes()


@pytest.mark.parametrize("copies", BAND_COPIES)
@pytest.mark.parametrize("prob", BAND_PROBS)
def test_band_route_matches_dense_route_bitwise(prob, copies):
    state = SingleCopyState.from_alpha_probability(prob)
    dense = decompose_two_level(state, copies)
    dense_weights = np.exp(dense.log_weights)
    band = two_level_weights(state, copies)
    support = np.flatnonzero(band)
    assert np.array_equal(support, np.flatnonzero(dense_weights))
    assert band.tobytes() == dense_weights.tobytes()
    ns = np.arange(copies + 1)
    for level, counts in enumerate((ns, copies - ns)):
        level_prob = float(state.level_probs[level])
        for eps in (0.01, 3.0 / math.sqrt(copies)):
            assert bits(window_masses_over(counts, band, copies, level_prob, level_prob, eps)) == bits(
                window_masses(dense, level, level_prob, eps)
            )
        assert bits(frequency_moments_over(counts, band, copies, level_prob)) == bits(
            frequency_moments(dense, level)
        )
    for observed in {0, int(support[0]), int(np.argmax(band)), int(support[-1]), copies}:
        assert surprise_index(band, observed).hex() == surprise_index(dense_weights, observed).hex()


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


def test_band_weights_are_read_only():
    weights = two_level_weights(SingleCopyState.from_alpha_probability(0.3), 10)
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
    for route in (decompose_two_level, two_level_weights):
        with pytest.raises(error) as raised:
            route(state, copies)
        assert str(raised.value) == message
