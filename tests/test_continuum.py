"""Unit tests for the grid-wavefunction region reduction."""

import math

import numpy as np
import pytest

from freqborn.continuum import (
    GridWavefunction,
    Region,
    read_wavefunction_csv,
    region_frequency_analysis,
    region_probability,
)
from freqborn.decomposition import SingleCopyState, decompose_two_level
from freqborn.errors import NormalizationError


def box_wavefunction(spacing=0.001):
    # constant density 1 on [0, 1)
    count = round(1.0 / spacing)
    return GridWavefunction(0.0, spacing, np.ones(count))


def gaussian_wavefunction(spacing=0.01, half_width=8.0):
    # |psi|^2 is the standard normal density; x = 0 lies on the grid
    count = int(round(2 * half_width / spacing))
    x = -half_width + spacing * np.arange(count)
    samples = (2.0 * math.pi) ** -0.25 * np.exp(-x * x / 4.0)
    return GridWavefunction(-half_width, spacing, samples, renormalize=True)


# --- GridWavefunction ------------------------------------------------------------


def test_wavefunction_validates_norm():
    with pytest.raises(NormalizationError):
        GridWavefunction(0.0, 0.001, np.full(500, 1.0))


def test_wavefunction_renormalizes_on_request():
    psi = GridWavefunction(0.0, 0.001, np.full(500, 1.0), renormalize=True)
    assert region_probability(psi, Region(((-1.0, 2.0),))) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(NormalizationError, match="inf"):
        GridWavefunction(0.0, 0.001, np.full(500, 1e200), renormalize=True)


def test_wavefunction_validates_inputs():
    with pytest.raises(ValueError):
        GridWavefunction(0.0, -0.1, np.ones(10))
    with pytest.raises(ValueError):
        GridWavefunction(0.0, 0.1, np.array([]))
    with pytest.raises(ValueError, match="finite"):
        GridWavefunction(0.0, 0.5, [1.0, float("nan")])
    with pytest.raises(ValueError, match="finite"):
        GridWavefunction(0.0, 0.5, [1.0, complex(0.0, float("inf"))], renormalize=True)


# --- Region -----------------------------------------------------------------------


def test_region_rejects_overlap_and_disorder():
    with pytest.raises(ValueError):
        Region(((0.0, 1.0), (0.5, 2.0)))
    with pytest.raises(ValueError):
        Region(((1.0, 2.0), (0.0, 0.5)))
    with pytest.raises(ValueError):
        Region(((1.0, 1.0),))


def test_region_parse_and_membership():
    region = Region.parse("0:0.25,0.5:0.75")
    x = np.array([-0.1, 0.0, 0.2, 0.25, 0.4, 0.5, 0.74, 0.75])
    assert region.membership(x).tolist() == [False, True, True, False, False, True, True, False]


def test_region_parse_infinite_bound():
    region = Region.parse("0:inf")
    assert region.membership(np.array([-1.0, 0.0, 1e9])).tolist() == [False, True, True]


def test_region_parse_empty_text_is_the_empty_region():
    assert Region.parse("") == Region(())
    assert Region.parse("  ").intervals == ()


def test_region_parse_rejects_garbage():
    with pytest.raises(ValueError):
        Region.parse("0-1")
    with pytest.raises(ValueError):
        Region.parse("a:b")


# --- region_probability -------------------------------------------------------------


def test_region_probability_whole_grid():
    psi = box_wavefunction()
    assert region_probability(psi, Region(((-1.0, 2.0),))) == pytest.approx(1.0, abs=1e-6)


def test_region_probability_empty_region():
    assert region_probability(box_wavefunction(), Region(())) == 0.0


def test_region_probability_quarter_box():
    spacing = 0.001
    psi = box_wavefunction(spacing)
    value = region_probability(psi, Region.parse("0:0.25"))
    assert abs(value - 0.25) <= spacing


def test_region_probability_complementarity():
    psi = gaussian_wavefunction()
    region = Region.parse("-0.37:1.23")
    complement = Region(((-math.inf, -0.37), (1.23, math.inf)))
    total = region_probability(psi, region) + region_probability(psi, complement)
    assert abs(total - 1.0) <= 1e-9


def test_region_probability_refinement_stability():
    coarse = gaussian_wavefunction(spacing=0.02)
    fine = gaussian_wavefunction(spacing=0.01)
    region = Region.parse("0:8")
    difference = abs(region_probability(coarse, region) - region_probability(fine, region))
    assert difference <= 0.02


# --- CSV interface --------------------------------------------------------------------


def write_csv(path, rows, header="x,re,im"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")


def test_csv_round_trip(tmp_path):
    psi = box_wavefunction(0.01)
    path = tmp_path / "psi.csv"
    rows = [f"{k * 0.01},1.0,0.0" for k in range(100)]
    write_csv(path, rows)
    loaded = read_wavefunction_csv(str(path))
    assert loaded.spacing == pytest.approx(0.01, rel=1e-12)
    assert np.allclose(loaded.samples, psi.samples)


def test_csv_rejects_nonuniform_grid(tmp_path):
    path = tmp_path / "psi.csv"
    xs = [k * 0.01 for k in range(100)]
    xs[50] += 1e-4
    write_csv(path, [f"{x},1.0,0.0" for x in xs])
    with pytest.raises(ValueError, match="uniform"):
        read_wavefunction_csv(str(path))


def test_csv_rejects_decreasing_grid(tmp_path):
    path = tmp_path / "psi.csv"
    write_csv(path, ["0.2,1.0,0.0", "0.1,1.0,0.0", "0.0,1.0,0.0"])
    with pytest.raises(ValueError, match="grid is not increasing"):
        read_wavefunction_csv(str(path))


def test_csv_rejects_comment_only_file(tmp_path):
    path = tmp_path / "psi.csv"
    path.write_text("# a comment\n\n# another\n")
    with pytest.raises(ValueError, match="empty wavefunction file"):
        read_wavefunction_csv(str(path))


def test_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "psi.csv"
    write_csv(path, ["0.0,1.0,0.0", "0.1,1.0,0.0", "0.2,1.0,0.0"], header="x,real,imag")
    with pytest.raises(ValueError, match="header"):
        read_wavefunction_csv(str(path))


def test_csv_rejects_non_numeric_cells(tmp_path):
    path = tmp_path / "psi.csv"
    write_csv(path, ["0.0,1.0,0.0", "0.1,oops,0.0", "0.2,1.0,0.0"])
    with pytest.raises(ValueError, match="non-numeric"):
        read_wavefunction_csv(str(path))


def test_csv_rejects_ragged_rows(tmp_path):
    path = tmp_path / "psi.csv"
    write_csv(path, ["0.0,1.0,0.0", "0.1,1.0,0.0,0.0", "0.2,1.0,0.0"])
    with pytest.raises(ValueError, match="three columns"):
        read_wavefunction_csv(str(path))


def test_csv_norm_failure_and_renormalize(tmp_path):
    path = tmp_path / "psi.csv"
    write_csv(path, [f"{k * 0.01},2.0,0.0" for k in range(100)])
    with pytest.raises(NormalizationError):
        read_wavefunction_csv(str(path))
    psi = read_wavefunction_csv(str(path), renormalize=True)
    assert region_probability(psi, Region.parse("-1:2")) == pytest.approx(1.0, abs=1e-12)
    write_csv(path, [f"{k * 0.01},1e200,0.0" for k in range(100)])
    with pytest.raises(NormalizationError, match="inf"):
        read_wavefunction_csv(str(path), renormalize=True)


# --- projector weights ------------------------------------------------------------------


def projector_weights(a_sq, copies):
    # linear N-copy weights of the projector onto a region holding a_sq of a
    # four-point box wavefunction (a_sq a multiple of 1/4, so the region mass is exact)
    psi = GridWavefunction(0.0, 1.0, np.full(4, 0.5))
    region = Region.parse(f"0:{4 * a_sq}") if a_sq > 0.0 else Region(())
    state = SingleCopyState.from_alpha_probability(region_probability(psi, region))
    return np.exp(decompose_two_level(state, copies).log_weights)


def test_projector_weight_quarter_example():
    # 4 * 0.25 * 0.75^3 = 0.421875, cross-checked by enumerating 2^4 sequences
    assert projector_weights(0.25, 4)[1] == pytest.approx(0.421875, abs=1e-12)


def test_projector_weight_degenerate():
    assert projector_weights(0.0, 7)[0] == 1.0
    assert projector_weights(0.0, 7)[3] == 0.0
    assert projector_weights(1.0, 7)[7] == 1.0


def test_projector_weight_domain_errors():
    with pytest.raises(ValueError):
        SingleCopyState.from_alpha_probability(1.5)


@pytest.mark.parametrize("a_sq", [0.25, 0.5])
@pytest.mark.parametrize("copies", [10, 100, 1000])
def test_projector_weight_equals_two_level_weight(a_sq, copies):
    decomp = decompose_two_level(SingleCopyState.from_alpha_probability(a_sq), copies)
    expected = np.exp(decomp.log_weights)
    weights = projector_weights(a_sq, copies)
    for n in range(0, copies + 1, max(1, copies // 25)):
        assert abs(weights[n] - expected[n]) <= 1e-12


@pytest.mark.parametrize("a_sq", [0.0, 0.25, 0.5, 1.0])
@pytest.mark.parametrize("copies", [10, 1000, 10**5])
def test_projector_weights_sum_to_one(a_sq, copies):
    assert abs(projector_weights(a_sq, copies).sum() - 1.0) <= 1e-10


# --- full pipeline ------------------------------------------------------------------------


def test_gaussian_half_line_reduces_to_balanced_two_level():
    spacing = 0.01
    psi = gaussian_wavefunction(spacing=spacing)
    region = Region.parse("0:inf")
    a_sq = region_probability(psi, region)
    assert abs(a_sq - 0.5) <= 10 * spacing
    report, window = region_frequency_analysis(psi, region, 10**4, 0.05)
    assert window.r0 == a_sq
    assert window.mass_outside <= window.chebyshev_bound + 1e-12


def test_whole_line_region_is_deterministic():
    psi = gaussian_wavefunction()
    report, window = region_frequency_analysis(psi, Region.parse("-inf:inf"), 100, 0.1)
    assert window.r0 == 1.0
    assert report.mean == 1.0
    assert report.variance == 0.0
    assert window.mass_outside == 0.0


def test_box_quarter_region_window_bound():
    psi = box_wavefunction()
    report, window = region_frequency_analysis(psi, Region.parse("0:0.25"), 10**4, 0.05)
    assert window.chebyshev_bound <= 0.0076
    assert window.mass_outside <= window.chebyshev_bound
