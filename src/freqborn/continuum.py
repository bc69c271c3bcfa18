"""One-dimensional grid wavefunctions reduced to region-occupancy statistics.

A sampled wavefunction plus a measurable region collapses to an effective
two-level system: the probability of finding a copy inside the region plays
the role of |a|^2, and the N-copy sector weights coincide with the two-level
decomposition.  Half-open intervals make region membership a partition.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .decomposition import (
    MomentReport,
    SingleCopyState,
    decompose_two_level,
    frequency_moments,
)
from .concentration import WindowMass, window_masses
from .errors import check_eps, unit_mass

GRID_NORM_TOLERANCE = 1e-6
UNIFORM_SPACING_RTOL = 1e-9


class GridWavefunction:
    """Complex samples psi(x_k) on the uniform grid x_k = origin + k * spacing.

    The left-point Riemann mass sum(density) * spacing, ``density`` being the
    read-only |psi(x_k)|^2, must be 1 within 1e-6, checked by
    :func:`~freqborn.errors.unit_mass`; with ``renormalize`` the samples are
    rescaled first, and samples whose mass overflows to inf or falls into
    subnormals are rejected with the total named.
    """

    __slots__ = ("origin", "spacing", "samples", "density")

    def __init__(
        self,
        origin: float,
        spacing: float,
        samples: Sequence[complex],
        renormalize: bool = False,
    ):
        spacing = float(spacing)
        if not spacing > 0.0:
            raise ValueError(f"spacing must be positive, got {spacing!r}")
        values = np.array(samples, dtype=np.complex128)
        if values.ndim != 1 or values.shape[0] == 0:
            raise ValueError("need a one-dimensional, nonempty sample vector")
        if not np.all(np.isfinite(values)):
            raise ValueError("samples must be finite")
        values, density = unit_mass(values, spacing, GRID_NORM_TOLERANCE, renormalize, "grid mass")
        values.setflags(write=False)
        density.setflags(write=False)
        self.origin = float(origin)
        self.spacing = spacing
        self.samples = values
        self.density = density

    @property
    def size(self) -> int:
        return self.samples.shape[0]

    def grid(self) -> np.ndarray:
        return self.origin + self.spacing * np.arange(self.size)


@dataclass(frozen=True)
class Region:
    """Union of disjoint, sorted, half-open intervals [lo, hi)."""

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        previous_hi = None
        for lo, hi in self.intervals:
            if not lo < hi:
                raise ValueError(f"interval [{lo}, {hi}) is empty or reversed")
            if previous_hi is not None and lo < previous_hi:
                raise ValueError("intervals must be sorted and pairwise disjoint")
            previous_hi = hi

    @classmethod
    def parse(cls, text: str) -> "Region":
        """Parse 'lo:hi[,lo:hi...]'; 'inf'/'-inf' bounds are accepted."""
        text = text.strip()
        if not text:
            return cls(())
        intervals = []
        for part in text.split(","):
            pieces = part.split(":")
            if len(pieces) != 2:
                raise ValueError(f"malformed interval {part!r}, expected lo:hi")
            try:
                lo, hi = float(pieces[0]), float(pieces[1])
            except ValueError:
                raise ValueError(f"malformed interval bounds in {part!r}") from None
            intervals.append((lo, hi))
        return cls(tuple(intervals))

    def membership(self, x: np.ndarray) -> np.ndarray:
        mask = np.zeros(x.shape, dtype=bool)
        for lo, hi in self.intervals:
            mask |= (x >= lo) & (x < hi)
        return mask


def read_wavefunction_csv(path: str, renormalize: bool = False) -> GridWavefunction:
    """Load a wavefunction from a CSV file with header ``x,re,im``.

    The grid must be uniformly spaced within 1e-9 relative tolerance.
    """
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        rows = [row for row in reader if row and not row[0].lstrip().startswith("#")]
    if not rows:
        raise ValueError(f"{path}: empty wavefunction file")
    header = [cell.strip().lower() for cell in rows[0]]
    if header != ["x", "re", "im"]:
        raise ValueError(f"{path}: expected header x,re,im, got {rows[0]!r}")
    if len(rows) < 3:
        raise ValueError(f"{path}: need at least two sample rows")
    if any(len(row) != 3 for row in rows[1:]):
        raise ValueError(f"{path}: every row needs exactly three columns")
    try:
        data = np.array([[float(cell) for cell in row] for row in rows[1:]], dtype=np.float64)
    except ValueError:
        raise ValueError(f"{path}: non-numeric cell in wavefunction data") from None
    x = data[:, 0]
    spacing = (x[-1] - x[0]) / (len(x) - 1)
    if not spacing > 0.0:
        raise ValueError(f"{path}: grid is not increasing")
    if not np.max(np.abs(np.diff(x) - spacing)) <= UNIFORM_SPACING_RTOL * spacing:
        raise ValueError(f"{path}: grid spacing is not uniform within {UNIFORM_SPACING_RTOL} relative")
    samples = data[:, 1] + 1j * data[:, 2]
    return GridWavefunction(float(x[0]), float(spacing), samples, renormalize=renormalize)


def region_probability(psi: GridWavefunction, region: Region) -> float:
    """Left-point Riemann mass of |psi|^2 over the region's grid points.

    Clipped to [0, 1]; the complement region yields 1 minus this up to the
    grid normalization error.
    """
    mask = region.membership(psi.grid())
    mass = float(psi.density[mask].sum() * psi.spacing)
    return min(max(mass, 0.0), 1.0)


def region_frequency_analysis(
    psi: GridWavefunction, region: Region, num_copies: int, eps: float
) -> tuple[MomentReport, WindowMass]:
    """Full pipeline: region mass, effective two-level expansion, diagnostics.

    Returns the frequency moments of the inside-count and the window masses
    around r0 = region probability.
    """
    check_eps(eps)
    a_sq = region_probability(psi, region)
    state = SingleCopyState.from_alpha_probability(a_sq)
    decomp = decompose_two_level(state, num_copies)
    return frequency_moments(decomp, level=0), window_masses(decomp, 0, a_sq, eps)
