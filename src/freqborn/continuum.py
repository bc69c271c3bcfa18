"""One-dimensional grid wavefunctions reduced to region-occupancy statistics.

A sampled wavefunction plus a measurable region collapses to an effective
two-level system: the probability of finding a copy inside the region plays
the role of |a|^2, and the N-copy sector weights coincide with the two-level
decomposition.  Half-open intervals make region membership a partition.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from .decomposition import MomentReport, SingleCopyState, frequency_moments, two_level_band
from .concentration import WindowMass, window_masses
from .errors import NormalizationError, check_eps, exact_sum, unit_mass

GRID_NORM_TOLERANCE = 1e-6
UNIFORM_SPACING_RTOL = 1e-9

# the lines that csv reads as an empty row
_BLANK_LINES = frozenset(("\n", "\r\n", "\r"))
# where csv.reader plus float() may read a file otherwise than numpy's parser: a quote, NUL
# (a csv error before Python 3.11) and the separators numpy strips as spaces and float() rejects
_CSV_ONLY = '"\0\x1c\x1d\x1e\x1f'


class GridWavefunction:
    """Complex samples psi(x_k) on the uniform grid x_k = origin + k * spacing.

    ``origin`` must be finite and ``spacing`` positive and finite.

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
        origin, spacing = float(origin), float(spacing)
        if not math.isfinite(origin):
            raise ValueError(f"origin must be finite, got {origin!r}")
        if not 0.0 < spacing < math.inf:
            raise ValueError(f"spacing must be positive and finite, got {spacing!r}")
        values = np.array(samples, dtype=np.complex128)
        if values.ndim != 1 or values.shape[0] == 0:
            raise ValueError("need a one-dimensional, nonempty sample vector")
        if not np.all(np.isfinite(values)):
            raise ValueError("samples must be finite")
        values, density = unit_mass(values, spacing, GRID_NORM_TOLERANCE, renormalize, "grid mass")
        values.setflags(write=False)
        density.setflags(write=False)
        self.origin = origin
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


def _loadtxt_samples(lines: list[str]) -> np.ndarray | None:
    """The ``(rows, 3)`` samples of ``lines`` from one ``np.loadtxt`` call, or None.

    Without a quote, NUL or ``\\x1c``-``\\x1f`` and without a line past csv's
    field limit, csv splits each line at its commas, and wherever numpy's parser
    reads a cell, ``float()`` reads the same double.  So where this parse
    succeeds, it reads what :func:`_csv_samples` reads; None means only that it
    failed or did not apply.
    """
    text = "".join(lines)
    if any(ch in text for ch in _CSV_ONLY) or max(map(len, lines), default=0) > csv.field_size_limit():
        return None
    rows = [
        line
        for line in lines
        if line not in _BLANK_LINES and ("#" not in line or not line.lstrip().startswith("#"))
    ]
    if len(rows) < 3 or [cell.strip().lower() for cell in rows[0].split(",")] != ["x", "re", "im"]:
        return None
    try:
        data = np.loadtxt(rows[1:], np.float64, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    return data if data.shape == (len(rows) - 1, 3) else None


def _csv_samples(path: str, lines: list[str]) -> np.ndarray:
    """The ``(rows, 3)`` samples that ``csv.reader`` plus one ``float()`` per cell read from ``lines``.

    Each failure raises ``ValueError`` with the reader's message, csv's own
    errors (such as a cell past its field limit) included.
    """
    try:
        rows = [row for row in csv.reader(lines) if row and not row[0].lstrip().startswith("#")]
    except csv.Error as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: empty wavefunction file")
    if [cell.strip().lower() for cell in rows[0]] != ["x", "re", "im"]:
        raise ValueError(f"{path}: expected header x,re,im, got {rows[0]!r}")
    if len(rows) < 3:
        raise ValueError(f"{path}: need at least two sample rows")
    body = rows[1:]
    if any(len(row) != 3 for row in body):
        raise ValueError(f"{path}: every row needs exactly three columns")
    try:
        cells = np.fromiter(map(float, chain.from_iterable(body)), np.float64, 3 * len(body))
    except ValueError:
        raise ValueError(f"{path}: non-numeric cell in wavefunction data") from None
    return cells.reshape(-1, 3)


def read_wavefunction_csv(path: str, renormalize: bool = False) -> GridWavefunction:
    """Load a wavefunction from a CSV file with header ``x,re,im``.

    The file means what ``csv.reader`` plus one ``float()`` per cell read from
    it: rows whose first cell starts with ``#`` after spaces, and empty rows,
    are skipped, and each message is theirs.  A file that holds no quote, NUL
    or ``\\x1c``-``\\x1f`` and no line past csv's field limit is parsed with one
    ``np.loadtxt`` call (:func:`_loadtxt_samples`); every other file, and every
    file whose header or parse fails there, is read by :func:`_csv_samples`.
    The grid coordinates must be finite and uniformly spaced within 1e-9
    relative tolerance.  Finite coordinates whose span overflows the float
    range raise ``NormalizationError``.
    """
    with open(path, newline="") as handle:
        # the lines that iterating the file for csv.reader gives, decoded in the same chunks
        lines = handle.readlines()
    data = _loadtxt_samples(lines)
    if data is None:
        data = _csv_samples(path, lines)
    x = data[:, 0]
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{path}: grid coordinates must be finite")
    # in Python floats, so a span beyond the float range is inf without a warning
    spacing = (float(x[-1]) - float(x[0])) / (len(x) - 1)
    if not spacing > 0.0:
        raise ValueError(f"{path}: grid is not increasing")
    if spacing == math.inf:
        # a mass failure, not a bad argument: each cell of the finite grid is infinitely wide
        raise NormalizationError(f"{path}: the grid span overflows, so the total grid mass is inf")
    if not np.max(np.abs(np.diff(x) - spacing)) <= UNIFORM_SPACING_RTOL * spacing:
        raise ValueError(f"{path}: grid spacing is not uniform within {UNIFORM_SPACING_RTOL} relative")
    # a non-finite sample is GridWavefunction's to reject, without numpy's warning for 1j * inf
    with np.errstate(invalid="ignore"):
        samples = data[:, 1] + 1j * data[:, 2]
    return GridWavefunction(float(x[0]), spacing, samples, renormalize=renormalize)


def region_probability(psi: GridWavefunction, region: Region) -> float:
    """Left-point Riemann mass of |psi|^2 over the region's grid points.

    Clipped to [0, 1]; the complement region yields 1 minus this up to the
    grid normalization error.
    """
    mask = region.membership(psi.grid())
    mass = exact_sum(psi.density[mask]) * psi.spacing
    return min(max(mass, 0.0), 1.0)


def region_frequency_analysis(
    psi: GridWavefunction, region: Region, num_copies: int, eps: float
) -> tuple[MomentReport, WindowMass]:
    """Full pipeline: region mass, effective two-level expansion, diagnostics.

    Returns the frequency moments of the inside-count and the window masses
    around r0 = region probability, both reduced over the two-level band only.
    """
    check_eps(eps)
    a_sq = region_probability(psi, region)
    state = SingleCopyState.from_alpha_probability(a_sq)
    band = two_level_band(state, num_copies)
    return frequency_moments(band), window_masses(band, 0, a_sq, eps)
