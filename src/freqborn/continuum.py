"""One-dimensional grid wavefunctions reduced to region-occupancy statistics.

A sampled wavefunction plus a measurable region collapses to an effective
two-level system: the probability of finding a copy inside the region plays
the role of |a|^2, and the N-copy sector weights coincide with the two-level
decomposition.  Half-open intervals make region membership a partition.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .decomposition import MomentReport, SingleCopyState, frequency_moments, two_level_band
from .concentration import WindowMass, window_masses
from .errors import NormalizationError, check_eps, exact_sum, unit_mass

GRID_NORM_TOLERANCE = 1e-6
UNIFORM_SPACING_RTOL = 1e-9

# the lines that csv reads as an empty row
_BLANK_LINES = frozenset(("\n", "\r\n", "\r"))
# a PEP 515 underscore, which float() drops and numpy's parser rejects
_DIGIT_UNDERSCORE = re.compile("(?<=[0-9])_(?=[0-9])")
# ASCII characters that numpy's parser strips as spaces and float() does not
_ASCII_SEPARATORS = "\x1c\x1d\x1e\x1f"


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


def _csv_rows(path: str, lines: list[str]) -> list[list[str]]:
    """csv's rows for ``lines``, each of which must close every quoted cell it opens.

    csv lets an open quoted cell run on into the next lines, or to the end of
    the file; this reader reads the file line by line, so it rejects that.
    """
    rows = list(csv.reader([*lines, ""]))
    if len(rows) != len(lines) + 1:
        raise ValueError(f"{path}: a quoted cell does not close on its line")
    return rows[:-1]


def _is_comment(path: str, line: str) -> bool:
    """Whether csv reads ``line`` as a row whose first cell starts with ``#`` after spaces."""
    if '"' in line:
        return _csv_rows(path, [line])[0][0].lstrip().startswith("#")
    return line.lstrip().startswith("#")


def _in_ascii_float_grammar(lines: list[str]) -> list[str]:
    """``lines`` rewritten so that numpy's parser reads each cell as ``float()`` does.

    Non-ASCII decimal digits become ASCII ones, and the ASCII separators
    ``\\x1c``-``\\x1f``, which ``float()`` rejects and numpy strips, become ``?``.
    Then PEP 515 underscores (one between two digits) are dropped; any other
    underscore stays, and fails to parse as it fails in ``float()``.
    """
    text = "".join(lines)
    if not text.isascii() or any(ch in text for ch in _ASCII_SEPARATORS):
        table = {ord(ch): str(int(ch)) for ch in set(text) if ch.isdecimal() and not ch.isascii()}
        table.update(dict.fromkeys(map(ord, _ASCII_SEPARATORS), "?"))
        lines = [line.translate(table) for line in lines]
    if "_" in text:
        lines = [_DIGIT_UNDERSCORE.sub("", line) for line in lines]
    return lines


def read_wavefunction_csv(path: str, renormalize: bool = False) -> GridWavefunction:
    """Load a wavefunction from a CSV file with header ``x,re,im``.

    Rows whose first cell starts with ``#`` and blank rows are skipped, and
    every cell is read with the grammar of ``float()``.  The file is split
    into lines where csv splits it (at ``\\r\\n``, ``\\r`` and ``\\n``), the header
    is read with ``csv``, and the data lines with one ``np.loadtxt`` call that
    quotes as csv does, after :func:`_in_ascii_float_grammar` rewrites what
    ``float()`` accepts and numpy's parser does not.  A quoted cell must close
    on its own line.  The grid coordinates must be finite and uniformly spaced
    within 1e-9 relative tolerance.  Finite coordinates whose span overflows
    the float range raise ``NormalizationError``.
    """
    with open(path, newline="") as handle:
        # csv's own line split: at \r\n, \r and \n only
        lines = handle.readlines()
    rows = [
        line
        for line in lines
        if line not in _BLANK_LINES and ("#" not in line or not _is_comment(path, line))
    ]
    if not rows:
        raise ValueError(f"{path}: empty wavefunction file")
    header = _csv_rows(path, rows[:1])[0]
    if [cell.strip().lower() for cell in header] != ["x", "re", "im"]:
        raise ValueError(f"{path}: expected header x,re,im, got {header!r}")
    if len(rows) < 3:
        raise ValueError(f"{path}: need at least two sample rows")
    body = rows[1:]
    # a quoted cell left open on the last line would run to the end of the file
    _csv_rows(path, body[-1:])
    try:
        data = np.loadtxt(
            _in_ascii_float_grammar(body), np.float64, delimiter=",", quotechar='"', comments=None, ndmin=2
        )
    except ValueError:
        data = None
    if data is None or data.shape != (len(body), 3):
        # the first failure that csv.reader plus float() reports; numpy runs an
        # open quoted cell on into the next line, which _csv_rows rejects
        if any(len(row) != 3 for row in _csv_rows(path, body)):
            raise ValueError(f"{path}: every row needs exactly three columns")
        raise ValueError(f"{path}: non-numeric cell in wavefunction data")
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
