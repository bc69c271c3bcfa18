"""Expansion of N-copy product states over fixed occupation-count sectors.

A single-copy state with level probabilities p_i, repeated N times, carries
weight multinomial(N; {n_i}) * prod_i p_i^{n_i} on the sector where exactly
n_i copies occupy level i.  With two levels the sectors are indexed by the
count n of the first level and the relative frequency is r = n/N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .combinatorics import LOG_ZERO, occupancy_log_weights
from .errors import check_a_sq, check_capacity, check_copies, check_whole, exact_sum, unit_mass

STATE_NORM_TOLERANCE = 1e-9

# Memory guard on any decomposition: 8 (M + 1) bytes per sector, the int64
# count matrix plus the float64 log weights; admits a two-level N = 10**7.
MAX_DECOMPOSITION_BYTES = 24 * (10**7 + 1)
# Time guard on the oracle, which visits every outcome sequence.
MAX_BRUTE_FORCE_SEQUENCES = 2 * 10**7
# Sequences the oracle holds at once.
BRUTE_FORCE_BLOCK = 2**16


class SingleCopyState:
    """Normalized single-copy state of an M-level system (M >= 2).

    ``level_probs`` holds the squared amplitude moduli.  States built through
    :meth:`from_probabilities` keep the given probabilities exactly instead of
    round-tripping them through square roots.  Both constructors pass the
    input through :func:`~freqborn.errors.unit_mass` at
    ``STATE_NORM_TOLERANCE``: with ``renormalize`` it is rescaled first, and
    an input whose squared norm overflows to inf or falls into subnormals is
    rejected with the total named.
    """

    __slots__ = ("amplitudes", "level_probs")

    def __init__(self, amplitudes: Sequence[complex], renormalize: bool = False):
        amps = np.array(amplitudes, dtype=np.complex128)
        if amps.ndim != 1 or amps.shape[0] < 2:
            raise ValueError("need a one-dimensional amplitude vector with at least two levels")
        if not np.all(np.isfinite(amps)):
            raise ValueError("amplitudes must be finite")
        self._freeze(*unit_mass(amps, 1.0, STATE_NORM_TOLERANCE, renormalize, "squared amplitude"))

    @classmethod
    def from_probabilities(cls, probs: Sequence[float], renormalize: bool = False) -> "SingleCopyState":
        """Build a state from level probabilities, stored exactly as given (-0.0 as +0.0)."""
        p = np.array(probs, dtype=np.float64) + 0.0
        if p.ndim != 1 or p.shape[0] < 2:
            raise ValueError("need at least two level probabilities")
        if not np.all(np.isfinite(p)):
            raise ValueError("probabilities must be finite")
        if np.any(p < 0.0):
            raise ValueError("probabilities must be nonnegative")
        p, _ = unit_mass(p, 1.0, STATE_NORM_TOLERANCE, renormalize, "probability")
        return cls.__new__(cls)._freeze(np.sqrt(p).astype(np.complex128), p)

    def _freeze(self, amplitudes: np.ndarray, level_probs: np.ndarray) -> "SingleCopyState":
        """Hold both arrays, made read-only; return this state."""
        amplitudes.setflags(write=False)
        level_probs.setflags(write=False)
        self.amplitudes = amplitudes
        self.level_probs = level_probs
        return self

    @classmethod
    def from_alpha_probability(cls, a_sq: float) -> "SingleCopyState":
        """Two-level state whose designated outcome carries probability ``a_sq``."""
        a_sq = check_a_sq(a_sq)
        return cls.from_probabilities([a_sq, 1.0 - a_sq])

    @property
    def num_levels(self) -> int:
        return self.amplitudes.shape[0]

    def __repr__(self) -> str:
        return f"SingleCopyState(level_probs={self.level_probs.tolist()})"


@dataclass(frozen=True)
class MomentReport:
    """Mean and variance of one level's relative frequency.

    The variance is centered at the level probability p, not at the empirical
    mean; ``predicted_variance`` is p(1-p)/N.
    """

    mean: float
    variance: float
    predicted_variance: float


class FrequencyDecomposition:
    """Sector weights of an N-copy state, in the natural-log domain.

    ``counts`` is the read-only ``(R, M)`` int64 occupation matrix, a
    contiguous ascending run of the rows of ``compositions(N, M)``;
    ``log_weights[k]`` is the log weight of row ``k``; and the read-only
    ``weights`` is ``np.exp(log_weights)``, made once here: every linear
    weight that freqborn reduces or prints is read from it.  The dense and
    oracle routes cover every row; :func:`two_level_band` covers every row of
    nonzero weight.  Callers index a row by its counts, ``level_counts(0)``
    at M = 2, not by its position.
    """

    __slots__ = ("num_copies", "level_probs", "log_weights", "weights", "counts")

    def __init__(
        self,
        num_copies: int,
        level_probs: np.ndarray,
        log_weights: np.ndarray,
        counts: np.ndarray,
    ):
        self.num_copies = int(num_copies)
        self.level_probs = np.asarray(level_probs, dtype=np.float64)
        self.log_weights = log_weights
        self.weights = np.exp(log_weights)
        self.counts = counts
        for array in (self.level_probs, self.log_weights, self.weights, self.counts):
            array.setflags(write=False)

    @property
    def num_levels(self) -> int:
        return self.level_probs.shape[0]

    @property
    def num_sectors(self) -> int:
        return self.log_weights.shape[0]

    def level_counts(self, level: int) -> np.ndarray:
        """Copy counts of one level across all sectors."""
        level = check_whole(level, "level")
        if not 0 <= level < self.num_levels:
            raise ValueError(f"level {level} out of range for {self.num_levels} levels")
        return self.counts[:, level]


def decompose_two_level(state: SingleCopyState, num_copies: int) -> FrequencyDecomposition:
    """Dense expansion of the N-copy state of a two-level system.

    :func:`decompose_multilevel` restricted to two-level states: the weight
    at count ``n`` equals C(N,n) |a|^{2n} |b|^{2(N-n)} in the linear domain.
    """
    _check_two_level(state)
    return decompose_multilevel(state, num_copies)


def two_level_band(state: SingleCopyState, num_copies: int) -> FrequencyDecomposition:
    """The rows (n, N - n) of the two-level decomposition around every nonzero weight.

    The rows run over a contiguous window of counts n = first..last in ascending order, and each
    row's counts and log weight equal the row of ``decompose_two_level(state, N)`` at that count,
    bit for bit, under the same guards; every weight outside the window is 0.0 there.  The kernel
    runs only on the window, which starts around the mode floor((N + 1) p) and doubles until each
    end is 0 or N or has weight 0.0.  The float weight falls monotonically away from the mode, so
    the window covers the band.  An exactly rounded sum ignores zeros, so a reduction over these
    rows prints the bits of the same reduction over all N + 1, in O(sqrt N) time and memory.
    """
    _check_two_level(state)
    total = _check_size(state, num_copies)
    prob = float(state.level_probs[0])
    mode = min(math.floor((total + 1) * prob), total)
    # a Gaussian tail falls below the smallest subnormal, exp(-745.13), 38.6 deviations out
    half = math.ceil(40.0 * math.sqrt(total * prob * (1.0 - prob))) + 1
    while True:
        lo, hi = max(mode - half, 0), min(mode + half, total)
        levels = np.empty((2, hi - lo + 1), dtype=np.int64)
        levels[0] = np.arange(lo, hi + 1)
        levels[1] = total - levels[0]
        log_weights = occupancy_log_weights(total, levels, state.level_probs)
        # the transpose is the (R, 2) column-major layout of compositions
        window = FrequencyDecomposition(total, state.level_probs, log_weights, levels.T)
        if (lo == 0 or window.weights[0] == 0.0) and (hi == total or window.weights[-1] == 0.0):
            return window
        half *= 2


def _check_two_level(state: SingleCopyState) -> None:
    if state.num_levels != 2:
        raise ValueError(f"state has {state.num_levels} levels, expected 2")


def _check_size(state: SingleCopyState, num_copies: int) -> int:
    """N as an int, checked whole, positive, and within ``MAX_DECOMPOSITION_BYTES`` for the ``(R, M)`` layout.

    Every route that returns a decomposition or its weights enters here.
    """
    num_copies = check_copies(num_copies)
    m = state.num_levels
    needed = 8 * (m + 1) * math.comb(num_copies + m - 1, m - 1)
    check_capacity(needed, MAX_DECOMPOSITION_BYTES, "decomposition", "bytes")
    return num_copies


def compositions(total: int, parts: int) -> np.ndarray:
    """All length-``parts`` nonnegative integer vectors summing to ``total``.

    Rows come out in ascending lexicographic order, the fixed enumeration
    order of every decomposition.  The matrix is column-major (Fortran
    order), so each level's column is contiguous for the weight kernel.

    One pass per level and no recursion: each prefix with ``r`` copies left
    has ``r + 1`` children, taking 0..r at the next level, and the last
    level takes what is left.  A prefix with ``n`` copies left heads
    ``C(n + rest, rest)`` consecutive rows, its completions over the
    ``rest`` later branching levels, so each level's column is its prefix
    values repeated that often, and only one level's prefixes are held.
    """
    total = check_whole(total, "total")
    parts = check_whole(parts, "parts")
    if total < 0 or parts < 1:
        raise ValueError(f"need total >= 0 and parts >= 1, got ({total}, {parts})")
    counts = np.empty((math.comb(total + parts - 1, parts - 1), parts), dtype=np.int64, order="F")
    left = np.array([total], dtype=np.int64)
    for level in range(parts - 1):
        sizes = left + 1
        value = np.arange(int(sizes.sum()), dtype=np.int64) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        left = np.repeat(left, sizes) - value
        rest = parts - 2 - level
        if rest:
            ways = np.array([math.comb(n + rest, rest) for n in range(total + 1)], dtype=np.int64)
            counts[:, level] = np.repeat(value, ways[left])
        else:
            counts[:, level] = value
    counts[:, -1] = left
    return counts


def decompose_multilevel(state: SingleCopyState, num_copies: int) -> FrequencyDecomposition:
    """Expansion of the N-copy state of an M-level system over all occupations.

    Covers every composition of N into M parts exactly once, in ascending
    lexicographic order, under the ``MAX_DECOMPOSITION_BYTES`` guard on the
    count matrix plus the log weights.  Levels with zero probability yield
    the ``LOG_ZERO`` sentinel.
    """
    num_copies = _check_size(state, num_copies)
    counts = compositions(num_copies, state.num_levels)
    log_weights = occupancy_log_weights(num_copies, counts.T, state.level_probs)
    return FrequencyDecomposition(num_copies, state.level_probs, log_weights, counts)


def total_mass(decomp: FrequencyDecomposition) -> float:
    """Exactly rounded sum of the linear sector weights; 1 within 1e-10 for valid states."""
    return exact_sum(decomp.weights)


def frequency_moments(decomp: FrequencyDecomposition, level: int = 0) -> MomentReport:
    """Mean and variance of one level's relative frequency n/N.

    The variance is taken about the level probability p, and the report
    carries the closed-form prediction p(1-p)/N alongside.  Each moment is
    the exactly rounded sum of its rounded per-sector products, so sectors
    of weight 0.0 may be left out without moving a bit.
    """
    counts, prob = decomp.level_counts(level), float(decomp.level_probs[int(level)])
    r = counts / np.float64(decomp.num_copies)
    mean = exact_sum(r * decomp.weights)
    variance = exact_sum((r - prob) ** 2 * decomp.weights)
    return MomentReport(mean, variance, prob * (1.0 - prob) / decomp.num_copies)


def brute_force_decompose(state: SingleCopyState, num_copies: int) -> FrequencyDecomposition:
    """Oracle expansion by enumerating every outcome sequence.

    Each of the M^N sequences contributes the squared modulus of its amplitude
    product to the sector matching its occupation counts.  Deliberately shares
    no numerics with the closed-form route beyond complex arithmetic.

    Sequences run in ``itertools.product`` order, in blocks of at most
    ``BRUTE_FORCE_BLOCK``: the leading copies fix a run of prefixes and the
    remaining copies are appended to all of them at once.  Each product is
    built left to right from 1 + 0j as CPython's ``complex.__mul__`` builds it,
    one rounded real operation per ufunc, and ``np.add.at`` adds each mass to
    its sector in sequence order, so every sum rounds like the plain loop's.
    A sequence's key is its sector's row, carried copy by copy: ``steps[k][a, level]`` is the row,
    in lexicographic order, of the (k + 1)-copy sector that adds one copy at ``level`` to k-copy row ``a``.
    N passes the closed-form byte budget, then ``MAX_BRUTE_FORCE_SEQUENCES`` on M^N.
    """
    num_copies = _check_size(state, num_copies)
    m = state.num_levels
    check_capacity(m**num_copies, MAX_BRUTE_FORCE_SEQUENCES, "brute-force enumeration", "sequences")
    # uint8 counts suffice: the sequence guard, below 2^25, keeps N <= 24 at M >= 2
    sectors, steps = np.zeros((1, m), dtype=np.uint8), []
    for _ in range(num_copies):
        grown = (sectors[:, None, :] + np.eye(m, dtype=np.uint8)).reshape(-1, m)
        # one m-byte void per row sorts by memcmp, the rows' lexicographic order
        sectors, step = np.unique(grown.view(f"V{m}").ravel(), return_inverse=True)
        sectors = sectors.view(np.uint8).reshape(-1, m)
        steps.append(step.reshape(-1, m))
    amps = (state.amplitudes.real, state.amplitudes.imag)
    inner = 0
    while inner < num_copies and m ** (inner + 1) <= BRUTE_FORCE_BLOCK:
        inner += 1
    prefixes = _append_copies((np.ones(1), np.zeros(1), np.zeros(1, dtype=np.intp)), amps, steps[: num_copies - inner])
    masses = np.zeros(sectors.shape[0])
    rows = max(BRUTE_FORCE_BLOCK // m**inner, 1)
    for start in range(0, prefixes[0].size, rows):
        re, im, row = _append_copies([part[start : start + rows] for part in prefixes], amps, steps[num_copies - inner :])
        np.add.at(masses, row, re * re + im * im)
    log_weights = np.array([math.log(w) if w > 0.0 else LOG_ZERO for w in masses.tolist()])
    return FrequencyDecomposition(num_copies, state.level_probs, log_weights, sectors.astype(np.int64))


def _append_copies(sequences, amps, steps):
    """Append one copy per step table to every (re, im, row) sequence, each level in turn, in product order."""
    (re, im, row), (ar, ai) = sequences, amps
    for step in steps:
        re, im = re[:, None], im[:, None]
        re, im = (re * ar - im * ai).ravel(), (re * ai + im * ar).ravel()
        row = step[row].ravel()
    return re, im, row
