"""Expansion of N-copy product states over fixed occupation-count sectors.

A single-copy state with level probabilities p_i, repeated N times, carries
weight multinomial(N; {n_i}) * prod_i p_i^{n_i} on the sector where exactly
n_i copies occupy level i.  With two levels the sectors are indexed by the
count n of the first level and the relative frequency is r = n/N.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .combinatorics import LOG_ZERO, occupancy_log_weights
from .errors import check_capacity, unit_mass

STATE_NORM_TOLERANCE = 1e-9

# Memory guard on any decomposition: 8 (M + 1) bytes per sector, the int64
# count matrix plus the float64 log weights; admits a two-level N = 10**7.
MAX_DECOMPOSITION_BYTES = 24 * (10**7 + 1)
# Time guard on the oracle, which visits every outcome sequence.
MAX_BRUTE_FORCE_SEQUENCES = 2 * 10**7


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
        amps, probs = unit_mass(amps, 1.0, STATE_NORM_TOLERANCE, renormalize, "squared amplitude")
        amps.setflags(write=False)
        probs.setflags(write=False)
        self.amplitudes = amps
        self.level_probs = probs

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
        state = cls.__new__(cls)
        amps = np.sqrt(p).astype(np.complex128)
        amps.setflags(write=False)
        p.setflags(write=False)
        state.amplitudes = amps
        state.level_probs = p
        return state

    @classmethod
    def from_alpha_probability(cls, a_sq: float) -> "SingleCopyState":
        """Two-level state whose designated outcome carries probability ``a_sq``."""
        a_sq = float(a_sq)
        if not 0.0 <= a_sq <= 1.0:
            raise ValueError(f"a_sq must lie in [0, 1], got {a_sq!r}")
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

    ``counts`` is the read-only ``(R, M)`` int64 occupation matrix, one sector
    per row in ascending lexicographic order, and ``log_weights[k]`` is the
    log weight of row ``k``.  At M = 2 row ``n`` is (n, N - n), so
    ``log_weights`` is indexed by the count of level 0.
    """

    __slots__ = ("num_copies", "level_probs", "log_weights", "counts")

    def __init__(
        self,
        num_copies: int,
        level_probs: np.ndarray,
        log_weights: np.ndarray,
        counts: np.ndarray,
    ):
        self.num_copies = int(num_copies)
        probs = np.asarray(level_probs, dtype=np.float64)
        probs.setflags(write=False)
        self.level_probs = probs
        log_weights.setflags(write=False)
        self.log_weights = log_weights
        counts.setflags(write=False)
        self.counts = counts

    @property
    def num_levels(self) -> int:
        return self.level_probs.shape[0]

    @property
    def num_sectors(self) -> int:
        return self.log_weights.shape[0]

    def level_counts(self, level: int) -> np.ndarray:
        """Copy counts of one level across all sectors."""
        if not 0 <= level < self.num_levels:
            raise ValueError(f"level {level} out of range for {self.num_levels} levels")
        return self.counts[:, level]


def decompose_two_level(state: SingleCopyState, num_copies: int) -> FrequencyDecomposition:
    """Dense expansion of the N-copy state of a two-level system.

    :func:`decompose_multilevel` restricted to two-level states: the weight
    at count ``n`` equals C(N,n) |a|^{2n} |b|^{2(N-n)} in the linear domain.
    """
    if state.num_levels != 2:
        raise ValueError(f"state has {state.num_levels} levels, expected 2")
    return decompose_multilevel(state, num_copies)


def compositions(total: int, parts: int) -> np.ndarray:
    """All length-``parts`` nonnegative integer vectors summing to ``total``.

    Rows come out in ascending lexicographic order, the fixed enumeration
    order of every decomposition.  The matrix is column-major (Fortran
    order), so each level's column is contiguous for the weight kernel.

    One pass per level and no recursion: each prefix with ``r`` copies left
    owns ``r + 1`` children, taking 0..r at the next level, and the last
    level takes what is left.  The owner indices are then composed backward
    to gather every earlier level's column in row order.
    """
    total = int(total)
    parts = int(parts)
    if total < 0 or parts < 1:
        raise ValueError(f"need total >= 0 and parts >= 1, got ({total}, {parts})")
    left = np.array([total], dtype=np.int64)
    levels = []
    for _ in range(parts - 1):
        sizes = left + 1
        owner = np.repeat(np.arange(left.size, dtype=np.int64), sizes)
        value = np.arange(owner.size, dtype=np.int64) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        left = np.repeat(left, sizes) - value
        levels.append((owner, value))
    counts = np.empty((left.size, parts), dtype=np.int64, order="F")
    counts[:, -1] = left
    # the rows of the last branching level are the output rows, in order
    rows = slice(None)
    for level in range(parts - 2, -1, -1):
        owner, value = levels[level]
        counts[:, level] = value[rows]
        rows = owner[rows]
    return counts


def decompose_multilevel(state: SingleCopyState, num_copies: int) -> FrequencyDecomposition:
    """Expansion of the N-copy state of an M-level system over all occupations.

    Covers every composition of N into M parts exactly once, in ascending
    lexicographic order, under the ``MAX_DECOMPOSITION_BYTES`` guard on the
    count matrix plus the log weights.  Levels with zero probability yield
    the ``LOG_ZERO`` sentinel.
    """
    num_copies = int(num_copies)
    if num_copies < 1:
        raise ValueError(f"num_copies must be positive, got {num_copies}")
    m = state.num_levels
    needed = 8 * (m + 1) * math.comb(num_copies + m - 1, m - 1)
    check_capacity(needed, MAX_DECOMPOSITION_BYTES, "decomposition", "bytes")
    counts = compositions(num_copies, m)
    log_weights = occupancy_log_weights(num_copies, counts.T, state.level_probs)
    return FrequencyDecomposition(num_copies, state.level_probs, log_weights, counts)


def total_mass(decomp: FrequencyDecomposition) -> float:
    """Sum of the linear sector weights; 1 within 1e-10 for valid states.

    Every weight is at most 1, so the plain sum neither overflows nor loses
    more than a max-shifted log-sum-exp would.
    """
    return float(np.sum(np.exp(decomp.log_weights)))


def frequency_moments(decomp: FrequencyDecomposition, level: int = 0) -> MomentReport:
    """Mean and variance of one level's relative frequency.

    The variance is taken about the level probability p, and the report
    carries the closed-form prediction p(1-p)/N alongside.
    """
    counts = decomp.level_counts(level)
    prob = float(decomp.level_probs[level])
    r = counts / np.float64(decomp.num_copies)
    weights = np.exp(decomp.log_weights)
    mean = float(np.dot(r, weights))
    variance = float(np.dot((r - prob) ** 2, weights))
    return MomentReport(mean, variance, prob * (1.0 - prob) / decomp.num_copies)


def brute_force_decompose(state: SingleCopyState, num_copies: int) -> FrequencyDecomposition:
    """Oracle expansion by enumerating every outcome sequence.

    Each of the M^N sequences contributes the squared modulus of its amplitude
    product to the sector matching its occupation counts.  Deliberately shares
    no numerics with the closed-form route beyond complex arithmetic.
    """
    num_copies = int(num_copies)
    if num_copies < 1:
        raise ValueError(f"num_copies must be positive, got {num_copies}")
    m = state.num_levels
    sequences = m**num_copies
    check_capacity(sequences, MAX_BRUTE_FORCE_SEQUENCES, "brute-force enumeration", "sequences")
    amps = [complex(a) for a in state.amplitudes]
    masses: dict[tuple[int, ...], float] = {}
    for seq in itertools.product(range(m), repeat=num_copies):
        amp = complex(1.0)
        occupation = [0] * m
        for s in seq:
            amp *= amps[s]
            occupation[s] += 1
        key = tuple(occupation)
        masses[key] = masses.get(key, 0.0) + (amp.real * amp.real + amp.imag * amp.imag)
    keys = sorted(masses)
    counts = np.array(keys, dtype=np.int64)
    log_weights = np.array(
        [math.log(masses[k]) if masses[k] > 0.0 else LOG_ZERO for k in keys]
    )
    return FrequencyDecomposition(num_copies, state.level_probs, log_weights, counts)
