"""Log-domain combinatorial kernel underlying every decomposition.

All public functions work with natural logarithms.  Weight zero is the
distinguished sentinel ``LOG_ZERO`` (IEEE ``-inf``): it absorbs under
log-domain multiplication and exponentiates to exactly 0.0, so zero
amplitudes never turn into tolerance questions.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

LOG_ZERO = float("-inf")


# ---------------------------------------------------------------------------
# Deviance-form sector weights.
#
# The literal route ln C(N,{n_i}) + sum n_i ln p_i subtracts log-factorials of
# magnitude ~1e7 at N ~ 1e6 and loses ~1e-9 of absolute log accuracy, which is
# not enough for the 1e-10 normalization and moment contracts.  The standard
# saddle-point decomposition (Stirling remainders plus binomial deviances)
# keeps every intermediate small near the bulk of the mass: against 50-digit
# mpmath, the bulk (weights above 1e-18) has 1.25e-13 absolute log error at
# p = 0.3, N = 2000, from _bd0's general formula.

_EXACT_TABLE_SIZE = 21
_STIRLERR_TABLE = np.zeros(_EXACT_TABLE_SIZE)
for _k in range(1, _EXACT_TABLE_SIZE):
    _STIRLERR_TABLE[_k] = math.log(math.factorial(_k)) - (
        0.5 * math.log(2.0 * math.pi * _k) + _k * math.log(float(_k)) - _k
    )
del _k


def _stirlerr(n: np.ndarray) -> np.ndarray:
    # ln(n!) - (0.5 ln(2 pi n) + n ln n - n) for n >= 1: the truncated
    # asymptotic series, finite for every n >= 1 (remainder < 1e-17 at
    # n = 21), then the exact table overwrites the entries below 21.
    z = 1.0 / (n * n)
    out = (
        1.0 / 12.0
        - (1.0 / 360.0 - (1.0 / 1260.0 - (1.0 / 1680.0 - (1.0 / 1188.0) * z) * z) * z) * z
    ) / n
    small = n < float(_EXACT_TABLE_SIZE)
    out[small] = _STIRLERR_TABLE[n[small].astype(np.int64)]
    return out


def _bd0(x: np.ndarray, center: float) -> np.ndarray:
    # x ln(x/center) + center - x over every x; the series in
    # v = (x-center)/(x+center) then overwrites, without cancellation, the
    # entries with |v| < 0.1 (12 fixed terms leave a remainder below 1e-20),
    # where x/center lies in (9/11, 11/9) and the general formula is finite.
    # Elsewhere x/center overflows for subnormal centers and is x/0 for a
    # zero center; the +inf deviance is the correct limit (weight exactly 0).
    with np.errstate(over="ignore", divide="ignore"):
        out = x * np.log(x / center) + center - x
    near = np.abs(x - center) < 0.1 * (x + center)
    xn = x[near]
    v = (xn - center) / (xn + center)
    s = (xn - center) * v
    term = 2.0 * xn * v
    v2 = v * v
    for j in range(1, 13):
        term = term * v2
        s = s + term / (2.0 * j + 1.0)
    out[near] = s
    return out


def occupancy_log_weights(
    total: int,
    level_counts: Sequence[np.ndarray],
    level_probs: Sequence[float],
) -> np.ndarray:
    """Log weights of occupation sectors of a ``total``-copy product state.

    ``level_counts[i][k]`` is the number of copies sitting in level ``i`` for
    the ``k``-th sector; each sector's counts sum to ``total``.
    ``level_probs[i]`` is the squared amplitude modulus of level ``i``.  The
    value is ln( multinomial(total; counts) * prod_i p_i^{n_i} ) per sector.

    Each level's term depends only on its count n, so each level fills a
    table over n = 0..total (total * p at 0, Stirling remainder + deviance +
    ln sqrt(2 pi n) above) gathered by every sector; at p = 0 each n >= 1
    has a +inf deviance, so an occupied zero level gives exactly ``LOG_ZERO``.
    Swapping two equal-probability levels permutes the weights bit for bit.
    """
    ntot = np.array([float(total)])
    base = float((_stirlerr(ntot) + _bd0(ntot, float(total)) + 0.5 * np.log(2.0 * np.pi * ntot))[0])
    n = np.arange(1.0, total + 1.0)
    subtrahend = np.zeros(level_counts[0].shape[0])
    for counts, prob in zip(level_counts, level_probs):
        # + 0.0 turns a -0.0 center into +0.0, whose deviance is +inf, not nan
        center = float(total) * float(prob) + 0.0
        # stirlerr and ln sqrt(2 pi n) stay per level: hoisting them out of the
        # loop saved ~0.15 s but raised peak RSS 343 -> 419 MB (N = 5e6, 2 levels)
        table = np.empty(total + 1)
        table[0] = center
        table[1:] = _stirlerr(n)
        table[1:] += _bd0(n, center)
        table[1:] += 0.5 * np.log(2.0 * np.pi * n)
        subtrahend += table[counts]
    return base - subtrahend
