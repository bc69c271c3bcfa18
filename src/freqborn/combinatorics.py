"""Log-domain combinatorial kernel underlying every decomposition.

All public functions work with natural logarithms.  Weight zero is the
distinguished sentinel ``LOG_ZERO`` (IEEE ``-inf``): it absorbs under
log-domain multiplication and is the identity of ``log_sum_exp_array``, so
zero amplitudes never turn into tolerance questions.  Conversion back to the
linear domain happens only at reporting boundaries.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

LOG_ZERO = float("-inf")


def log_sum_exp_array(values: np.ndarray) -> float:
    """Vectorized max-shift log-sum-exp for dense weight arrays."""
    if values.size == 0:
        return LOG_ZERO
    peak = float(np.max(values))
    if peak == LOG_ZERO:
        return LOG_ZERO
    return peak + float(np.log(np.sum(np.exp(values - peak))))


# ---------------------------------------------------------------------------
# Deviance-form sector weights.
#
# The literal route ln C(N,{n_i}) + sum n_i ln p_i subtracts log-factorials of
# magnitude ~1e7 at N ~ 1e6 and loses ~1e-9 of absolute log accuracy, which is
# not enough for the 1e-10 normalization and moment contracts.  The standard
# saddle-point decomposition (Stirling remainders plus binomial deviances)
# keeps every intermediate small near the bulk of the mass, so sector weights
# come out with ~1e-15 relative error where the mass lives.

_EXACT_TABLE_SIZE = 21
_STIRLERR_TABLE = np.zeros(_EXACT_TABLE_SIZE)
for _k in range(1, _EXACT_TABLE_SIZE):
    _STIRLERR_TABLE[_k] = math.log(math.factorial(_k)) - (
        0.5 * math.log(2.0 * math.pi * _k) + _k * math.log(float(_k)) - _k
    )
del _k


def _stirlerr(n: np.ndarray) -> np.ndarray:
    # ln(n!) - (0.5 ln(2 pi n) + n ln n - n) for n >= 1; table below 21,
    # truncated asymptotic series above (remainder < 1e-17 at n = 21).
    out = np.empty_like(n)
    small = n < float(_EXACT_TABLE_SIZE)
    out[small] = _STIRLERR_TABLE[n[small].astype(np.int64)]
    big = n[~small]
    z = 1.0 / (big * big)
    out[~small] = (
        1.0 / 12.0
        - (1.0 / 360.0 - (1.0 / 1260.0 - (1.0 / 1680.0 - (1.0 / 1188.0) * z) * z) * z) * z
    ) / big
    return out


def _bd0(x: np.ndarray, center: float) -> np.ndarray:
    # x ln(x/center) + center - x, evaluated without cancellation near
    # x ~ center via the series in v = (x-center)/(x+center); |v| < 0.1 in the
    # series branch, so 12 fixed terms leave a remainder below 1e-20.
    out = np.empty_like(x)
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
    xf = x[~near]
    # x/center may overflow for subnormal centers; the resulting +inf deviance
    # is the correct limit (the sector weight underflows to exact zero)
    with np.errstate(over="ignore"):
        out[~near] = xf * np.log(xf / center) + center - xf
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

    Sectors occupying a level of probability zero get ``LOG_ZERO`` outright,
    with no ``-inf`` arithmetic.  Per-level contributions are accumulated into
    a single subtrahend, so swapping two equal-probability levels permutes the
    weights bit for bit.
    """
    size = level_counts[0].shape[0]
    ntot = np.array([float(total)])
    base = float((_stirlerr(ntot) + _bd0(ntot, float(total)) + 0.5 * np.log(2.0 * np.pi * ntot))[0])
    subtrahend = np.zeros(size)
    dead = np.zeros(size, dtype=bool)
    for counts, prob in zip(level_counts, level_probs):
        occupied = counts > 0
        if prob == 0.0:
            dead |= occupied
            continue
        center = float(total) * float(prob)
        nf = counts[occupied].astype(np.float64)
        contribution = np.empty(size)
        contribution[occupied] = _stirlerr(nf) + _bd0(nf, center) + 0.5 * np.log(2.0 * np.pi * nf)
        contribution[~occupied] = center
        subtrahend += contribution
    out = base - subtrahend
    out[dead] = LOG_ZERO
    return out
