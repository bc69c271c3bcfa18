"""Exception types, the capacity, eps, probability, whole-number, copy-count and unit-mass gates, and the one sum, shared across the package."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# Rescaling by a total below this would divide by a subnormal and lose digits.
SMALLEST_NORMAL = float(np.finfo(np.float64).tiny)


class CapacityError(Exception):
    """A computation would exceed a fixed capacity guard.

    The guards are module constants that bound memory (decomposition bytes)
    and time (brute-force sequence counts).  The message names the offending
    size and the limit.
    """


class NormalizationError(ValueError):
    """An input that must carry unit total probability is off beyond tolerance."""


class ContractError(Exception):
    """A numerical contract (for example oracle agreement) was violated."""


def exact_sum(values: np.ndarray) -> float:
    """The sum of a 1-D float64 array, rounded once to the nearest double.

    Every reduction in the package goes through here.  ``math.fsum`` is
    exactly rounded, so the result depends neither on the order of the
    values nor on how many zeros surround them (an all-zero or empty array
    sums to +0.0), nor on numpy's SIMD loops or the BLAS core.  Zeros are
    dropped and the rest fed in descending order, largest first for the
    nonnegative masses every caller passes, which keeps fsum's partials
    short: on the 78,695 nonzero weights of the p = 0.3 band at N = 5e6 that
    is about 11 times faster than count order (7 against 75 ms on an x86-64
    Xeon).  A nan or an infinity decides the sum as in IEEE addition.
    """
    special = values[~np.isfinite(values)].tolist()
    if special:
        return sum(special)
    terms = np.sort(values[values != 0.0])[::-1].tolist()
    try:
        return math.fsum(terms)
    except OverflowError:  # a partial sum left the float range; round the exact sum instead
        exact = sum(map(Fraction, terms))
        try:
            return float(exact)
        except OverflowError:
            return math.inf if exact > 0 else -math.inf


def check_capacity(requested: int, limit: int, what: str, unit: str) -> None:
    if requested > limit:
        try:
            needs = str(requested)
        except ValueError:  # past Python's int-to-str digit limit; 0.30102999566 < log10(2) keeps the bound true
            needs = f"more than 10^{(requested.bit_length() - 1) * 30102999566 // 10**11}"
        raise CapacityError(f"{what} needs {needs} {unit}, above the limit of {limit} {unit}")


def check_eps(eps: float) -> None:
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps!r}")


def check_a_sq(a_sq) -> float:
    """``a_sq`` as a float in [0, 1], -0.0 read as 0.0, or a ValueError."""
    a_sq = float(a_sq) + 0.0
    if not 0.0 <= a_sq <= 1.0:
        raise ValueError(f"a_sq must lie in [0, 1], got {a_sq!r}")
    return a_sq


def check_whole(value, what: str) -> int:
    """``value`` as an int, or a ValueError naming ``what`` unless it is a whole number.

    Whole floats such as ``1e6`` and numpy integers pass; 10.5, nan and inf do not.
    """
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        whole = None
    if whole is None or whole != value:
        raise ValueError(f"{what} must be a whole number, got {value!r}")
    return whole


def check_copies(num_copies) -> int:
    """A copy count as an int, or a ValueError unless it is a whole number of at least 1."""
    num_copies = check_whole(num_copies, "num_copies")
    if num_copies < 1:
        raise ValueError(f"num_copies must be positive, got {num_copies}")
    return num_copies


def unit_mass(
    values: np.ndarray, cell: float, tolerance: float, renormalize: bool, what: str
) -> tuple[np.ndarray, np.ndarray]:
    """Check that ``values`` carry unit total mass; return them and their masses.

    A complex array holds amplitudes, whose squared moduli are the masses; a
    real array holds the masses themselves.  The total is the mass sum times
    ``cell``.  With ``renormalize`` the values are first rescaled to unit
    total, but only when that total is finite and at least the smallest
    normal double: a total that overflowed or fell into subnormals is left as
    it is and fails the gate.  Raises ``NormalizationError`` naming the total
    when it is off 1 by more than ``tolerance``, and ``ValueError`` when asked
    to renormalize an all-zero input.  ``what`` names one mass in messages.
    """
    amplitudes = np.iscomplexobj(values)
    with np.errstate(over="ignore", under="ignore"):
        density, total = _masses(values, cell)
        if renormalize:
            if not np.any(values):
                raise ValueError(f"cannot renormalize: every {what} is zero")
            if SMALLEST_NORMAL <= total < math.inf:
                values = values / (math.sqrt(total) if amplitudes else total)
                density, total = _masses(values, cell)
    if not abs(total - 1.0) <= tolerance:
        raise NormalizationError(f"total {what} is {total!r}, off 1 by more than {tolerance}")
    return values, density


def _masses(values: np.ndarray, cell: float) -> tuple[np.ndarray, float]:
    if np.iscomplexobj(values):
        values = values.real * values.real + values.imag * values.imag
    return values, exact_sum(values) * cell
