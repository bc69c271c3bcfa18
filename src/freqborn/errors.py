"""Exception types and the capacity, eps and unit-mass gates shared across the package."""

from __future__ import annotations

import math

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


def check_capacity(requested: int, limit: int, what: str, unit: str) -> None:
    if requested > limit:
        raise CapacityError(f"{what} needs {requested} {unit}, above the limit of {limit} {unit}")


def check_eps(eps: float) -> None:
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps!r}")


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
    return values, float(np.sum(values) * cell)
