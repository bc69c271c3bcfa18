"""Exception types and the capacity-guard helper shared across the package."""

from __future__ import annotations


class CapacityError(Exception):
    """A computation would exceed a fixed capacity guard.

    The guards are module constants that bound memory (sector counts) and time
    (brute-force sequence counts).  The offending size and the limit are kept
    on the exception so callers can report them.
    """

    def __init__(self, message: str, requested: int | None = None, limit: int | None = None):
        super().__init__(message)
        self.requested = requested
        self.limit = limit


class NormalizationError(ValueError):
    """An input that must carry unit total probability is off beyond tolerance."""


class ContractError(Exception):
    """A numerical contract (for example oracle agreement) was violated."""


def check_capacity(requested: int, limit: int, what: str) -> None:
    if requested > limit:
        raise CapacityError(
            f"{what} needs {requested}, above the limit {limit}",
            requested=requested,
            limit=limit,
        )
