"""What the test modules share: the environment of a child Python process, and
the largest weight difference between two decompositions of the same rows."""

import os
from pathlib import Path

import numpy as np

SRC = str(Path(__file__).resolve().parents[1] / "src")


def child_env(**changes) -> dict:
    """A copy of ``os.environ`` with ``src`` first on ``PYTHONPATH``, and each
    change applied: a string sets the variable, ``None`` removes it."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    for name, value in changes.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return env


def max_weight_deviation(closed, oracle) -> float:
    """The largest absolute difference of two decompositions' linear weights,
    after asserting that both list the same count rows."""
    assert closed.num_sectors == oracle.num_sectors
    for level in range(closed.num_levels):
        assert np.array_equal(closed.level_counts(level), oracle.level_counts(level))
    return float(np.max(np.abs(closed.weights - oracle.weights)))
