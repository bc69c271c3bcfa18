"""What the test modules share: the environment of a child Python process."""

import os
from pathlib import Path

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
