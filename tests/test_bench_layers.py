"""The names the benchmark's tracer wraps must exist in the package.

``bench/tracer.py`` replaces each function listed in its ``LAYERS`` table, by
name, in ``freqborn.<module>``, wraps each command in ``COMMANDS`` and counts
rendered rows through ``Table.rows``.  A rename or deletion in the package
would otherwise surface only as a failing traced benchmark run.  The table is
read from the source with ``ast``, so the tracer is neither imported nor run.
"""

import ast
import importlib
from pathlib import Path

from freqborn.cli import main
from freqborn.output import Table

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def tracer_constant(name):
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {TRACER}")


def test_every_traced_layer_resolves():
    layers = tracer_constant("LAYERS")
    assert layers
    missing = [
        f"{module}.{function}"
        for module, functions in layers.items()
        for function in functions
        if not callable(getattr(importlib.import_module(f"freqborn.{module}"), function, None))
    ]
    assert missing == []


def test_every_traced_command_exists():
    assert set(tracer_constant("COMMANDS")) <= set(main.commands)


def test_table_keeps_rows():
    assert Table(("n",), [(1,)], {}).rows == [(1,)]
