"""The names the benchmark's tracer wraps must exist in the package, and its counters must see each document.

``bench/tracer.py`` replaces each function listed in its ``LAYERS`` table, by
name, in ``freqborn.<module>``, wraps each command in ``COMMANDS`` and counts
rendered rows through ``Table.rows`` and written bytes through the text that
``write_text`` gets.  A rename or deletion in the package would otherwise
surface only as a failing traced benchmark run, and a renderer or writer that
took other inputs would silently zero ``output.rows`` and ``output.bytes``.
The name tables are read from the source with ``ast``; the contract test
installs the tracer itself around in-process CLI runs.
"""

import ast
import importlib
import importlib.util
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

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
    assert Table({"n": (1,)}, {}).rows == [(1,)]


def load_tracer():
    spec = importlib.util.spec_from_file_location("freqborn_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def document_rows(text, output_format):
    if output_format == "json":
        return len(json.loads(text)["rows"])
    return sum(not line.startswith("#") for line in text.splitlines()) - 1  # the header line


DOCUMENTS = [
    ["decompose", "--a2", "0.3", "--n", "40"],
    ["decompose", "--amps", "0.6,0.6,0.5291502622129181", "--n", "7", "--format", "json"],
    ["scan", "--a2", "0.3", "--eps", "0.05", "--ns", "10,100,1000"],
    ["bound", "--a2", "0.3", "--n", "100", "--eps", "0.1", "--format", "json"],
    ["cv", "--wavefunction", "psi.csv", "--region", "0:0.5", "--n", "100", "--eps", "0.05"],
    ["finite-run", "--a2", "0.3", "--n-inner", "30", "--observed", "9", "--format", "json"],
    ["oracle-check", "--a2", "0.3", "--n", "6"],
]


@pytest.mark.parametrize("args", DOCUMENTS, ids=lambda args: " ".join(args[:2]))
def test_tracer_counts_the_rows_and_bytes_of_each_document(args, tmp_path, monkeypatch):
    """Each document goes through ``render_csv`` or ``render_json`` with a ``Table`` and
    through ``write_text`` with a ``str``: the inputs that ``_count_rows_rendered`` and
    ``_count_bytes_written`` read."""
    tracer = load_tracer()
    seen = []
    def checking(name, expected_type, count):
        def checked(counts, call_args, kwargs, result):
            seen.append(name)
            assert isinstance(call_args[0], expected_type), name
            count(counts, call_args, kwargs, result)

        return checked

    for name, expected_type in (
        ("output.render_csv", Table), ("output.render_json", Table), ("output.write_text", str)
    ):
        monkeypatch.setitem(tracer.COUNTERS, name, checking(name, expected_type, tracer.COUNTERS[name]))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "psi.csv").write_text("x,re,im\n" + "".join(f"{k / 4!r},1.0,0.0\n" for k in range(4)))
    trace = tracer.Tracer()
    trace.install()
    try:
        result = CliRunner().invoke(main, args, catch_exceptions=False)
    finally:
        trace.uninstall()
    assert result.exit_code == 0, result.output
    output_format = "json" if "json" in args else "csv"
    assert seen == [f"output.render_{output_format}", "output.write_text"]
    assert trace.counts["output.rows"] == document_rows(result.stdout, output_format) > 0
    assert trace.counts["output.bytes"] == len(result.stdout_bytes)
