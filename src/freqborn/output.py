"""Deterministic CSV/JSON table emission for the command-line tools.

Every document is a function of the command parameters alone: no timestamps,
no environment-dependent fields, floats rendered with shortest round-trip
repr.  Files are written atomically (temp file in the target directory, then
rename).

Tables are columnar: ``Table.columns`` maps each column name, in document
order, to its cells, as a list (typically from ``ndarray.tolist()``) or a
``range``.  ``Table.rows`` transposes back to row tuples only for callers that
count rows from outside the package; nothing in the package reads it.

There is one row pipeline, ``render(parts)`` in ``_render_rows``: each column
is formatted with one C-level call (``map(str, ...)`` for CSV, one
``json.dumps`` for JSON), the formatted columns are zipped into rows, and
each row becomes a line (``",".join``, or a JSON ``%`` template built once
from the encoded column names, which reproduces what ``json.dumps(...,
indent=2)`` prints for the row-dict layout), so no Python statement runs per
row.  The serial path renders the columns as held.  A table of at least
``SPLIT_ROWS`` rows is formatted in two processes: a forked child renders the
``[half:]`` slices into a pipe, UTF-8 encoded, while this process renders the
``[:half]`` slices, then reads the pipe to EOF and joins the halves, with the
serial bytes.  The child is reaped on every path, an exception or an
interrupt included.  The serial path runs instead below ``SPLIT_ROWS`` rows,
where ``os.fork`` is missing, where the process may use only one CPU, and
where the fork fails.  If the child exits nonzero (a NaN JSON cell, say), this
process renders the upper half itself, so it raises what the serial path
raises.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from . import __version__

SCHEMA_VERSION = "v1"

# The rows key line of the indent=2 top-level object.  Encoded JSON values
# hold no raw newline and nested lines are indented deeper, so this line
# occurs exactly once in a document.
_ROWS_LINE = '\n  "rows": []'
_INFINITY_TO_NULL = {"Infinity": "null", "-Infinity": "null"}
# Tables with at least this many rows render their upper half in a forked child.
SPLIT_ROWS = 2**16


@dataclass
class Table:
    """One columnar result plus metadata and optional appended scalars.

    ``columns`` maps each column name, in document order, to its cells:
    scalars (int, float, str, bool or None), the same number in every
    column.  ``annotations`` become trailing ``#key=value`` comment lines in
    CSV and a top-level ``annotations`` object in JSON.
    """

    columns: dict[str, Sequence]
    meta: dict[str, Any]
    annotations: dict[str, Any] = field(default_factory=dict)

    @property
    def rows(self) -> list[tuple]:
        """The cells as row tuples (a transpose of the columns)."""
        return list(zip(*self.columns.values()))


# One CPU renders serially: there a fork only adds the child's work (BENCH_15.json `one_cpu`).
def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _render_rows(columns: list[Sequence], cells: Callable, row: Callable, separator: str) -> str:
    """``row`` of each row's cell texts, ``cells`` of each column, joined by ``separator``.

    A large table joins ``render`` of its ``[:half]`` and ``[half:]`` slices, the upper in a child.
    """

    def render(parts: Sequence[Sequence]) -> str:
        return separator.join(map(row, zip(*map(cells, parts))))

    size = len(columns[0])
    # each half needs a row: a one-row table renders serially at any threshold
    if size < max(SPLIT_ROWS, 2) or not hasattr(os, "fork") or _usable_cpus() < 2:
        return render(columns)
    half = size // 2
    read_end, write_end = os.pipe()
    try:
        with warnings.catch_warnings():
            # numpy's BLAS thread pool makes this process multi-threaded, and
            # Python >= 3.12 warns on fork() then.  The child is safe: it only
            # formats Python objects it already holds, writes one pipe and
            # leaves by os._exit, touching no lock another thread may hold.
            warnings.filterwarnings(
                "ignore", r"This process .* is multi-threaded, use of fork\(\)", DeprecationWarning
            )
            pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        return render(columns)
    if pid == 0:
        # the child: no stdio flush and no atexit handler, whatever happens
        code = 1
        try:
            os.close(read_end)
            with open(write_end, "wb") as pipe:
                pipe.write(render([column[half:] for column in columns]).encode())
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    try:
        # on an exception the read end closes first, so a child still
        # writing fails at once and exits, and waitpid returns
        with open(read_end, "rb") as pipe:
            lower = render([column[:half] for column in columns])
            upper = pipe.read()
    finally:
        _, status = os.waitpid(pid, 0)
    if status != 0:
        return separator.join((lower, render([column[half:] for column in columns])))
    return separator.join((lower, upper.decode()))


def render_csv(table: Table) -> str:
    columns = list(table.columns.values())
    lines = [f"#schema={SCHEMA_VERSION}", ",".join(table.columns)]
    if len(columns[0]):
        lines.append(_render_rows(columns, functools.partial(map, str), ",".join, "\n"))
    lines.extend(f"#{key}={value}" for key, value in table.annotations.items())
    return "\n".join(lines) + "\n"


def _jsonable(scalars: dict[str, Any]) -> dict[str, Any]:
    """The scalars with every infinite float replaced by None (JSON null)."""
    return {
        key: None if isinstance(value, float) and math.isinf(value) else value
        for key, value in scalars.items()
    }


def _json_cells(column: Sequence) -> list[str]:
    """Each cell of ``column`` as JSON text, from one C-encoder call on one copy (for ``range``).

    No encoded value holds a raw newline, so "\n" as item separator splits
    the array exactly.  A non-finite float encodes as a bare ``Infinity``,
    ``-Infinity`` or ``NaN`` (a string cell is always quoted): infinities
    become ``null`` as :func:`_jsonable` makes them, and NaN is rejected as
    ``allow_nan=False`` rejects it.
    """
    encoded = json.dumps(list(column), separators=("\n", ":"))
    cells = encoded[1:-1].split("\n")
    if "NaN" in cells:
        raise ValueError("Out of range float values are not JSON compliant")
    if "Infinity" in encoded:
        cells = list(map(_INFINITY_TO_NULL.get, cells, cells))
    return cells


def render_json(table: Table) -> str:
    document = {
        "meta": {"schema": SCHEMA_VERSION, "version": __version__, **_jsonable(table.meta)},
        "rows": [],
    }
    if table.annotations:
        document["annotations"] = _jsonable(table.annotations)
    head, _, tail = json.dumps(document, indent=2, allow_nan=False).partition(_ROWS_LINE)
    columns = list(table.columns.values())
    if not len(columns[0]):
        return head + _ROWS_LINE + tail + "\n"
    fields = ",\n".join(
        f"      {json.dumps(column).replace('%', '%%')}: %s" for column in table.columns
    )
    template = "    {\n" + fields + "\n    }"
    rows = _render_rows(columns, _json_cells, template.__mod__, ",\n")
    return f'{head}\n  "rows": [\n{rows}\n  ]{tail}\n'


def _write_stdout(text: str) -> None:
    """Write ``text`` to stdout in full, or raise ``OSError``.

    A stream with a binary ``buffer`` gets the encoded bytes in a loop over
    short writes: under ``python -u`` the text layer writes through to a raw
    file and drops what a short write leaves, so a reader that closes early
    would cut the document short with exit 0.  A text-only stream (an
    ``io.StringIO``) gets ``text`` as it is.
    """
    stream = sys.stdout
    buffer = getattr(stream, "buffer", None)
    if buffer is None:
        stream.write(text)
        return
    stream.flush()
    data = memoryview(text.encode(stream.encoding, stream.errors))
    while data:
        data = data[buffer.write(data):]
    buffer.flush()


def write_text(text: str, out_path: str | None) -> None:
    """Write to stdout, or atomically to ``out_path``."""
    if out_path is None:
        _write_stdout(text)
        return
    directory = os.path.dirname(os.path.abspath(out_path))
    temp_path = os.path.join(directory, f".freqborn-{os.urandom(8).hex()}")
    # mode 0o666 under the process umask: the mode a plain open() would give
    descriptor = os.open(temp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(descriptor, "w") as handle:
            handle.write(text)
        os.replace(temp_path, out_path)
    except BaseException:
        if os.path.exists(temp_path):
            os.unlink(temp_path)
        raise
