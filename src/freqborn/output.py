"""Deterministic CSV/JSON table emission for the command-line tools.

Every document is a function of the command parameters alone: no timestamps,
no environment-dependent fields, floats rendered with shortest round-trip
repr.  Files are written atomically (temp file in the target directory, then
rename).

Tables are columnar: ``Table.data[j]`` holds the cells of ``columns[j]``, as
a list (typically from ``ndarray.tolist()``) or a ``range``.  Both renderers
format a whole column with one C-level call (``map(str, ...)`` for CSV, one
``json.dumps`` for JSON) and then zip the formatted columns into lines, so no
Python statement runs per row.  A JSON row is one ``%`` template built once
from the JSON-encoded column names; it reproduces exactly what
``json.dumps(..., indent=2)`` prints for the row-dict layout, so the bytes
are those of the row-wise renderer.  ``Table.rows`` transposes back to row
tuples only for callers that count rows from outside the package; nothing in
the package reads it.
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field
from typing import Any, Sequence

SCHEMA_VERSION = "v1"

# The rows key line of the indent=2 top-level object.  Encoded JSON values
# hold no raw newline and nested lines are indented deeper, so this line
# occurs exactly once in a document.
_ROWS_LINE = '\n  "rows": []'
_INFINITY_TO_NULL = {"Infinity": "null", "-Infinity": "null"}


@dataclass
class Table:
    """One columnar result plus metadata and optional appended scalars.

    ``data[j]`` holds the cells of ``columns[j]``: scalars (int, float, str,
    bool or None), the same number in every column.  ``annotations`` become trailing ``#key=value`` comment lines in
    CSV and a top-level ``annotations`` object in JSON.
    """

    columns: tuple[str, ...]
    data: Sequence[Sequence]
    meta: dict[str, Any]
    annotations: dict[str, Any] = field(default_factory=dict)

    @property
    def rows(self) -> list[tuple]:
        """The cells as row tuples (a transpose of ``data``)."""
        return list(zip(*self.data))


def render_csv(table: Table) -> str:
    cells = [map(str, column) for column in table.data]
    lines = [f"#schema={SCHEMA_VERSION}", ",".join(table.columns)]
    lines.extend(map(",".join, zip(*cells)))
    lines.extend(f"#{key}={value}" for key, value in table.annotations.items())
    return "\n".join(lines) + "\n"


def _jsonable(scalars: dict[str, Any]) -> dict[str, Any]:
    """The scalars with every infinite float replaced by None (JSON null)."""
    return {
        key: None if isinstance(value, float) and math.isinf(value) else value
        for key, value in scalars.items()
    }


def _json_cells(column: Sequence) -> list[str]:
    """Each cell of ``column`` as JSON text, from one C-encoder call.

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


def render_json(table: Table, version: str) -> str:
    document = {
        "meta": {"schema": SCHEMA_VERSION, "version": version, **_jsonable(table.meta)},
        "rows": [],
    }
    if table.annotations:
        document["annotations"] = _jsonable(table.annotations)
    head, _, tail = json.dumps(document, indent=2, allow_nan=False).partition(_ROWS_LINE)
    if not table.data[0]:
        return head + _ROWS_LINE + tail + "\n"
    fields = ",\n".join(
        f"      {json.dumps(column).replace('%', '%%')}: %s" for column in table.columns
    )
    template = "    {\n" + fields + "\n    }"
    rows = ",\n".join(map(template.__mod__, zip(*map(_json_cells, table.data))))
    return f'{head}\n  "rows": [\n{rows}\n  ]{tail}\n'


def write_text(text: str, out_path: str | None) -> None:
    """Write to stdout, or atomically to ``out_path``."""
    if out_path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out_path))
    descriptor, temp_path = tempfile.mkstemp(dir=directory, prefix=".freqborn-")
    # mkstemp creates mode 0600; give the file the mode a plain open() would
    umask = os.umask(0)
    os.umask(umask)
    try:
        with os.fdopen(descriptor, "w") as handle:
            os.fchmod(handle.fileno(), 0o666 & ~umask)
            handle.write(text)
        os.replace(temp_path, out_path)
    except BaseException:
        if os.path.exists(temp_path):
            os.unlink(temp_path)
        raise
