"""Deterministic CSV/JSON table emission for the command-line tools.

Every document is a function of the command parameters alone: no timestamps,
no environment-dependent fields, floats rendered with shortest round-trip
repr.  Files are written atomically (temp file in the target directory, then
rename).
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field
from typing import Any

SCHEMA_VERSION = "v1"


@dataclass
class Table:
    """One tabular result plus metadata and optional appended scalars.

    ``annotations`` become trailing ``#key=value`` comment lines in CSV and a
    top-level ``annotations`` object in JSON.
    """

    columns: tuple[str, ...]
    rows: list[tuple]
    meta: dict[str, Any]
    annotations: dict[str, Any] = field(default_factory=dict)


def format_value(value: Any) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_csv(table: Table) -> str:
    lines = [f"#schema={SCHEMA_VERSION}"]
    lines.append(",".join(table.columns))
    for row in table.rows:
        lines.append(",".join(format_value(v) for v in row))
    for key, value in table.annotations.items():
        lines.append(f"#{key}={format_value(value)}")
    return "\n".join(lines) + "\n"


def _jsonable(value: Any) -> Any:
    if isinstance(value, float) and math.isinf(value):
        return None
    return value


def render_json(table: Table, version: str) -> str:
    document = {
        "meta": {"schema": SCHEMA_VERSION, "version": version, **table.meta},
        "rows": [
            {column: _jsonable(v) for column, v in zip(table.columns, row)}
            for row in table.rows
        ],
    }
    if table.annotations:
        document["annotations"] = {k: _jsonable(v) for k, v in table.annotations.items()}
    return json.dumps(document, indent=2, allow_nan=False) + "\n"


def write_text(text: str, out_path: str | None) -> None:
    """Write to stdout, or atomically to ``out_path``."""
    if out_path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out_path))
    descriptor, temp_path = tempfile.mkstemp(dir=directory, prefix=".freqborn-")
    try:
        with os.fdopen(descriptor, "w") as handle:
            handle.write(text)
        os.replace(temp_path, out_path)
    except BaseException:
        if os.path.exists(temp_path):
            os.unlink(temp_path)
        raise
