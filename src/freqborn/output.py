"""Deterministic CSV/JSON table emission for the command-line tools.

Every document is a function of the command parameters alone: no timestamps,
no environment-dependent fields, floats rendered with shortest round-trip
repr.  Files are written atomically (temp file in the target directory, then
rename).

Tables are columnar: ``Table.columns`` maps each column name, in document
order, to its cells, as a list, a ``range`` or a 1-D float or integer numpy
array.  ``Table.rows`` transposes back to row tuples only for callers that
count rows from outside the package; nothing in the package reads it.

There is one row pipeline, ``_render_rows``: the rows render in blocks of
``BLOCK_ROWS`` from the columns' ``[start:start + BLOCK_ROWS]`` slices.  In a
block each column is formatted with C-level calls (``float.__repr__`` on a
float array's ``tolist()``, ``int.__repr__`` on a range or an integer array,
``str`` or one ``json.dumps`` on other lists), the formatted columns are
zipped into rows, and each row becomes a line (``",".join``, or a JSON ``%``
template built once from the encoded column names, which reproduces what
``json.dumps(..., indent=2)`` prints for the row-dict layout), so no Python
statement runs per row.  In a float block only the span outside which every
cell is +0.0 is formatted; the +0.0 cells around it (the sectors whose
weight underflows) get the text ``0.0`` as is.  In JSON an infinity prints
as ``null`` and a NaN cell raises ``ValueError``, as ``allow_nan=False`` does.

A table of two or more blocks is split once over two processes: this
process renders the first half of the blocks, while a forked child renders
the second half and writes it to a pipe as one UTF-8 text, joined as the
document joins blocks.  Each process converts only its own blocks to Python
objects, and the document is joined once, with the serial bytes.  The child
is reaped on every path, an exception or an interrupt included.  The blocks
render serially instead where ``os.fork`` is missing, where the process may
use only one CPU, and where the fork fails.  If the child does not exit 0 (a
NaN JSON cell, say), this process renders the child's half itself, so it
raises what the serial path raises.
"""

from __future__ import annotations

import json
import math
import os
import sys
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from . import __version__

SCHEMA_VERSION = "v1"

# The rows key line of the indent=2 top-level object.  Encoded JSON values
# hold no raw newline and nested lines are indented deeper, so this line
# occurs exactly once in a document.
_ROWS_LINE = '\n  "rows": []'
# json.dumps' and float.__repr__'s spellings of the infinities; a string cell is quoted
_INFINITY_TO_NULL = {"Infinity": "null", "-Infinity": "null", "inf": "null", "-inf": "null"}
_NAN_MESSAGE = "Out of range float values are not JSON compliant"
# Rows render in blocks of this many; from two blocks on, a forked child renders the second half.
BLOCK_ROWS = 2**13


@dataclass
class Table:
    """One columnar result plus metadata and optional appended scalars.

    ``columns`` maps each column name, in document order, to its cells, the
    same number in every column: a list of scalars (int, float, str, bool or
    None), a ``range``, or a 1-D float or integer numpy array, whose cells are
    the Python numbers of its ``tolist()``.  ``annotations`` become trailing
    ``#key=value`` comment lines in CSV and a top-level ``annotations``
    object in JSON.
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


def _render_rows(columns: list[Sequence], cells: Callable, row: Callable, separator: str) -> list[str]:
    """The rows, as ``row`` of each row's cell texts, in texts that join with ``separator``.

    ``cells`` formats one column's ``[start:start + BLOCK_ROWS]`` slice, and
    each text is one or more blocks' rows joined by ``separator``.  Of B >= 2
    blocks this process renders the first ceil(B/2), one text each, and a
    forked child renders the rest as one last text.
    """

    def render(start: int) -> str:
        stop = start + BLOCK_ROWS
        return separator.join(map(row, zip(*[cells(column[start:stop]) for column in columns])))

    starts = range(0, len(columns[0]), BLOCK_ROWS)
    if len(starts) < 2 or not hasattr(os, "fork") or _usable_cpus() < 2:
        return list(map(render, starts))
    half = (len(starts) + 1) // 2
    read_end, write_end = os.pipe()
    try:
        with warnings.catch_warnings():
            # A CLI process loads numpy with one BLAS thread, but a library
            # caller's numpy may run a thread pool, and Python >= 3.12 warns on
            # fork() in a multi-threaded process.  The child is safe: it only
            # formats what it already holds, writes one pipe and leaves by
            # os._exit, touching no lock another thread may hold.
            warnings.filterwarnings(
                "ignore", r"This process .* is multi-threaded, use of fork\(\)", DeprecationWarning
            )
            pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        return list(map(render, starts))
    if pid == 0:
        # the child: no stdio flush and no atexit handler, whatever happens
        code = 1
        try:
            os.close(read_end)
            with open(write_end, "wb") as pipe:
                pipe.write(separator.join(map(render, starts[half:])).encode())
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    try:
        # on an exception the read end closes first, so a child still
        # writing fails at once and exits, and waitpid returns
        with open(read_end, "rb") as pipe:
            blocks = list(map(render, starts[:half]))
            text = pipe.read()
    finally:
        status = os.waitpid(pid, 0)[1]
    if status:
        # the child stopped early (a NaN JSON cell, say): its blocks render here,
        # so this raises what the serial path raises
        return blocks + list(map(render, starts[half:]))
    return blocks + [text.decode()]


def _float_texts(block: np.ndarray) -> list[str]:
    """``float.__repr__`` of each cell; the +0.0 cells around all others get "0.0" without a call."""
    # NaN compares unequal to 0.0 and -0.0 has its sign bit set
    live = np.flatnonzero((block != 0.0) | np.signbit(block))
    texts = ["0.0"] * len(block)
    if live.size:
        lo, hi = int(live[0]), int(live[-1]) + 1
        texts[lo:hi] = map(float.__repr__, block[lo:hi].tolist())
    return texts


def _kind(block: Sequence) -> tuple[str, Sequence]:
    """("f", block) for a float array, ("i", ints) for a range or an integer array, else ("o", cells)."""
    if isinstance(block, range):
        return "i", block
    if isinstance(block, np.ndarray):
        if block.dtype.kind == "f":
            return "f", block
        return ("i" if block.dtype.kind in "iu" else "o"), block.tolist()
    return "o", block


def _csv_cells(block: Sequence) -> Iterable[str]:
    kind, cells = _kind(block)
    if kind == "f":
        return _float_texts(cells)
    return map(int.__repr__ if kind == "i" else str, cells)


def render_csv(table: Table) -> str:
    lines = [f"#schema={SCHEMA_VERSION}", ",".join(table.columns)]
    lines += _render_rows(list(table.columns.values()), _csv_cells, ",".join, "\n")
    lines.extend(f"#{key}={value}" for key, value in table.annotations.items())
    lines.append("")
    return "\n".join(lines)


def _jsonable(scalars: dict[str, Any]) -> dict[str, Any]:
    """The scalars with every infinite float replaced by None (JSON null)."""
    return {
        key: None if isinstance(value, float) and math.isinf(value) else value
        for key, value in scalars.items()
    }


def _json_cells(block: Sequence) -> Iterable[str]:
    """Each cell of ``block`` as JSON text; an infinity becomes ``null`` and NaN is rejected.

    Numbers are formatted as the JSON encoder formats them.  Other cells come
    from one C-encoder call on one copy of the block: no encoded value holds
    a raw newline, so "\n" as item separator splits the array exactly, and a
    non-finite float encodes as a bare ``Infinity``, ``-Infinity`` or ``NaN``
    (a string cell is always quoted).  Infinities become ``null`` as
    :func:`_jsonable` makes them, and NaN is rejected as ``allow_nan=False``
    rejects it.
    """
    kind, cells = _kind(block)
    if kind == "i":
        return map(int.__repr__, cells)
    if kind == "f":
        if np.isnan(cells).any():
            raise ValueError(_NAN_MESSAGE)
        texts = _float_texts(cells)
        infinite = np.isinf(cells).any()
    else:
        encoded = json.dumps(list(cells), separators=("\n", ":"))
        texts = encoded[1:-1].split("\n")
        if "NaN" in texts:
            raise ValueError(_NAN_MESSAGE)
        infinite = "Infinity" in encoded
    return list(map(_INFINITY_TO_NULL.get, texts, texts)) if infinite else texts


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
    # the document in one join: the head, each block followed by its separator, the tail
    parts = [f'{head}\n  "rows": [\n']
    for block in _render_rows(columns, _json_cells, template.__mod__, ",\n"):
        parts += (block, ",\n")
    parts[-1] = f"\n  ]{tail}\n"
    return "".join(parts)


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
