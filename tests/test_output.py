"""The columnar renderers print exactly the bytes of the row-wise reference, also with
the rows of a table rendered in blocks over two processes."""

import io
import json
import math
import os
import signal
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import child_env
from freqborn import __version__ as VERSION
from freqborn import output
from freqborn.output import SCHEMA_VERSION, Table, render_csv, render_json, write_text


def reference_csv(columns, rows, annotations):
    lines = [f"#schema={SCHEMA_VERSION}", ",".join(columns)]
    lines += [",".join(map(str, row)) for row in rows]
    lines += [f"#{key}={value}" for key, value in annotations.items()]
    return "\n".join(lines) + "\n"


def _jsonable(value):
    return None if isinstance(value, float) and math.isinf(value) else value


def reference_json(columns, rows, meta, annotations):
    meta = {k: _jsonable(v) for k, v in meta.items()}
    document = {
        "meta": {"schema": SCHEMA_VERSION, "version": VERSION, **meta},
        "rows": [{c: _jsonable(v) for c, v in zip(columns, row)} for row in rows],
    }
    if annotations:
        document["annotations"] = {k: _jsonable(v) for k, v in annotations.items()}
    return json.dumps(document, indent=2, allow_nan=False) + "\n"


TEXT = st.text(alphabet=st.sampled_from(list('ab,"\\\n%é∞ \t')), max_size=6)
CELLS = st.one_of(
    st.integers(min_value=-(10**20), max_value=10**20),
    st.booleans(),
    st.none(),
    st.sampled_from([math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 0.1, 1.0]),
    st.floats(allow_nan=False),
    TEXT,
)
SCALARS = st.one_of(st.integers(), st.floats(allow_nan=False), TEXT, st.none())
# the cells of a float64 column between its runs of +0.0
FLOAT_CELLS = st.one_of(
    st.just(0.0),
    st.sampled_from([-0.0, math.inf, -math.inf, 5e-324, 1e16, 0.1, 1.0]),
    st.floats(allow_nan=False),
)


@st.composite
def float_arrays(draw, size):
    """float64 cells: +0.0 runs around a middle that may start or end at -0.0, ±inf or NaN."""
    lead = draw(st.integers(min_value=0, max_value=size))
    trail = draw(st.integers(min_value=0, max_value=size - lead))
    middle = draw(st.lists(FLOAT_CELLS, min_size=size - lead - trail, max_size=size - lead - trail))
    if middle and draw(st.integers(min_value=0, max_value=9)) == 0:
        middle[draw(st.integers(min_value=0, max_value=len(middle) - 1))] = math.nan
    return np.array([0.0] * lead + middle + [0.0] * trail, dtype=np.float64)


@st.composite
def tables(draw, cells=CELLS):
    """A table and its rows as Python values; a column is a list, a float64 or an int64 array."""
    columns = tuple(draw(st.lists(TEXT, min_size=1, max_size=4, unique=True)))
    size = draw(st.integers(min_value=0, max_value=6))
    data = [
        draw(
            st.one_of(
                st.lists(cells, min_size=size, max_size=size),
                float_arrays(size),
                st.lists(st.integers(-(2**63), 2**63 - 1), min_size=size, max_size=size).map(
                    lambda ints: np.array(ints, dtype=np.int64)
                ),
            )
        )
        for _ in columns
    ]
    if draw(st.booleans()):
        data[0] = range(size)
    cells_of = [column.tolist() if isinstance(column, np.ndarray) else column for column in data]
    rows = [tuple(column[i] for column in cells_of) for i in range(size)]
    meta = draw(st.dictionaries(TEXT, st.one_of(SCALARS, st.booleans()), max_size=3))
    annotations = draw(st.dictionaries(TEXT, SCALARS, max_size=3))
    return Table(dict(zip(columns, data)), meta, annotations), rows


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def same_cell(value, expected):
    return value == expected or value != value and expected != expected  # NaN is NaN


@settings(max_examples=300, deadline=None)
@given(tables(), st.sampled_from([output.BLOCK_ROWS, 1, 2, 3]))
def test_renderers_match_row_wise_reference(case, block_rows):
    """Also with the rows rendered in blocks of ``block_rows`` over two processes."""
    table, rows = case
    assert len(table.rows) == len(rows)
    assert all(map(same_cell, (v for row in table.rows for v in row), (v for row in rows for v in row)))
    columns = list(table.columns)
    try:
        expected_json = reference_json(columns, rows, table.meta, table.annotations)
    except ValueError:  # a NaN cell
        expected_json = None
    with mock.patch.object(output, "_usable_cpus", lambda: 2), mock.patch.object(
        output, "BLOCK_ROWS", block_rows
    ):
        csv_text = render_csv(table)
        if expected_json is None:
            with pytest.raises(ValueError):
                render_json(table)
        else:
            json_text = render_json(table)
    assert_no_child_left()
    assert csv_text == reference_csv(columns, rows, table.annotations)
    if expected_json is not None:
        assert json_text == expected_json


@settings(max_examples=50, deadline=None)
@given(tables(cells=st.one_of(CELLS, st.just(math.nan))))
def test_nan_cell_raises_in_json_like_the_reference(case):
    table, rows = case
    columns = list(table.columns)
    assert render_csv(table) == reference_csv(columns, rows, table.annotations)
    if any(isinstance(v, float) and math.isnan(v) for row in rows for v in row):
        with pytest.raises(ValueError):
            reference_json(columns, rows, table.meta, table.annotations)
        with pytest.raises(ValueError):
            render_json(table)
    else:
        assert render_json(table) == reference_json(columns, rows, table.meta, table.annotations)


def test_failed_rename_keeps_the_old_file_and_removes_the_temp_file(tmp_path, monkeypatch):
    target = tmp_path / "doc.csv"
    target.write_text("old\n")

    def failing_replace(source, destination):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="rename refused"):
        write_text("new\n", str(target))
    assert target.read_text() == "old\n"
    assert [path.name for path in tmp_path.iterdir()] == ["doc.csv"]


class ShortWriteRaw(io.RawIOBase):
    """A raw file that takes at most ``limit`` bytes per write, as a pipe may."""

    def __init__(self, limit):
        self.limit = limit
        self.received = bytearray()

    def writable(self):
        return True

    def write(self, data):
        taken = bytes(data[: self.limit])
        self.received += taken
        return len(taken)


def test_stdout_bytes_survive_short_writes(monkeypatch):
    raw = ShortWriteRaw(7)
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, encoding="utf-8", write_through=True))
    text = "#schema=v1\nx,\u00e9\n" + "1,2\n" * 40
    write_text(text, None)
    assert bytes(raw.received) == text.encode()


def test_text_only_stdout_gets_the_text(monkeypatch):
    stream = io.StringIO()
    monkeypatch.setattr(sys, "stdout", stream)
    write_text("a,b\n1,2\n", None)
    assert stream.getvalue() == "a,b\n1,2\n"


@pytest.mark.parametrize("unbuffered", [False, True])
def test_stdout_closed_early_exits_2(unbuffered):
    # an 8 MB document: the reader closes after 100 bytes, so the write breaks the pipe
    env = child_env(PYTHONUNBUFFERED="1" if unbuffered else None)
    command = [sys.executable, "-m", "freqborn.cli", "decompose", "--a2", "0.3", "--n", "200000"]
    with subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as child:
        assert len(child.stdout.read(100)) == 100
        child.stdout.close()
        stderr = child.stderr.read().decode()
        child.wait(timeout=60)
    assert child.returncode == 2, stderr
    assert stderr == "error: [Errno 32] Broken pipe\n"


def test_stdout_documents_are_the_out_file_bytes(tmp_path):
    args = ["decompose", "--amps", "0.6,0.8i", "--n", "300", "--format", "json"]
    run = [sys.executable, "-m", "freqborn.cli", *args]
    subprocess.run([*run, "--out", "doc.json"], cwd=tmp_path, env=child_env(PYTHONUNBUFFERED=None), check=True,
                   timeout=60)
    expected = (tmp_path / "doc.json").read_bytes()
    for unbuffered in (None, "1"):
        child = subprocess.run(run, cwd=tmp_path, env=child_env(PYTHONUNBUFFERED=unbuffered), capture_output=True,
                               timeout=60)
        assert child.returncode == 0, child.stderr
        assert child.stdout == expected


# --- rows rendered in blocks over two processes ------------------------------------------


@pytest.fixture
def forks(monkeypatch):
    """Renders one row per block, so a table of 2+ rows forks on any host, and counts the forks."""
    calls = []
    fork = os.fork

    def counted_fork():
        calls.append(None)
        return fork()

    monkeypatch.setattr(output, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(output, "BLOCK_ROWS", 1)
    monkeypatch.setattr(os, "fork", counted_fork)
    return calls


def float_table(size, nan_at=None):
    weights = [i / 7 for i in range(size)]
    if nan_at is not None:
        weights[nan_at] = math.nan
    return Table({"n": range(size), "weight": weights, "label": [f"r{i}" for i in range(size)]}, {"N": size})


def serial(render, table):
    """The document rendered as one block."""
    with mock.patch.object(output, "BLOCK_ROWS", sys.maxsize):
        return render(table)


@pytest.mark.parametrize("render", [render_csv, render_json])
@pytest.mark.parametrize("size", [2, 3, 4])
def test_split_starts_at_the_threshold(forks, monkeypatch, render, size):
    """Two-row blocks: three rows make the second block, which the child renders."""
    monkeypatch.setattr(output, "BLOCK_ROWS", 2)
    table = float_table(size)
    assert render(table) == serial(render, table)
    assert len(forks) == (size >= 3)
    assert_no_child_left()


@pytest.mark.parametrize("render", [render_csv, render_json])
def test_default_threshold_splits_a_large_table(monkeypatch, render):
    monkeypatch.setattr(output, "_usable_cpus", lambda: 2)
    table = float_table(output.BLOCK_ROWS + 1)
    assert render(table) == serial(render, table)
    assert_no_child_left()


@pytest.mark.parametrize("nan_at", [0, 2, 5])
def test_nan_cell_in_either_half_raises_the_serial_error(forks, nan_at):
    table = float_table(6, nan_at)
    with pytest.raises(ValueError) as expected:
        serial(render_json, table)
    forks.clear()
    with pytest.raises(ValueError) as raised:
        render_json(table)
    assert len(forks) == 1
    assert str(raised.value) == str(expected.value)
    assert_no_child_left()


@pytest.mark.parametrize("render", [render_csv, render_json])
def test_failed_fork_renders_the_same_bytes(forks, monkeypatch, render):
    def failing_fork():
        raise OSError("fork refused")

    monkeypatch.setattr(os, "fork", failing_fork)
    table = float_table(6)
    assert render(table) == serial(render, table)
    assert_no_child_left()


@pytest.mark.parametrize("render", [render_csv, render_json])
def test_one_usable_cpu_renders_serially(monkeypatch, render):
    monkeypatch.setattr(output, "BLOCK_ROWS", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked with one usable CPU"))
    table = float_table(6)
    assert render(table) == serial(render, table)


class Interrupting:
    def __str__(self):
        raise KeyboardInterrupt


def test_interrupt_while_rendering_reaps_the_child(forks):
    table = float_table(6)
    table.columns["weight"][0] = Interrupting()
    with pytest.raises(KeyboardInterrupt):
        render_csv(table)
    assert len(forks) == 1
    assert_no_child_left()


def test_child_that_exits_non_zero_without_writing_gives_the_serial_bytes(forks, monkeypatch):
    fork = os.fork

    def failing_child():
        pid = fork()
        if pid == 0:
            os._exit(3)
        return pid

    monkeypatch.setattr(os, "fork", failing_child)
    table = float_table(6)
    for render in (render_csv, render_json):
        assert render(table) == serial(render, table)
    assert len(forks) == 2
    assert_no_child_left()


@pytest.fixture
def deadline():
    """Fails the test, instead of hanging it, if it runs longer than 60 s."""

    def expire(signum, frame):
        pytest.fail("the render did not finish within 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def test_error_in_this_half_reaps_a_child_whose_half_fills_the_pipe(forks, monkeypatch, deadline):
    """The child's half is larger than a pipe buffer, so it can finish only once the pipe closes."""
    # the child's 2,000 rows take over 200 KB, a Linux pipe buffer 64 KiB
    monkeypatch.setattr(output, "BLOCK_ROWS", 1000)
    table = Table({"n": range(4000), "label": ["x" * 100] * 4000}, {"N": 4000})
    table.columns["label"][0] = Interrupting()
    with pytest.raises(KeyboardInterrupt):
        render_csv(table)
    assert len(forks) == 1
    assert_no_child_left()
