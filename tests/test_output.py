"""The columnar renderers print exactly the bytes of the row-wise reference."""

import json
import math
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqborn import __version__ as VERSION
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


@st.composite
def tables(draw, cells=CELLS):
    columns = tuple(draw(st.lists(TEXT, min_size=1, max_size=4, unique=True)))
    size = draw(st.integers(min_value=0, max_value=5))
    data = [draw(st.lists(cells, min_size=size, max_size=size)) for _ in columns]
    if draw(st.booleans()):
        data[0] = range(size)
    rows = [tuple(column[i] for column in data) for i in range(size)]
    meta = draw(st.dictionaries(TEXT, st.one_of(SCALARS, st.booleans()), max_size=3))
    annotations = draw(st.dictionaries(TEXT, SCALARS, max_size=3))
    return Table(dict(zip(columns, data)), meta, annotations), rows


@settings(max_examples=300, deadline=None)
@given(tables())
def test_renderers_match_row_wise_reference(case):
    table, rows = case
    assert table.rows == rows
    columns = list(table.columns)
    assert render_csv(table) == reference_csv(columns, rows, table.annotations)
    assert render_json(table) == reference_json(columns, rows, table.meta, table.annotations)


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
