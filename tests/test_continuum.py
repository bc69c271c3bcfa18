"""Unit tests for the grid-wavefunction region reduction."""

import csv
import io
import math
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqborn import continuum
from freqborn.continuum import (
    GridWavefunction,
    Region,
    read_wavefunction_csv,
    region_frequency_analysis,
    region_probability,
)
from freqborn.decomposition import SingleCopyState, decompose_two_level
from freqborn.errors import NormalizationError


def box_wavefunction(spacing=0.001):
    # constant density 1 on [0, 1)
    count = round(1.0 / spacing)
    return GridWavefunction(0.0, spacing, np.ones(count))


def gaussian_wavefunction(spacing=0.01, half_width=8.0):
    # |psi|^2 is the standard normal density; x = 0 lies on the grid
    count = int(round(2 * half_width / spacing))
    x = -half_width + spacing * np.arange(count)
    samples = (2.0 * math.pi) ** -0.25 * np.exp(-x * x / 4.0)
    return GridWavefunction(-half_width, spacing, samples, renormalize=True)


# --- GridWavefunction ------------------------------------------------------------


def test_wavefunction_validates_norm():
    with pytest.raises(NormalizationError):
        GridWavefunction(0.0, 0.001, np.full(500, 1.0))


def test_wavefunction_renormalizes_on_request():
    psi = GridWavefunction(0.0, 0.001, np.full(500, 1.0), renormalize=True)
    assert region_probability(psi, Region(((-1.0, 2.0),))) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(NormalizationError, match="inf"):
        GridWavefunction(0.0, 0.001, np.full(500, 1e200), renormalize=True)


def test_wavefunction_validates_inputs():
    with pytest.raises(ValueError):
        GridWavefunction(0.0, -0.1, np.ones(10))
    with pytest.raises(ValueError):
        GridWavefunction(0.0, 0.1, np.array([]))
    with pytest.raises(ValueError, match="finite"):
        GridWavefunction(0.0, 0.5, [1.0, float("nan")])
    with pytest.raises(ValueError, match="finite"):
        GridWavefunction(0.0, 0.5, [1.0, complex(0.0, float("inf"))], renormalize=True)


@pytest.mark.parametrize(
    "origin,spacing,message",
    [
        (math.nan, 0.5, "^origin must be finite, got nan$"),
        (-math.inf, 0.5, "^origin must be finite, got -inf$"),
        (math.inf, 0.5, "^origin must be finite, got inf$"),
        (0.0, math.inf, "^spacing must be positive and finite, got inf$"),
        (0.0, math.nan, "^spacing must be positive and finite, got nan$"),
    ],
)
def test_wavefunction_rejects_non_finite_origin_or_spacing(origin, spacing, message):
    # a bad argument, not a mass failure: no NormalizationError, and no region mass read off it
    with pytest.raises(ValueError, match=message) as raised:
        GridWavefunction(origin, spacing, [1.0, 1.0])
    assert type(raised.value) is ValueError


# --- Region -----------------------------------------------------------------------


def test_region_rejects_overlap_and_disorder():
    with pytest.raises(ValueError):
        Region(((0.0, 1.0), (0.5, 2.0)))
    with pytest.raises(ValueError):
        Region(((1.0, 2.0), (0.0, 0.5)))
    with pytest.raises(ValueError):
        Region(((1.0, 1.0),))


def test_region_parse_and_membership():
    region = Region.parse("0:0.25,0.5:0.75")
    x = np.array([-0.1, 0.0, 0.2, 0.25, 0.4, 0.5, 0.74, 0.75])
    assert region.membership(x).tolist() == [False, True, True, False, False, True, True, False]


def test_region_parse_infinite_bound():
    region = Region.parse("0:inf")
    assert region.membership(np.array([-1.0, 0.0, 1e9])).tolist() == [False, True, True]


def test_region_parse_empty_text_is_the_empty_region():
    assert Region.parse("") == Region(())
    assert Region.parse("  ").intervals == ()


def test_region_parse_rejects_garbage():
    with pytest.raises(ValueError):
        Region.parse("0-1")
    with pytest.raises(ValueError):
        Region.parse("a:b")


# --- region_probability -------------------------------------------------------------


def test_region_probability_whole_grid():
    psi = box_wavefunction()
    assert region_probability(psi, Region(((-1.0, 2.0),))) == pytest.approx(1.0, abs=1e-6)


def test_region_probability_empty_region():
    assert region_probability(box_wavefunction(), Region(())) == 0.0


def test_region_probability_quarter_box():
    spacing = 0.001
    psi = box_wavefunction(spacing)
    value = region_probability(psi, Region.parse("0:0.25"))
    assert abs(value - 0.25) <= spacing


def test_region_probability_complementarity():
    psi = gaussian_wavefunction()
    region = Region.parse("-0.37:1.23")
    complement = Region(((-math.inf, -0.37), (1.23, math.inf)))
    total = region_probability(psi, region) + region_probability(psi, complement)
    assert abs(total - 1.0) <= 1e-9


def test_region_probability_refinement_stability():
    coarse = gaussian_wavefunction(spacing=0.02)
    fine = gaussian_wavefunction(spacing=0.01)
    region = Region.parse("0:8")
    difference = abs(region_probability(coarse, region) - region_probability(fine, region))
    assert difference <= 0.02


# --- CSV interface --------------------------------------------------------------------


def write_csv(path, rows, header="x,re,im"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")


def test_csv_round_trip(tmp_path):
    psi = box_wavefunction(0.01)
    path = tmp_path / "psi.csv"
    rows = [f"{k * 0.01},1.0,0.0" for k in range(100)]
    write_csv(path, rows)
    loaded = read_wavefunction_csv(str(path))
    assert loaded.spacing == pytest.approx(0.01, rel=1e-12)
    assert np.allclose(loaded.samples, psi.samples)


def test_csv_rejects_nonuniform_grid(tmp_path):
    path = tmp_path / "psi.csv"
    xs = [k * 0.01 for k in range(100)]
    xs[50] += 1e-4
    write_csv(path, [f"{x},1.0,0.0" for x in xs])
    with pytest.raises(ValueError, match="uniform"):
        read_wavefunction_csv(str(path))


def test_csv_rejects_decreasing_grid(tmp_path):
    path = tmp_path / "psi.csv"
    write_csv(path, ["0.2,1.0,0.0", "0.1,1.0,0.0", "0.0,1.0,0.0"])
    with pytest.raises(ValueError, match="grid is not increasing"):
        read_wavefunction_csv(str(path))


def test_csv_rejects_comment_only_file(tmp_path):
    path = tmp_path / "psi.csv"
    path.write_text("# a comment\n\n# another\n")
    with pytest.raises(ValueError, match="empty wavefunction file"):
        read_wavefunction_csv(str(path))


def test_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "psi.csv"
    write_csv(path, ["0.0,1.0,0.0", "0.1,1.0,0.0", "0.2,1.0,0.0"], header="x,real,imag")
    with pytest.raises(ValueError, match="header"):
        read_wavefunction_csv(str(path))


def test_csv_rejects_non_numeric_cells(tmp_path):
    path = tmp_path / "psi.csv"
    write_csv(path, ["0.0,1.0,0.0", "0.1,oops,0.0", "0.2,1.0,0.0"])
    with pytest.raises(ValueError, match="non-numeric"):
        read_wavefunction_csv(str(path))


def test_csv_rejects_ragged_rows(tmp_path):
    path = tmp_path / "psi.csv"
    write_csv(path, ["0.0,1.0,0.0", "0.1,1.0,0.0,0.0", "0.2,1.0,0.0"])
    with pytest.raises(ValueError, match="three columns"):
        read_wavefunction_csv(str(path))


def reference_csv_samples(path):
    # the reader's rule with one float() per cell in a nested list, and its messages
    with open(path, newline="") as handle:
        rows = [row for row in csv.reader(handle) if row and not row[0].lstrip().startswith("#")]
    if not rows:
        raise ValueError(f"{path}: empty wavefunction file")
    if [cell.strip().lower() for cell in rows[0]] != ["x", "re", "im"]:
        raise ValueError(f"{path}: expected header x,re,im, got {rows[0]!r}")
    if len(rows) < 3:
        raise ValueError(f"{path}: need at least two sample rows")
    if any(len(row) != 3 for row in rows[1:]):
        raise ValueError(f"{path}: every row needs exactly three columns")
    try:
        data = np.array([[float(cell) for cell in row] for row in rows[1:]], dtype=np.float64)
    except ValueError:
        raise ValueError(f"{path}: non-numeric cell in wavefunction data") from None
    x = data[:, 0]
    spacing = (x[-1] - x[0]) / (len(x) - 1)
    # the reader's grid rule: a comment whose quote a later quoted cell closes swallows the rows between
    if not np.max(np.abs(np.diff(x) - spacing)) <= continuum.UNIFORM_SPACING_RTOL * spacing:
        raise ValueError(f"{path}: grid spacing is not uniform within {continuum.UNIFORM_SPACING_RTOL} relative")
    # a non-finite sample is GridWavefunction's to reject, without numpy's warning for 1j * inf
    with np.errstate(invalid="ignore"):
        samples = data[:, 1] + 1j * data[:, 2]
    return x[0], spacing, samples


def test_csv_edge_files_match_per_cell_float_bit_for_bit(tmp_path):
    rng = np.random.default_rng(11)
    values = rng.normal(size=(40, 2)) / math.sqrt(40 * 0.05 * 2)
    lines = ["# leading comment", "", '"x", re ,im']
    for k, (re, im) in enumerate(values.tolist()):
        x = repr(-1.0 + 0.05 * k)
        cells = [f'"{x}"', f"  {re!r} ", f"{im:.17e}"] if k % 3 == 0 else [x, repr(re), f" {im!r}"]
        lines.append(",".join(cells))
        if k == 17:
            lines += ["#x,re,im in mid-file", "", "   # indented comment"]
    path = tmp_path / "psi.csv"
    path.write_bytes(("\r\n".join(lines) + "\r\n").encode())
    psi = read_wavefunction_csv(str(path), renormalize=True)
    origin, spacing, samples = reference_csv_samples(path)
    assert psi.size == 40
    assert psi.origin.hex() == origin.hex()
    assert psi.spacing.hex() == spacing.hex()
    expected = GridWavefunction(origin, spacing, samples, renormalize=True)
    assert psi.samples.tobytes() == expected.samples.tobytes()
    assert psi.density.tobytes() == expected.density.tobytes()


# spaces float() strips around a number: ASCII ones and Unicode ones (NBSP, NEL, em, ideographic)
SPACES = (" ", "\t", "\x0b", "\x0c", "\xa0", "\x85", "\u2003", "\u3000")
# zeros of Arabic-Indic, extended Arabic-Indic, Devanagari and fullwidth digits
DIGIT_ZEROS = (0x660, 0x6F0, 0x966, 0xFF10)
NON_FINITE = ("inf", "-inf", "+Infinity", "INFINITY", "nan", "-NaN", "+nan", "iNf")
# cells float() rejects: bad underscores, inner spaces, other grammars
NON_NUMERIC = (
    "oops", "", "1__0", "_1", "1_", "1_.5", "1._5", "1e_5", "nan_", "\u0661_", "1 2", "1\u20032",
    "0x10", "1d5", "+", ".", "e5", "1e", "1,5", "1.0.0", "infinityy",
)
# ASCII separators that float() does not strip around a number, though str.isspace() is true
SEPARATORS = ("\x1c", "\x1d", "\x1e", "\x1f")
COMMENTS = ("# note", "#x,re,im", "   # indented", "\u3000#x", '"# quoted",1,2', '"#"', '"  #x"', '#"x",1')
WHITESPACE_ROWS = (" ", "\t", "  \u3000")
LINE_ENDS = ("\n", "\r\n", "\r")


@st.composite
def spelled_number(draw, value, plain):
    """``value`` as text that float() reads back exactly, in ASCII digits without underscores if ``plain``."""
    text = draw(st.sampled_from([repr(value), f"{value:.17e}", f"{value:.17g}"]))
    if not plain and draw(st.booleans()):
        underscores = draw(st.lists(st.booleans(), min_size=len(text), max_size=len(text)))
        text = text[0] + "".join(
            ("_" if before.isdigit() and ch.isdigit() and mark else "") + ch
            for before, ch, mark in zip(text, text[1:], underscores)
        )
    if not plain and draw(st.booleans()):
        zero = draw(st.sampled_from(DIGIT_ZEROS))
        text = "".join(chr(zero + int(ch)) if ch in "0123456789" else ch for ch in text)
    return text


@st.composite
def csv_cell(draw, text, plain):
    """``text`` with spaces around it, quoted when it holds a comma, and else maybe unless ``plain``."""
    spaces = st.text(st.sampled_from(SPACES), max_size=2)
    text = draw(spaces) + text + draw(spaces)
    if "," in text or (not plain and draw(st.booleans())):
        text = f'"{text}"' + draw(st.sampled_from(["", " "]))
    return text


FAULTS = (
    "ragged", "trailing comma", "whitespace row", "non-numeric", "separator", "space before quote",
    "non-finite sample", "bad header", "one sample row", "no rows", "quoted line break",
)
# comment rows whose quoted cell holds the line break {}; the last one stays open until a later quote
BROKEN_COMMENTS = ('#,"a{}b"', '"# a{}b",1,2', '  #"x{}",re', '#,"open{}')


@st.composite
def wavefunction_files(draw):
    """A wavefunction file as text, with at most one fault."""
    fault = draw(st.none() | st.sampled_from(FAULTS))
    # a plain file (no quote, underscore or non-ASCII digit unless a fault adds one) takes the np.loadtxt path
    plain = draw(st.booleans())
    size = 1 if fault == "one sample row" else draw(st.integers(2, 8))
    origin = draw(st.sampled_from([-1.0, 0.0, 0.3, 12.5]))
    spacing = draw(st.sampled_from([0.05, 0.1, 0.25, 1e-3]))
    amplitudes = st.floats(-10.0, 10.0, allow_nan=False)
    rows = []
    for k in range(size):
        values = (origin + k * spacing, draw(amplitudes), draw(amplitudes))
        rows.append([draw(csv_cell(draw(spelled_number(value, plain)), plain)) for value in values])
    k = draw(st.integers(0, size - 1))
    if fault == "ragged":
        # one row, or every row: numpy's parser reads rows all of one other width without an error
        width = draw(st.sampled_from([1, 2, 4]))
        for j in range(size) if draw(st.booleans()) else [k]:
            rows[j] = rows[j][:width] if width < 3 else [*rows[j], "0.0"]
    elif fault == "trailing comma":
        rows[k] = [*rows[k], ""]
    elif fault == "non-numeric":
        rows[k][draw(st.integers(0, 2))] = draw(csv_cell(draw(st.sampled_from(NON_NUMERIC)), plain))
    elif fault == "separator":
        separator = draw(st.sampled_from(SEPARATORS))
        rows[k][draw(st.integers(0, 2))] = draw(st.sampled_from([separator + "1.0", "1.0" + separator]))
    elif fault == "space before quote":
        rows[k][draw(st.integers(0, 2))] = ' "1.0"'
    elif fault == "non-finite sample":
        rows[k][draw(st.integers(1, 2))] = draw(csv_cell(draw(st.sampled_from(NON_FINITE)), plain))
    line_break = draw(st.sampled_from(LINE_ENDS))
    place = draw(st.sampled_from(["data row", "header", "comment"])) if fault == "quoted line break" else None
    if place == "data row":
        j = draw(st.integers(0, 2))
        text = rows[k][j].strip().strip('"')
        rows[k][j] = f'"{line_break}{text}"' if draw(st.booleans()) else f'"{text}{line_break}"'
    lines = [",".join(row) for row in rows]
    if fault == "whitespace row":
        lines.insert(draw(st.integers(0, size)), draw(st.sampled_from(WHITESPACE_ROWS)))
    if fault == "no rows":
        lines = []
    else:
        header = draw(st.sampled_from(["x,re,im", "X, Re ,IM", "x,re,im ", *([] if plain else ['"x","re","im"'])]))
        if place == "header":
            names = ["x", "re", "im"]
            j = draw(st.integers(0, 2))
            names[j] = f'"{names[j]}{line_break}"'
            header = ",".join(names)
        lines.insert(0, "x,real,imag" if fault == "bad header" else header)
    if place == "comment":
        comment = draw(st.sampled_from(BROKEN_COMMENTS)).format(line_break)
        lines.insert(draw(st.integers(0, len(lines))), comment)
    for _ in range(draw(st.integers(0, 3))):
        extra = draw(st.sampled_from(["", *(c for c in COMMENTS if not plain or '"' not in c)]))
        lines.insert(draw(st.integers(0, len(lines))), extra)
    ends = draw(st.sampled_from(LINE_ENDS + ("mixed",)))
    text = "".join(line + (draw(st.sampled_from(LINE_ENDS)) if ends == "mixed" else ends) for line in lines)
    return text[:-1] if text and draw(st.booleans()) else text


def read_outcome(read):
    try:
        psi = read()
    except Exception as exc:
        return type(exc), str(exc)
    return psi.origin.hex(), psi.spacing.hex(), psi.samples.tobytes()


@settings(max_examples=400, deadline=None)
@given(wavefunction_files())
def test_reader_accepts_and_rejects_what_csv_and_float_do(text):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "psi.csv"
        path.write_bytes(text.encode())
        expected = read_outcome(lambda: GridWavefunction(*reference_csv_samples(path), renormalize=True))
        assert read_outcome(lambda: read_wavefunction_csv(str(path), renormalize=True)) == expected


def test_undecodable_file_fails_as_csv_iteration_does(tmp_path):
    # the decoder names the byte's offset within the chunk it decodes, so the reader
    # must read the file in the chunks that iterating it for csv.reader does
    path = tmp_path / "psi.csv"
    path.write_bytes(b"x,re,im\n" + b"0.0,1.0,0.0\n" * 2000 + b"\xff\n")
    with pytest.raises(UnicodeDecodeError) as expected:
        reference_csv_samples(path)
    with pytest.raises(UnicodeDecodeError) as raised:
        read_wavefunction_csv(str(path))
    assert str(raised.value) == str(expected.value)


LONG_CELL = "0." + "0" * 199_998 + "1"  # 200,001 characters, past csv's field limit


@pytest.mark.parametrize(
    "lines",
    [
        ["x,re,im", "0.0,1.0,0.0", f"0.5,1.0,{LONG_CELL}"],
        [f"x,re,{'i' * 200_001}", "0.0,1.0,0.0", "0.5,1.0,0.0"],
        ["x,re,im", f'#"{LONG_CELL}', "0.0,1.0,0.0", "0.5,1.0,0.0"],
        # numpy's parser has no field limit, and it reads this line
        ["x,re,im", "0.0,1.0,0.0", f"0.5,{LONG_CELL},0.0", "1.0,1.0,0.0"],
    ],
    ids=["last data line", "header", "quoted comment", "middle data line"],
)
def test_cell_past_the_csv_field_limit_is_a_value_error(tmp_path, lines):
    path = tmp_path / "psi.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as raised:
        read_wavefunction_csv(str(path))
    assert str(raised.value) == f"{path}: field larger than field limit ({csv.field_size_limit()})"


@pytest.mark.parametrize(
    "text",
    [
        # csv reads the cell as "1.0\n", which float() accepts
        'x,re,im\n0.0,"1.0\n",0.0\n0.5,1.0,0.0\n',
        # csv reads the rest of the file into the comment row
        'x,re,im\n#,"open\n0.0,1.0,0.0\n0.5,1.0,0.0\n',
        '"x\n",re,im\n0.0,1.0,0.0\n0.5,1.0,0.0\n',
        # csv closes the cell at the end of the file
        'x,re,im\n0.0,1.0,0.0\n0.5,1.0,"0.0\n',
    ],
    ids=["data-cell", "comment-to-the-end", "header-cell", "data-cell-to-the-end"],
)
def test_quoted_cell_across_lines_reads_as_csv_does(tmp_path, text):
    path = tmp_path / "psi.csv"
    path.write_text(text)
    expected = read_outcome(lambda: GridWavefunction(*reference_csv_samples(path), renormalize=True))
    assert read_outcome(lambda: read_wavefunction_csv(str(path), renormalize=True)) == expected


@pytest.mark.parametrize("ends", ["\r\n", "\r", "mixed"])
def test_plain_numeric_file_never_reaches_the_csv_path(tmp_path, monkeypatch, ends):
    # a silent fall-back to csv.reader would read the same samples at about twice the cost
    def refuse(path, lines):
        raise AssertionError("the plain file reached the csv.reader path")

    values = np.random.default_rng(3).normal(size=(30, 2)) / math.sqrt(30 * 0.1 * 2)
    lines = ["# leading comment", "", " X, Re ,IM\u3000"]
    for k, (re, im) in enumerate(values.tolist()):
        cells = (repr(-1.0 + 0.1 * k), repr(re), f"{im:.17e}")
        pads = [SPACES[(3 * k + j) % len(SPACES)] for j in range(4)]
        lines.append(",".join(pads[j] + cell + pads[j + 1] for j, cell in enumerate(cells)))
        if k % 7 == 3:
            lines += ["", "   # indented", "\u3000#x,re,im", "#x"]
    ends = [LINE_ENDS[k % 3] for k in range(len(lines))] if ends == "mixed" else [ends] * len(lines)
    path = tmp_path / "psi.csv"
    path.write_bytes("".join(map(str.__add__, lines, ends)).encode())
    expected = read_outcome(lambda: GridWavefunction(*reference_csv_samples(path), renormalize=True))
    monkeypatch.setattr(continuum, "_csv_samples", refuse)
    psi = read_wavefunction_csv(str(path), renormalize=True)
    assert psi.size == 30
    assert read_outcome(lambda: psi) == expected


def test_numpy_reads_a_cell_only_as_float_does():
    # the premise of the loadtxt path: wherever numpy's parser reads a cell, float() reads the same double
    above = (c for c in range(0x3000, sys.maxunicode + 1) if chr(c).isspace() or chr(c).isdecimal())
    code_points = [*range(0x3000), *above]
    read = []
    for ch in map(chr, code_points):
        for cell in (ch + "1.5", "1.5" + ch, "1" + ch + "5"):
            lines = io.StringIO(f"x,re,im\n{cell},0,0\n1,0,0\n", newline="").readlines()
            data = continuum._loadtxt_samples(lines)
            if data is not None:
                assert float(cell).hex() == float(data[0, 0]).hex(), repr(cell)
                read.append(cell)
    # spaces, signs and digits on either side, Unicode spaces included
    assert {"\u30001.5", "1.5\u2003", "\x851.5", "-1.5", "51.5", "1.55", "155"} <= set(read)


def test_reader_peak_memory_on_100000_rows(tmp_path):
    path = tmp_path / "psi.csv"
    values = np.random.default_rng(5).normal(size=(100_000, 2)).tolist()
    with open(path, "w") as handle:
        handle.write("x,re,im\n")
        handle.writelines(f"{(k - 50_000) / 5_000!r},{re!r},{im!r}\n" for k, (re, im) in enumerate(values))
    tracemalloc.start()
    try:
        psi = read_wavefunction_csv(str(path), renormalize=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert psi.size == 100_000
    assert peak < 25 * 2**20


@pytest.mark.parametrize("grid", [("0.0", "1.0", "inf"), ("-inf", "1.0", "inf"), ("0.0", "-inf", "2.0")])
def test_csv_rejects_infinite_grid_coordinates(tmp_path, grid):
    path = tmp_path / "psi.csv"
    write_csv(path, [f"{x},1.0,0.0" for x in grid])
    with pytest.raises(ValueError, match="grid coordinates must be finite"):
        read_wavefunction_csv(str(path))


# a quoted cell sends the file to the csv path, the others take np.loadtxt
@pytest.mark.parametrize("renormalize", [False, True])
@pytest.mark.parametrize("column", [1, 2], ids=["re", "im"])
@pytest.mark.parametrize("cell", ["inf", "-inf", "nan", '"inf"'])
def test_csv_rejects_non_finite_samples_without_a_warning(tmp_path, cell, column, renormalize):
    # GridWavefunction is the one gate, and 1j * inf must not warn on the way there
    rows = [["0.0", "1.0", "0.0"], ["0.5", "1.0", "0.0"], ["1.0", "1.0", "0.0"]]
    rows[1][column] = cell
    path = tmp_path / "psi.csv"
    write_csv(path, [",".join(row) for row in rows])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^samples must be finite$"):
            read_wavefunction_csv(str(path), renormalize=renormalize)


def test_csv_span_overflow_is_a_normalization_error(tmp_path):
    path = tmp_path / "psi.csv"
    write_csv(path, ["-1e308,1.0,0.0", "0.0,1.0,0.0", "1e308,1.0,0.0"])
    with pytest.raises(NormalizationError, match="inf"):
        read_wavefunction_csv(str(path))


def test_csv_norm_failure_and_renormalize(tmp_path):
    path = tmp_path / "psi.csv"
    write_csv(path, [f"{k * 0.01},2.0,0.0" for k in range(100)])
    with pytest.raises(NormalizationError):
        read_wavefunction_csv(str(path))
    psi = read_wavefunction_csv(str(path), renormalize=True)
    assert region_probability(psi, Region.parse("-1:2")) == pytest.approx(1.0, abs=1e-12)
    write_csv(path, [f"{k * 0.01},1e200,0.0" for k in range(100)])
    with pytest.raises(NormalizationError, match="inf"):
        read_wavefunction_csv(str(path), renormalize=True)


# --- projector weights ------------------------------------------------------------------


def projector_weights(a_sq, copies):
    # linear N-copy weights of the projector onto a region holding a_sq of a
    # four-point box wavefunction (a_sq a multiple of 1/4, so the region mass is exact)
    psi = GridWavefunction(0.0, 1.0, np.full(4, 0.5))
    region = Region.parse(f"0:{4 * a_sq}") if a_sq > 0.0 else Region(())
    state = SingleCopyState.from_alpha_probability(region_probability(psi, region))
    return np.exp(decompose_two_level(state, copies).log_weights)


def test_projector_weight_quarter_example():
    # 4 * 0.25 * 0.75^3 = 0.421875, cross-checked by enumerating 2^4 sequences
    assert projector_weights(0.25, 4)[1] == pytest.approx(0.421875, abs=1e-12)


def test_projector_weight_degenerate():
    assert projector_weights(0.0, 7)[0] == 1.0
    assert projector_weights(0.0, 7)[3] == 0.0
    assert projector_weights(1.0, 7)[7] == 1.0


def test_projector_weight_domain_errors():
    with pytest.raises(ValueError):
        SingleCopyState.from_alpha_probability(1.5)


@pytest.mark.parametrize("a_sq", [0.25, 0.5])
@pytest.mark.parametrize("copies", [10, 100, 1000])
def test_projector_weight_equals_two_level_weight(a_sq, copies):
    decomp = decompose_two_level(SingleCopyState.from_alpha_probability(a_sq), copies)
    expected = np.exp(decomp.log_weights)
    weights = projector_weights(a_sq, copies)
    for n in range(0, copies + 1, max(1, copies // 25)):
        assert abs(weights[n] - expected[n]) <= 1e-12


@pytest.mark.parametrize("a_sq", [0.0, 0.25, 0.5, 1.0])
@pytest.mark.parametrize("copies", [10, 1000, 10**5])
def test_projector_weights_sum_to_one(a_sq, copies):
    assert abs(projector_weights(a_sq, copies).sum() - 1.0) <= 1e-10


# --- full pipeline ------------------------------------------------------------------------


def test_gaussian_half_line_reduces_to_balanced_two_level():
    spacing = 0.01
    psi = gaussian_wavefunction(spacing=spacing)
    region = Region.parse("0:inf")
    a_sq = region_probability(psi, region)
    assert abs(a_sq - 0.5) <= 10 * spacing
    report, window = region_frequency_analysis(psi, region, 10**4, 0.05)
    assert window.r0 == a_sq
    assert window.mass_outside <= window.chebyshev_bound + 1e-12


def test_whole_line_region_is_deterministic():
    psi = gaussian_wavefunction()
    report, window = region_frequency_analysis(psi, Region.parse("-inf:inf"), 100, 0.1)
    assert window.r0 == 1.0
    assert report.mean == 1.0
    assert report.variance == 0.0
    assert window.mass_outside == 0.0


def test_box_quarter_region_window_bound():
    psi = box_wavefunction()
    report, window = region_frequency_analysis(psi, Region.parse("0:0.25"), 10**4, 0.05)
    assert window.chebyshev_bound <= 0.0076
    assert window.mass_outside <= window.chebyshev_bound
