"""End-to-end tests of the command-line surface."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

import freqborn
from freqborn.cli import main
from freqborn.concentration import chebyshev_bound
from freqborn.decomposition import SingleCopyState
from freqborn.finite_run import finite_run_distribution, surprise_index


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args, **kwargs):
    return runner.invoke(main, args, catch_exceptions=False, **kwargs)


def parse_csv(text):
    lines = text.splitlines()
    assert lines[0] == "#schema=v1"
    annotations = {}
    body = []
    for line in lines[1:]:
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            annotations[key] = value
        else:
            body.append(line)
    columns = body[0].split(",")
    rows = [line.split(",") for line in body[1:]]
    return columns, rows, annotations


def write_box_csv(path, amplitude=1.0, count=100):
    spacing = 1.0 / count
    rows = [f"{k * spacing},{amplitude},0.0" for k in range(count)]
    path.write_text("x,re,im\n" + "\n".join(rows) + "\n")


# --- decompose -----------------------------------------------------------------


def test_decompose_small_two_level(runner):
    result = invoke(runner, ["decompose", "--a2", "0.3", "--n", "3"])
    assert result.exit_code == 0
    columns, rows, _ = parse_csv(result.output)
    assert columns == ["n", "r", "log_weight", "weight"]
    assert len(rows) == 4
    assert math.fsum(float(row[3]) for row in rows) == pytest.approx(1.0, abs=1e-12)


def test_decompose_negative_zero_probability_matches_zero(runner):
    negative = invoke(runner, ["decompose", "--a2", "-0.0", "--n", "3"])
    positive = invoke(runner, ["decompose", "--a2", "0.0", "--n", "3"])
    assert negative.exit_code == 0, negative.output
    assert parse_csv(negative.stdout)[1] == parse_csv(positive.stdout)[1]


def test_decompose_pure_state_single_nonzero_row(runner):
    result = invoke(runner, ["decompose", "--amps", "1,0", "--n", "5"])
    assert result.exit_code == 0
    _, rows, _ = parse_csv(result.output)
    nonzero = [row for row in rows if float(row[3]) != 0.0]
    assert len(nonzero) == 1
    assert nonzero[0][0] == "5"
    zero_rows = [row for row in rows if float(row[3]) == 0.0]
    assert all(row[2] == "-inf" for row in zero_rows)


def test_decompose_json_null_for_zero_log_weight(runner):
    result = invoke(runner, ["decompose", "--amps", "1,0", "--n", "2", "--format", "json"])
    assert result.exit_code == 0
    document = json.loads(result.output)
    assert document["meta"]["command"] == "decompose"
    assert document["meta"]["schema"] == "v1"
    zero_rows = [row for row in document["rows"] if row["weight"] == 0.0]
    assert zero_rows and all(row["log_weight"] is None for row in zero_rows)


def test_decompose_multilevel_columns(runner):
    result = invoke(runner, ["decompose", "--amps", "0.6,0.6,0.5291502622129181", "--n", "2"])
    assert result.exit_code == 0
    columns, rows, _ = parse_csv(result.output)
    assert columns == ["counts", "r", "log_weight", "weight"]
    assert len(rows) == 6
    assert rows[0][0] == "0|0|2"
    assert math.fsum(float(row[3]) for row in rows) == pytest.approx(1.0, abs=1e-10)


def test_decompose_at_scale_keeps_normalization(runner):
    result = invoke(runner, ["decompose", "--a2", "0.3", "--n", "1000000"])
    assert result.exit_code == 0
    _, rows, _ = parse_csv(result.output)
    assert len(rows) == 1000001
    assert math.fsum(float(row[3]) for row in rows) == pytest.approx(1.0, abs=1e-10)


def test_decompose_requires_exactly_one_state_input(runner):
    assert invoke(runner, ["decompose", "--n", "3"]).exit_code == 2
    assert (
        invoke(runner, ["decompose", "--a2", "0.3", "--amps", "1,0", "--n", "3"]).exit_code == 2
    )


@pytest.mark.parametrize(
    "args, message",
    [
        (["decompose", "--amps", "0.5", "--n", "3"], "need at least two comma-separated amplitudes"),
        (["decompose", "--amps", "foo,1", "--n", "3"], "cannot parse amplitude 'foo'"),
        (["scan", "--a2", "0.3", "--eps", "0.1", "--ns", "1,x"], "--ns must be a comma-separated integer list"),
        (["scan", "--a2", "0.3", "--eps", "0.1", "--ns", "10,,20"], "--ns must be a comma-separated integer list"),
        (["scan", "--a2", "0.3", "--eps", "0.1", "--ns", "10,20,"], "--ns must be a comma-separated integer list"),
    ],
)
def test_malformed_lists_are_usage_errors(runner, args, message):
    result = invoke(runner, args)
    assert result.exit_code == 2
    assert message in result.output


def test_decompose_rejects_out_of_range_probability(runner):
    assert invoke(runner, ["decompose", "--a2", "1.5", "--n", "3"]).exit_code == 2


def test_decompose_unnormalized_amplitudes_violate_contract(runner):
    result = invoke(runner, ["decompose", "--amps", "2,0", "--n", "3"])
    assert result.exit_code == 4
    assert "numerical contract" in result.output


def test_decompose_rejects_nan_amplitude(runner):
    result = invoke(runner, ["decompose", "--amps", "nan,1", "--n", "2"])
    assert result.exit_code == 2
    assert "finite" in result.output


def test_decompose_renormalize_flag(runner):
    result = invoke(runner, ["decompose", "--amps", "2,0", "--n", "3", "--renormalize"])
    assert result.exit_code == 0
    # the overflowed or subnormal total is named, and is not rescaled first
    for amps, total in (("1e200,1e200", "is inf,"), ("1e-160,1e-160", "is 2e-320,"), ("1e-170,1e-170", "is 0.0,")):
        result = invoke(runner, ["decompose", "--amps", amps, "--n", "2", "--renormalize"])
        assert result.exit_code == 4
        assert "numerical contract" in result.output
        assert total in result.output
    result = invoke(runner, ["decompose", "--amps", "0,0", "--n", "2", "--renormalize"])
    assert result.exit_code == 2
    # --renormalize has nothing to rescale in the --a2 shorthand
    result = invoke(runner, ["decompose", "--a2", "0.3", "--n", "2", "--renormalize", "--format", "json"])
    assert result.exit_code == 2
    assert "--renormalize" in result.output


def test_decompose_capacity_exit_code(runner):
    result = invoke(runner, ["decompose", "--a2", "0.3", "--n", "10000001"])
    assert result.exit_code == 3
    assert "capacity" in result.output
    assert f"needs {24 * 10000002} bytes" in result.output


# 1024 levels of equal weight: 1024 * 0.03125^2 = 1 exactly
WIDE_AMPS = ",".join(["0.03125"] * 1024)


@pytest.mark.parametrize("command", ["decompose", "oracle-check"])
def test_wide_state_single_copy_runs(runner, command):
    result = invoke(runner, [command, "--amps", WIDE_AMPS, "--n", "1"])
    assert result.exit_code == 0
    columns, rows, _ = parse_csv(result.output)
    if command == "decompose":
        assert len(rows) == 1024
        assert rows[0][0] == "|".join(["0"] * 1023 + ["1"])
        assert all(float(row[3]) == pytest.approx(1 / 1024, rel=1e-12) for row in rows)
    else:
        assert dict(zip(columns, rows[0]))["status"] == "PASS"


def test_wide_state_two_copies_names_the_bytes(runner):
    # C(1025, 2) = 524800 sectors of 1025 int64/float64 cells each
    result = invoke(runner, ["decompose", "--amps", WIDE_AMPS, "--n", "2"])
    assert result.exit_code == 3
    assert f"needs {8 * 1025 * 524800} bytes" in result.output


# --- scan / bound -----------------------------------------------------------------


def test_scan_columns_and_decrease(runner):
    result = invoke(
        runner, ["scan", "--a2", "0.3", "--eps", "0.05", "--ns", "100,1000,10000"]
    )
    assert result.exit_code == 0
    columns, rows, _ = parse_csv(result.output)
    assert columns == ["n", "outside_mass", "bound", "inside_mass"]
    outside = [float(row[1]) for row in rows]
    assert outside[0] > outside[1] > outside[2]
    for row in rows:
        assert float(row[2]) == chebyshev_bound(0.3, int(row[0]), 0.05)


def test_scan_rejects_unsorted_counts(runner):
    result = invoke(runner, ["scan", "--a2", "0.3", "--eps", "0.05", "--ns", "1000,100"])
    assert result.exit_code == 2


def test_bound_row(runner):
    result = invoke(runner, ["bound", "--a2", "0.5", "--n", "100", "--eps", "0.1"])
    assert result.exit_code == 0
    columns, rows, _ = parse_csv(result.output)
    assert columns == ["a2", "n", "eps", "bound"]
    assert float(rows[0][3]) == 0.25


def test_negative_zero_probability_bounds_by_positive_zero(runner):
    scan = ["scan", "--eps", "0.1", "--ns", "10"]
    negative = invoke(runner, scan + ["--a2", "-0.0"])
    assert negative.exit_code == 0, negative.output
    assert negative.stdout_bytes == invoke(runner, scan + ["--a2", "0.0"]).stdout_bytes
    result = invoke(runner, ["bound", "--a2", "-0.0", "--n", "10", "--eps", "0.1"])
    assert result.exit_code == 0, result.output
    _, rows, _ = parse_csv(result.output)
    assert rows[0][0] == "-0.0"
    assert rows[0][3] == "0.0"


@pytest.mark.parametrize(
    "args",
    [
        ["bound", "--a2", "0.3", "--n", "10"],
        ["scan", "--a2", "0.3", "--ns", "10,100"],
        ["cv", "--wavefunction", "psi.csv", "--region", "0:0.25", "--n", "100"],
    ],
    ids=["bound", "scan", "cv"],
)
def test_infinite_eps_renders_null_in_json(runner, tmp_path, monkeypatch, args):
    monkeypatch.chdir(tmp_path)
    write_box_csv(tmp_path / "psi.csv")
    csv_result = invoke(runner, args + ["--eps", "inf"])
    assert csv_result.exit_code == 0
    columns, rows, _ = parse_csv(csv_result.output)
    if "eps" in columns:
        assert rows[0][columns.index("eps")] == "inf"
    json_result = invoke(runner, args + ["--eps", "inf", "--format", "json"])
    assert json_result.exit_code == 0
    document = json.loads(json_result.output)
    assert document["meta"]["eps"] is None
    # the JSON rows are the CSV rows with inf as null
    expected = [{c: None if v == "inf" else float(v) for c, v in zip(columns, row)} for row in rows]
    assert document["rows"] == expected


def test_scan_rejects_nan_eps(runner):
    result = invoke(runner, ["scan", "--a2", "0.3", "--eps", "nan", "--ns", "10,100"])
    assert result.exit_code == 2


@pytest.mark.parametrize("output_format", ["csv", "json"])
def test_bound_rejects_nan_eps(runner, output_format):
    args = ["bound", "--a2", "0.5", "--n", "100", "--eps", "nan", "--format", output_format]
    result = invoke(runner, args)
    assert result.exit_code == 2
    assert "eps must be positive" in result.output


# --- cv ------------------------------------------------------------------------------


def test_cv_box_quarter_region(runner, tmp_path):
    path = tmp_path / "psi.csv"
    write_box_csv(path)
    result = invoke(
        runner,
        ["cv", "--wavefunction", str(path), "--region", "0:0.25", "--n", "1000", "--eps", "0.05"],
    )
    assert result.exit_code == 0
    columns, rows, _ = parse_csv(result.output)
    values = dict(zip(columns, rows[0]))
    assert float(values["a_sq"]) == pytest.approx(0.25, abs=0.01)
    assert float(values["mass_below"]) + float(values["mass_inside"]) + float(
        values["mass_above"]
    ) == pytest.approx(1.0, abs=1e-9)


def test_cv_norm_failure_exit_code(runner, tmp_path):
    path = tmp_path / "psi.csv"
    write_box_csv(path, amplitude=2.0)
    result = invoke(
        runner,
        ["cv", "--wavefunction", str(path), "--region", "0:0.25", "--n", "100", "--eps", "0.05"],
    )
    assert result.exit_code == 4
    result = invoke(
        runner,
        [
            "cv",
            "--wavefunction",
            str(path),
            "--region",
            "0:0.25",
            "--n",
            "100",
            "--eps",
            "0.05",
            "--renormalize",
        ],
    )
    assert result.exit_code == 0


def test_cv_malformed_csv_is_usage_error(runner, tmp_path):
    path = tmp_path / "psi.csv"
    path.write_text("x,re,im\n0.0,1.0\n")
    result = invoke(
        runner,
        ["cv", "--wavefunction", str(path), "--region", "0:1", "--n", "10", "--eps", "0.1"],
    )
    assert result.exit_code == 2


def test_cv_quoted_cell_across_lines_is_usage_error(runner, tmp_path):
    # csv.reader plus float() would read the cell "1.0\n" as 1.0; the reader is line-based
    path = tmp_path / "psi.csv"
    path.write_text('x,re,im\n0.0,"1.0\n",0.0\n0.5,1.0,0.0\n')
    result = invoke(
        runner,
        ["cv", "--wavefunction", str(path), "--region", "0:1", "--n", "10", "--eps", "0.1", "--renormalize"],
    )
    assert result.exit_code == 2
    assert result.output == f"error: {path}: a quoted cell does not close on its line\n"


def test_cv_rejects_nan_grid_point(runner, tmp_path):
    path = tmp_path / "psi.csv"
    write_box_csv(path)
    lines = path.read_text().splitlines()
    lines[50] = "nan" + lines[50][lines[50].index(","):]
    path.write_text("\n".join(lines) + "\n")
    result = invoke(
        runner,
        ["cv", "--wavefunction", str(path), "--region", "0:0.25", "--n", "100", "--eps", "0.05"],
    )
    assert result.exit_code == 2
    assert "grid coordinates must be finite" in result.output


@pytest.mark.parametrize("line", [1, -1])
def test_cv_rejects_nan_first_or_last_grid_point(runner, tmp_path, line):
    path = tmp_path / "psi.csv"
    write_box_csv(path)
    lines = path.read_text().splitlines()
    lines[line] = "nan" + lines[line][lines[line].index(","):]
    path.write_text("\n".join(lines) + "\n")
    result = invoke(
        runner,
        ["cv", "--wavefunction", str(path), "--region", "0:0.25", "--n", "100", "--eps", "0.05"],
    )
    assert result.exit_code == 2
    assert "grid coordinates must be finite" in result.output


def run_cli(*args):
    src = os.path.dirname(os.path.dirname(os.path.abspath(freqborn.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "freqborn.cli", *args], env=env, capture_output=True, text=True, timeout=60
    )


@pytest.mark.parametrize(
    "grid,code,message",
    [
        (("0.0", "1.0", "inf"), 2, "grid coordinates must be finite"),
        (("-inf", "1.0", "inf"), 2, "grid coordinates must be finite"),
        # finite coordinates whose span overflows: spacing inf, so the grid mass is inf
        (("-1e308", "0.0", "1e308"), 4, "total grid mass is inf"),
    ],
)
def test_cv_out_of_range_grid_reports_one_line(tmp_path, grid, code, message):
    path = tmp_path / "psi.csv"
    path.write_text("x,re,im\n" + "".join(f"{x},1.0,0.0\n" for x in grid))
    child = run_cli("cv", "--wavefunction", str(path), "--region", "0:1", "--n", "10", "--eps", "0.1")
    assert child.returncode == code
    assert child.stdout == ""
    lines = child.stderr.splitlines()
    assert len(lines) == 1, child.stderr
    assert message in lines[0]


# --- finite-run -----------------------------------------------------------------------


def test_finite_run_masses_and_annotations(runner):
    result = invoke(
        runner,
        [
            "finite-run",
            "--a2",
            "0.3",
            "--n-inner",
            "100",
            "--observed",
            "30",
            "--outer",
            "10000",
            "--eps",
            "0.05",
        ],
    )
    assert result.exit_code == 0
    columns, rows, annotations = parse_csv(result.output)
    assert columns == ["n", "mass"]
    assert len(rows) == 101
    masses = [float(row[1]) for row in rows]
    assert math.fsum(masses) == pytest.approx(1.0, abs=1e-9)
    assert max(range(101), key=lambda n: masses[n]) == 30
    masses = finite_run_distribution(SingleCopyState.from_alpha_probability(0.3), 100)
    assert float(annotations["surprise_index"]) == surprise_index(masses, 30)
    assert float(annotations["outer_r0"]) == pytest.approx(masses[30], rel=1e-12)
    outside = float(annotations["outer_mass_below"]) + float(annotations["outer_mass_above"])
    assert outside <= float(annotations["outer_chebyshev_bound"]) + 1e-12


def test_finite_run_outer_requires_observed_and_eps(runner):
    args = ["finite-run", "--a2", "0.3", "--n-inner", "10", "--outer", "100"]
    assert invoke(runner, args).exit_code == 2
    assert invoke(runner, args + ["--observed", "3"]).exit_code == 2


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--eps", "0.1"], "--eps applies to --outer"),
        (["--outer", "100", "--eps", "0.1"], "--outer needs --observed"),
        (["--outer", "100", "--observed", "3"], "--outer needs --eps"),
    ],
)
def test_finite_run_checks_flags_before_computing(runner, monkeypatch, flags, message):
    def refuse(*args):
        raise AssertionError("computed before checking the flags")

    monkeypatch.setattr("freqborn.cli.finite_run_distribution", refuse)
    result = invoke(runner, ["finite-run", "--a2", "0.3", "--n-inner", "10"] + flags)
    assert result.exit_code == 2
    assert message in result.output


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--observed", "11"], "observed_count=11 out of range 0..10"),
        (["--observed", "-1"], "observed_count=-1 out of range 0..10"),
        (["--observed", "3", "--outer", "100", "--eps", "0"], "eps must be positive, got 0.0"),
        (["--observed", "3", "--outer", "100", "--eps", "nan"], "eps must be positive, got nan"),
    ],
)
def test_finite_run_checks_values_before_computing(runner, monkeypatch, flags, message):
    def refuse(*args):
        raise AssertionError("computed before checking the values")

    monkeypatch.setattr("freqborn.cli.finite_run_distribution", refuse)
    result = invoke(runner, ["finite-run", "--a2", "0.3", "--n-inner", "10"] + flags)
    assert result.exit_code == 2
    assert message in result.output


def test_finite_run_eps_without_outer_is_usage_error(runner):
    result = invoke(runner, ["finite-run", "--a2", "0.3", "--n-inner", "3", "--eps", "0.1"])
    assert result.exit_code == 2
    assert "--eps applies to --outer" in result.output


def test_finite_run_json_annotations(runner):
    result = invoke(
        runner,
        ["finite-run", "--a2", "0.5", "--n-inner", "4", "--observed", "2", "--format", "json"],
    )
    assert result.exit_code == 0
    document = json.loads(result.output)
    assert document["annotations"]["observed"] == 2
    assert 0.0 < document["annotations"]["surprise_index"] <= 1.0


# --- oracle-check -----------------------------------------------------------------------


def test_oracle_check_two_level_passes(runner):
    result = invoke(runner, ["oracle-check", "--a2", "0.3", "--n", "10"])
    assert result.exit_code == 0
    columns, rows, _ = parse_csv(result.output)
    values = dict(zip(columns, rows[0]))
    assert values["status"] == "PASS"
    assert float(values["max_abs_deviation"]) <= 1e-12


def test_oracle_check_multilevel_passes(runner):
    result = invoke(
        runner,
        ["oracle-check", "--amps", "0.6,0.6,0.5291502622129181", "--n", "8"],
    )
    assert result.exit_code == 0
    assert "PASS" in result.output


def test_oracle_check_capacity_exit_code(runner):
    result = invoke(runner, ["oracle-check", "--a2", "0.3", "--n", "30"])
    assert result.exit_code == 3


def test_oracle_check_capacity_message(runner):
    result = invoke(runner, ["oracle-check", "--amps", "0.5,0.5,0.5,0.5", "--n", "13"])
    assert result.exit_code == 3
    assert result.stderr == (
        "capacity error: brute-force enumeration needs 67108864 sequences, above the limit of 20000000 sequences\n"
    )


@pytest.mark.parametrize(
    "args, needs",
    [
        # 2^15000 and 8 * 1025 * C(10^7 + 1023, 1023) have more digits than Python converts to str
        (["oracle-check", "--a2", "0.3", "--n", "15000"], "brute-force enumeration needs more than 10^4515 sequences"),
        (["decompose", "--amps", WIDE_AMPS, "--n", "10000000"], "decomposition needs more than 10^4528 bytes"),
        # the closed route fits its byte budget at N = 10^7, but the oracle's sequence guard rejects first
        (["oracle-check", "--a2", "0.3", "--n", "10000000"], "brute-force enumeration needs more than 10^3010299 sequences"),
    ],
)
def test_capacity_errors_name_counts_beyond_the_str_limit(runner, args, needs):
    result = invoke(runner, args)
    assert result.exit_code == 3
    assert result.stderr.startswith(f"capacity error: {needs}, above the limit of ")


def test_oracle_check_failure_exits_with_contract_code(runner, monkeypatch):
    import freqborn.cli as cli_module

    true_decompose = cli_module.decompose_multilevel

    def skewed(state, copies):
        decomp = true_decompose(state, copies)
        damaged = decomp.log_weights + 1e-9
        return type(decomp)(copies, state.level_probs, damaged, decomp.counts)

    monkeypatch.setattr(cli_module, "decompose_multilevel", skewed)
    result = invoke(runner, ["oracle-check", "--a2", "0.3", "--n", "6"])
    assert result.exit_code == 4
    columns, rows, _ = parse_csv(result.stdout)
    assert rows[0][columns.index("status")] == "FAIL"
    deviation = rows[0][columns.index("max_abs_deviation")]
    assert result.stderr == f"numerical contract violation: max deviation {deviation} above 1e-12\n"


# --- output handling ----------------------------------------------------------------------


def test_out_files_are_byte_identical_across_runs(runner, tmp_path):
    jobs = [
        ["decompose", "--a2", "0.3", "--n", "50"],
        ["scan", "--a2", "0.3", "--eps", "0.05", "--ns", "100,1000"],
        ["finite-run", "--a2", "0.3", "--n-inner", "40", "--observed", "12"],
        ["bound", "--a2", "0.5", "--n", "100", "--eps", "0.1"],
    ] + [
        ["decompose", "--a2", "0.3", "--n", "50", "--format", "json"],
    ]
    # --out files get the mode a plain open() gives under the current umask
    plain = tmp_path / "plain.out"
    with open(plain, "w"):
        pass
    for index, job in enumerate(jobs):
        first = tmp_path / f"first-{index}.out"
        second = tmp_path / f"second-{index}.out"
        assert invoke(runner, job + ["--out", str(first)]).exit_code == 0
        assert invoke(runner, job + ["--out", str(second)]).exit_code == 0
        assert first.read_bytes() == second.read_bytes()
        assert first.stat().st_mode == plain.stat().st_mode
    leftovers = [p.name for p in tmp_path.iterdir() if p.name.startswith(".freqborn-")]
    assert leftovers == []


def test_out_file_leaves_the_process_umask_alone(runner, tmp_path, monkeypatch):
    # the temp file takes its mode from the kernel's umask; reading the
    # umask through os.umask would change it process-wide for a moment
    plain = tmp_path / "plain.out"
    with open(plain, "w"):
        pass

    def no_umask(mask):
        raise AssertionError("os.umask called")

    monkeypatch.setattr(os, "umask", no_umask)
    path = tmp_path / "table.csv"
    assert invoke(runner, ["bound", "--a2", "0.3", "--n", "10", "--eps", "0.1", "--out", str(path)]).exit_code == 0
    assert path.read_text().startswith("#schema=v1\n")
    assert path.stat().st_mode == plain.stat().st_mode
    assert [p.name for p in tmp_path.iterdir() if p.name.startswith(".freqborn-")] == []


def test_stdout_matches_file_output(runner, tmp_path):
    path = tmp_path / "table.csv"
    to_file = invoke(runner, ["bound", "--a2", "0.3", "--n", "10", "--eps", "0.1", "--out", str(path)])
    assert to_file.exit_code == 0
    to_stdout = invoke(runner, ["bound", "--a2", "0.3", "--n", "10", "--eps", "0.1"])
    assert path.read_text() == to_stdout.output


def test_help_lists_all_commands(runner):
    result = invoke(runner, ["--help"])
    assert result.exit_code == 0
    for command in ("decompose", "scan", "bound", "cv", "finite-run", "oracle-check"):
        assert command in result.output


def test_command_help_documents_columns(runner):
    result = invoke(runner, ["decompose", "--help"])
    assert result.exit_code == 0
    assert "log_weight" in result.output


def test_cli_import_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(freqborn.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, freqborn.cli; "
        "print(','.join(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    child = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == ""


def test_cli_overflowing_renormalize_reports_one_line():
    child = run_cli("decompose", "--amps", "1e200,1e200", "--n", "2", "--renormalize")
    assert child.returncode == 4
    assert child.stdout == ""
    lines = child.stderr.splitlines()
    assert len(lines) == 1, child.stderr
    assert "inf" in lines[0]
    assert "RuntimeWarning" not in child.stderr
