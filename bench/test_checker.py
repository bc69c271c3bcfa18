"""The checker accepts real CLI documents and rejects damaged ones.

Run from the root of a checkout: ``python3 -m pytest -q bench``.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys

import pytest

import checker
import ops

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def cold_calls(tmp_path_factory):
    """(op, exit code, document) for every cold-calls op at seed 0, run through the CLI."""
    workdir = str(tmp_path_factory.mktemp("cold-calls"))
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    runs = []
    for op in ops.build("cold-calls", 0, workdir):
        child = subprocess.run([sys.executable, "-m", "freqborn.cli", *op.args], cwd=workdir, env=env,
                               capture_output=True, text=True, timeout=120)
        runs.append((op, child.returncode, child.stdout))
    return workdir, runs


def problems(workdir, op, text, exit_code=0):
    return checker.check(op.args, exit_code, text, workdir, random.Random(0)).problems


def document(runs, command, output_format="csv"):
    return next((op, text) for op, _, text in runs
                if op.command == command and ("--format" in op.args) == (output_format == "json"))


def test_every_cli_document_passes(cold_calls):
    workdir, runs = cold_calls
    for op, exit_code, text in runs:
        assert problems(workdir, op, text, exit_code) == [], op.args


def test_weight_perturbed_by_1e_9_is_rejected(cold_calls):
    workdir, runs = cold_calls
    op, text = document(runs, "decompose")
    lines = text.split("\n")
    n, r, log_weight, weight = lines[3].split(",")
    lines[3] = ",".join((n, r, log_weight, repr(float(weight) + 1e-9)))
    found = problems(workdir, op, "\n".join(lines))
    assert any("total mass" in p for p in found), found


def test_json_weight_perturbed_by_1e_9_is_rejected(cold_calls):
    workdir, runs = cold_calls
    op, text = document(runs, "decompose", "json")
    doc = json.loads(text)
    doc["rows"][50]["weight"] += 1e-9
    assert problems(workdir, op, json.dumps(doc, indent=2))


def test_wrong_header_is_rejected(cold_calls):
    workdir, runs = cold_calls
    op, text = document(runs, "scan")
    damaged = text.replace("n,outside_mass,bound,inside_mass", "n,outside_mass,inside_mass,bound")
    found = problems(workdir, op, damaged)
    assert any("header" in p for p in found), found


def test_missing_schema_line_is_rejected(cold_calls):
    workdir, runs = cold_calls
    op, text = document(runs, "bound")
    assert problems(workdir, op, text.replace("#schema=v1\n", ""))


def test_nonzero_exit_is_rejected(cold_calls):
    workdir, runs = cold_calls
    op, text = document(runs, "oracle-check")
    assert problems(workdir, op, text, exit_code=4) == ["exit code 4"]


def test_exact_weights_match_the_binomial_formula():
    # C(4, 1) 0.25 0.75^3 = 27/64 exactly, and 0.25, 0.75 are exact binary fractions
    assert checker.exact_log_weight((1, 3), (0.25, 0.75)) == pytest.approx(math.log(27 / 64), rel=1e-15)
