"""The tier-1 pytest settings report a failing hypothesis test as a failure, the
benchmark checker's own tests pass, the recorded hashes hold on numpy's loops
without AVX-512, both ways of starting the CLI call one entry, a log weight
becomes a weight in one place, and each error message is raised from one place."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env

ROOT = Path(__file__).resolve().parents[1]


FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_always_fails(x):
    assert x != x
"""


def test_failing_given_test_is_reported_without_internal_error(tmp_path):
    test_file = tmp_path / "test_failing_property.py"
    test_file.write_text(FAILING_PROPERTY)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "-q",
         "-p", "no:cacheprovider", str(test_file)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=120,
    )
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output
    assert "1 failed" in output
    assert result.returncode == 1


def test_benchmark_checker_suite_passes():
    # a change that makes the document checker reject a document fails here, not first in a benchmark run
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "bench"],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=child_env(),
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr


# numpy's runtime dispatch then takes its AVX2 loops, as on a CPU without AVX-512
WITHOUT_AVX512 = "AVX512_SPR AVX512_ICL X86_V4"
HASH_MODULES = ("tests/test_combinatorics.py", "tests/test_golden_documents.py")


def test_recorded_hashes_hold_without_avx512():
    env = child_env(NPY_DISABLE_CPU_FEATURES=WITHOUT_AVX512)
    probe = "from numpy._core._multiarray_umath import __cpu_features__; print(__cpu_features__['AVX512_SKX'])"
    path = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    assert path.stdout.strip() == "False"
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *HASH_MODULES],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=env,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_script_entry_is_the_main_block_call():
    # `freqborn` and `python -m freqborn.cli` end the process the same way
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as handle:
        script = tomllib.load(handle)["project"]["scripts"]["freqborn"]
    tree = ast.parse((ROOT / "src" / "freqborn" / "cli.py").read_text())
    main_blocks = [
        node for node in tree.body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
    ]
    assert len(main_blocks) == 1
    assert [ast.unparse(statement) for statement in main_blocks[0].body] == [f"{script.partition(':')[2]}()"]
    assert script.partition(":")[0] == "freqborn.cli"


def exp_sites(node, scope):
    """The enclosing definition of every reference to numpy's ``exp`` below ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Attribute) and ast.unparse(child) in ("np.exp", "numpy.exp"):
            yield scope
        named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        yield from exp_sites(child, f"{scope}.{child.name}" if named else scope)


def test_a_log_weight_becomes_a_weight_in_one_place():
    # so the rounding of every linear weight is decided on one line
    package = ROOT / "src" / "freqborn"
    sites = [site for path in sorted(package.glob("*.py")) for site in exp_sites(ast.parse(path.read_text()), path.stem)]
    assert sites == ["decomposition.FrequencyDecomposition.__init__"]


def raised_text(node):
    """A raised string literal, each f-string field read as ``{}``; None for any other argument."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(part.value if isinstance(part, ast.Constant) else "{}" for part in node.values)
    return None


def test_each_error_message_is_raised_from_one_place():
    # so each input rule is spelled at one site; a message held in a named constant has one home
    sites = {}
    for path in sorted((ROOT / "src" / "freqborn").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                for text in filter(None, map(raised_text, node.exc.args)):
                    sites.setdefault(text, []).append(f"{path.name}:{node.lineno}")
    assert len(sites) > 40
    assert {text: where for text, where in sites.items() if len(where) > 1} == {}
