"""Every name a module under ``src/freqborn`` imports is used in that module,
and every function, class, method and property it defines has a user.

Read from the source with ``ast``, so nothing is imported or run.  An
imported name counts as used when it appears as an identifier anywhere in
the module.  A definition has a user when the package outside ``__init__``
reads its name (as an identifier or an attribute) somewhere outside the
definition itself, or when ``README.md`` or ``bench/tracer.py`` mention it.
Dunder methods and click commands are exempt: Python and click call them.

Importing ``freqborn.cli`` in a fresh interpreter loads neither scipy nor a
process-pool module: the benchmark's ``setup_s`` times that import.  It also
leaves the process with one thread: the CLI loads numpy with one OpenBLAS
thread unless ``OPENBLAS_NUM_THREADS`` is set, and leaves that variable as it
found it.  That works only because ``import freqborn`` loads nothing else:
the package resolves each ``__all__`` name from its home module on first
access, so its ``__init__`` imports no module of the package.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import freqborn
from conftest import child_env
from freqborn import output

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "freqborn"
# Text outside the package that may be the one user of a name.
USERS = (ROOT / "README.md", ROOT / "bench" / "tracer.py")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def test_every_imported_name_is_used():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.stem}.{name}" for name in imported_names(tree) if name not in used]
    assert unused == []


def references(tree):
    """Counts of the names a tree reads, as identifiers or attributes."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def is_click_command(definition):
    return any(
        isinstance(decorator, ast.Call)
        and isinstance(decorator.func, ast.Attribute)
        and decorator.func.attr in ("command", "group")
        for decorator in definition.decorator_list
    )


def test_every_definition_is_used_outside_itself():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    used = sum((references(tree) for stem, tree in trees.items() if stem != "__init__"), Counter())
    words = set(re.findall(r"\w+", " ".join(path.read_text() for path in USERS)))
    unused = []
    for stem, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, DEFINITIONS) or is_click_command(node):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if used[name] <= references(node)[name] and name not in words:
                unused.append(f"{stem}.{name}")
    assert unused == []


def run_child(code, **changes):
    """The stdout of a fresh interpreter running ``code`` with ``changes`` made
    to its environment.

    ``OPENBLAS_NUM_THREADS`` is removed from the child's environment unless
    ``changes`` sets it.
    """
    child = subprocess.run(
        [sys.executable, "-c", code], env=child_env(**{"OPENBLAS_NUM_THREADS": None, **changes}),
        capture_output=True, text=True, timeout=60,
    )
    assert child.returncode == 0, child.stderr
    return child.stdout


def test_cli_import_loads_no_scipy_nor_process_pool_module():
    forbidden = ("scipy", "multiprocessing", "concurrent.futures", "subprocess")
    code = (
        "import sys, freqborn.cli; "
        f"print(sorted(m for m in sys.modules if any(m == f or m.startswith(f + '.') for f in {forbidden!r})))"
    )
    assert run_child(code) == "[]\n"


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/task") or output._usable_cpus() < 2,
    reason="needs /proc/self/task and two usable CPUs, where OpenBLAS would start a pool",
)
@pytest.mark.parametrize("blas_threads", [None, "2"])
def test_cli_import_leaves_one_thread_unless_the_caller_chose(blas_threads):
    code = (
        "import os, freqborn.cli; "
        "print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))"
    )
    threads, kept = run_child(code, OPENBLAS_NUM_THREADS=blas_threads).split()
    assert kept == str(blas_threads)
    if blas_threads is None:
        assert threads == "1"


def test_package_import_loads_no_module_of_its_own_nor_numpy():
    code = "import sys, freqborn; print(sorted(m for m in sys.modules if m.startswith(('freqborn', 'numpy'))))"
    assert run_child(code) == "['freqborn']\n"


def test_package_init_imports_no_module_of_the_package():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    own = [
        ast.unparse(node)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("freqborn"))
        or isinstance(node, ast.Import) and any(alias.name.startswith("freqborn") for alias in node.names)
    ]
    assert own == []


def top_level_definitions(tree):
    for node in tree.body:
        if isinstance(node, DEFINITIONS):
            yield node.name
        elif isinstance(node, ast.Assign):
            yield from (target.id for target in node.targets if isinstance(target, ast.Name))


def test_every_exported_name_is_its_home_modules_object():
    homes = {
        name: f"freqborn.{path.stem}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "__init__"
        for name in top_level_definitions(ast.parse(path.read_text()))
    }
    for name in freqborn.__all__:
        home = freqborn if name == "__version__" else importlib.import_module(homes[name])
        assert getattr(freqborn, name) is getattr(home, name), name


def test_package_init_writes_each_public_name_once():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    written = Counter(node.value for node in ast.walk(tree) if isinstance(node, ast.Constant))
    assert [name for name in freqborn.__all__ if written[name] != 1] == []


def test_package_dir_covers_all_and_unknown_names_raise():
    assert set(freqborn.__all__) <= set(dir(freqborn))
    with pytest.raises(AttributeError, match="no_such_name"):
        freqborn.no_such_name
