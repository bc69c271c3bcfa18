"""Every name a module under ``src/freqborn`` imports is used in that module,
and every function, class, method and property it defines has a user.

Read from the source with ``ast``, so nothing is imported or run.  An
imported name counts as used when it appears as an identifier anywhere in
the module, or, in the package's ``__init__``, when ``__all__`` exports it.
A definition has a user when the package outside ``__init__`` reads its name
(as an identifier or an attribute) somewhere outside the definition itself,
or when ``README.md`` or ``bench/tracer.py`` mention it.  Dunder methods and
click commands are exempt: Python and click call them.

Importing ``freqborn.cli`` in a fresh interpreter loads no process-pool
module: the benchmark's ``setup_s`` times that import.
"""

import ast
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

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


def exported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def test_every_imported_name_is_used():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= exported_names(tree)
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


def test_cli_import_loads_no_process_pool_module():
    modules = ("multiprocessing", "concurrent.futures", "subprocess")
    code = f"import sys, freqborn.cli; print([m for m in {modules!r} if m in sys.modules])"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=60,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout == "[]\n"
