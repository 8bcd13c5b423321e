"""Every import is used: in the package (``__init__.py`` re-exports aside),
the tests, the demos and the scripts. The package imports no SciPy anywhere,
and ``import btrank`` loads neither ``dataclasses``, ``json`` nor
``numpy.typing``."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
CHECKED = {
    "package": sorted((REPO / "src" / "btrank").glob("*.py")),
    "tests": sorted((REPO / "tests").glob("*.py")),
    "demos": sorted((REPO / "demos").glob("*.py")),
    "scripts": sorted((REPO / "scripts").glob("*.py")),
}


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(
            node, "module", None
        ) != "__future__":
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used:
                    unused.append(f"{path.name}:{node.lineno} {name}")
    return unused


def test_no_unused_imports_in_the_package():
    paths = [path for path in CHECKED["package"] if path.name != "__init__.py"]
    assert [entry for path in paths for entry in _unused_imports(path)] == []


@pytest.mark.parametrize("tree", ["tests", "demos", "scripts"])
def test_no_unused_imports_in_the_tests_and_demos(tree):
    assert CHECKED[tree]
    assert [entry for path in CHECKED[tree] for entry in _unused_imports(path)] == []


def _scipy_imports(path: Path) -> list[str]:
    """``file:line`` of each SciPy import, at module level or in a function."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""] if node.level == 0 else []
        else:
            modules = []
        if any(module.split(".")[0] == "scipy" for module in modules):
            found.append(f"{path.name}:{node.lineno}")
    return found


def test_the_package_imports_no_scipy():
    paths = CHECKED["package"]
    assert paths
    assert [entry for path in paths for entry in _scipy_imports(path)] == []


def test_import_btrank_adds_neither_dataclasses_nor_json_to_numpy():
    # numpy's own imports differ between versions, so compare against them;
    # numpy.typing must not be loaded at all
    probe = (
        "import sys, numpy; before = set(sys.modules); import btrank; "
        "print(*sorted(set(sys.modules) - before)); print('numpy.typing' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    child = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    added, typing_loaded = child.stdout.splitlines()
    assert "btrank.types" in added.split()
    assert set(added.split()) & {"dataclasses", "json"} == set()
    assert typing_loaded == "False"
