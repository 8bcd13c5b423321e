"""Every import is used: in the package (``__init__.py`` re-exports aside),
the tests and the demos."""

import ast
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
CHECKED = {
    "package": sorted((REPO / "src" / "btrank").glob("*.py")),
    "tests": sorted((REPO / "tests").glob("*.py")),
    "demos": sorted((REPO / "demos").glob("*.py")),
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


@pytest.mark.parametrize("tree", ["tests", "demos"])
def test_no_unused_imports_in_the_tests_and_demos(tree):
    assert CHECKED[tree]
    assert [entry for path in CHECKED[tree] for entry in _unused_imports(path)] == []
