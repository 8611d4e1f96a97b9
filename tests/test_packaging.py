"""Packaging: the package imports only what it declares."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "geodense"


def _declared() -> set[str]:
    """Import names of the distributions pyproject.toml depends on."""
    with open(ROOT / "pyproject.toml", "rb") as f:
        deps = tomllib.load(f)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.\-]+", d).group().lower().replace("-", "_")
            for d in deps}


def _imports(path: Path):
    """(line, top-level name) of every absolute import in a module."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_every_import_is_declared():
    allowed = set(sys.stdlib_module_names) | {"geodense"} | _declared()
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    stray = [f"{path.relative_to(ROOT)}:{line} imports {name}"
             for path in modules
             for line, name in _imports(path)
             if name not in allowed]
    assert not stray, "undeclared dependencies: " + "; ".join(stray)
