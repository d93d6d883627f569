"""The runtime depends on numpy alone: every module of the package imports
only the standard library, numpy or the package itself (function-level
imports included), and pyproject.toml lists numpy as its one dependency."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sievesim"


def _imported_top_levels(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_imports_only_stdlib_numpy_and_itself():
    allowed = set(sys.stdlib_module_names) | {"numpy", "sievesim"}
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 8
    stray = [(path.name, name) for path in modules for name in _imported_top_levels(path)
             if name not in allowed]
    assert stray == []


def test_pyproject_lists_numpy_alone():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == ["numpy>=1.24"]
