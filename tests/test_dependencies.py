"""The runtime depends on numpy alone: every module of the package imports
only the standard library, numpy or the package itself (function-level
imports included), and pyproject.toml lists numpy as its one dependency.
The package's settable options are counted and pinned."""

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


def _is_dataclass(node):
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _settable_options():
    """(defaulted parameters, dataclass fields) over the package, by AST."""
    params = fields = 0
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                params += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                fields += sum(isinstance(stmt, ast.AnnAssign) for stmt in node.body)
    return params, fields


def test_settable_option_count_is_pinned():
    # a change that adds or removes an option moves this pin on purpose
    assert _settable_options() == (10, 43)
