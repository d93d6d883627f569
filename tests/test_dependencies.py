"""The runtime depends on numpy alone: every module of the package imports
only the standard library, numpy or the package itself (function-level
imports included), and pyproject.toml lists numpy as its one dependency.
The package's settable options are named, counted and pinned."""

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
    """Sorted names of the defaulted parameters (module.function.parameter)
    and of the dataclass fields (module.Class.field) over the package, by AST."""
    params, fields = [], []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            name = getattr(child, "name", "lambda")
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = child.args
                positional = args.posonlyargs + args.args
                defaulted = positional[len(positional) - len(args.defaults):]
                defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
                params.extend(f"{prefix}{name}.{arg.arg}" for arg in defaulted)
            elif isinstance(child, ast.ClassDef) and _is_dataclass(child):
                fields.extend(f"{prefix}{name}.{stmt.target.id}" for stmt in child.body
                              if isinstance(stmt, ast.AnnAssign))
            is_scope = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, f"{prefix}{name}." if is_scope else prefix)

    for path in PACKAGE.glob("*.py"):
        visit(ast.parse(path.read_text()), f"{path.stem}.")
    return sorted(params), sorted(fields)


def _names(owners):
    return sorted(f"{owner}.{name}" for owner, names in owners.items() for name in names.split())


PINNED_PARAMS = _names({
    "cli.main": "argv",
    "harness.ExperimentReport.write": "timestamp",
    "harness._row": "threshold",
    "harness._trend_row": "final strict",
    "harness.run_experiment": "jobs",
    "occupancy.SieveEnvironment.__init__": "sticks",
    "sampling.RngStream.__init__": "stream_id",
    "sampling._seed_words_type.SeedWords.generate_state": "dtype",
})
PINNED_FIELDS = _names({
    "ewens.CycleCounts": "counts n theta",
    "harness.ExperimentReport": "metadata raw rows spec",
    "harness.ExperimentSpec": "alpha b c centering dependence eta eta_param grid mode n_values "
                              "q replicates seed stick target theta thresholds x_values xi "
                              "xi_param y_values",
    "occupancy.DeterministicScheme": "q",
    "occupancy.OccupancyResult": "counts n",
    "prw.PrwPath": "horizon s_values t_values",
    "prw.StepLaw": "dependence eta xi",
    "sampling.StickLaw": "alpha kind theta",
})


def test_settable_option_count_is_pinned():
    # a change that adds or removes an option moves this pin on purpose; a
    # failing pin names the options that moved
    params, fields = _settable_options()
    assert params == PINNED_PARAMS
    assert fields == PINNED_FIELDS
    assert (len(params), len(fields)) == (9, 40)
