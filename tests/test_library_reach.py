"""The library holds only what `sievesim run` and `sievesim oracle` execute.

A fresh interpreter traces every function call (`sys.settrace`, installed
before sievesim is imported) while the CLI runs the golden specs, the modes
they miss, one bad spec and one `oracle`.  Every function defined in
`src/sievesim` must have run, unless it is on the allow-list below: the
names the benchmark's tracer binds or calls, which it needs whether or not
a run reaches them.  The bench part is read from `bench/tracing.BINDINGS`,
so it shrinks when the tracer stops binding a name.
"""

import ast
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import environment_json
from sievesim.occupancy import build_environment
from sievesim.sampling import RngStream, StickLaw
from test_golden import GOLDEN

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sievesim"
sys.path.insert(0, str(ROOT / "bench"))
from tracing import BINDINGS  # noqa: E402

# the modes the golden specs do not run
EXTRA_SPECS = {
    "A2": "target = A2\nstick = exppareto\nalpha = 2.5\nn_values = 1e4\ngrid = 0.5, 1.0\n",
    "A1_ratio": "target = A1\nmode = ratio\nn_values = 1e6\ngrid = 0.0, 0.5, 1.0\n",
    "A2_ratio": "target = A2\nmode = ratio\nstick = exppareto\nalpha = 2.5\nn_values = 1e4\n"
                "grid = 0.5, 1.0\n",
    "A3_ratio": "target = A3\nmode = ratio\nstick = exppareto\nalpha = 1.5\nn_values = 1e4\n"
                "grid = 0.5\n",
    "A1_u_centering": "target = A1\ncentering = u\nn_values = 1e6\ngrid = 0.0, 0.5, 1.0\n",
    "T22_process": "target = T22\nstick = exppareto\nalpha = 0.5\nn_values = 1e4\n"
                   "grid = 0.5, 1.0\n",
    "P32": "target = P32\nn_values = 100, 1000\n",
    "B2_pareto": "target = B2\nxi = pareto\nxi_param = 2.0\nn_values = 1e3\ngrid = 0.5, 1.0\n",
    "B1_log_sticks": "target = B1\nxi = logstick\neta = log1mstick\nstick = beta\ntheta = 2.0\n"
                     "n_values = 1e3\ngrid = 0.5, 1.0\n",
    "ESF_FLT_theta_2.5": "target = ESF_FLT\ntheta = 2.5\nn_values = 1e4\ngrid = 0.5, 1.0\n",
}
BAD_SPEC = "target = A1\nn_values = 1e19\nreplicates = 5\n"

# what bench/tracing.py calls outside its bindings, the per-replicate sieve
# path's lazy extension, which only the bound occupy_sieve reaches, and the
# cycle-type check, which only the bound sample_cycles_feller reaches
BENCH_CALLS = {"sampling.binomial_regime", "occupancy.OccupancyResult.total",
               "occupancy.SieveEnvironment._extend", "ewens.CycleCounts.__post_init__"}

_TRACE = """\
import json, sys
package, argvs = sys.argv[1], json.loads(sys.argv[2])
ran = set()

def trace(frame, event, arg):
    code = frame.f_code
    if code.co_filename.startswith(package):
        ran.add((code.co_filename, code.co_qualname))

sys.settrace(trace)
from sievesim.cli import main
codes = [main(argv) for argv in argvs]
sys.settrace(None)
print(json.dumps({"codes": codes, "ran": sorted(ran)}))
"""


def _defined_functions() -> set:
    """module.qualname of every function and method defined in the package,
    spelled as Python's co_qualname spells it."""
    names = set()

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(f"{module}.{prefix}{child.name}")
                visit(child, module, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, module, f"{prefix}{child.name}.")
            else:
                visit(child, module, prefix)

    for path in PACKAGE.glob("*.py"):
        visit(ast.parse(path.read_text()), path.stem, "")
    return names


def _bench_bound() -> set:
    """module.qualname of each function a bench binding names (a bound class
    is no function and adds nothing)."""
    bound = set()
    for binding in BINDINGS:
        owner, name = binding.owner_and_name()
        obj = inspect.unwrap(vars(owner)[name])
        if inspect.isfunction(obj):
            bound.add(f"{obj.__module__.removeprefix('sievesim.')}.{obj.__qualname__}")
    return bound


def test_every_library_function_runs_under_the_cli(tmp_path):
    specs = {name: text for name, (text, _) in GOLDEN.items()}
    specs.update({name: text + "replicates = 20\n" for name, text in EXTRA_SPECS.items()})
    specs["bad"] = BAD_SPEC
    argvs = []
    for name, text in specs.items():
        spec = tmp_path / f"{name}.cfg"
        spec.write_text(text)
        argvs.append(["run", "--spec", str(spec), "--out", str(tmp_path / "out"),
                      "--no-timestamp"])
    env = tmp_path / "env.json"
    env.write_text(environment_json(build_environment(StickLaw.beta(1.0), 2**-40,
                                                      RngStream(17, 0))))
    argvs.append(["oracle", "--spec", str(env), "--seed", "3"])
    environ = dict(os.environ)
    environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                          environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", _TRACE, str(PACKAGE) + os.sep,
                             json.dumps(argvs)], env=environ, capture_output=True, text=True,
                            timeout=600)
    assert result.returncode == 0, result.stderr
    out = json.loads(result.stdout.splitlines()[-1])
    runs = len(argvs) - 2
    assert all(code in (0, 1) for code in out["codes"][:runs]), out["codes"]
    assert out["codes"][runs:] == [2, 0]  # the bad spec, then the oracle
    ran = {f"{Path(path).stem}.{qualname}" for path, qualname in out["ran"]}
    allowed = _bench_bound() | BENCH_CALLS
    never_ran = sorted(_defined_functions() - ran - allowed)
    assert never_ran == [], f"library functions that no run or oracle reaches: {never_ran}"
