"""The shipped demos run: every `demos/*.py` exits 0 in a fresh interpreter,
and every `demos/specs/*.cfg` parses into a valid experiment spec."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from sievesim.cli import parse_spec_file

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SPECS = sorted((ROOT / "demos" / "specs").glob("*.cfg"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_script_exits_0(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("spec", SPECS, ids=lambda path: path.stem)
def test_demo_spec_parses(spec):
    assert parse_spec_file(spec).target
