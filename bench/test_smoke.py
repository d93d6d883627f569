"""Smoke test of the benchmark itself, at tiny replicate counts.

    python3 -m pytest -q bench/test_smoke.py

It checks that every metric named in BENCHMARK.json is printed with its unit,
that every traced binding exists and sees calls on its own workloads (so a
refactor that moves an import fails here instead of reporting zero), and that
two traced runs with one seed give identical counts.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
from tracing import BINDINGS, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
DETERMINISTIC_UNITS = {"count", "bytes", "ratio"}


def bench(workload, trace, seed=7):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--replicates", "12"],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


def printed(lines, workload, metric, unit) -> bool:
    return any(line.startswith(f"{workload} {metric} = ") and line.split()[4] == unit
               for line in lines)


def test_benchmark_json_matches_the_code():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == \
        {w.name: w.why for w in WORKLOADS.values()}
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == \
        [tuple(m) for m in PER_LAYER]
    assert [m["name"] for m in SPEC["end_to_end"]] == ["setup_s", "cpu_ref_s", "peak_rss_mb"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_run_prints_every_end_to_end_metric(name):
    lines, result = bench(name, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for metric, unit in [*units.items(), ("cpu_s", "s"), ("wall_s", "s"),
                         ("wait_share", "share"), ("failed_share", "share")]:
        assert printed(lines, name, metric, unit), metric


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_runs_repeat_counts_and_reach_every_binding(name):
    lines, first = bench(name, trace=1)
    _, second = bench(name, trace=1)
    assert first["correct"] and second["correct"]
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == units
    for metric, unit in units.items():
        assert printed(lines, name, metric, unit), metric
    repeated = {k for k, unit in units.items() if unit in DETERMINISTIC_UNITS}
    assert {k: first["metrics"][k]["value"] for k in repeated} == \
        {k: second["metrics"][k]["value"] for k in repeated}
    calls = json.loads(next(line for line in lines if line.startswith("bindings "))[9:])
    assert set(calls) == {b.label for b in BINDINGS}
    silent = [b.label for b in BINDINGS if name in b.own and calls[b.label] == 0]
    assert not silent, f"bindings without calls on {name}: {silent}"


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "walk_clt", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
