"""Correctness checks on the CSV and JSON files that one `sievesim run` call
writes.  A run that fails any of them counts as failed; a statistical verdict
that comes out FAIL is a result, not a failure."""

import hashlib
import json
import math
from collections import defaultdict
from pathlib import Path

CSV_HEADER = "target,n,t,replicate,raw,normalized"


def _same_t(row_t, t) -> bool:
    if isinstance(t, tuple):
        return isinstance(row_t, list) and [float(v) for v in row_t] == list(t)
    return row_t is not None and not isinstance(row_t, list) and float(row_t) == t


def verdict_rows(report: dict):
    """Every row of a report that carries a verdict, reduced to its fields."""
    return [{key: row.get(key) for key in ("stat", "n", "t", "value", "threshold", "passed")}
            for row in report["rows"] if row.get("passed") is not None]


def check_report(workload, report: dict):
    """Problems with the JSON report: a missing verdict row or a non-finite value."""
    problems = []
    rows = report.get("rows", [])
    for stat, n, t in workload.expected_rows():
        found = [row for row in rows if row.get("stat") == stat and row.get("n") is not None
                 and float(row["n"]) == n and _same_t(row.get("t"), t)]
        if not found:
            problems.append(f"report lacks verdict row {stat} n={n:g} t={t}")
            continue
        value = found[0].get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"verdict row {stat} n={n:g} t={t} has value {value!r}")
    return problems


def check_csv(workload, text: str, replicates: int):
    """Problems with the CSV: row counts, raw values, monotonicity in t."""
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return [f"CSV header is {lines[:1]!r}, expected {CSV_HEADER!r}"]
    paths = defaultdict(list)   # (n, replicate) -> [(t, raw)]
    per_point = defaultdict(int)
    problems = []
    for line in lines[1:]:
        _, n, t, rep, raw, _ = line.split(",")
        n, t, raw = float(n), float(t), float(raw)
        if workload.raw_is_count and not (raw >= 0.0 and raw.is_integer()):
            problems.append(f"raw count {raw!r} at n={n:g} t={t} is not a nonnegative integer")
        if not workload.raw_is_count and not 0.0 <= raw <= 1.0:
            problems.append(f"raw ratio {raw!r} at n={n:g} t={t} is outside [0, 1]")
        paths[n, int(rep)].append((t, raw))
        per_point[n, t] += 1
    for n in workload.n_values:
        for t in workload.grid:
            if per_point[n, t] != replicates:
                problems.append(f"CSV has {per_point[n, t]} rows at n={n:g} t={t}, "
                                f"expected {replicates}")
    for (n, rep), points in paths.items():
        values = [raw for _, raw in sorted(points)]
        if any(b < a for a, b in zip(values, values[1:])):
            problems.append(f"raw values decrease in t at n={n:g} replicate={rep}")
    return problems[:20]


def check_run(workload, exit_code, out_dir: Path, replicates: int):
    """Check one call's exit code and files.

    Returns (problems, CSV sha256 or None, verdict rows).
    """
    if exit_code not in (0, 1):
        return [f"exit code {exit_code!r}, expected 0 or 1"], None, []
    csv_path = Path(out_dir) / f"{workload.name}.csv"
    json_path = Path(out_dir) / f"{workload.name}.json"
    try:
        data = csv_path.read_bytes()
        report = json.loads(json_path.read_text())
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"], None, []
    problems = check_report(workload, report) + check_csv(workload, data.decode(), replicates)
    return problems, hashlib.sha256(data).hexdigest(), verdict_rows(report)
