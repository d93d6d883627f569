#!/usr/bin/env python3
"""sievesim benchmark: the time from a spec file to a verdict.

    python3 bench/run.py --workload sieve_deep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

One process drives `sievesim.cli.main(["run", ...])` in a closed loop at
`--jobs 1` until `--seconds` have passed (at least three calls).  The first
two calls run the spec with the given seed, and must write identical CSVs;
each later call gets a seed of its own, derived from the given one, so that a
run averages over inputs.  Every call's output is checked; a call that fails
a check counts as failed.

--trace 0 reports the end-to-end metrics, with tracing off, as CPU times
rescaled to the reference host speed of bench/speed.py:
  setup_s      median, over fresh interpreters, of the main thread's CPU
               time for `import sievesim.cli` plus `parse_spec_file` of the
               spec (numpy's BLAS threads spin on other cores meanwhile)
  cpu_ref_s    mean CPU time (user + system) of one `cli.main` call
  peak_rss_mb  peak resident memory of this process
and prints the plain means of a call's CPU and wall time as `cpu_s` and
`wall_s`.  CPU time is the time to verdict on a core that nothing else
uses: sievesim runs on one thread at `--jobs 1`, and on a shared host its
wall time also counts the time it waits for a core (see bench/README.md).
The call times are means, not medians: t22_ratio's reference sampler moves
512 paths in lockstep until the slowest passes, so its calls take one of two
or three distinct times and a median jumps between them.
--trace 1 reports the per-layer metrics of bench/tracing.py from a traced
call with the given seed; the tracing overhead is its rescaled CPU time
minus the mean of the untraced calls with the same seed just before and
after it.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The program is imported from src/ next to
this directory; without it the benchmark exits with code 2.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
MIN_CALLS = 3
SETUP_REPEATS = 4
SEED_STRIDE = 1_000_000  # call i >= 2 uses seed + i * SEED_STRIDE
SETUP_CODE = """\
import sys, time
start = time.thread_time()
import sievesim.cli
sievesim.cli.parse_spec_file(sys.argv[1])
print(time.thread_time() - start)
"""

sys.path.insert(0, str(BENCH))
from checks import check_run  # noqa: E402
import speed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@dataclass
class Call:
    seed: int
    wall: float
    user: float     # CPU seconds in user mode
    system: float   # CPU seconds in the kernel, mostly page faults
    problems: list
    digest: str | None = None
    rows: list = field(default_factory=list)

    @property
    def cpu(self) -> float:
        return self.user + self.system


def git_rev():
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure_setup(spec_path: Path):
    """Main-thread CPU seconds for import plus spec parse in fresh
    interpreters, rescaled to the reference speed; the first, which may
    compile bytecode, is not kept."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    before = speed.reference_seconds()
    for i in range(SETUP_REPEATS + 1):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE, str(spec_path)], env=env,
                             capture_output=True, text=True, check=True, timeout=120)
        after = speed.reference_seconds()
        if i:
            times.append(speed.rescale(float(out.stdout.split()[-1]), before, after))
        before = after
    return times


def import_cli():
    sys.path.insert(0, str(SRC))
    import sievesim
    import sievesim.cli

    if not Path(sievesim.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"sievesim was imported from {sievesim.__file__}, not from {SRC}")
    return sievesim.cli


def run_call(cli, workload, seed: int, out_dir: Path, replicates: int) -> Call:
    """Write the spec, make one timed `sievesim run` call on it, then check
    what the call wrote."""
    spec_path = workload.write_spec(out_dir, seed, replicates)
    for suffix in (".csv", ".json"):
        (out_dir / f"{workload.name}{suffix}").unlink(missing_ok=True)
    argv = ["run", "--spec", str(spec_path), "--out", str(out_dir), "--no-timestamp"]
    sink = io.StringIO()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    problems = []
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # noqa: BLE001 - a raising run is a failed run, not a crash
        code = None
        problems = [f"cli.main raised:\n{traceback.format_exc()}"]
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    call = Call(seed, wall, after.ru_utime - usage.ru_utime, after.ru_stime - usage.ru_stime,
                problems)
    if not problems:
        call.problems, call.digest, call.rows = check_run(workload, code, out_dir, replicates)
    return call


def run_workload(args):
    workload = WORKLOADS[args.workload]
    replicates = args.replicates or workload.replicates
    load_start = os.getloadavg()
    WORK.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        spec_path = workload.write_spec(tmp, args.seed, replicates)
        setup = measure_setup(spec_path) if not args.trace else []
        cli = import_cli()
        deadline = time.perf_counter() + args.seconds
        refs = [speed.reference_seconds()]  # refs[i] and refs[i + 1] bracket call i

        def call(seed):
            done = run_call(cli, workload, seed, tmp, replicates)
            refs.append(speed.reference_seconds())
            return done

        calls = [call(args.seed), call(args.seed)]
        tracer = traced = None
        if args.trace:
            from tracing import Tracer

            with Tracer() as tracer:
                traced = call(args.seed)
            traced.problems += tracer.violations
            calls += [traced, call(args.seed)]
        while len(calls) < MIN_CALLS or time.perf_counter() < deadline:
            calls.append(call(args.seed + SEED_STRIDE * len(calls)))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    first_digest = {}
    for c in calls:
        if c.digest and first_digest.setdefault(c.seed, c.digest) != c.digest:
            c.problems.append(f"CSV differs from an earlier call with seed {c.seed}")
    failed = sum(1 for c in calls if c.problems)
    for c in calls:
        for problem in c.problems[:5]:
            print(f"{workload.name}: {problem}", file=sys.stderr)

    import mpmath
    import numpy
    import scipy

    print("conditions " + json.dumps({
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "call_seeds": [c.seed for c in calls], "replicates_per_n": replicates,
        "n_values": workload.n_values, "grid": workload.grid, "nproc": os.cpu_count(),
        "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "mpmath": mpmath.__version__, "git_rev": git_rev(),
        "reference_s_median": statistics.median(refs)}))
    for row in calls[0].rows:
        print("verdict " + json.dumps(row))

    rescaled = [speed.rescale(c.cpu, refs[i], refs[i + 1]) for i, c in enumerate(calls)]
    if args.trace:
        metrics = tracer.metrics(rescaled[2] - (rescaled[1] + rescaled[3]) / 2)
        print("bindings " + json.dumps(tracer.binding_calls()))
        top = sorted(tracer.self_times().items(), key=lambda kv: -kv[1])[:6]
        print("top_self_s " + json.dumps(dict(top)))
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "cpu_ref_s": {"value": statistics.fmean(rescaled), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
        print(f"{workload.name} wall_s = {statistics.fmean(c.wall for c in calls)} s")
        print(f"{workload.name} cpu_s = {statistics.fmean(c.cpu for c in calls)} s")
        wall = sum(c.wall for c in calls)
        print(f"{workload.name} system_share = {sum(c.system for c in calls) / wall} share")
        print(f"{workload.name} wait_share = {1 - sum(c.cpu for c in calls) / wall} share")
    for name, m in metrics.items():
        print(f"{workload.name} {name} = {m['value']} {m['unit']}")
    print(f"{workload.name} failed_share = {failed / len(calls)} share "
          f"({failed} of {len(calls)} runs)")
    return {"correct": failed == 0, "attempted": len(calls), "failed": failed,
            "metrics": metrics}


def run_all(args):
    """Every workload in turn, each in its own process so that peak memory
    stays per workload; metrics are keyed `<workload>.<metric>`."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.replicates:
            cmd += ["--replicates", str(args.replicates)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            return None
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--replicates", type=int, default=None,
                        help="override each workload's replicates (smoke tests)")
    args = parser.parse_args(argv)
    if not (SRC / "sievesim" / "cli.py").is_file():
        print(f"error: no sievesim sources under {SRC}", file=sys.stderr)
        return 2
    result = run_all(args) if args.workload == "all" else run_workload(args)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
