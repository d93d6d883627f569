"""Command-line entry point: run experiments from key-value spec files and
replay stored environments against the walk identity.

Exit codes: 0 all checks passed, 1 some verdict failed, 2 configuration or
spec-file error.
"""

import argparse
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np

from .harness import ConfigurationError, ExperimentSpec, run_experiment
from .occupancy import SieveEnvironment, rho
from .prw import path_from_sticks
from .sampling import RngStream

__all__ = ["main", "parse_spec_file", "SpecFileError"]


class SpecFileError(Exception):
    """Malformed spec file; carries a line-anchored diagnostic."""

    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")


# every key but threshold.<name> is an ExperimentSpec field, parsed by its type
_KEY_TYPES = {f.name: f.type for f in dataclasses.fields(ExperimentSpec) if f.type is not dict}


def parse_spec_file(path) -> ExperimentSpec:
    """Parse the documented key = value schema into an ExperimentSpec.

    Keys mirror the ExperimentSpec fields; list values are comma separated;
    `threshold.<name> = <float>` overrides a calibrated threshold.  Unknown,
    repeated and unparsable keys raise SpecFileError with the offending line.
    """
    path = Path(path)
    if not path.exists():
        raise SpecFileError(path, 0, "spec file does not exist")
    fields = {}
    thresholds = {}
    first_line = {}
    for line_no, raw_line in enumerate(path.read_text().splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SpecFileError(path, line_no, f"expected 'key = value', got {raw_line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in first_line:
            raise SpecFileError(path, line_no, f"{key!r} is already set at line {first_line[key]}")
        first_line[key] = line_no
        try:
            if key.startswith("threshold."):
                thresholds[key.split(".", 1)[1]] = float(value)
            elif key not in _KEY_TYPES:
                raise SpecFileError(path, line_no, f"unknown key {key!r}")
            elif _KEY_TYPES[key] is tuple:
                fields[key] = tuple(float(v) for v in value.split(",") if v.strip())
            elif _KEY_TYPES[key] is int:
                number = float(value)
                if not number.is_integer():  # also nan and the infinities
                    raise SpecFileError(path, line_no, f"{key} must be an integer, not {value}")
                fields[key] = int(number)
            else:  # float or str
                fields[key] = _KEY_TYPES[key](value)
        except SpecFileError:
            raise
        except ValueError as exc:
            raise SpecFileError(path, line_no, f"bad value for {key!r}: {exc}") from None
    if "target" not in fields:
        raise SpecFileError(path, 0, "spec file must set 'target'")
    if thresholds:
        fields["thresholds"] = thresholds
    try:
        return ExperimentSpec(**fields)
    except (ConfigurationError, TypeError) as exc:
        raise SpecFileError(path, 0, str(exc)) from None


def _cmd_run(args) -> int:
    spec = parse_spec_file(args.spec)
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    try:
        report = run_experiment(spec, jobs=args.jobs)
    except ConfigurationError as exc:
        raise SpecFileError(args.spec, 0, str(exc)) from None
    csv_path, json_path = report.write(args.out, Path(args.spec).stem,
                                       timestamp=not args.no_timestamp)
    print(f"wrote {csv_path} and {json_path}")
    failed = [row for row in report.rows if row.get("passed") is False]
    for row in failed:
        print(f"FAIL {row.get('stat')}: value={row.get('value')} "
              f"threshold={row.get('threshold')} (n={row.get('n')}, t={row.get('t')})")
    print("verdict:", "all-pass" if not failed else f"{len(failed)} failed")
    return 0 if not failed else 1


def _cmd_oracle(args) -> int:
    """Replay a stored environment and confirm the counting identity
    rho*(x) = N(log x) at 50 points, counting each side independently."""
    try:
        env = SieveEnvironment.from_json(Path(args.spec).read_text())
    except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise SpecFileError(args.spec, 0, str(exc)) from None
    path = path_from_sticks(env.sticks)
    # 1/x and every p*_k >= 1/x stay normal doubles below log x = 690
    top = min(path.horizon * 0.999, 690.0)
    rng = RngStream(args.seed if args.seed is not None else 0, 0)
    xs = np.exp(rng.gen.uniform(0.0, top, size=50))
    bad = []
    for x in xs:
        lhs = rho(env, float(x))
        rhs = path.count_visits(math.log(float(x)))
        if lhs != rhs:
            bad.append((float(x), lhs, rhs))
    if bad:
        for x, lhs, rhs in bad:
            print(f"MISMATCH at x={x}: rho={lhs} visits={rhs}")
        return 1
    print(f"identity rho(x) = N(log x) holds at all 50 points "
          f"(log x <= {top:.3f})")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sievesim",
        description="Occupancy-scheme and perturbed-random-walk experiment runner")
    parser.add_argument("verb", choices=["run", "oracle"])
    parser.add_argument("--spec", type=str, default=None,
                        help="experiment spec file (run) or environment JSON (oracle)")
    parser.add_argument("--out", type=str, default=".",
                        help="output directory for CSV and report")
    parser.add_argument("--seed", type=int, default=None, help="override the spec seed")
    parser.add_argument("--jobs", type=int, default=1, help="replicate worker processes")
    parser.add_argument("--no-timestamp", action="store_true",
                        help="suppress the CSV timestamp header for byte-stable output")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        print("--jobs must be >= 1", file=sys.stderr)
        return 2
    try:
        if args.spec is None:
            print(f"{args.verb} requires --spec", file=sys.stderr)
            return 2
        if args.seed is not None and args.seed < 0:
            raise SpecFileError(args.spec, 0, "--seed must be >= 0")
        if args.verb == "oracle":
            return _cmd_oracle(args)
        return _cmd_run(args)
    except (SpecFileError, ConfigurationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
