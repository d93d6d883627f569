"""Command-line entry point: run experiments from key-value spec files,
replay stored environments against the walk identity, and run the quick
selftest suite.

Exit codes: 0 all checks passed, 1 some verdict failed, 2 configuration or
spec-file error.
"""

import argparse
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np

from .harness import ConfigurationError, ExperimentSpec, ks_two_sample, run_experiment
from .occupancy import SieveEnvironment, rho
from .prw import path_from_sticks
from .sampling import RngStream

__all__ = ["main", "parse_spec_file", "SpecFileError"]


class SpecFileError(Exception):
    """Malformed spec file; carries a line-anchored diagnostic."""

    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")


_LIST_KEYS = {"n_values", "grid", "x_values", "y_values"}
_INT_KEYS = {"replicates", "seed"}
_FLOAT_KEYS = {"theta", "alpha", "xi_param", "eta_param", "q", "b", "c"}
_STR_KEYS = {"target", "mode", "stick", "xi", "eta", "dependence", "centering"}


def parse_spec_file(path) -> ExperimentSpec:
    """Parse the documented key = value schema into an ExperimentSpec.

    Keys mirror the ExperimentSpec fields; list values are comma separated;
    `threshold.<name> = <float>` overrides a calibrated threshold.  Unknown
    keys and unparsable values raise SpecFileError with the offending line.
    """
    path = Path(path)
    if not path.exists():
        raise SpecFileError(path, 0, "spec file does not exist")
    fields = {}
    thresholds = {}
    for line_no, raw_line in enumerate(path.read_text().splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SpecFileError(path, line_no, f"expected 'key = value', got {raw_line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        try:
            if key.startswith("threshold."):
                thresholds[key.split(".", 1)[1]] = float(value)
            elif key in _LIST_KEYS:
                fields[key] = tuple(float(v) for v in value.split(",") if v.strip())
            elif key in _INT_KEYS:
                number = float(value)
                if not number.is_integer():  # also nan and the infinities
                    raise SpecFileError(path, line_no, f"{key} must be an integer, not {value}")
                fields[key] = int(number)
            elif key in _FLOAT_KEYS:
                fields[key] = float(value)
            elif key in _STR_KEYS:
                fields[key] = value
            else:
                raise SpecFileError(path, line_no, f"unknown key {key!r}")
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
    if args.seed is not None and args.seed < 0:
        raise SpecFileError(args.spec, 0, "--seed must be >= 0")
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


def _selftest_checks():
    """Quick deterministic checks, one per core trivial contract."""
    from . import ewens, limits, occupancy, prw, sampling

    rng = RngStream(1234, 0)
    checks = []

    def add(name, fn):
        checks.append((name, fn))

    add("beta(1) stick is uniform-mean",
        lambda: abs(float(np.mean(sampling.StickLaw.beta(1.0).sample(RngStream(1, 0), 100000))) - 0.5) < 0.005)
    add("binomial degenerate n=0", lambda: sampling.sample_binomial(0, 0.3, rng) == 0)
    add("binomial certain success", lambda: sampling.sample_binomial(10**6, 1.0, rng) == 10**6)
    add("positive stable Laplace transform at 1",
        lambda: abs(float(np.mean(np.exp(-sampling.sample_standard_positive_stable(0.5, RngStream(2, 0), 100000)))) - math.exp(-1.0)) < 0.005)
    add("geometric rho(8) = 3",
        lambda: occupancy.rho(occupancy.DeterministicScheme.geometric(0.5), 8.0) == 3)
    add("rho vanishes below first box",
        lambda: occupancy.rho(occupancy.DeterministicScheme.geometric(0.5), 1.5) == 0)
    add("single ball occupies one box",
        lambda: occupancy.occupy_sieve(
            occupancy.build_environment(sampling.StickLaw.beta(1.0), 2**-40, RngStream(3, 0)),
            1, RngStream(3, 1)).total() == 1)
    add("x0 defining equation",
        lambda: abs(occupancy.bound_constant_x0() - occupancy.bound_constant_x0()**0.75 - 1.0) < 1e-10)
    unit = prw.StepLaw(("const", 1.0), ("const", 0.5))
    add("deterministic walk N(2) = 2",
        lambda: prw.simulate_path(unit, 2.0, rng).count_visits(2.0) == 2)
    add("renewals vanish left of zero",
        lambda: prw.simulate_path(prw.StepLaw.exp_exp(), 0.0, rng).count_renewals(-1.0) == 0)
    add("unit-step renewal floor",
        lambda: prw.simulate_path(unit, 3.5, rng).count_renewals(3.5) == 4)
    add("feller n=1 single fixed point",
        lambda: ewens.sample_cycles_feller(1, 2.0, rng).counts == {1: 1})
    add("identity permutation cycle process is flat",
        lambda: list(ewens.c_process(ewens.CycleCounts(5, 1.0, {1: 5}), [0.0, 0.5, 1.0])) == [5, 5, 5])
    add("normal cdf at zero", lambda: limits.normal_cdf(0.0) == 0.5)
    add("normal cdf symmetry",
        lambda: abs(limits.normal_cdf(1.7) + limits.normal_cdf(-1.7) - 1.0) < 1e-12)
    add("exact normalizer c(8) = 4",
        lambda: abs(limits.normalizer_c(8.0, 1.5) - 4.0) < 1e-12)
    add("centering vanishes at t=0",
        lambda: limits.centering_u_v(sampling.StickLaw.beta(1.0), 1000, 0.0) == (0.0, 0.0))
    add("prw centering below constant support",
        lambda: limits.centering_prw(("const", 2.0), 1.0, 1.0, 1.0) == 0.0)
    add("ks of identical samples",
        lambda: ks_two_sample([1.0, 2.0], [1.0, 2.0]) == 0.0)
    add("ks of disjoint singletons",
        lambda: ks_two_sample([0.0], [1.0]) == 1.0)
    add("streams are numpy's SeedSequence-seeded PCG64",
        lambda: all(np.array_equal(
            RngStream(seed, i).gen.random(4),
            np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(i,))))
            .random(4)) for seed, i in ((0, 0), (2**32 + 5, 1023), (1234, 2**40 + 4161))))
    add("inverse ratio atom at alpha = t = 1/2 is 1/2",
        lambda: abs(float(np.mean(limits.sample_inverse_ratio(0.5, 0.5, RngStream(5, 0), 10**5)
                                  == 0.0)) - 0.5) < 0.01)
    return checks


def _cmd_selftest(_args) -> int:
    failures = 0
    for name, fn in _selftest_checks():
        try:
            ok = bool(fn())
        except Exception as exc:  # noqa: BLE001 - report, don't crash the suite
            ok = False
            print(f"ERROR {name}: {exc}")
        print(f"{'PASS' if ok else 'FAIL'} {name}")
        failures += 0 if ok else 1
    print(f"selftest: {'all-pass' if failures == 0 else f'{failures} failed'}")
    return 0 if failures == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sievesim",
        description="Occupancy-scheme and perturbed-random-walk experiment runner")
    parser.add_argument("verb", choices=["run", "oracle", "selftest"])
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
        if args.verb == "selftest":
            return _cmd_selftest(args)
        if args.spec is None:
            print(f"{args.verb} requires --spec", file=sys.stderr)
            return 2
        if args.verb == "oracle":
            return _cmd_oracle(args)
        return _cmd_run(args)
    except (SpecFileError, ConfigurationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
