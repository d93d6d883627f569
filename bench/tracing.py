"""Span tracer for the traced benchmark run.

The tracer wraps sievesim's public functions from outside the package, at the
names their callers look up, and records one span per call: name, start, end
and parent.  Spans stay in memory; per-layer self times, per-call percentiles
and counts are derived when the run ends.  A layer's self time is its spans'
duration minus the part their child spans cover.  Time spent in the tracer's
own counting hooks is taken out of the parent span's self time.
"""

import importlib
import math
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from workloads import WORKLOADS


@dataclass(frozen=True)
class Binding:
    """One name a caller looks up: `module.attr`, where attr may be
    `Class.method`.  `own` lists the workloads on which it must see calls.
    A binding without a span name only counts; its time stays in its
    caller's span."""

    module: str
    attr: str
    span: str | None
    own: tuple
    after: object = None    # after(tracer, result, args, before_state)
    before: object = None   # before(args) -> state

    @property
    def label(self) -> str:
        return f"{self.module}.{self.attr}"

    def owner_and_name(self):
        owner = importlib.import_module(self.module)
        *path, name = self.attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        return owner, name


def _count(metric, measure):
    def after(tracer, result, args, state):
        tracer.counts[metric] += measure(result)
    return after


def _occupancy_after(tracer, occ, args, boxes_before):
    env, n = args[0], int(args[1])
    if occ.total() != n:
        tracer.violations.append(f"OccupancyResult.total() = {occ.total()} != n = {n}")
    tracer.counts["occupancy.boxes_resolved"] += max(occ.counts, default=0)
    tracer.counts["occupancy.lazy_extensions"] += env.num_boxes - boxes_before


def _binomial_after(tracer, result, args, state):
    tracer.counts["sampling.binomial_regime." + tracer.binomial_regime(args[0], args[1])] += 1


def _floor_power_after(tracer, result, args, state):
    tracer.floor_power_args.add((int(args[0]), float(args[1])))


ALL = tuple(WORKLOADS)

# harness imports its callees by name, so they are patched on sievesim.harness;
# nested calls are patched on the module whose code calls them.
BINDINGS = (
    Binding("sievesim.cli", "parse_spec_file", "cli.parse_spec_file", ALL),
    Binding("sievesim.cli", "run_experiment", "harness", ALL),
    Binding("sievesim.harness", "RngStream", "sampling.RngStream", ALL),
    Binding("sievesim.harness", "build_environment", "occupancy.build_environment",
            ("sieve_deep", "esf_equality", "t22_ratio"),
            after=_count("occupancy.boxes_built", lambda env: env.num_boxes)),
    Binding("sievesim.harness", "occupy_sieve", "occupancy.occupy_sieve",
            ("sieve_deep", "esf_equality", "t22_ratio"),
            after=_occupancy_after, before=lambda args: args[0].num_boxes),
    Binding("sievesim.harness", "k_process", "occupancy.k_process",
            ("sieve_deep", "esf_equality", "t22_ratio")),
    Binding("sievesim.harness", "visit_process", "prw.visit_process", ("walk_clt",)),
    Binding("sievesim.harness", "sample_cycles_feller", "ewens.sample_cycles_feller",
            ("esf_equality",),
            after=_count("ewens.cycles", lambda cycles: sum(cycles.counts.values()))),
    Binding("sievesim.harness", "c_process", "ewens.c_process", ("esf_equality",)),
    Binding("sievesim.harness", "sample_inverse_ratio", "limits.sample_inverse_ratio",
            ("t22_ratio",), after=_count("limits.reference_draws", np.size)),
    # no workload calls centering_u_v: A1 runs with linear centering and T22
    # has none; the binding is still patched so a renamed import fails loudly
    Binding("sievesim.harness", "centering_u_v", "limits.centering", ()),
    Binding("sievesim.harness", "centering_prw", "limits.centering", ("walk_clt",)),
    Binding("sievesim.harness", "ks_one_sample", "harness.ks",
            ("sieve_deep", "walk_clt", "esf_equality")),
    Binding("sievesim.harness", "ks_two_sample", "harness.ks", ("esf_equality", "t22_ratio")),
    Binding("sievesim.harness", "ExperimentReport.write", "harness.write", ALL,
            after=_count("harness.csv_bytes", lambda paths: Path(paths[0]).stat().st_size)),
    Binding("sievesim.occupancy", "sample_binomial", "sampling.sample_binomial",
            ("sieve_deep", "esf_equality", "t22_ratio"), after=_binomial_after),
    Binding("sievesim.occupancy", "floor_power", "occupancy.floor_power",
            ("sieve_deep", "esf_equality", "t22_ratio"), after=_floor_power_after),
    Binding("sievesim.ewens", "floor_power", "occupancy.floor_power", ("esf_equality",),
            after=_floor_power_after),
    Binding("sievesim.sampling", "StickLaw.sample", "sampling.StickLaw.sample",
            ("sieve_deep", "esf_equality", "t22_ratio"),
            after=_count("sampling.StickLaw.sample.variates", np.size)),
    Binding("sievesim.prw", "simulate_path", "prw.simulate_path", ("walk_clt",),
            after=_count("prw.steps_kept", lambda path: len(path.t_values))),
    # step draws belong to simulate_path's self time
    Binding("sievesim.prw", "StepLaw.draw", None, ("walk_clt",),
            after=_count("prw.steps_drawn", lambda steps: len(steps[0]))),
    Binding("sievesim.limits", "sample_standard_positive_stable",
            "sampling.sample_standard_positive_stable", ("t22_ratio",),
            after=_count("sampling.sample_standard_positive_stable.variates", np.size)),
)

# span name -> fields reported for it
SPAN_FIELDS = {
    "occupancy.k_process": ("calls", "self_s", "us_p50"),
    "occupancy.floor_power": ("calls", "self_s"),
    "occupancy.build_environment": ("calls", "self_s", "us_p50", "us_p99"),
    "sampling.StickLaw.sample": ("self_s",),
    "occupancy.occupy_sieve": ("calls", "self_s", "us_p50", "us_p99"),
    "sampling.sample_binomial": ("calls", "self_s"),
    "prw.visit_process": ("calls", "self_s", "us_p50", "us_p99"),
    "prw.simulate_path": ("calls", "self_s"),
    "ewens.sample_cycles_feller": ("calls", "self_s", "us_p50", "us_p99"),
    "ewens.c_process": ("calls", "self_s"),
    "limits.sample_inverse_ratio": ("calls", "self_s"),
    "sampling.sample_standard_positive_stable": ("self_s",),
    "sampling.RngStream": ("calls", "self_s"),
    "harness": ("self_s",),
    "harness.ks": ("calls", "self_s"),
    "harness.write": ("self_s",),
    "limits.centering": ("self_s",),
    "cli.parse_spec_file": ("self_s",),
}
COUNTS = (
    "occupancy.floor_power.distinct_args",
    "occupancy.boxes_built",
    "occupancy.boxes_resolved",
    "occupancy.lazy_extensions",
    "sampling.StickLaw.sample.variates",
    "sampling.binomial_regime.inversion",
    "sampling.binomial_regime.btpe",
    "sampling.binomial_regime.gaussian",
    "sampling.binomial_regime.degenerate",
    "prw.steps_drawn",
    "prw.steps_kept",
    "ewens.cycles",
    "limits.reference_draws",
    "sampling.sample_standard_positive_stable.variates",
)
_FIELD_UNITS = {"calls": "count", "self_s": "s", "us_p50": "us", "us_p99": "us"}

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    [(f"{span}.{f}", _FIELD_UNITS[f], "lower") for span, fields in SPAN_FIELDS.items()
     for f in fields]
    + [(name, "count", "lower") for name in COUNTS]
    + [("harness.csv_bytes", "bytes", "lower"),
       ("prw.step_use_ratio", "ratio", "higher"),
       ("limits.stable_variates_per_draw", "ratio", "lower"),
       ("trace.overhead_s", "s", "lower")]
)


def _quantile_us(durations, q) -> float:
    ordered = sorted(durations)
    return 1e6 * ordered[max(0, math.ceil(q * len(ordered)) - 1)]


@dataclass
class Tracer:
    """Install with `with Tracer() as tracer:`; patches are undone on exit."""

    spans: list = field(default_factory=list)   # [name, start, end, parent, hook_s]
    counts: Counter = field(default_factory=Counter)
    calls: Counter = field(default_factory=Counter)  # per binding label
    floor_power_args: set = field(default_factory=set)
    violations: list = field(default_factory=list)

    def __enter__(self):
        self.binomial_regime = importlib.import_module("sievesim.sampling").binomial_regime
        self._stack = []
        self._restore = []
        try:
            for binding in BINDINGS:
                owner, name = binding.owner_and_name()
                if name not in vars(owner):
                    raise LookupError(f"traced binding {binding.label} does not exist")
                original = vars(owner)[name]
                setattr(owner, name, self._wrap(original, binding))
                self._restore.append((owner, name, original))
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc):
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore = []
        return False

    def _wrap(self, fn, binding):
        spans, stack, calls = self.spans, self._stack, self.calls
        name, label, before, after = binding.span, binding.label, binding.before, binding.after
        clock = time.perf_counter
        tracer = self

        def counted(*args, **kwargs):
            calls[label] += 1
            state = before(args) if before else None
            result = fn(*args, **kwargs)
            if after:
                hook_start = clock()
                after(tracer, result, args, state)
                if stack:
                    spans[stack[-1]][4] += clock() - hook_start
            return result

        def traced(*args, **kwargs):
            calls[label] += 1
            state = before(args) if before else None
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after:
                after(tracer, result, args, state)
                if parent >= 0:
                    spans[parent][4] += clock() - span[2]
            return result

        return traced if name else counted

    def binding_calls(self) -> dict:
        """Calls seen at each patched binding, zero included."""
        return {b.label: self.calls[b.label] for b in BINDINGS}

    def self_times(self) -> dict:
        """Total self time per span name, in seconds."""
        return {name: agg["self_s"] for name, agg in self._aggregate().items()}

    def _aggregate(self):
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        agg = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "durations": []})
        for i, (name, start, end, _, hook_s) in enumerate(self.spans):
            entry = agg[name]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - covered[i] - hook_s
            entry["durations"].append(end - start)
        return agg

    def metrics(self, overhead_s: float) -> dict:
        """Every per-layer metric as {name: {"value", "unit"}}."""
        agg = self._aggregate()
        values = {}
        for span, fields in SPAN_FIELDS.items():
            entry = agg.get(span)
            for f in fields:
                if entry is None:
                    values[f"{span}.{f}"] = 0.0 if f != "calls" else 0
                elif f in ("calls", "self_s"):
                    values[f"{span}.{f}"] = entry[f]
                else:
                    values[f"{span}.{f}"] = _quantile_us(entry["durations"], int(f[4:]) / 100)
        counts = dict(self.counts, **{"occupancy.floor_power.distinct_args":
                                      len(self.floor_power_args)})
        values.update({name: counts.get(name, 0) for name in COUNTS})
        values["harness.csv_bytes"] = counts.get("harness.csv_bytes", 0)
        drawn, draws = counts.get("prw.steps_drawn", 0), counts.get("limits.reference_draws", 0)
        values["prw.step_use_ratio"] = counts.get("prw.steps_kept", 0) / drawn if drawn else 0.0
        values["limits.stable_variates_per_draw"] = (
            counts.get("sampling.sample_standard_positive_stable.variates", 0) / draws
            if draws else 0.0)
        values["trace.overhead_s"] = overhead_s
        return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
