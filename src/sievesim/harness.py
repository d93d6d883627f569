"""Replicated-experiment harness: drives each limit-theorem check, assembles
normalized statistics, applies KS tests against the reference limit laws, and
emits reproducible CSV/JSON reports.

Distributional thresholds are finite-n calibration artifacts (the theorems
are asymptotic with no rates); they are carried in the spec and labeled as
calibrated in every report rather than presented as theory constants.
"""

import json
import math
import pathlib
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, fields
from functools import partial

import numpy as np

from . import __version__
from .ewens import FELLER_MAX_N, c_process_block
from .limits import (
    centering_prw,
    centering_u_v,
    log_normalizer,
    normal_cdf,
    sample_inverse_ratio,
    sample_inverse_reversal,
)
from .occupancy import (
    BOUND_CONSTANT_X0,
    DeterministicScheme,
    _ratio_sup_deviation,
    approximation_bound_rhs,
    approximation_sup,
    occupy_sieve_block,
)
# bench/tracing.py binds these five names on this module and raises
# LookupError if one is missing; no run calls them since the sieve and the
# Feller coupling draw in blocks (occupy_sieve_block, c_process_block)
from .ewens import c_process, sample_cycles_feller  # noqa: F401
from .occupancy import build_environment, k_process, occupy_sieve  # noqa: F401
from .prw import (
    POISSON_MEAN_MAX,
    StepLaw,
    lln_sup_deviation,
    max_window_count,
    simulate_path,
    visit_block,
    visit_process,
)
from .sampling import (
    RngStream,
    StickLaw,
    sample_inverse_subordinator_marginal,
    sample_spectrally_negative_stable,
)

__all__ = [
    "ConfigurationError",
    "ExperimentSpec",
    "ExperimentReport",
    "ks_one_sample",
    "ks_two_sample",
    "run_experiment",
]


class ConfigurationError(ValueError):
    """An experiment spec asks for something its law cannot satisfy."""


TARGETS = ("A1", "A2", "A3", "T22", "P21", "B1", "B2", "B3", "B4",
           "P31", "P32", "P33", "P41", "EQ", "ESF_FLT")
_SIEVE = ("A1", "A2", "A3", "T22")
_WALK = ("B1", "B2", "B3", "B4")

# Stream layout and its limits: README, Reproducibility.  Replicate r of the
# i-th n (of the i-th y for P33) draws from stream i * replicates + r, but the
# sieve, the Feller coupling and the exp xi walks draw block b of _BLOCK
# replicates from stream i * replicates + _BLOCK * b (+ 2^20 for the sieve
# half of ESF_FLT and EQ); reference draws take _GRID_STREAMS streams per n.
_SIEVE_STREAM_BASE = 1 << 20
_REFERENCE_STREAM_BASE = 1 << 40
_GRID_STREAMS = 64
_BLOCK = 1024
# the most partial sums, on average, of a walk that holds its path (32 B a step)
_PATH_STEPS_MAX = 2.0**24
# a run's wall time by phase: replicate draws, limit-law reference draws, the
# rest of run_experiment, and the report's CSV write (0 until it is written)
_PHASES = ("simulate", "reference", "statistics", "write")
_REFERENCE_BLOCK = {("A3", False): 0, ("T22", False): 0, ("T22", True): 4096,
                    ("A3", True): 8192, ("B3", False): 16384, ("B4", False): 16384}

_CHOICES = {"mode": ("process", "ratio"), "stick": ("beta", "exppareto"),
            "xi": ("exp", "pareto", "const", "logstick"), "eta": ("exp", "const", "log1mstick"),
            "dependence": ("independent", "sharedstick"), "centering": ("u", "linear")}
# the tail index a two-sample target's reference law takes: field, left
# bracket, range.  T22 and B4 start at 0.05 inclusive, not at 0: their
# references draw Kanter's positive stable variate, whose product form under-
# and overflows for small alpha (non-finite or zero values per 1e7 draws:
# about 12,000 at 0.01, 6 to 16 at 0.02, none at 0.03 or 0.05).
_TAIL_INDEX = {"A3": ("alpha", "(", 1.0, 2.0), "T22": ("alpha", "[", 0.05, 1.0),
               "B3": ("xi_param", "(", 1.0, 2.0), "B4": ("xi_param", "[", 0.05, 1.0)}

# Calibrated defaults; every one of these is a finite-n pilot value, not a
# theory constant.  Spec files may override any key.
DEFAULT_THRESHOLDS = {
    "ks": {"A1": 0.08, "A2": 0.10, "A3": 0.10, "T22": 0.05, "B1": 0.02,
           "B2": 0.04, "B3": 0.04, "B4": 0.03, "ESF_FLT": 0.12},
    "ratio_ks": {"A1": 0.08, "A2": 0.10, "A3": 0.10, "T22": 0.06},
    "eq_ks": 0.04,
    "cov_tol": 0.05,
    "p21_final": 0.2,
}


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov statistics (exact, no asymptotic p-values)
# ---------------------------------------------------------------------------


def ks_one_sample(values, cdf) -> float:
    """Exact sup-distance between the empirical CDF of values and cdf, an
    elementwise function of the value: it is evaluated once per run of ties
    (a column of counts holds a few dozen distinct values) and repeated."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("ks_one_sample needs at least one value")
    x = np.sort(values)
    m = len(x)
    starts = np.flatnonzero(np.concatenate(([True], x[1:] != x[:-1])))
    f = np.repeat(np.asarray(cdf(x[starts]), dtype=float), np.diff(np.append(starts, m)))
    ranks = np.arange(1, m + 1, dtype=float)
    return float(max(np.max(ranks / m - f), np.max(f - (ranks - 1.0) / m), 0.0))


def ks_two_sample(a, b) -> float:
    """Exact sup-distance between two empirical CDFs (merge scan).

    Ties are handled by evaluating both CDFs only after all equal values are
    processed.  The distance max |i/len(a) - j/len(b)| is taken over the
    integer counts i, j as max |i len(b) - j len(a)| and divided once, so the
    result is the rational statistic correctly rounded.
    """
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if len(a) == 0 or len(b) == 0:
        raise ValueError("ks_two_sample needs two nonempty samples")
    data = np.unique(np.concatenate([a, b]))
    ia = np.searchsorted(a, data, side="right")
    ib = np.searchsorted(b, data, side="right")
    return int(np.max(np.abs(ia * len(b) - ib * len(a)))) / (len(a) * len(b))


# ---------------------------------------------------------------------------
# experiment specification and report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to reproduce one experiment bit for bit."""

    target: str
    n_values: tuple = ()
    replicates: int = 200
    grid: tuple = (1.0,)
    seed: int = 0
    mode: str = "process"          # process | ratio (sieve targets and P21)
    stick: str = "beta"            # beta | exppareto
    theta: float = 1.0
    alpha: float = 0.5
    xi: str = "exp"                # exp | pareto | const | logstick
    xi_param: float = 1.0
    eta: str = "exp"               # exp | const | log1mstick
    eta_param: float = 1.0
    dependence: str = "independent"
    q: float = 0.5                 # geometric scheme parameter (P41)
    b: float = 1.0                 # window length (P32)
    c: float = 0.5                 # power normalisation (P32)
    x_values: tuple = ()
    y_values: tuple = ()
    centering: str = "u"           # "u" (integral form) | "linear" (mu^-1 t log n,
                                   # valid whenever E|log(1-W)| < inf kills v_n)
    thresholds: dict = field(default_factory=dict, hash=False)

    def __post_init__(self):
        if self.target not in TARGETS:
            raise ConfigurationError(f"unknown target {self.target!r}")
        if self.replicates < 1:
            raise ConfigurationError("replicates must be >= 1")
        if self.seed < 0:
            raise ConfigurationError("seed must be >= 0")
        if not self.grid or any(not 0.0 <= t <= 1.0 for t in self.grid):
            raise ConfigurationError("grid needs at least one value, all in [0, 1]")
        for name in _FINITE:
            value = getattr(self, name)
            if not all(map(math.isfinite, value if isinstance(value, tuple) else (value,))):
                raise ConfigurationError(f"{name} must be finite")
        for kind, value in self.thresholds.items():
            if kind not in DEFAULT_THRESHOLDS:
                raise ConfigurationError(f"unknown threshold {kind!r}: the thresholds are "
                                         f"{', '.join(DEFAULT_THRESHOLDS)}")
            if not math.isfinite(value):
                raise ConfigurationError(f"threshold {kind} must be finite")
        for name, allowed in _CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ConfigurationError(f"{name} must be one of {', '.join(allowed)}, "
                                         f"not {getattr(self, name)!r}")
        if self.mode == "ratio" and self.target not in _SIEVE + ("P21",):
            raise ConfigurationError(f"{self.target} has no ratio mode: mode = ratio applies "
                                     f"to {', '.join(_SIEVE)} and P21")
        if self.target in _TAIL_INDEX:
            name, bracket, lo, hi = _TAIL_INDEX[self.target]
            value = getattr(self, name)
            if not (lo <= value < hi if bracket == "[" else lo < value < hi):
                raise ConfigurationError(f"{self.target} requires {name} in {bracket}{lo:g}, "
                                         f"{hi:g}), the tail index of its reference law")
        if self.target not in _WALK + ("P33",) and any(n < 1 for n in self.n_values):
            raise ConfigurationError(f"{self.target} rounds n to an integer: n_values must be >= 1")
        if self.target in _SIEVE + ("P21",) and any(n >= 2.0**63 for n in self.n_values):
            raise ConfigurationError(f"{self.target} counts balls in int64: n_values must be "
                                     "< 2^63")
        if self.target in _WALK and any(n <= 0 for n in self.n_values):
            raise ConfigurationError(f"{self.target} needs n_values > 0")
        if self.target in _WALK and any(b < a for a, b in zip(self.grid, self.grid[1:])):
            raise ConfigurationError(f"{self.target} counts visits along the grid: "
                                     "it must be nondecreasing")
        if self.target == "P21" and any(n < 2 for n in self.n_values):
            raise ConfigurationError("P21 measures t on the log n scale: n_values must be >= 2")
        try:
            law = self.law()
        except ValueError as exc:  # a law parameter out of its range
            raise ConfigurationError(f"{self.target}: {exc}") from None
        if self.target == "P31" and not math.isfinite(law.mean_xi()):
            raise ConfigurationError("P31 requires a step law with finite mean")
        if self.target == "P32" and not (self.b > 0.0 and self.c > 0.0):
            raise ConfigurationError("P32 requires b > 0 and c > 0")
        if self.target == "P33" and not (self.x_values and self.y_values and self.replicates >= 2):
            raise ConfigurationError("P33 needs x_values, y_values and replicates >= 2")
        if self.target == "P33" and min(self.x_values + self.y_values) < 0.0:
            raise ConfigurationError("P33 needs x_values and y_values >= 0")
        if self.target in _WALK + ("P31", "P32", "P33"):
            # the horizon is n (P31), n + b (P32), max x + y (P33) or n t; an exp
            # xi walk target counts its visits by Poisson draws of mean at most its
            # mean step count, any other walk holds its steps
            n = max(self.n_values, default=0.0)
            horizon = {"P31": n, "P32": n + self.b, "P33": max(self.x_values, default=0.0)
                       + max(self.y_values, default=0.0)}.get(self.target, n * max(self.grid))
            steps, poisson = law.mean_steps(horizon), self.target in _WALK and law.xi[0] == "exp"
            if steps > (POISSON_MEAN_MAX if poisson else _PATH_STEPS_MAX):
                raise ConfigurationError(f"{self.target} walks to {horizon:g}, about {steps:.3g} steps: "
                                         + ("over 2^40, where numpy's Poisson sampler keeps its law"
                                            if poisson else "over 2^24, the most a path may hold"))
        if self.target == "P41" and (self.replicates < 100 or any(n < 3 for n in self.n_values)):
            raise ConfigurationError("P41 needs replicates >= 100 and n_values >= 3")
        if (self.target in ("A3", "T22", "B3", "B4") and len(self.n_values) > 1
                and len(self.grid) > _GRID_STREAMS):
            raise ConfigurationError(f"{self.target} with several n values takes at most "
                                     f"{_GRID_STREAMS} grid points (reference streams per n)")
        if self.target in ("ESF_FLT", "EQ") and any(n > FELLER_MAX_N for n in self.n_values):
            raise ConfigurationError(f"{self.target} needs n_values <= 2^53, the largest n "
                                     "the Feller coupling samples exactly")
        if (self.target in ("ESF_FLT", "EQ")
                and self.replicates * len(self.n_values) > _SIEVE_STREAM_BASE):
            raise ConfigurationError(f"{self.target} needs replicates * len(n_values) <= 2^20 "
                                     "(the sieve half's streams start at 2^20)")

    def law(self):
        """The law the target samples: the geometric scheme (P41), the step
        law (the walk and P31..P33) or the stick law."""
        if self.target == "P41":
            return DeterministicScheme.geometric(self.q)
        if self.target in _WALK + ("P31", "P32", "P33"):
            return self.step_law()
        if self.target in ("ESF_FLT", "EQ"):
            return StickLaw.beta(self.theta)
        return self.stick_law()

    def stick_law(self) -> StickLaw:
        return StickLaw.beta(self.theta) if self.stick == "beta" else StickLaw.exp_pareto(self.alpha)

    def step_law(self) -> StepLaw:
        if self.dependence == "sharedstick":
            return StepLaw.shared_stick(self.stick_law())
        xi = (self.xi, self.stick_law() if self.xi == "logstick" else self.xi_param)
        eta = (self.eta, self.stick_law() if self.eta == "log1mstick" else self.eta_param)
        return StepLaw(xi, eta)

    def threshold(self, kind: str) -> float:
        if kind in self.thresholds:
            return self.thresholds[kind]
        default = DEFAULT_THRESHOLDS[kind]
        return default[self.target] if isinstance(default, dict) else default


# every numeric field; a nan or an infinity in any of them is a spec error
_FINITE = tuple(f.name for f in fields(ExperimentSpec) if f.type in (float, tuple))


def _pair_texts(raw, normalized):
    """f"{a!r},{b!r}" of each row, calling repr once per distinct pair of bit
    patterns (bits keep -0.0 apart from 0.0, and NaN payloads apart).  One
    quicksort, keyed on the raw bits xor the normalized bits turned by 32,
    puts equal pairs side by side and keeps any two pairs of counts apart
    (their low 32 bits are 0); a run ends wherever the pair changes, so a
    key collision costs a repr, never a wrong line."""
    rb, nb = raw.view(np.uint64), normalized.view(np.uint64)
    order = np.argsort(rb ^ (nb << np.uint64(32) | nb >> np.uint64(32)))
    rs, ns = rb[order], nb[order]
    new = np.concatenate(([True], (rs[1:] != rs[:-1]) | (ns[1:] != ns[:-1])))
    first = order[new]
    text = np.array([f"{a!r},{b!r}" for a, b in zip(raw[first].tolist(),
                                                    normalized[first].tolist())], dtype=object)
    texts = np.empty(len(raw), dtype=object)
    texts[order] = text[np.cumsum(new) - 1]
    return tuple(texts.tolist())


@dataclass
class ExperimentReport:
    """Summary rows, raw per-replicate statistics and run metadata."""

    spec: ExperimentSpec
    rows: list = field(default_factory=list)
    # one entry per column: (target, n, t, raw, normalized), the last two
    # float64 arrays indexed by replicate
    raw: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def all_passed(self) -> bool:
        return all(row.get("passed") is not False for row in self.rows)

    def add_raw(self, n, t, raw_values, normalized_values):
        """Append one column of replicates 0 .. R - 1."""
        self.raw.append((self.spec.target, n, t, np.array(raw_values, dtype=float),
                         np.array(normalized_values, dtype=float)))

    def to_json(self) -> str:
        body = {
            "target": self.spec.target,
            "spec": {k: (list(v) if isinstance(v, tuple) else v)
                     for k, v in asdict(self.spec).items()},
            "rows": self.rows,
            "metadata": self.metadata,
            "all_passed": self.all_passed(),
            "thresholds_note": "all distributional thresholds are finite-n "
                               "calibration artifacts, not theory constants",
        }
        return json.dumps(body, indent=2, default=float)

    def _csv_blocks(self, timestamp: bool):
        """The CSV in blocks of whole lines, each a string with no final
        newline: the header, then one block per column, formatted by one `%`
        whose format holds the column's prefix and replicate numbers."""
        if timestamp:
            yield f"# generated {time.strftime('%Y-%m-%dT%H:%M:%S')} sievesim {__version__}"
        yield "target,n,t,replicate,raw,normalized"
        heads = [f"{r},%s" for r in range(max((len(column[3]) for column in self.raw), default=0))]
        for target, n, t, raw, normalized in self.raw:
            if len(raw):
                prefix = f"{target},{n!r},{t!r},"
                fmt = prefix + ("\n" + prefix).join(heads[:len(raw)])
                yield fmt % _pair_texts(raw, normalized)

    def write(self, out_dir, stem: str, timestamp: bool = True):
        out = pathlib.Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        csv_path, json_path = out / f"{stem}.csv", out / f"{stem}.json"
        start = time.perf_counter()
        with csv_path.open("w") as csv:
            for block in self._csv_blocks(timestamp):
                csv.write(block + "\n")
        self.metadata.setdefault("phases_s", {})["write"] = time.perf_counter() - start
        json_path.write_text(self.to_json() + "\n")
        return csv_path, json_path


def _normalize(raw, center: float, scale: float) -> np.ndarray:
    """Affine map raw -> (raw - center)/scale with a round-trip guard."""
    raw = np.asarray(raw, dtype=float)
    normalized = (raw - center) / scale
    back = normalized * scale + center
    if not np.all(np.abs(back - raw) <= 1e-9 * np.maximum(1.0, np.abs(raw))):
        raise RuntimeError("normalization round-trip check failed")
    return normalized


def _run_replicates(worker, units: int, jobs: int, pool) -> list:
    """worker(u) for u = 0 .. units - 1, each a replicate or a block of
    replicates: serially, or on `pool`, whose `jobs` workers take them in
    chunks of an eighth of a worker's share."""
    if pool is None:
        return [worker(u) for u in range(units)]
    return pool.map(worker, range(units), chunksize=max(1, units // (jobs * 8)))


# ---------------------------------------------------------------------------
# per-replicate statistics (module level so they pickle for worker pools):
# replicate r of a column computes stat(RngStream(seed, stream_base + r)),
# and block b of a sieve, Feller or exp xi walk column stat(size,
# RngStream(seed, stream_base + 1024 b)) for its replicates 1024 b ..
# 1024 b + size - 1
# ---------------------------------------------------------------------------


def _stat_replicate(stat: partial, seed: int, stream_base: int, rep: int):
    return stat(RngStream(seed, stream_base + rep))


def _stat_block(stat: partial, seed: int, stream_base: int, replicates: int, block: int):
    first = block * _BLOCK
    return stat(min(_BLOCK, replicates - first), RngStream(seed, stream_base + first))


def _sieve_stat(law: StickLaw, n: int, grid: tuple, sup: bool, size: int, rng: RngStream):
    """One block of sieve replicates: a row per replicate holding K_n(t) on the
    grid and then K_n, or with sup (P21) only the exact sup_t |K_n(t)/K_n - t|;
    and the boxes the block thinned (a stick and a binomial variate each, or
    for beta(1) sticks one bounded integer)."""
    rows, last = occupy_sieve_block(law, n, size, rng, None if sup else grid)
    if sup:  # rows holds each replicate's occupied counts
        rows = np.array([[_ratio_sup_deviation(counts, n)] for counts in rows])
    return rows, int(last.sum())


def _block_columns(stat: partial, seed: int, stream_base: int, replicates: int, jobs: int,
                   pool) -> tuple:
    """A block statistic's rows for replicates 0 .. replicates - 1, drawn in
    blocks of _BLOCK, and its draws (boxes thinned, Feller uniforms, Poisson
    variates) over all."""
    blocks = _run_replicates(partial(_stat_block, stat, seed, stream_base, replicates),
                             -(-replicates // _BLOCK), jobs, pool)
    return np.concatenate([rows for rows, _ in blocks]), sum(drawn for _, drawn in blocks)


def _lln_stat(law: StepLaw, n: float, grid: tuple, rng: RngStream) -> float:
    return lln_sup_deviation(simulate_path(law, n, rng), n, grid, law.mean_xi())


def _window_stat(law: StepLaw, n: float, b: float, c: float, rng: RngStream) -> float:
    return n ** (-c) * max_window_count(simulate_path(law, n + b, rng), b, n)


def _increment_stat(law: StepLaw, x_values: tuple, y: float, rng: RngStream) -> list:
    """N(x+y) - N(x) for each x, then nu(y), all on one path: its horizon
    max x + y is at least y, so nu(y) is counted exactly."""
    path = simulate_path(law, max(x_values) + y, rng)
    increments = [path.count_visits(x + y) - path.count_visits(x) for x in x_values]
    return increments + [path.count_renewals(y)]


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _scale(spec: ExperimentSpec, n, formula, *args) -> float:
    """formula(*args), checked before an n's replicates are drawn: it is not
    finite and positive when there is nothing to normalise (log n = 0 at
    n = 1, a constant step, a law without the moments its regime needs)."""
    try:
        scale = formula(*args)
    except (ValueError, ArithmeticError):
        scale = math.nan
    if not (math.isfinite(scale) and scale > 0.0):
        raise ConfigurationError(f"{spec.target} at n = {n}: the normalising scale "
                                 f"{scale} is not finite and positive")
    return scale


def _process_scale(regime: int, mean: float, var: float, x: float, alpha: float) -> float:
    """Scale of a centred count process in one of the four regimes that the
    sieve (A1..T22: x = log n, moments of |log W|) and the walk (B1..B4:
    x = n, moments of xi) share: finite variance, tail index 2, stable
    alpha in (1, 2) and inverse subordinator alpha in (0, 1)."""
    if regime == 0:
        return math.sqrt(var * x / mean**3)
    if regime == 1:
        # tail index 2 with ell(x) = 2 log x (the minimal law with slowly
        # varying truncated second moment)
        return mean**-1.5 * log_normalizer(x)
    if regime == 2:
        return mean ** (-(alpha + 1.0) / alpha) * x ** (1.0 / alpha)  # c(x) = x**(1/alpha)
    return x**alpha  # ell == 1 on the supported laws


def _bridge_scale(target: str, law: StickLaw, logn: float, alpha: float) -> float:
    """Scale of the box-count ratio K_n(t)/K_n around its bridge centering."""
    mu = law.mean_abs_log()
    if target == "A1":
        return 1.0 / math.sqrt(mu * logn / law.var_abs_log())
    if target == "A2":
        return log_normalizer(logn) / (math.sqrt(mu) * logn)
    return logn ** (1.0 / alpha) / (mu ** (1.0 / alpha) * logn)


def _reference(spec: ExperimentSpec, ratio: bool, i_n: int, j: int, t: float,
               size: int) -> np.ndarray:
    """Limit-law sample for grid point j of the i_n-th n of a two-sample target.

    The draws come from stream 2^40 + block + 64 i_n + j, where the block
    keeps the process (sieve, walk) and ratio (T22, A3) statistics apart.
    """
    target = spec.target
    rng = RngStream(spec.seed, _REFERENCE_STREAM_BASE + _REFERENCE_BLOCK[target, ratio]
                    + i_n * _GRID_STREAMS + j)
    if target in ("A3", "B3"):
        a = spec.alpha if target == "A3" else spec.xi_param
        s1 = sample_spectrally_negative_stable(a, rng, size)
        if not ratio:
            return t ** (1.0 / a) * s1
        # stable bridge S(t) - t S(1), with S(1) - S(t) drawn independently
        s2 = sample_spectrally_negative_stable(a, rng, size)
        return t ** (1.0 / a) * s1 - t * (t ** (1.0 / a) * s1 + (1.0 - t) ** (1.0 / a) * s2)
    if target == "B4":
        return sample_inverse_subordinator_marginal(spec.xi_param, float(t), rng, size)
    if ratio:
        return sample_inverse_ratio(spec.alpha, t, rng, size)
    return sample_inverse_reversal(spec.alpha, t, rng, size)


def _row(n, t, stat, value, threshold=None, **extra) -> dict:
    """One report row; a row without a threshold reports and passes no verdict."""
    return {"n": n, "t": t, "stat": stat, "value": value, "threshold": threshold,
            "passed": None if threshold is None else bool(value < threshold), **extra}


def _limit_row(report, ratio, i_n, j, n, t, sample):
    """Append grid point j's row against the column's limit law.

    Where that law is a point mass, at t = 0 and in ratio mode also at
    t = 1, the row only reports the sample's mean, and for A1..A3 in ratio
    mode its max |value|; no reference is drawn.  Elsewhere it is a KS
    verdict: a two-sample target (A3, T22, B3, B4) is compared with
    _reference's draws, whose time counts as the report's reference phase;
    every other column with the centred normal law of sd sqrt(t) (the
    process, ESF_FLT's cycle process) or sqrt(t (1 - t)) (the A1, A2 bridge).
    """
    spec = report.spec
    if t <= 0.0 or (ratio and t >= 1.0):
        extra = {"max_abs": float(np.max(np.abs(sample)))} if ratio and spec.target != "T22" else {}
        report.rows.append(_row(n, t, "report_only", float(np.mean(sample)), **extra))
        return
    if spec.target in _TAIL_INDEX:
        start = time.perf_counter()
        reference = _reference(spec, ratio, i_n, j, t, len(sample))
        report.metadata["phases_s"]["reference"] += time.perf_counter() - start
        value = ks_two_sample(sample, reference)
        stat = (("ks_ratio" if spec.target == "T22" else "ks_stable_bridge") if ratio
                else "ks_two_sample")
    else:
        sd = math.sqrt(t * (1.0 - t)) if ratio else math.sqrt(t)
        value = ks_one_sample(sample, lambda x: normal_cdf(x / sd))
        stat = "ks_bridge" if ratio else "ks_normal"
    report.rows.append(_row(n, t, stat, value, spec.threshold("ratio_ks" if ratio else "ks"),
                            mean=float(np.mean(sample)), var=float(np.var(sample))))


def _covariance_rows(n, grid, normalized_by_t, tol):
    """Pairwise covariance/correlation of normalized values vs the limit;
    each column is centred, and its variance taken, once."""
    rows = []
    usable = [t for t in grid if 0.0 < t <= 1.0]
    centred = {t: a - a.mean() for t, a in normalized_by_t.items()}
    var = {t: a.var() for t, a in normalized_by_t.items()}
    for i, s in enumerate(usable):
        for t in usable[i + 1:]:
            cov = float(np.mean(centred[s] * centred[t]))
            corr = cov / math.sqrt(max(var[s] * var[t], 1e-300))
            expected_cov = min(s, t)
            expected_corr = expected_cov / math.sqrt(s * t)
            rows.append({"n": n, "t": (s, t), "stat": "cov",
                         "value": cov, "corr": corr,
                         "expected_cov": expected_cov, "expected_corr": expected_corr,
                         "threshold": tol,
                         "passed": bool(abs(cov - expected_cov) < tol)})
    return rows


# ---------------------------------------------------------------------------
# per-n steps: each draws one n's replicate columns and appends its rows
# ---------------------------------------------------------------------------


def _process_step(spec, law, i_n, nf, draw, report):
    """Centred, scaled count process against its limit: the sieve's K_n(t)
    (A1, A2, A3, T22) or the walk's N(nt) (B1, B2, B3, B4)."""
    walk = spec.target in _WALK
    regime = (_WALK if walk else _SIEVE).index(spec.target)
    grid = tuple(spec.grid)
    if walk:
        n = x = float(nf)
        mean, var, alpha = law.mean_xi(), law.var_xi(), spec.xi_param
        stat = partial(visit_block if law.xi[0] == "exp" else visit_process, law, n, grid)
    else:
        n = int(nf)
        x = math.log(n)
        mean, var, alpha = law.mean_abs_log(), law.var_abs_log(), spec.alpha
        stat = partial(_sieve_stat, law, n, grid, False)
    scale = _scale(spec, n, _process_scale, regime, mean, var, x, alpha)
    values = draw(stat, i_n * spec.replicates)
    normalized_by_t = {}
    for j, t in enumerate(spec.grid):
        raw = values[:, j]
        if regime == 3:
            center = 0.0
        elif walk:
            center = centering_prw(law.eta, n, t, mean)
        elif spec.centering == "linear":
            center = t * x / mean
        else:
            center, _ = centering_u_v(law, n, t)
        normalized = _normalize(raw, center, scale)
        normalized_by_t[t] = normalized
        report.add_raw(n, t, raw, normalized)
        _limit_row(report, False, i_n, j, n, t, normalized)
    if regime < 2:
        report.rows.extend(_covariance_rows(n, spec.grid, normalized_by_t,
                                            spec.threshold("cov_tol")))


def _ratio_step(spec, law, i_n, nf, draw, report):
    """Box-count ratio K_n(t)/K_n: bridge limits (A1, A2, A3, T22 in ratio
    mode) and the median sup-distance from uniformity (P21)."""
    target = spec.target
    n = int(nf)
    logn = math.log(n)
    if target in ("A1", "A2", "A3"):
        scale = _scale(spec, n, _bridge_scale, target, law, logn, spec.alpha)
        u1, v1 = centering_u_v(law, n, 1.0)
    values = draw(partial(_sieve_stat, law, n, tuple(spec.grid), target == "P21"),
                  i_n * spec.replicates)
    if target == "P21":
        sups = values[:, 0]
        report.add_raw(n, 1.0, sups, sups)
        report.rows.append(_row(n, None, "p21_median_sup", float(np.median(sups))))
        return
    totals = values[:, -1]  # K_n >= 1 as n >= 1
    for j, t in enumerate(spec.grid):
        ratio = values[:, j] / totals
        if target == "T22":
            normalized = ratio
        else:
            u_t, v_t = centering_u_v(law, n, t)
            normalized = (ratio - (t - (v_t - t * v1) / u1)) / scale
        report.add_raw(n, t, ratio, normalized)
        _limit_row(report, True, i_n, j, n, t, normalized)


def _permutation_step(spec, law, i_n, nf, draw, report):
    """Ewens cycle counts (Feller coupling) against the beta(theta) sieve's
    box counts at the same n: a raw two-sample KS per grid point, which is all
    EQ reports, and for ESF_FLT the cycle process against its Gaussian limit."""
    esf = spec.target == "ESF_FLT"
    n = int(nf)
    if esf:
        logn = math.log(n)
        scale = _scale(spec, n, math.sqrt, spec.theta * logn)
    grid, base = tuple(spec.grid), i_n * spec.replicates
    cycles = draw(partial(c_process_block, n, spec.theta, grid), base)
    boxes = draw(partial(_sieve_stat, law, n, grid, False), _SIEVE_STREAM_BASE + base)
    for j, t in enumerate(spec.grid):
        raw = cycles[:, j]
        equality = ks_two_sample(raw, boxes[:, j])
        if not esf:
            report.add_raw(n, t, raw, boxes[:, j])
            report.rows.append(_row(n, t, "ks_equality", equality, spec.threshold("eq_ks")))
            continue
        normalized = _normalize(raw, spec.theta * t * logn, scale)
        report.add_raw(n, t, raw, normalized)
        report.rows.append(_row(n, t, "ks_sieve_equality", equality, spec.threshold("eq_ks")))
        _limit_row(report, False, i_n, j, n, t, normalized)


def _mean_se(values) -> tuple:
    return float(np.mean(values)), float(np.std(values, ddof=1) / math.sqrt(len(values)))


def _bound_step(spec, law, i_n, nf, draw, report):
    """One n's per-replicate statistic of a trend-and-bound target: the
    walk's uniform-LLN deviation (P31) or scaled maximal window count (P32),
    summarised for the trend over n, or the geometric scheme's approximation
    sup against its envelope (P41)."""
    n = int(nf)
    if spec.target == "P41":
        stat = partial(approximation_sup, law, n)
    else:
        n = float(n)
        stat = (partial(_lln_stat, law, n, tuple(spec.grid)) if spec.target == "P31"
                else partial(_window_stat, law, n, spec.b, spec.c))
    stats = draw(stat, i_n * spec.replicates)
    report.add_raw(n, 1.0, stats, stats)
    if spec.target == "P31":
        report.rows.append({"n": n, "median": float(np.median(stats)),
                            "mean": float(np.mean(stats)), "stat": "lln_uniform", "passed": None})
    elif spec.target == "P32":
        report.rows.append({"n": n, "q95": float(np.quantile(stats, 0.95)),
                            "median": float(np.median(stats)), "stat": "window_growth",
                            "passed": None})
    else:
        mean, se = _mean_se(stats)
        eps = approximation_bound_rhs(law, n)
        # the bound is asymptotic; hard-fail only on a clear violation
        report.rows.append({"n": n, "stat": "approx_bound", "lhs": mean, "stderr": se,
                            "value": mean, "threshold": eps,
                            "passed": bool(mean <= eps + 3.0 * se)})


def _increment_step(spec, law, i_y, y, draw, report):
    """E(N(x+y) - N(x)) <= E nu(y) + 3 stderr at one y, each x (P33); both
    sides are counted on the same paths, so the stderr is that of their
    per-replicate difference."""
    y = float(y)
    stats = draw(partial(_increment_stat, law, tuple(spec.x_values), y),
                 i_y * spec.replicates)
    renewals = stats[:, -1]
    u = float(np.mean(renewals))
    for j, x in enumerate(spec.x_values):
        report.add_raw(y, float(x), stats[:, j], renewals)
        lhs = float(np.mean(stats[:, j]))
        _, se = _mean_se(stats[:, j] - renewals)
        ok = lhs <= u + 3.0 * se
        report.rows.append({"x": float(x), "y": y, "lhs": lhs, "u": u, "stderr": se, "ok": ok,
                            "stat": "visit_increment_bound", "passed": ok})


def _trend_row(stat, values, strict=True, final=None) -> dict:
    """Verdict on per-n summaries: decreasing along n, strictly or (strict =
    False) weakly with the last value below the first, and below final."""
    pairs = list(zip(values, values[1:]))
    passed = (all(b < a for a, b in pairs) if strict
              else all(b <= a for a, b in pairs) and values[-1] < values[0])
    if final is not None:
        passed = passed and values[-1] < final
    return {"n": None, "t": None, "stat": stat, "value": values, "threshold": final,
            "passed": bool(passed)}


# ---------------------------------------------------------------------------
# the experiment core
# ---------------------------------------------------------------------------


def run_experiment(spec: ExperimentSpec, jobs: int = 1) -> ExperimentReport:
    """Run the experiment a spec describes and return its report.

    One pass over n_values: for each n the target's step checks its scale,
    draws that n's replicate columns through `draw` (the only place
    replicates run, serially or on `jobs` worker processes) and appends raw
    values and verdict rows; P33 steps through y_values instead.  Trend
    verdicts over all n close the report.  A parallel run opens one worker
    pool before the first step and closes it however the run ends.
    """
    target = spec.target
    if not spec.n_values and target != "P33":
        raise ConfigurationError(f"{target} needs n_values")
    report = ExperimentReport(spec)
    phases = report.metadata["phases_s"] = dict.fromkeys(_PHASES, 0.0)
    # the draws of each block statistic: boxes thinned, Feller uniforms,
    # Poisson variates
    drawn = {_sieve_stat: 0, c_process_block: 0, visit_block: 0}
    replicates = 0
    law, n_values, step = spec.law(), spec.n_values, _process_step
    # a worker beyond the units of work (replicates, or the blocks of them of
    # the sieve, Feller and exp xi walk targets) would idle
    blocked = (target in _SIEVE + ("P21", "ESF_FLT", "EQ")
               or (target in _WALK and law.xi[0] == "exp"))
    units = -(-spec.replicates // _BLOCK) if blocked else spec.replicates
    workers = min(jobs, units)
    t_start = time.perf_counter()

    def draw(stat, stream_base):
        """One n's replicate columns: a row per replicate."""
        nonlocal replicates
        replicates += spec.replicates
        start = time.perf_counter()
        if stat.func in drawn:
            rows, count = _block_columns(stat, spec.seed, stream_base, spec.replicates,
                                         workers, pool)
            drawn[stat.func] += count
        else:
            rows = _run_replicates(partial(_stat_replicate, stat, spec.seed, stream_base),
                                   spec.replicates, workers, pool)
        phases["simulate"] += time.perf_counter() - start
        return np.asarray(rows, dtype=float)

    if target == "P41":
        x0 = BOUND_CONSTANT_X0
        report.rows.append({"stat": "x0_equation", "value": x0, "threshold": 1e-10,
                            "passed": bool(abs(x0 - x0**0.75 - 1.0) < 1e-10)})
    if target in ("P31", "P32", "P41"):
        step = _bound_step
    elif target == "P33":
        step, n_values = _increment_step, spec.y_values
    elif target in ("ESF_FLT", "EQ"):
        step = _permutation_step
    elif target == "P21" or (target in _SIEVE and spec.mode == "ratio"):
        step = _ratio_step
    pool = None
    if workers > 1:
        from multiprocessing import get_context  # serial runs never import it
        start = time.perf_counter()
        pool = get_context("spawn").Pool(workers)
        phases["simulate"] += time.perf_counter() - start  # worker start-up
    with pool or nullcontext():
        for i_n, nf in enumerate(n_values):
            step(spec, law, i_n, nf, draw, report)
    if target == "P21":
        report.rows.append(_trend_row("p21_trend", [row["value"] for row in report.rows],
                                      final=spec.threshold("p21_final")))
    elif target == "P31":
        report.rows.append(_trend_row("lln_uniform_verdict", [row["median"] for row in report.rows]))
    elif target == "P32":
        report.rows.append(_trend_row("window_growth_verdict", [row["q95"] for row in report.rows],
                                      strict=False))
    elif target == "P33":
        report.rows.append({"stat": "visit_increment_bound_verdict", "value": None,
                            "threshold": None, "passed": all(row["ok"] for row in report.rows)})
    runtime = time.perf_counter() - t_start
    phases["statistics"] = runtime - phases["simulate"] - phases["reference"]
    report.metadata = {"seed": spec.seed, "runtime_s": runtime, "phases_s": phases,
                       "replicates": replicates, "replicates_per_s": replicates / runtime,
                       "sieve": {"boxes_resolved": drawn[_sieve_stat]},
                       "feller": {"uniforms": drawn[c_process_block]},
                       "walk": {"poisson": drawn[visit_block]}, "numpy": np.__version__,
                       "version": __version__}
    return report
