"""Occupancy schemes: the stick-breaking sieve environment, the geometric
Karlin scheme, exact sequential-thinning occupancy, the small-count process
K_n(t), the counting functions rho, and both sides of the uniform
approximation bound."""

import json
import math
from dataclasses import dataclass
from decimal import ROUND_FLOOR, Context, Decimal
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .sampling import BINOMIAL_CHUNK, RngStream, StickLaw, sample_binomial

__all__ = [
    "floor_power",
    "DeterministicScheme",
    "SieveEnvironment",
    "OccupancyResult",
    "build_environment",
    "occupy_sieve",
    "occupy_sieve_block",
    "occupy_scheme",
    "k_process",
    "rho",
    "BOUND_CONSTANT_X0",
    "approximation_bound_rhs",
    "approximation_sup",
]


# ---------------------------------------------------------------------------
# floor(n**t), exact near integers
# ---------------------------------------------------------------------------

_FLOOR_CONTEXT = Context(prec=60, rounding=ROUND_FLOOR)


@lru_cache(maxsize=1024)
def floor_power(n: int, t: float) -> int:
    """Largest integer <= n**t for n >= 1, t in [0, 1], memoised: replicates
    ask for the same few (n, t) pairs again and again.

    Double-precision exp/log can misplace the floor when n**t sits within
    ~1e-9 (relative) of an integer, so that band is settled exactly.  A double
    t is p/2^k; for 2^k <= 1024 the floor is k nested integer square roots of
    n**p, since floor(sqrt(floor(x))) = floor(sqrt(x)).  A longer t makes n**t
    an integer only at n = 1, and 60-digit decimal ln, product and exp place
    its floor.
    """
    n = int(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    if t == 0.0:
        return 1
    if t == 1.0:
        return n
    y = math.exp(t * math.log(n))
    if abs(y - round(y)) >= 1e-9 * y:
        return int(math.floor(y))
    p, q = t.as_integer_ratio()
    if q <= 1024:
        c = n**p
        while q > 1:
            c, q = math.isqrt(c), q >> 1
        return c
    ctx = _FLOOR_CONTEXT
    return int(ctx.exp(ctx.multiply(ctx.ln(n), Decimal(t))))


# ---------------------------------------------------------------------------
# deterministic Karlin schemes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeterministicScheme:
    """Geometric(q) box probabilities p_k = (1-q) q**(k-1)."""

    q: float

    def __post_init__(self):
        if not 0.0 < self.q < 1.0:
            raise ValueError("geometric scheme requires q in (0, 1)")

    @staticmethod
    def geometric(q: float) -> "DeterministicScheme":
        return DeterministicScheme(float(q))

    # -- box probabilities ---------------------------------------------------

    def prob(self, k: int) -> float:
        return (1.0 - self.q) * self.q ** (k - 1)

    def _prob_fraction(self, k: int) -> Fraction:
        fq = Fraction(self.q)
        return (1 - fq) * fq ** (k - 1)

    # -- exact index boundaries ----------------------------------------------

    def last_index_ge(self, threshold: Fraction) -> int:
        """Largest k with p_k >= threshold (0 when no box qualifies)."""
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        thr = float(threshold)
        lead = 1.0 - self.q
        if thr > lead:
            guess = 0
        else:
            guess = 1 + int(math.floor(math.log(thr / lead) / math.log(self.q)))
        guess = max(guess, 0)
        # settle the boundary exactly
        while self._prob_cmp(guess + 1, threshold, thr) >= 0:
            guess += 1
        while guess >= 1 and self._prob_cmp(guess, threshold, thr) < 0:
            guess -= 1
        return guess

    def last_index_gt(self, threshold: Fraction) -> int:
        """Largest k with p_k > threshold (strict)."""
        k = self.last_index_ge(threshold)
        thr = float(threshold)
        while k >= 1 and self._prob_cmp(k, threshold, thr) == 0:
            k -= 1
        return k

    def _prob_cmp(self, k: int, threshold: Fraction, thr: float) -> int:
        """Sign of p_k - threshold, exactly (thr = float(threshold)).

        The float p_k (a few ulps off) decides when it is clear of thr by
        1e-12; only a closer tie needs p_k's rational value, whose size grows
        with k.
        """
        p = self.prob(k)
        if min(p, thr) > 1e-290 and abs(p - thr) > 1e-12 * thr:
            return 1 if p > thr else -1
        exact = self._prob_fraction(k)
        return (exact > threshold) - (exact < threshold)

    def tail_sum_from(self, k: int) -> float:
        """Sum of p_j over j >= k."""
        return self.q ** (k - 1)


# ---------------------------------------------------------------------------
# sieve environments
# ---------------------------------------------------------------------------

_EXTENSION_BLOCK = 32


class SieveEnvironment:
    """Realised stick-breaking environment.

    Keeps the realised sticks W_k as a list of floats; they give box k the
    probability p*_k = V_{k-1} (1 - W_k), and the cut points V_k are derived
    on demand.  Extension is lazy and appends to that list; a deserialised
    environment is frozen (no law/stream attached) and raises if more sticks
    are needed.
    """

    def __init__(self, law: StickLaw | None, rng: RngStream | None, sticks=()):
        self.law = law
        self.rng = rng
        self.sticks = list(sticks)

    @property
    def cutpoints(self) -> np.ndarray:
        return np.cumprod(self.sticks)

    @property
    def num_boxes(self) -> int:
        return len(self.sticks)

    def _extend(self):
        if self.law is None or self.rng is None:
            raise RuntimeError("frozen environment exhausted; no law attached to extend")
        self.sticks.extend(self.law.sample(self.rng, _EXTENSION_BLOCK).tolist())

    @staticmethod
    def from_json(text: str) -> "SieveEnvironment":
        """A frozen environment; ValueError unless the text holds a nonempty
        list of sticks strictly inside (0, 1) and, if present, their cut points."""
        obj = json.loads(text)
        if not isinstance(obj, dict) or not isinstance(obj.get("sticks"), list):
            raise ValueError("an environment is an object with a list 'sticks'")
        try:
            sticks = np.asarray(obj["sticks"], dtype=float)
            stored = np.asarray(obj.get("cutpoints", []), dtype=float)
        except (TypeError, ValueError):
            raise ValueError("sticks and cutpoints must be lists of numbers") from None
        if sticks.ndim != 1 or not sticks.size or not np.all((sticks > 0.0) & (sticks < 1.0)):
            raise ValueError("sticks must be a nonempty list of numbers strictly inside (0, 1)")
        env = SieveEnvironment(None, None, sticks=sticks.tolist())
        if stored.size and not np.array_equal(stored, env.cutpoints):
            raise ValueError("stored cutpoints are inconsistent with sticks")
        return env


def build_environment(law: StickLaw, min_mass_resolved: float, rng: RngStream) -> SieveEnvironment:
    """Generate sticks until the unresolved mass V_K drops below the target.

    No run calls this: the harness thins sieve replicates in blocks
    (occupy_sieve_block), drawing sticks only as deep as balls remain.  It
    is the per-replicate reference that the benchmark binds and the tests
    compare with; 2**-80 there keeps the chance that any of up to 2**62
    balls lands beyond the resolved prefix below 2**-18 per replicate, and
    environments still extend lazily if that ever happens.
    """
    if not 0.0 < min_mass_resolved < 1.0:
        raise ValueError("min_mass_resolved must lie in (0, 1)")
    sticks, v = [], 1.0
    while True:
        block = law.sample(rng, _EXTENSION_BLOCK).tolist()
        # the running product V_k, one stick at a time (the order numpy's
        # cumprod multiplies in), up to the first stick that resolves the mass
        for k, w in enumerate(block):
            v *= w
            if v < min_mass_resolved:
                sticks += block[:k + 1]
                return SieveEnvironment(law, rng, sticks)
        sticks += block


# ---------------------------------------------------------------------------
# occupancy
# ---------------------------------------------------------------------------


@dataclass
class OccupancyResult:
    """Sparse occupancy counts Z_{n,i} (box index -> balls) after n throws."""

    counts: dict
    n: int

    def count_values(self) -> np.ndarray:
        return np.sort(np.fromiter(self.counts.values(), dtype=np.int64))

    def total(self) -> int:
        return sum(self.counts.values())


def occupy_sieve(env: SieveEnvironment, n: int, rng: RngStream) -> OccupancyResult:
    """Place n balls by sequential binomial thinning.

    Conditionally on landing beyond the first k-1 boxes, a ball falls into
    box k with probability 1 - W_k, so Z_k ~ Binomial(remaining, 1 - W_k);
    the joint law is identical to i.i.d. uniform placement while needing
    O(log n) draws, which is what makes n up to 2**62 feasible.
    """
    n = int(n)
    if n < 0:
        raise ValueError("n must be >= 0")
    counts = {}
    remaining = n
    sticks = env.sticks  # W_k at index k - 1; a lazy extension appends to it
    k = 0
    while remaining > 0:
        if k == len(sticks):
            env._extend()
        z = sample_binomial(remaining, 1.0 - sticks[k], rng)
        k += 1
        if z > 0:
            counts[k] = z
            remaining -= z
    return OccupancyResult(counts, n)


def occupy_sieve_block(law: StickLaw, n: int, size: int, rng: RngStream, grid):
    """Thin `size` independent replicates of the sieve together, from one stream.

    Depth by depth, every replicate that still holds balls draws its stick W_k
    (one `law.sample` call, in replicate order), then one array binomial
    Z_k ~ Binomial(min(remaining, 2^60), 1 - W_k) covers them all; a replicate
    with more than 2^60 balls left adds `sample_binomial` over the rest right
    after it, so the chunk rule stays exact.  At 1 - W_k = 1 numpy's draw takes
    every remaining ball and consumes one uniform, which is exact in law.
    Sticks are drawn only for the boxes thinning reaches.

    Returns each replicate's last box (the binomials its thinning drew) and,
    for grid None, the list of its occupied counts; for a grid, a
    (size, len(grid) + 1) array whose row holds K_n(t) at each t, counted
    against floor_power(n, t), and then K_n.
    """
    n = int(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    rep = np.arange(size)
    rem = np.full(size, n, dtype=np.int64)
    reps, counts = [rep[:0]], [rem[:0]]
    binomial = rng.gen.binomial
    chunked = n > BINOMIAL_CHUNK
    while rep.size:
        p = 1.0 - law.sample(rng, rep.size)
        if chunked:
            z = binomial(np.minimum(rem, BINOMIAL_CHUNK), p)
            over = np.flatnonzero(rem > BINOMIAL_CHUNK).tolist()
            for i in over:
                z[i] += sample_binomial(int(rem[i]) - BINOMIAL_CHUNK, float(p[i]), rng)
            chunked = bool(over)
        else:
            z = binomial(rem, p)
        reps.append(rep)
        counts.append(z)
        rem -= z
        left = rem > 0
        rep, rem = rep[left], rem[left]
    rep, z = np.concatenate(reps), np.concatenate(counts)
    last = np.bincount(rep, minlength=size)  # replicate r thins boxes 1..last[r]
    occupied = z > 0
    rep, z = rep[occupied], z[occupied]
    if grid is None:
        order = np.argsort(rep, kind="stable")
        return np.split(z[order], np.cumsum(np.bincount(rep, minlength=size))[:-1]), last
    k = np.empty((size, len(grid) + 1), dtype=np.int64)
    for j, t in enumerate(grid):
        k[:, j] = np.bincount(rep[z <= floor_power(n, t)], minlength=size)
    k[:, -1] = np.bincount(rep, minlength=size)
    return k, last


def occupy_scheme(scheme: DeterministicScheme, n: int, rng: RngStream) -> OccupancyResult:
    """Sequential-thinning occupancy for the geometric scheme, where
    p_k / (tail from k) = 1 - q for every box."""
    n = int(n)
    if n < 0:
        raise ValueError("n must be >= 0")
    counts = {}
    remaining = n
    cond = 1.0 - scheme.q
    k = 0
    while remaining > 0:
        k += 1
        z = sample_binomial(remaining, cond, rng)
        if z > 0:
            counts[k] = z
            remaining -= z
    return OccupancyResult(counts, n)


def k_process(occ: OccupancyResult, grid) -> np.ndarray:
    """K_n(t) = #{i : 1 <= Z_{n,i} <= floor(n**t)} at each t of the grid, then
    K_n, as one int64 array: the row layout of occupy_sieve_block."""
    ts = [float(t) for t in grid]
    if any(t < 0.0 or t > 1.0 for t in ts):
        raise ValueError("grid must lie in [0, 1]")
    vals = occ.count_values()
    limits = [floor_power(occ.n, t) if occ.n else 0 for t in ts]
    return np.append(np.searchsorted(vals, limits, side="right"), vals.size).astype(np.int64)


# ---------------------------------------------------------------------------
# counting functions
# ---------------------------------------------------------------------------


def rho(source, x: float) -> int:
    """Number of boxes with probability >= 1/x.

    For a deterministic scheme the boundary is settled in exact rational
    arithmetic.  For a sieve environment the box probabilities
    p*_k = V_{k-1} (1 - W_k) are counted directly, after extending the
    environment until V_K < 1/x, past which no box can reach 1/x.  The
    visit count N(log x) of the walk built from the same sticks
    (prw.path_from_sticks) is an independent count of the same boxes.
    """
    if not 0.0 < x < math.inf:
        raise ValueError("x must be positive and finite")
    if isinstance(source, DeterministicScheme):
        return source.last_index_ge(Fraction(1) / Fraction(x))
    if isinstance(source, SieveEnvironment):
        threshold = 1.0 / x
        while not source.num_boxes or source.cutpoints[-1] >= threshold:
            source._extend()
        v = source.cutpoints
        probs = np.concatenate(([1.0], v[:-1])) * (1.0 - np.asarray(source.sticks))
        return int(np.count_nonzero(probs >= threshold))
    raise TypeError("source must be a DeterministicScheme or SieveEnvironment")


# ---------------------------------------------------------------------------
# the uniform approximation bound
# ---------------------------------------------------------------------------


# the unique root > 1 of x - x**(3/4) = 1, correctly rounded (a 40-digit
# root in the tests); its residual in doubles is 0.0
BOUND_CONSTANT_X0 = 3.6296581267545345


def _sup_rho_window(scheme: DeterministicScheme, n: int) -> int:
    """sup over t in [0,1] of rho(e * n**(1-t)) - rho(n**(1-t) / e), in closed form.

    With s = log n**(1-t) in [0, log n], box k lies in the window iff
    s - 1 < -log p_k <= s + 1, and consecutive -log p_k are d = -log q apart,
    so a window of width 2 holds at most ceil(2/d) boxes, and never more than
    the K = rho(e n) boxes it can reach.  It holds min(K, ceil(2/d)) at
    s = -log p_K - 1, or at s = 0 when every reachable box has -log p_k <= 1.
    """
    return min(rho(scheme, math.e * n), math.ceil(-2.0 / math.log(scheme.q)))


def _integral_term(scheme: DeterministicScheme, n: int) -> float:
    """Closed form of the tail integral: sum of n p_k over boxes with p_k < 1/n.

    Boxes with p_k = 1/n exactly contribute nothing (they are already counted
    by rho(n), weak inequality), which the exact index boundary respects.
    """
    k0 = scheme.last_index_ge(Fraction(1) / Fraction(n)) + 1  # first box with p < 1/n
    return float(n) * scheme.tail_sum_from(k0)


def approximation_bound_rhs(scheme: DeterministicScheme, n: int) -> float:
    """The computable envelope for E sup_t |K_n(t) - (rho(n) - rho(n^(1-t)-))|.

    eps_n = 6 (rho(n) - rho(n / (x0 log^2 n)))  +  3 rho(n) / log n
            +  integral_1^inf t^-2 (rho(nt) - rho(n)) dt
            +  2 sup_t (rho(e n^(1-t)) - rho(n^(1-t)/e)).
    """
    n = int(n)
    if n < 3:
        raise ValueError("n must be >= 3")
    logn = math.log(n)
    term1 = 6.0 * (rho(scheme, n) - rho(scheme, n / (BOUND_CONSTANT_X0 * logn**2)))
    term2 = 3.0 * rho(scheme, n) / logn
    term3 = _integral_term(scheme, n)
    term4 = 2.0 * _sup_rho_window(scheme, n)
    return term1 + term2 + term3 + term4


def _k_jumps(count_values: np.ndarray, n: int) -> np.ndarray:
    """Where K_n(t) jumps: by one at t = log(c)/log(n) for each occupied count
    c (weakly, so the jump value is attained), at t = 0 for c = 1."""
    logn = math.log(n)
    return np.where(count_values <= 1, 0.0, np.log(np.maximum(count_values, 1)) / logn)


def _ratio_sup_deviation(count_values: np.ndarray, n: int) -> float:
    """Exact sup over t in [0,1] of |K_n(t)/K_n - t|, for K_n >= 1.

    Between jumps of K the deviation drifts linearly; at a jump location both
    the left limit and the new plateau are candidates, and so is the tail
    drift to t = 1.
    """
    locs, counts = np.unique(_k_jumps(count_values, n), return_counts=True)
    after = np.cumsum(counts) / len(count_values)
    before = np.concatenate(([0.0], after[:-1]))
    return float(max(np.abs(before - locs).max(), np.abs(after - locs).max(),
                     abs(after[-1] - 1.0)))


def _sup_abs_difference(count_values: np.ndarray, g_locations: np.ndarray, n: int) -> int:
    """Exact sup over t in [0,1] of |K_n(t) - g(t)| for the two step functions.

    K jumps where _k_jumps says; g jumps at the supplied locations.  Both are
    right-continuous, so the sup is realised on the plateaus: the running sum
    of +1 (K) and -1 (g) events, stably sorted by location, read at the last
    event of each location.
    """
    k_locs = _k_jumps(count_values, n)
    locs = np.concatenate([k_locs, g_locations])
    steps = np.repeat(np.array([1, -1], dtype=np.int64), [len(k_locs), len(g_locations)])
    order = np.argsort(locs, kind="stable")
    locs, d = locs[order], np.cumsum(steps[order])
    plateau = np.diff(locs, append=np.inf) != 0.0  # the last event at each location
    return int(np.abs(d[plateau]).max(initial=0))


@lru_cache(maxsize=64)
def _g_jumps(scheme: DeterministicScheme, n: int) -> np.ndarray:
    """Where g(t) = rho(n) - rho(n^(1-t)-) jumps, read-only and memoised like
    floor_power, since every replicate of a (scheme, n) asks for it: once per
    box with 1/n < p_k <= 1, at t = 1 + log(p_k)/log(n), clipped to [0, 1]."""
    logn = math.log(n)
    k_lo = scheme.last_index_gt(Fraction(1) / Fraction(n))
    locs = np.array([1.0 + math.log(scheme.prob(k)) / logn for k in range(1, k_lo + 1)])
    locs = np.clip(locs, 0.0, 1.0)
    locs.flags.writeable = False
    return locs


def approximation_sup(scheme: DeterministicScheme, n: int, rng: RngStream) -> int:
    """sup_t |K_n(t) - (rho(n) - rho(n^(1-t)-))| for one occupancy of the scheme.

    Exact: both arguments are step functions, so the sup is attained on the
    union of their jump locations.  Its mean over replicates estimates the
    left side of the bound that approximation_bound_rhs envelopes.
    """
    occ = occupy_scheme(scheme, n, rng)
    return _sup_abs_difference(occ.count_values(), _g_jumps(scheme, n), n)
