"""Shared test oracles: exact PMF recursions, the Ewens sampling formula and
partition enumeration, the Chinese-restaurant Ewens sampler, a per-ball
placement reference, the exact expected occupancy of the geometric scheme,
the lattice inverse-subordinator path, the Chambers-Mallows-Stuck positive
stable construction, the subordinator marginal, the spectrally negative
characteristic function, the box scan of P41's window term, the Feller
coupling drawn one replicate and one uniform at a time, a walk over
the merged jumps of P41's two step functions, the walk's visit counts on
its full path, and the null-model calibration guard; and three small readers of library objects that no run
needs: a cycle type, a report's CSV lines and an environment's JSON.  The
oracles stay independent of the library code paths they check; the guard
deliberately pushes the library's own limit-law draws through its KS
statistics.  `sievesim run` reaches none of them."""

import json
import math

import numpy as np
from scipy.special import gammaln

from sievesim.ewens import CycleCounts, _next_indicator
from sievesim.harness import _REFERENCE_STREAM_BASE, ks_one_sample, ks_two_sample
from sievesim.limits import normal_cdf, sample_inverse_ratio
from sievesim.occupancy import rho
from sievesim.prw import simulate_path
from sievesim.sampling import (
    RngStream,
    _chambers_mallows_stuck,
    sample_inverse_subordinator_marginal,
    sample_spectrally_negative_stable,
    sample_standard_positive_stable,
)


def cycle_type(counts) -> tuple:
    """A CycleCounts' cycle type: its (length, multiplicity) pairs, sorted."""
    return tuple(sorted((r, c) for r, c in counts.counts.items() if c > 0))


def csv_lines(report, timestamp: bool = False) -> list:
    """The lines of the CSV that report.write writes."""
    return [line for block in report._csv_blocks(timestamp) for line in block]


def environment_json(env) -> str:
    """A sieve environment as the JSON file that `sievesim oracle` reads."""
    return json.dumps({"sticks": env.sticks, "cutpoints": env.cutpoints.tolist()})


def exact_binomial_pmf(n: int, p: float) -> np.ndarray:
    """PMF of Binomial(n, p) by the forward recursion (independent oracle)."""
    pmf = np.zeros(n + 1)
    pmf[0] = (1.0 - p) ** n
    for k in range(1, n + 1):
        pmf[k] = pmf[k - 1] * (n - k + 1) * p / (k * (1.0 - p))
    return pmf


def partitions(n: int, max_part: int | None = None):
    """All integer partitions of n as cycle-count dicts {part: multiplicity}."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield {}
        return
    for part in range(min(n, max_part), 0, -1):
        for rest in partitions(n - part, part):
            out = dict(rest)
            out[part] = out.get(part, 0) + 1
            yield out


def esf_probability(counts) -> float:
    """Exact Ewens-sampling-formula probability of a cycle type, log-domain.

    P = n! Gamma(theta) / Gamma(theta + n) * prod_r theta^{c_r} / (r^{c_r} c_r!).
    """
    n, theta = counts.n, counts.theta
    if sum(r * c for r, c in counts.counts.items()) != n:
        raise ValueError("inconsistent cycle counts")
    log_p = float(gammaln(n + 1) + gammaln(theta) - gammaln(theta + n))
    for r, c in counts.counts.items():
        if c < 0:
            raise ValueError("negative cycle count")
        if c:
            log_p += c * math.log(theta) - c * math.log(r) - float(gammaln(c + 1))
    return math.exp(log_p)


def exact_cycle_type_probs(n: int, theta: float) -> dict:
    """Exact Ewens cycle-type distribution via the sampling formula."""
    return {tuple(sorted(c.items())): esf_probability(CycleCounts(n, theta, c))
            for c in partitions(n)}


def sample_cycles_crp(n: int, theta: float, rng: RngStream) -> CycleCounts:
    """Chinese-restaurant construction of an Ewens(theta) cycle type.

    Customer i opens a new cycle with probability theta/(theta + i - 1) and
    otherwise joins an existing cycle with probability proportional to its
    size.  Cycle sizes live in a flat array with total-size bookkeeping, so
    the run is O(n) draws with O(#cycles) state.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if theta <= 0.0:
        raise ValueError("theta must be > 0")
    u = rng.gen.random(n) * (theta + np.arange(n, dtype=float))
    sizes = []
    for i in range(n):
        v = u[i] - theta
        if v < 0.0:
            sizes.append(1)
            continue
        # v is uniform on [0, i); walk the size array to pick a cycle
        acc = 0.0
        for j, s in enumerate(sizes):
            acc += s
            if v < acc:
                sizes[j] = s + 1
                break
        else:
            sizes[-1] += 1  # guard against float roundoff at the top edge
    counts = {}
    for s in sizes:
        counts[s] = counts.get(s, 0) + 1
    return CycleCounts(n, theta, counts)


def sample_cycles_feller_scalar(n: int, theta: float, rng: RngStream) -> CycleCounts:
    """The Feller coupling as it was drawn before replicates ran in blocks:
    one replicate and one scalar uniform per cycle, in a Python loop, with
    theta = 1 resolved in integers (J = ceil(i 2^53 / k) for u = k 2^-53)
    and any other theta by `_next_indicator`.  The reference for the block
    sampler."""
    random = rng.gen.random
    counts, i = {}, 1
    while i <= n:
        u = random()
        if theta == 1.0:
            k = int(u * 2.0**53)
            j = n + 1 if k == 0 else min(-(-(i << 53) // k), n + 1)
        else:
            j = _next_indicator(i, n, theta, u)
        counts[j - i] = counts.get(j - i, 0) + 1
        i = j
    return CycleCounts(n, theta, counts)


def naive_placement(cutpoints: np.ndarray, n: int, gen: np.random.Generator,
                    replicates: int) -> np.ndarray:
    """Per-ball uniform placement: ball with weight U lands in box k iff
    V_k < U <= V_{k-1}.  Returns a (replicates, boxes) count matrix."""
    edges = np.concatenate([[1.0], cutpoints])[::-1]  # increasing for searchsorted
    boxes = len(cutpoints)
    out = np.zeros((replicates, boxes), dtype=np.int64)
    for r in range(replicates):
        u = gen.random(n)
        idx = boxes - np.searchsorted(edges, u, side="left") + 1
        np.add.at(out[r], np.clip(idx, 1, boxes) - 1, 1)
    return out


def empirical_type_tv(samples, exact_probs: dict) -> float:
    """Total variation between empirical cycle-type frequencies and the exact
    distribution."""
    counts = {}
    for s in samples:
        counts[s] = counts.get(s, 0) + 1
    total = sum(counts.values())
    keys = set(counts) | set(exact_probs)
    return 0.5 * sum(abs(counts.get(k, 0) / total - exact_probs.get(k, 0.0)) for k in keys)


def expected_occupancy_oracle(scheme, n: int, r: int | None = None) -> float:
    """Exact E K_{n,r} (or E K_n when r is None) of a geometric scheme in
    log-domain arithmetic.

    E K_{n,r} = sum_j C(n,r) p_j^r (1-p_j)^(n-r);  E K_n = sum_j 1-(1-p_j)^n.
    The box sum is truncated once terms drop below 1e-15 of the accumulated
    value past the contribution peak.
    """
    n = int(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > 10**6:
        raise ValueError("n beyond the oracle's validated range (n <= 1e6)")
    if r is not None and not 1 <= r <= n:
        raise ValueError("r must lie in [1, n]")
    log_binom = 0.0 if r is None else float(gammaln(n + 1) - gammaln(r + 1) - gammaln(n - r + 1))
    total = 0.0
    k = 0
    while True:
        k += 1
        p = scheme.prob(k)
        if p == 0.0:
            break
        if r is None:
            term = -math.expm1(n * math.log1p(-p))
        else:
            term = math.exp(log_binom + r * math.log(p) + (n - r) * math.log1p(-p))
        total += term
        past_peak = n * p < (1.0 if r is None else max(r, 1))
        if past_peak and term < 1e-15 * max(total, 1e-300):
            break
        if k > 10**6:
            raise RuntimeError("truncation failed to engage")
    return total


def sample_inverse_subordinator_path(alpha: float, grid, step: float, rng: RngStream):
    """Inverse subordinator along grid from one discretised path: the lattice
    oracle that the exact inverse-subordinator samplers are checked against.

    The subordinator is simulated on an s-lattice of mesh ``step`` with i.i.d.
    increments step**(1/alpha) * Gamma(1-alpha)**(1/alpha) * D per cell.  For
    each grid level t the returned value is the lattice point immediately
    below the first passage above t (so the error is at most ``step`` and the
    inverse at level 0 is exactly 0).  Output is nondecreasing along grid.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if step <= 0.0:
        raise ValueError("step must be > 0")
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or np.any(np.diff(grid) < 0.0) or np.any(grid < 0.0):
        raise ValueError("grid must be nondecreasing and nonnegative")
    inc_scale = step ** (1.0 / alpha) * math.gamma(1.0 - alpha) ** (1.0 / alpha)
    # expected first-passage lattice length, padded; keeps most paths to one block
    g = math.gamma(1.0 - alpha) * math.gamma(1.0 + alpha)
    expected_cells = (max(grid[-1], step) ** alpha / g) / step
    block = int(min(1 << 17, max(1024, 1.5 * expected_cells)))
    levels = grid
    out = np.empty(len(levels))
    cum = np.empty(0)
    total = 0.0
    filled = 0
    while filled < len(levels):
        d = sample_standard_positive_stable(alpha, rng, size=block)
        new = total + np.cumsum(inc_scale * d)
        total = new[-1]
        cum = np.concatenate([cum, new])
        while filled < len(levels) and cum[-1] > levels[filled]:
            j = int(np.searchsorted(cum, levels[filled], side="right"))
            out[filled] = j * step  # lattice point before passage at index j+1
            filled += 1
    return out


def cms_positive_stable(alpha: float, rng: RngStream, size: int):
    """Standard positive stable draw by the general Chambers-Mallows-Stuck
    formula at total positive skew: a construction independent of the
    library's Kanter sampler."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    # rescale from Laplace exponent z^alpha / cos(pi alpha / 2)
    return _chambers_mallows_stuck(alpha, 1.0, rng, size) \
        * math.cos(0.5 * math.pi * alpha) ** (1.0 / alpha)


def sample_positive_stable(alpha: float, rng: RngStream, size: int):
    """Subordinator marginal W_alpha(1) with Laplace exponent Gamma(1-alpha) z**alpha."""
    d = sample_standard_positive_stable(alpha, rng, size)
    return math.gamma(1.0 - alpha) ** (1.0 / alpha) * d


def spectrally_negative_cf(alpha: float, u):
    """Characteristic function of the spectrally negative stable marginal."""
    u = np.asarray(u, dtype=float)
    g = math.gamma(1.0 - alpha)
    phase = math.cos(0.5 * math.pi * alpha) + 1j * math.sin(0.5 * math.pi * alpha) * np.sign(u)
    out = np.exp(-np.abs(u) ** alpha * g * phase)
    return complex(out) if out.shape == () else out


def window_box_count(scheme, n: int) -> int:
    """Last k with e p_k n >= 1: the boxes sup_rho_window_scan scans.

    p_k = (1-q) q^(k-1) gives k = 1 + floor(log(e n (1-q)) / -log q); the
    scan's own float test then settles the boundary.
    """
    reaches = lambda k: math.e * scheme.prob(k) * n >= 1.0
    k = max(0, 1 + math.floor((1.0 + math.log(n) + math.log1p(-scheme.q)) / -math.log(scheme.q)))
    while reaches(k + 1):
        k += 1
    while k >= 1 and not reaches(k):
        k -= 1
    return k


def sup_rho_window_scan(scheme, n: int) -> int:
    """sup over t in [0,1] of rho(e * n**(1-t)) - rho(n**(1-t) / e), by a box scan.

    The count of boxes inside the moving window changes only where a window
    edge crosses some p_k, so scanning entry points y = 1/(e p_k) (plus the
    endpoints and points just below each exit) is exact.  Deeper boxes
    never enter the window.  About six rho calls per box: an oracle for the
    library's closed form, slow near q = 1.
    """
    def window_count(y: float) -> int:
        if y <= 0.0:
            return 0
        return rho(scheme, math.e * y) - rho(scheme, y / math.e)

    candidates = [1.0, float(n)]
    for k in range(1, window_box_count(scheme, n) + 1):
        p = scheme.prob(k)
        for y in (1.0 / (math.e * p), math.e / p):
            if 1.0 <= y <= n:
                candidates.extend([y, np.nextafter(y, 0.0), np.nextafter(y, np.inf)])
    return max(window_count(min(max(y, 1.0), float(n))) for y in candidates)


def sup_abs_difference_walk(k_locs, g_locs) -> int:
    """sup over t of |K(t) - g(t)| for two right-continuous step functions that
    jump by one at k_locs and g_locs: walk the merged jumps in location order,
    settle every jump at a location, then read the plateau."""
    events = sorted([(float(t), 1) for t in k_locs] + [(float(t), -1) for t in g_locs])
    best = d = i = 0
    while i < len(events):
        loc = events[i][0]
        while i < len(events) and events[i][0] == loc:
            d += events[i][1]
            i += 1
        best = max(best, abs(d))
    return best


def ratio_sup_walk(k_locs, k_total: int) -> float:
    """sup over t of |K(t)/K - t| for K jumping by one at each of k_locs: walk
    the distinct locations in order, reading the left limit and the new
    plateau at each, then the drift to t = 1."""
    locs, counts = np.unique(k_locs, return_counts=True)
    best = prev_ratio = 0.0
    for loc, c in zip(locs, np.cumsum(counts)):
        best = max(best, abs(prev_ratio - loc))
        prev_ratio = c / k_total
        best = max(best, abs(prev_ratio - loc))
    return max(best, abs(prev_ratio - 1.0))


def full_path_visits(law, n: float, grid, rng: RngStream) -> np.ndarray:
    """(N(n t)) along the grid, counted on the full walk: every T_k of
    simulate_path, one count_nonzero per grid point.  The reference for
    visit_process, which draws eta only where it can move a count."""
    t = simulate_path(law, n * float(grid[-1]), rng).t_values
    return np.array([np.count_nonzero(t <= n * g) for g in grid], dtype=np.int64)


def calibration_guard(seed: int = 0) -> list:
    """Push limit-law draws through the same KS pipeline.

    Every (replicate count, threshold) combination used by the acceptance
    checks must come out below its threshold when fed the limit law itself;
    anything else means the pipeline (not the theorems) is broken.
    """
    checks = []

    def add(name, value, threshold):
        checks.append({"name": name, "value": float(value),
                       "threshold": threshold, "passed": bool(value < threshold)})

    rng = RngStream(seed, _REFERENCE_STREAM_BASE + 99)
    z = rng.gen.standard_normal(4000)
    add("normal_one_sample_4000_at_0.08", ks_one_sample(z, normal_cdf), 0.08)
    z2 = rng.gen.standard_normal(10000)
    add("normal_one_sample_10000_at_0.02", ks_one_sample(z2, normal_cdf), 0.02)
    a = rng.gen.standard_normal(5000)
    b = rng.gen.standard_normal(5000)
    add("normal_two_sample_5000_at_0.04", ks_two_sample(a, b), 0.04)
    s1 = sample_spectrally_negative_stable(1.5, rng, 10000)
    s2 = sample_spectrally_negative_stable(1.5, rng, 10000)
    add("stable_two_sample_10000_at_0.04", ks_two_sample(s1, s2), 0.04)
    w1 = sample_inverse_subordinator_marginal(0.5, 1.0, rng, 10000)
    w2 = sample_inverse_subordinator_marginal(0.5, 1.0, rng, 10000)
    add("mittag_leffler_two_sample_10000_at_0.03", ks_two_sample(w1, w2), 0.03)
    w3 = sample_inverse_subordinator_marginal(0.5, 1.0, rng, 4000)
    w4 = sample_inverse_subordinator_marginal(0.5, 1.0, rng, 4000)
    add("mittag_leffler_two_sample_4000_at_0.05", ks_two_sample(w3, w4), 0.05)
    r1 = sample_inverse_ratio(0.5, 0.5, rng, 4000)
    r2 = sample_inverse_ratio(0.5, 0.5, rng, 4000)
    add("inverse_ratio_two_sample_4000_at_0.06", ks_two_sample(r1, r2), 0.06)
    return checks
