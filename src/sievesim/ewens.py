"""Ewens cycle counts sampled by the Feller coupling, which jumps from one
indicator to the next, and the cycle process C_n(t)."""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .occupancy import floor_power
from .sampling import RngStream

__all__ = [
    "CycleCounts",
    "sample_cycles_feller",
    "c_process",
]


@dataclass
class CycleCounts:
    """Sparse cycle-count vector: counts[r] = number of cycles of length r."""

    n: int
    theta: float
    counts: dict

    def __post_init__(self):
        if sum(r * c for r, c in self.counts.items()) != self.n:
            raise ValueError("cycle lengths must sum to n")


FELLER_MAX_N = 1 << 53  # beyond this a double cannot tell G_i(j) from G_i(j + 1)


def _stirling_tail(y: float) -> float:
    """log Gamma(y) - (y - 1/2) log y + y - log(2 pi)/2 through y^-9: 1e-19 off for y >= 32."""
    w = 1.0 / (y * y)
    return (1 / 12 + w * (-1 / 360 + w * (1 / 1260 + w * (-1 / 1680 + w / 1188)))) / y


def _log_gap_remainder(x: float, theta: float) -> float:
    """R(x) = log((x)_theta / x^theta) = O(theta^2/x), with the rising factorial
    (x)_theta = Gamma(x + theta)/Gamma(x), so the gap law needs no value as
    large as (x)_theta itself.  Below x = max(32, 8 theta) it steps up
    by R(x) = R(x + 1) + theta log1p(1/x) - log1p(theta/x).  Above, with
    z = theta/x, R = x (log1p(z) - z) + (theta - 1/2) log1p(z) + the Stirling
    tails' difference (Tricomi and Erdelyi, Pacific J. Math. 1, 1951), and
    log1p(z) - z = -z^2/(2 + z) + 2 (s^3/3 + s^5/5 + ...), s = z/(2 + z), has
    no cancellation."""
    if x < max(32.0, 8.0 * theta):
        return _log_gap_remainder_below(x, theta)
    return _log_gap_remainder_from(0.0, x, theta)


@lru_cache(maxsize=4096)
def _log_gap_remainder_below(x: float, theta: float) -> float:
    """R(x) below the switch, memoised: a Feller walk probes the same few
    small x over and over, and each takes up to 8 theta recurrence steps."""
    below = 0.0
    while x < max(32.0, 8.0 * theta):
        below += theta * math.log1p(1.0 / x) - math.log1p(theta / x)
        x += 1.0
    return _log_gap_remainder_from(below, x, theta)


def _log_gap_remainder_from(below: float, x: float, theta: float) -> float:
    """below + R(x) for x at or above the switch, by the asymptotic form."""
    z = theta / x
    s = z / (2.0 + z)
    s2 = s * s
    log1p_minus_z = -z * z / (2.0 + z) + s * s2 * (
        2 / 3 + s2 * (2 / 5 + s2 * (2 / 7 + s2 * (2 / 9 + s2 * (2 / 11 + s2 * (2 / 13 + s2 * 2 / 15))))))
    return (below + x * log1p_minus_z + (theta - 0.5) * (z + log1p_minus_z)
            + _stirling_tail(x + theta) - _stirling_tail(x))


def _first_true(pred, lo: int, hi: int, guess: int) -> int:
    """Smallest j in (lo, hi] with pred(j), for pred false then true on that
    range and taken as true at hi: gallop out from lo < guess < hi, then bisect."""
    step = 1
    if pred(guess):
        hi = guess
        while hi - step > lo and pred(hi - step):
            hi, step = hi - step, 2 * step
        lo = max(lo, hi - step)
    else:
        lo = guess
        while lo + step < hi and not pred(lo + step):
            lo, step = lo + step, 2 * step
        hi = min(hi, lo + step)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _next_indicator(i: int, n: int, theta: float, u: float) -> int:
    """The Feller indicator after the one at i, or n + 1 if none is left:
    J = min{j > i : G_i(j) <= u} for u uniform on [0, 1), where
    G_i(j) = P(no indicator at i+1..j) = (i)_theta/(j)_theta, a ratio of
    rising factorials."""
    if theta == 1.0:
        # G_i(j) = i/j and u = k 2^-53 exactly, so J = ceil(i 2^53 / k) in integers
        k = int(u * 9007199254740992.0)
        return n + 1 if k == 0 else min(-(-(i << 53) // k), n + 1)
    if u == 0.0 or i == n:
        return n + 1
    if u >= i / (i + theta):  # G_i(i + 1), the commonest case while i is small
        return i + 1
    log_u = math.log(u)
    head = _log_gap_remainder(float(i), theta)

    def covered(j):  # log G_i(j) = theta log(i/j) + R(i) - R(j) <= log u
        # log1p loses digits near -1 and log near 1: each takes its own side of j = 2i
        log_ratio = math.log1p((i - j) / j) if j <= 2 * i else math.log(i / j)
        return theta * log_ratio + head - _log_gap_remainder(float(j), theta) <= log_u

    # (j)_theta = (j + c)^theta (1 + O(1/j^2)) with c = (theta - 1)/2, so
    # J lies close to ((i)_theta/u)^(1/theta) - c
    c = 0.5 * (theta - 1.0)
    log_root = math.log(i) + (head - log_u) / theta
    guess = n if log_root >= math.log(n + c) else min(
        n, max(i + 1, math.ceil(math.exp(log_root) - c)))
    return _first_true(covered, i, n + 1, guess)


def sample_cycles_feller(n: int, theta: float, rng: RngStream) -> CycleCounts:
    """Feller-coupling construction of an Ewens(theta) cycle type.

    Independent indicators xi_i ~ Bernoulli(theta/(theta + i - 1)) for
    i = 1..n with xi_{n+1} := 1 appended; the spacings between successive
    ones inside positions 1..n+1 are the cycle lengths.  Appending the
    closing one gives exactly the Ewens law (checked against the exact
    formula in the tests rather than assumed).  The ones are not found by n
    Bernoulli draws: given a one at i, the next one is J with P(J > j) =
    G_i(j) (Arratia, Barbour and Tavare, Logarithmic Combinatorial
    Structures, 2003), drawn by inversion from one uniform, so a call costs
    about theta log n uniforms.  n is capped at 2^53, where consecutive
    G_i(j) stop being distinct doubles.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > FELLER_MAX_N:
        raise ValueError("n must be <= 2^53 for the Feller coupling")
    if theta <= 0.0:
        raise ValueError("theta must be > 0")
    random = rng.gen.random
    counts = {}
    i = 1  # position 1 is a one with probability theta/theta = 1
    while i <= n:
        j = _next_indicator(i, n, theta, random())
        counts[j - i] = counts.get(j - i, 0) + 1
        i = j
    return CycleCounts(n, theta, counts)


def c_process(counts: CycleCounts, grid) -> np.ndarray:
    """C_n(t) = number of cycles of length at most floor(n**t), on the grid."""
    if any(not 0.0 <= t <= 1.0 for t in grid):
        raise ValueError("grid must lie in [0, 1]")
    items = counts.counts.items()
    out = []
    for t in grid:
        m = floor_power(counts.n, float(t))
        out.append(sum(c for r, c in items if r <= m))
    return np.array(out, dtype=np.int64)
