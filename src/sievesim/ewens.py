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
    "c_process_block",
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
    rising factorials; for theta != 1 (_next_indicators settles theta = 1)."""
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


def _next_indicators(i: np.ndarray, n: int, theta: float, u: np.ndarray) -> np.ndarray:
    """The Feller indicator after each i[e], drawn by u[e].  For theta = 1,
    J = ceil(i/u) = ceil(i 2^53/k) with u = k 2^-53: a correctly rounded double
    quotient above n means n + 1, and one below has the exact ceiling unless it
    rounds to an integer, where the integer rule decides.  Else
    u >= i/(i + theta) gives J = i + 1 and _next_indicator searches the rest."""
    if theta == 1.0:
        q = np.divide(i, u, out=np.full(i.size, np.inf), where=u > 0.0)
        j = np.minimum(np.ceil(q), n).astype(np.int64)  # n <= 2^53 is exact
        for e in np.flatnonzero(q == j).tolist():  # here u > 0, so k > 0
            j[e] = -(-(int(i[e]) << 53) // int(u[e] * 9007199254740992.0))
        j[q > n] = n + 1
        return j
    j = i + 1
    for e in np.flatnonzero(u < i / (i + theta)).tolist():
        j[e] = _next_indicator(int(i[e]), n, theta, float(u[e]))
    return j


def _feller_rounds(n: int, theta: float, size: int, rng: RngStream):
    """`size` Feller couplings of Ewens(theta) cycle types from one stream: the
    spacings of the ones of xi_i ~ Bernoulli(theta/(theta + i - 1)), i <= n,
    and xi_{n+1} := 1.  After a one at i the next is J, P(J > j) = G_i(j), by
    inversion (Arratia, Barbour and Tavare, Logarithmic Combinatorial
    Structures, 2003).  Each round draws a uniform for every replicate not
    past n, in replicate order, and yields them and their new cycle lengths."""
    if not (1 <= n <= FELLER_MAX_N and theta > 0.0):
        raise ValueError("the Feller coupling needs 1 <= n <= 2^53 and theta > 0")
    rep = np.arange(size)
    i = np.ones(size, dtype=np.int64)  # position 1 is a one with probability theta/theta = 1
    while rep.size:
        j = _next_indicators(i, n, theta, rng.gen.random(rep.size))
        yield rep, j - i
        left = j <= n
        rep, i = rep[left], j[left]


def sample_cycles_feller(n: int, theta: float, rng: RngStream) -> CycleCounts:
    """One Ewens(theta) cycle type by the Feller coupling: a block of one of
    `_feller_rounds`, with its cycle lengths read off."""
    lengths, counts = np.unique(np.concatenate(
        [length for _, length in _feller_rounds(n, theta, 1, rng)]), return_counts=True)
    return CycleCounts(n, theta, dict(zip(lengths.tolist(), counts.tolist())))


def c_process_block(n: int, theta: float, grid: tuple, size: int, rng: RngStream) -> tuple:
    """C_n(t) on the grid of `size` Ewens(theta) permutations (`_feller_rounds`),
    each round's cycles binned in place against floor_power(n, t), as a
    (size, len(grid)) int64 array; and the block's uniforms, one per cycle."""
    top = np.array([floor_power(n, float(t)) for t in grid], dtype=np.int64)
    rows = np.zeros((size, len(grid)), dtype=np.int64)
    uniforms = 0
    for rep, length in _feller_rounds(n, theta, size, rng):
        rows[rep] += length[:, None] <= top
        uniforms += rep.size
    return rows, uniforms


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
