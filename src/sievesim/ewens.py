"""Ewens cycle counts sampled by the Feller coupling, which jumps from one
indicator to the next, and the cycle process C_n(t)."""

import json
import math
from dataclasses import dataclass
from operator import truediv

import numpy as np
from scipy.special import poch

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

    def num_cycles(self) -> int:
        return sum(self.counts.values())

    def cycle_type(self) -> tuple:
        return tuple(sorted((r, c) for r, c in self.counts.items() if c > 0))

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "theta": self.theta,
                           "counts": sorted([int(r), int(c)] for r, c in self.counts.items())})

    @staticmethod
    def from_json(text: str) -> "CycleCounts":
        obj = json.loads(text)
        return CycleCounts(int(obj["n"]), float(obj["theta"]),
                           {int(r): int(c) for r, c in obj["counts"]})


FELLER_MAX_N = 1 << 53  # beyond this a double cannot tell G_i(j) from G_i(j + 1)
_POCH_CHUNK = 16.0  # poch(x, 16.0) is finite for every x <= 2^53


def _poch_chunks(x: float, theta: float) -> list:
    """poch(x, theta) as the factors poch(x + s, a), a <= 16, whose product it
    is: none of them overflows, where poch(x, theta) itself would for theta
    above about 19 and x near 2^53.  One factor unless theta > 16."""
    out = []
    while theta > 0.0:
        a = min(theta, _POCH_CHUNK)
        out.append(poch(x, a))
        x, theta = x + a, theta - a
    return out


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
    G_i(j) = P(no indicator at i+1..j) = poch(i, theta)/poch(j, theta)."""
    if theta == 1.0:
        # G_i(j) = i/j and u = k 2^-53 exactly, so J = ceil(i 2^53 / k) in integers
        k = int(u * 9007199254740992.0)
        return n + 1 if k == 0 else min(-(-(i << 53) // k), n + 1)
    if u == 0.0 or i == n:
        return n + 1
    if u >= i / (i + theta):  # G_i(i + 1), the commonest case while i is small
        return i + 1
    heads = _poch_chunks(float(i), theta)

    def covered(j):  # G_i(j) <= u
        return math.prod(map(truediv, heads, _poch_chunks(float(j), theta))) <= u

    # poch(j, theta) = (j + c)^theta (1 + O(1/j^2)) with c = (theta - 1)/2, so
    # J lies close to (poch(i, theta)/u)^(1/theta) - c
    c = 0.5 * (theta - 1.0)
    log_root = (sum(map(math.log, heads)) - math.log(u)) / theta
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
