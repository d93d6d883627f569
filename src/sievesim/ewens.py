"""Ewens cycle counts sampled two independent ways (Chinese restaurant and
Feller coupling), the exact sampling-formula probability, and the cycle
process C_n(t)."""

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln

from .occupancy import floor_power
from .sampling import RngStream, ScratchSlot

__all__ = [
    "CycleCounts",
    "sample_cycles_crp",
    "sample_cycles_feller",
    "esf_probability",
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


_FELLER_SCRATCH = ScratchSlot(float, bool)  # the n uniforms and the indicators


@lru_cache(maxsize=4)
def _feller_probs(n: int, theta: float) -> np.ndarray:
    """theta/(theta + i - 1) for i = 1..n, read-only because it is shared."""
    i = np.arange(1, n + 1, dtype=float)
    probs = theta / (theta + i - 1.0)
    probs.flags.writeable = False
    return probs


def sample_cycles_feller(n: int, theta: float, rng: RngStream) -> CycleCounts:
    """Feller-coupling construction of an Ewens(theta) cycle type.

    Independent indicators xi_i ~ Bernoulli(theta/(theta + i - 1)) for
    i = 1..n with xi_{n+1} := 1 appended; the spacings between successive
    ones inside positions 1..n+1 are the cycle lengths.  Appending the
    closing one gives exactly the Ewens law (checked against the exact
    formula in the tests rather than assumed).  The uniforms go into a
    per-thread buffer that the next call with the same n reuses.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if theta <= 0.0:
        raise ValueError("theta must be > 0")
    u, hit = _FELLER_SCRATCH.arrays(n)
    rng.gen.random(out=u)
    ones = np.flatnonzero(np.less(u, _feller_probs(n, theta), out=hit)) + 1
    if len(ones) == 0 or ones[0] != 1:
        # cannot happen: position 1 is a one with probability theta/theta = 1
        raise RuntimeError("Feller coupling missed the forced indicator at position 1")
    positions = np.concatenate([ones, [n + 1]])
    lengths = np.diff(positions)
    counts = {}
    for r in lengths:
        counts[int(r)] = counts.get(int(r), 0) + 1
    return CycleCounts(n, theta, counts)


def esf_probability(counts: CycleCounts) -> float:
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


def c_process(counts: CycleCounts, grid) -> np.ndarray:
    """C_n(t) = number of cycles of length at most floor(n**t), on the grid."""
    grid = np.asarray(grid, dtype=float)
    if np.any(grid < 0.0) or np.any(grid > 1.0):
        raise ValueError("grid must lie in [0, 1]")
    lengths = np.sort(np.fromiter(
        (r for r, c in counts.counts.items() for _ in range(c)), dtype=np.int64))
    out = np.empty(len(grid), dtype=np.int64)
    for i, t in enumerate(grid):
        out[i] = np.searchsorted(lengths, floor_power(counts.n, float(t)), side="right")
    return out
