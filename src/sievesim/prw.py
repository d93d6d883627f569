"""Perturbed random walks T_k = S_{k-1} + eta_k, their visit counts N(x), the
renewal counts nu(t), and the per-path statistics of the uniform law of
large numbers and window-growth checks."""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .sampling import RngStream, ScratchSlot, StickLaw

__all__ = [
    "StepLaw",
    "PrwPath",
    "simulate_path",
    "path_from_sticks",
    "visit_process",
    "lln_sup_deviation",
    "max_window_count",
]


@dataclass(frozen=True)
class StepLaw:
    """Joint law of one step (xi, eta), both strictly positive.

    xi:  ("exp", rate) | ("pareto", alpha) | ("const", c) | ("logstick", StickLaw)
    eta: ("exp", rate) | ("const", c) | ("log1mstick", StickLaw)

    dependence "sharedstick" draws a single stick factor W per step and sets
    (xi, eta) = (|log W|, |log(1-W)|); it requires both marginals to be the
    log forms of the same StickLaw.  "pareto" means P{xi > x} = x**(-alpha)
    for x >= 1, the minimal representative with exactly computable
    normalizers c(n) = n**(1/alpha).
    """

    xi: tuple
    eta: tuple
    dependence: str = "independent"

    def __post_init__(self):
        kx, px = self.xi[0], self.xi[1]
        if kx == "exp" and px <= 0:
            raise ValueError("exp rate must be > 0")
        if kx == "pareto" and px <= 0:
            raise ValueError("pareto alpha must be > 0")
        if kx == "const" and px <= 0:
            raise ValueError("const step must be > 0")
        if kx == "logstick" and not isinstance(px, StickLaw):
            raise ValueError("logstick requires a StickLaw")
        if kx not in ("exp", "pareto", "const", "logstick"):
            raise ValueError(f"unknown xi spec: {kx!r}")
        ke, pe = self.eta[0], self.eta[1]
        if ke == "exp" and pe <= 0:
            raise ValueError("exp rate must be > 0")
        if ke == "const" and pe <= 0:
            raise ValueError("eta must be strictly positive")
        if ke == "log1mstick" and not isinstance(pe, StickLaw):
            raise ValueError("log1mstick requires a StickLaw")
        if ke not in ("exp", "const", "log1mstick"):
            raise ValueError(f"unknown eta spec: {ke!r}")
        if self.dependence == "sharedstick":
            if kx != "logstick" or ke != "log1mstick" or px is not pe:
                raise ValueError("sharedstick requires log forms of one StickLaw")
        elif self.dependence != "independent":
            raise ValueError(f"unknown dependence: {self.dependence!r}")

    @staticmethod
    def shared_stick(stick: StickLaw):
        return StepLaw(("logstick", stick), ("log1mstick", stick), "sharedstick")

    def draw(self, rng: RngStream, out: tuple) -> tuple:
        """Fill the caller's (xi, eta) buffers, each to its own length, xi
        first; returns out.  A shared stick fills both from one W, so its
        buffers must be equally long.

        Each law consumes the stream and rounds exactly as numpy's allocating
        forms do (``exponential``, ``full``, ``random(...) ** p``, ``-log``),
        so the steps are the same bit for bit, and a shorter buffer gets a
        prefix of a longer one's values.
        """
        xi, eta = out
        if self.dependence == "sharedstick":
            w = self.xi[1].sample(rng, len(xi))
            np.negative(np.log(w, out=xi), out=xi)
            np.negative(np.log1p(np.negative(w, out=w), out=eta), out=eta)
            return out
        self._draw_one(self.xi, rng, xi)
        self._draw_one(self.eta, rng, eta)
        return out

    @staticmethod
    def _draw_one(spec, rng, out):
        kind, par = spec
        if kind == "exp":
            # Generator.exponential(scale) is scale * standard_exponential
            rng.gen.standard_exponential(out=out)
            if par != 1.0:
                out *= 1.0 / par
        elif kind == "const":
            out.fill(float(par))
        elif kind == "pareto":
            rng.gen.random(out=out)
            if not out.all():
                out[out == 0.0] = 0.5
            # in-place ** takes the same scalar-exponent fast paths as u ** p
            out **= -1.0 / par
        else:
            w = par.sample(rng, len(out))
            if kind == "logstick":
                np.negative(np.log(w, out=out), out=out)
            else:
                np.negative(np.log1p(np.negative(w, out=w), out=out), out=out)

    def mean_xi(self) -> float:
        kind, par = self.xi
        if kind == "exp":
            return 1.0 / par
        if kind == "const":
            return float(par)
        if kind == "pareto":
            return par / (par - 1.0) if par > 1.0 else math.inf
        return par.mean_abs_log()

    def var_xi(self) -> float:
        kind, par = self.xi
        if kind == "exp":
            return 1.0 / par**2
        if kind == "const":
            return 0.0
        if kind == "pareto":
            if par <= 2.0:
                return math.inf
            return par / ((par - 1.0) ** 2 * (par - 2.0))
        return par.var_abs_log()


@dataclass
class PrwPath:
    """One realised walk: partial sums S_0..S_K and perturbed points T_1..T_K.

    Counts are valid for arguments up to ``horizon`` (the walk was extended
    until S_K exceeded it, and eta > 0 means no later index can contribute).
    """

    s_values: np.ndarray
    t_values: np.ndarray
    horizon: float

    @cached_property
    def _t_sorted(self) -> np.ndarray:
        return np.sort(self.t_values)

    def count_visits(self, x: float) -> int:
        """N(x) = #{k : T_k <= x}."""
        self._check(x)
        return int(np.searchsorted(self._t_sorted, x, side="right"))

    def count_visits_strict(self, x: float) -> int:
        """Left limit N(x-) = #{k : T_k < x}."""
        self._check(x)
        return int(np.searchsorted(self._t_sorted, x, side="left"))

    def count_renewals(self, t: float) -> int:
        """nu(t) = #{k >= 0 : S_k <= t}; identically 0 for t < 0."""
        if t < 0.0:
            return 0
        self._check(t)
        return int(np.searchsorted(self.s_values, t, side="right"))

    def _check(self, x):
        if x > self.horizon:
            raise ValueError(f"argument {x} beyond realised horizon {self.horizon}")


# [0, S_0, S_1, ...] (xi is drawn past the leading 0), eta then T_k, S_{k-1}, S_k > horizon
_PATH_SCRATCH = ScratchSlot(float, float, float, bool)


def simulate_path(law: StepLaw, horizon: float, rng: RngStream) -> PrwPath:
    """Realise the walk until S_k > horizon (so all T_k <= horizon are seen).

    Steps are drawn block by block into per-thread scratch buffers, which
    the next call reuses.  A walk that ends inside its first block returns
    read-only, exactly sized views on those buffers, valid until the next
    simulate_path call on the same thread: copy what must outlive it.  A
    longer walk holds fresh, exactly sized copies of what it keeps.

    Each block draws its xi, then its eta.  An independent law draws eta
    only for the kept steps of the block where the walk ends; a shared stick
    draws whole blocks.
    """
    if horizon < 0.0:
        raise ValueError("horizon must be >= 0")
    m = law.mean_xi()
    block = 64 if not math.isfinite(m) else max(64, int(1.2 * horizon / m) + 32)
    s, eta, prev, beyond = _PATH_SCRATCH.arrays(block + 1)
    s[0] = 0.0
    xi, eta, prev, beyond = s[1:], eta[:block], prev[:block], beyond[:block]
    shared = law.dependence == "sharedstick"
    s_parts = [np.zeros(1)]
    t_parts = []
    s_last = 0.0
    while s_last <= horizon:
        law.draw(rng, (xi, eta if shared else eta[:0]))
        first = not t_parts
        if first:
            # from s_last = 0.0, S_k = S_{k-1} + xi_k is numpy's sequential
            # cumsum bit for bit (x + 0.0 == x): summed in place, s becomes
            # [0, S_0..S_{block-1}] and S is nondecreasing
            s_new = np.cumsum(xi, out=xi)
            s_prev = s[:block]
            stop = np.searchsorted(s_new, horizon, side="right")
        else:
            # S_{k-1} = s_last + (xi_0 + ... + xi_{k-2}), summed in this order
            s_prev = prev
            s_prev[0] = 0.0
            np.cumsum(xi[:-1], out=s_prev[1:])
            s_prev += s_last
            s_new = np.add(xi, s_prev, out=xi)
            # S_k = S_{k-1} + xi_k is rounded apart from S_{k-1}'s sum, so it
            # may dip by an ulp; the first crossing is found on its mask
            stop = np.searchsorted(np.greater(s_new, horizon, out=beyond), True)
        # keep indices with S_{k-1} <= horizon, a prefix since S_{k-1} is
        # nondecreasing; later T_k exceed horizon a.s.
        kept = np.searchsorted(s_prev, horizon, side="right")
        s_last = s_new[min(stop, block - 1)]
        if not shared:
            law.draw(rng, (xi[:0], eta if s_last <= horizon else eta[:kept]))
        t_new = np.add(eta[:kept], s_prev[:kept], out=eta[:kept])
        if first and s_last > horizon:
            # one block: s holds [0, S_0..S_stop] contiguously
            s_view, t_view = s[: stop + 2], t_new
            s_view.flags.writeable = t_view.flags.writeable = False
            return PrwPath(s_view, t_view, horizon=float(horizon))
        # the last block's views are copied by concatenate; earlier blocks
        # are copied now, before the next draw overwrites them
        copy = np.copy if s_last <= horizon else np.asarray
        t_parts.append(copy(t_new))
        s_parts.append(copy(s_new[: stop + 1]))
    return PrwPath(np.concatenate(s_parts), np.concatenate(t_parts), horizon=float(horizon))


def path_from_sticks(sticks) -> PrwPath:
    """Walk driven by realised stick factors: xi = |log W|, eta = |log(1-W)|.

    T_k = -log(V_{k-1} (1 - W_k)), so on the sticks of a sieve environment
    the visit count N(log x) counts the boxes of probability >= 1/x by sums
    of logs, independently of occupancy.rho's products.
    """
    w = np.asarray(sticks, dtype=float)
    xi = -np.log(w)
    eta = -np.log1p(-w)
    s = np.concatenate([[0.0], np.cumsum(xi)])
    t = s[:-1] + eta
    return PrwPath(s, t, horizon=float(s[-1]))


def visit_process(law: StepLaw, n: float, grid, rng: RngStream) -> np.ndarray:
    """One path of (N(n*t)) along the grid, from a single walk realisation."""
    grid = np.asarray(grid, dtype=float)
    if np.any(np.diff(grid) < 0.0):
        raise ValueError("grid must be sorted")
    path = simulate_path(law, n * float(grid[-1]), rng)
    # direct counting beats sorting for the short grids used in practice
    t = path.t_values
    return np.asarray([np.count_nonzero(t <= n * g) for g in grid], dtype=np.int64)


# ---------------------------------------------------------------------------
# per-path statistics of the uniform LLN and window-growth checks
# ---------------------------------------------------------------------------


def lln_sup_deviation(path: PrwPath, n: float, grid, m: float) -> float:
    """sup over the grid of |m (N(n) - N(n(1-t)-)) / n - t| on one path
    (m = E xi < infinity); left limits use the strict count."""
    nn = path.count_visits(n)
    sup = 0.0
    for t in grid:
        left = path.count_visits_strict(n * (1.0 - t))
        sup = max(sup, abs(m * (nn - left) / n - t))
    return sup


def max_window_count(path: PrwPath, b: float, n: float) -> int:
    """Exact sup over t in [0,1] of N(nt+b) - N(nt) = #{T in (nt, nt+b]}.

    The supremum over window positions a = nt in [0, n] is attained with a
    just below some point T_i (window [T_i, T_i+b)) or at a = 0; ties have
    probability zero for continuous laws.
    """
    t_sorted = path._t_sorted
    if len(t_sorted) == 0:
        return 0
    best = int(np.searchsorted(t_sorted, b, side="right"))  # a = 0 window (0, b]
    starts = t_sorted[(t_sorted >= 0.0) & (t_sorted <= n)]
    if len(starts):
        lo = np.searchsorted(t_sorted, starts, side="left")
        hi = np.searchsorted(t_sorted, starts + b, side="left")
        best = max(best, int(np.max(hi - lo)))
    return best
