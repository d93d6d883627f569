"""Perturbed random walks T_k = S_{k-1} + eta_k, their visit counts N(x), the
renewal counts nu(t), and the per-path statistics of the uniform law of
large numbers and window-growth checks."""

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .sampling import RngStream, ScratchSlot, StickLaw, _open_unit

__all__ = [
    "StepLaw",
    "PrwPath",
    "simulate_path",
    "path_from_sticks",
    "visit_process",
    "lln_sup_deviation",
    "max_window_count",
]

# the largest Poisson mean visit_process draws: numpy's PTRS sampler subtracts
# terms near mean log(mean) in its acceptance test, and from a mean of about
# 1e14 on its variates' spread is visibly off
POISSON_MEAN_MAX = 2.0**40


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

    def _eta_tail(self, y: float) -> float:
        """P{eta > y} for y >= 0, of an independent eta."""
        kind, par = self.eta
        if kind == "exp":
            return math.exp(-par * y)
        if kind == "const":
            return 1.0 if y < par else 0.0
        return par.tail_abs_log1m(y)

    @staticmethod
    def integral_eta_cdf(eta, a: float, b: float) -> float:
        """The integral of eta's CDF over [a, b], 0 <= a <= b, taken over the
        interval itself: a difference of two integrals from 0 would cancel
        between close points far from 0."""
        kind, par = eta
        if kind == "exp":
            return (b - a) + math.exp(-par * a) * math.expm1(-par * (b - a)) / par
        if kind == "const":
            return max(0.0, b - max(a, par))
        return par.integral_cdf_abs_log1m(a, b)

    def _eta_above(self, y, tail, gen) -> np.ndarray:
        """eta given eta > y, elementwise, where tail = P{eta > y}.  A
        log1mstick eta rises with the stick's uniform U, so it is the stick of
        U = 1 - tail V, V uniform, clamped as StickLaw.sample clamps it: eta
        <= 53 log 2 ~ 36.74 as on the full path, and a step whose clamped
        (or rounded) eta is not above y does not count.
        """
        kind, par = self.eta
        if kind == "exp":
            return y + gen.standard_exponential(len(y)) / par
        if kind == "const":
            return np.full(len(y), float(par))
        w = par.from_unit(1.0 - tail * _open_unit(gen, len(y)))
        return np.negative(np.log1p(np.negative(w, out=w), out=w), out=w)

    def mean_xi(self) -> float:
        kind, par = self.xi
        if kind == "exp":
            return 1.0 / par
        if kind == "const":
            return float(par)
        if kind == "pareto":
            return par / (par - 1.0) if par > 1.0 else math.inf
        return par.mean_abs_log()

    def mean_steps(self, x: float) -> float:
        """About the mean number of partial sums S_k <= x: x/m for a finite mean
        m, else x / E min(xi, x), within a factor 2 of it (Erickson, Trans. AMS
        185, 1973), for the tail y^-alpha from 1 (pareto, log exppareto stick)."""
        m = self.mean_xi()
        if math.isinf(m) and x > 1.0:
            a = self.xi[1] if self.xi[0] == "pareto" else self.xi[1].alpha
            m = 1.0 + (math.log(x) if a == 1.0 else (x ** (1.0 - a) - 1.0) / (1.0 - a))
        return x / m

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


# [S_K, then the block's xi, summed in place into S_{K+1}, S_{K+2}, ...], eta
_PATH_SCRATCH = ScratchSlot(float, float)


def _walk(law: StepLaw, horizon: float, rng: RngStream, with_eta: bool) -> tuple:
    """Partial sums S_0 = 0, S_1, ..., S_K up to the first S_K > horizon, and
    eta_1..eta_K, or None for an independent law without with_eta: the one
    stick-to-walk recurrence.

    xi is drawn in blocks into per-thread scratch, each summed in place on
    from the last S, so S is numpy's sequential cumsum of xi bit for bit.
    With xi's mean m and variance sigma^2 the first block holds
    horizon/m + 6 sigma sqrt(horizon/m)/m + 32 steps, six standard
    deviations past the mean step count (1.2 horizon/m + 32 for an infinite
    sigma, 64 for an infinite m; at least 64), as does every later block.
    A one-block walk returns views on the scratch, valid until the next walk
    on the thread; a longer walk returns fresh arrays.  A shared stick draws
    eta with each block's xi; an independent law draws it after the last
    block, for the K kept steps.
    """
    m, var = law.mean_xi(), law.var_xi()
    if not math.isfinite(m):
        block = 64
    elif math.isfinite(var):
        block = max(64, int(horizon / m + 6.0 * math.sqrt(var * horizon / m) / m) + 32)
    else:
        block = max(64, int(1.2 * horizon / m) + 32)
    s, eta = _PATH_SCRATCH.arrays(block + 1)
    shared = law.dependence == "sharedstick"
    xi, eta_block = s[1:], eta[:block if shared else 0]
    s_parts, eta_parts = [], []
    s[0] = 0.0
    while True:
        law.draw(rng, (xi, eta_block))
        np.cumsum(s, out=s)  # xi now holds the block's sums
        stop = int(np.searchsorted(xi, horizon, side="right"))
        if stop < block:
            break
        # copied now, before the next draw overwrites them
        s_parts.append(s[:-1].copy())
        eta_parts.append(eta_block.copy())
        s[0] = s[-1]
    s, kept = s[: stop + 2], len(s_parts) * block + stop + 1
    if s_parts:
        s = np.concatenate(s_parts + [s])
    if shared:
        eta = np.concatenate(eta_parts + [eta[: stop + 1]]) if s_parts else eta[:kept]
    elif with_eta:
        eta = np.empty(kept) if s_parts else eta[:kept]
        law.draw(rng, (eta[:0], eta))
    else:
        eta = None
    return s, eta


def simulate_path(law: StepLaw, horizon: float, rng: RngStream) -> PrwPath:
    """Realise the walk until S_k > horizon (so all T_k <= horizon are seen).

    The path's arrays are read-only.  A walk that ends inside its first
    block holds views on per-thread scratch buffers, valid until the next
    walk on the same thread: copy what must outlive it.  A longer walk holds
    fresh arrays.  The steps are drawn as _walk says.
    """
    if horizon < 0.0:
        raise ValueError("horizon must be >= 0")
    s, eta = _walk(law, horizon, rng, True)
    t = np.add(eta, s[:-1], out=eta)
    s.flags.writeable = t.flags.writeable = False
    return PrwPath(s, t, horizon=float(horizon))


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


@lru_cache(maxsize=64)
def _poisson_means(law: StepLaw, n: float, grid: tuple) -> list:
    """The means rate * integral of F_eta over [x_{i-1}, x_i], x_i = n t_i and
    x_{-1} = 0, of an exp(rate) xi walk's Poisson counts."""
    xs = (n * np.asarray(grid, dtype=float)).tolist()
    return [law.xi[1] * StepLaw.integral_eta_cdf(law.eta, a, b) for a, b in zip([0.0] + xs, xs)]


def visit_process(law: StepLaw, n: float, grid, rng: RngStream) -> np.ndarray:
    """One path of (N(n t)) along the grid, which must be nondecreasing (the
    walk targets' specs check it), from a single walk realisation.

    An exp(rate) xi makes S_1, S_2, ... a Poisson process, so by the
    displacement theorem (Kingman, Poisson Processes, 1993, 5.2) the points
    T_k, k >= 2, of an independent eta form a Poisson process of mean
    measure rate * integral_0^x F_eta, independent of T_1 = eta_1.  Such a
    walk draws eta_1 and then one Poisson count per grid interval, in grid
    order, and N(x) = 1{eta_1 <= x} plus the counts up to x.  The walk
    targets' specs keep each mean within POISSON_MEAN_MAX.

    Any other xi draws the partial sums up to the last grid point first,
    and eta only where it can move a count: N(x) = L(x) - D(x), where L(x) =
    #{k >= 1 : S_{k-1} <= x} and D(x) counts those k with eta_k > x -
    S_{k-1}.  Given S these events are independent, with probability p_k =
    P{eta > x - S_{k-1}}, which falls as k falls.  At each grid point the
    indices the one below left undecided are thinned exactly, walking down
    from k = L(x): skip a Geometric(pbar) number, propose the index reached
    and set pbar = p_k (from pbar = 1).  Then each proposal is accepted with
    probability p_k / pbar, by a uniform unless that is 0 or 1, and each
    accepted step draws eta given eta > x - S_{k-1}; its T_k counts in D at
    every grid point below it.  So a grid point draws its geometric skips,
    its acceptance uniforms and its accepted eta.

    The walk down stops when pbar underflows to 0, so it drops at most the
    sum of the underflowed tails of the indices left, each below 2^-1074
    (for exp eta: rate (x - S_{k-1}) > 745).  A shared stick ties eta to xi:
    it counts on the full path.
    """
    xs = n * np.asarray(grid, dtype=float)
    if law.dependence == "sharedstick":
        return np.searchsorted(simulate_path(law, xs[-1], rng)._t_sorted, xs, side="right")
    if law.xi[0] == "exp":
        eta_1 = np.empty(1)
        StepLaw._draw_one(law.eta, rng, eta_1)
        counts = [rng.gen.poisson(mean) for mean in _poisson_means(law, float(n), tuple(grid))]
        return np.cumsum(counts) + (eta_1[0] <= xs)
    s, _ = _walk(law, float(xs[-1]), rng, False)
    counts = np.empty(len(xs), dtype=np.intp)
    gen, tail = rng.gen, law._eta_tail
    carried = np.empty(0)  # the T_k above the last grid point, of accepted steps
    lo = 0
    for i, x in enumerate(xs.tolist()):
        k = hi = int(np.searchsorted(s, x, side="right"))
        ks, ps, pbar = [], [], 1.0
        while pbar > 0.0:
            k -= 1 if pbar == 1.0 else gen.geometric(pbar)
            if k < lo:
                break
            pbar = tail(x - s[k])
            ks.append(k)
            ps.append(pbar)
        p = np.array(ps)
        ratio = p / np.concatenate(([1.0], p[:-1]))
        coin = (ratio > 0.0) & (ratio < 1.0)
        accept = ratio == 1.0
        accept[coin] = gen.random(np.count_nonzero(coin)) < ratio[coin]
        s_acc = s[np.array(ks, dtype=np.intp)[accept]]
        t_new = s_acc + law._eta_above(x - s_acc, p[accept], gen)
        carried = np.concatenate((carried[carried > x], t_new[t_new > x]))
        counts[i] = hi - len(carried)
        lo = hi
    return counts


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
