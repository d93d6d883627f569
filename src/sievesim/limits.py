"""Reference samplers and closed-form quantities for the limit objects: exact
inverse stable subordinator time reversals and ratios, the normal CDF, the
normalizer c(x) of the tail-index-2 regime, and the deterministic centerings
for both the sieve and the walk."""

import math

import numpy as np

from .prw import StepLaw
from .sampling import (
    RngStream,
    StickLaw,
    _kanter,
    _open_unit,
    sample_standard_positive_stable,
)

__all__ = [
    "normal_cdf",
    "log_normalizer",
    "centering_u_v",
    "centering_prw",
    "sample_inverse_reversal",
    "sample_inverse_ratio",
]


def _passage_pair(alpha: float, level: float, rng: RngStream, size: int):
    """Exact (W^<-(level), W^<-(1)) for 0 <= level <= 1, from one path of the
    subordinator W with Laplace exponent Gamma(1-alpha) z**alpha.

    W's Levy tail is y**(-alpha).  By the compensation formula (Bertoin, LNM
    1717) the undershoot u at level is level * Beta(alpha, 1-alpha), the jump
    over it is (level - u) * V**(-1/alpha), and given u the passage time is
    u**alpha K(U*)**(-alpha) G**(1-alpha) / Gamma(1-alpha), with K Kanter's
    function, G ~ Gamma(2-alpha) and U* on (0, pi) of density proportional
    to K**(-alpha).  Level 1 is passed at the same time when the jump
    crosses it, otherwise after the passage of the remaining gap by a fresh
    path (strong Markov property).  At level 0 this is the exact marginal.
    """
    gamma = math.gamma(1.0 - alpha)
    lo, gap = np.zeros(size), np.ones(size)
    if level > 0.0:
        under = level * rng.gen.beta(alpha, 1.0 - alpha, size)
        with np.errstate(over="ignore", invalid="ignore"):
            jump = (level - under) * _open_unit(rng.gen, size) ** (-1.0 / alpha)
        # K(U*) by rejection from the uniform angle, accepted with
        # (K(0+)/K(U))**alpha; K >= K(0+), so a smaller value is underflow
        k0 = alpha * (1.0 - alpha) ** ((1.0 - alpha) / alpha)
        k = np.empty(size)
        todo = np.arange(size)
        while todo.size:
            with np.errstate(divide="ignore", invalid="ignore"):
                ku = np.maximum(_kanter(alpha, rng.gen.uniform(0.0, math.pi, todo.size)), k0)
                keep = rng.gen.random(todo.size) < (k0 / ku) ** alpha
            k[todo[keep]] = ku[keep]
            todo = todo[~keep]
        g = rng.gen.standard_gamma(2.0 - alpha, size)
        lo = (under / k) ** alpha * g ** (1.0 - alpha) / gamma
        gap = 1.0 - under - jump
    hi = lo.copy()
    rest = gap > 0.0
    d = sample_standard_positive_stable(alpha, rng, int(np.count_nonzero(rest)))
    hi[rest] += gap[rest] ** alpha / (gamma * d**alpha)
    return lo, hi


def sample_inverse_reversal(alpha: float, t: float, rng: RngStream, size: int) -> np.ndarray:
    """Exact draws of W^<-(1) - W^<-((1-t)-) from single subordinator paths;
    at t = 1 these are the draws of sample_inverse_subordinator_marginal."""
    lo, hi = _passage_pair(alpha, 1.0 - min(t, 1.0), rng, int(size))
    return hi - lo


def sample_inverse_ratio(alpha: float, t: float, rng: RngStream, size: int) -> np.ndarray:
    """Exact draws of 1 - W^<-((1-t)-) / W^<-(1) from single subordinator
    paths.  A jump that crosses both levels gives the atom at 0, of mass
    I_{1-t}(alpha, 1-alpha) (the regularised incomplete beta function)."""
    lo, hi = _passage_pair(alpha, 1.0 - min(t, 1.0), rng, int(size))
    # hi == lo where the jump crosses both levels: the atom at 0
    return 1.0 - np.divide(lo, hi, out=np.ones_like(hi), where=hi > lo)


def normal_cdf(x):
    """Standard normal CDF, Phi(x) = erfc(-x / sqrt(2)) / 2, with math.erfc
    applied to each element; absolute error is far below 1e-10 over the
    whole line (checked against mpmath in the tests)."""
    z = -np.asarray(x, dtype=float) / math.sqrt(2.0)
    out = 0.5 * np.fromiter(map(math.erfc, z.flat), float, z.size).reshape(z.shape)
    return float(out) if out.shape == () else out


def log_normalizer(x: float) -> float:
    """The normalizing function c with c(x)**2 = 2 x log c(x), of a law with
    tail index 2 whose truncated second moment grows like 2 log x.

    Newton's method on f(c) = c**2 - 2 x log c from sqrt(2 x log x), which
    lies right of the larger root (that root is at most x, and f is least at
    sqrt(x)).  f is convex, so the iterates fall monotonically to the larger
    root; they stop once a step no longer falls.  There is no root for
    x < e, and math.e lies below e, so x <= math.e raises ValueError.
    """
    if x <= math.e:
        raise ValueError("c**2 = 2 x log c has no root for x < e")
    c = math.sqrt(2.0 * x * math.log(x))
    while (nxt := c - (c * c - 2.0 * x * math.log(c)) / (2.0 * c - 2.0 * x / c)) < c:
        c = nxt
    return c


def centering_u_v(stick: StickLaw, n, t: float):
    """First/second-order centerings (u_n(t), v_n(t)) for the sieve process.

    u_n(t) = mu^-1 * integral over ((1-t) log n, log n) of P{|log(1-W)| <= s},
    v_n(t) = mu^-1 t log n - u_n(t), where mu = E|log W| must be finite.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    mu = stick.mean_abs_log()
    if not math.isfinite(mu):
        raise ValueError("centering requires E|log W| < inf")
    logn = math.log(n)
    u = stick.integral_cdf_abs_log1m((1.0 - t) * logn, logn) / mu
    v = t * logn / mu - u
    return u, v


def centering_prw(eta_spec, n, t: float, m: float) -> float:
    """Visit-count centering m^-1 * integral_0^{nt} F_eta(u) du."""
    x = float(n) * t
    return StepLaw.integral_eta_cdf(eta_spec, 0.0, x) / m if x > 0.0 else 0.0
