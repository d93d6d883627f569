"""Seeded random variate generation for stick-breaking factors, stable laws
and binomials.

Every sampler is a deterministic function of an explicit :class:`RngStream`,
so replicate workers that own distinct ``stream_id`` values can run
concurrently without sharing state.  Exactness guarantees are documented per
sampler; binomials come from numpy's generator at every depth.
"""

import math
import threading
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RngStream",
    "ScratchSlot",
    "StickLaw",
    "binomial_regime",
    "sample_binomial",
    "sample_standard_positive_stable",
    "sample_spectrally_negative_stable",
    "sample_inverse_subordinator_marginal",
]


# ---------------------------------------------------------------------------
# random streams
# ---------------------------------------------------------------------------


class RngStream:
    """Reproducible random stream addressed by (seed, stream_id).

    The same pair always reproduces an identical variate sequence: PCG64
    seeded by SeedSequence(entropy=seed, spawn_key=(stream_id,)).  Distinct
    stream_ids map to distinct spawn keys, which numpy documents as
    statistically independent streams, so replicate workers can each own one
    stream without coordination.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        # numpy.random loads with the first stream, not with the package
        from numpy.random import PCG64, Generator, SeedSequence

        self.seed = int(seed)
        self.stream_id = int(stream_id)
        if self.seed < 0 or self.stream_id < 0:
            raise ValueError("seed and stream_id must be non-negative")
        self.gen = Generator(PCG64(SeedSequence(self.seed, spawn_key=(self.stream_id,))))


class ScratchSlot(threading.local):
    """Reusable work arrays, one set per thread.

    ``arrays(size)`` returns views of exactly ``size`` elements on the
    largest arrays asked for so far, growing them only for a longer request,
    so a replicate loop allocates (and page-faults) them once even when it
    alternates lengths.  The contents belong to the caller only until its
    next call: anything handed further on must be copied out, or be
    documented as valid only until then (a one-block walk path).
    """

    def __init__(self, *dtypes):
        self._dtypes = dtypes
        self._arrays = ()

    def arrays(self, size: int) -> tuple:
        if not self._arrays or len(self._arrays[0]) < size:
            self._arrays = tuple(np.empty(size, dtype=d) for d in self._dtypes)
        return tuple(a[:size] for a in self._arrays)


def _open_unit(gen, size: int) -> np.ndarray:
    """Uniforms in the open interval (0, 1); the endpoint 0 is remapped."""
    u = gen.random(size)
    # counting nonzeros is cheaper than u.all(); the mask is built only when
    # a zero was drawn
    if np.count_nonzero(u) < u.size:
        u[u == 0.0] = 0.5
    return u


# ---------------------------------------------------------------------------
# stick-breaking factor laws
# ---------------------------------------------------------------------------

# every stick is clamped strictly inside (0, 1)
_STICK_BOTTOM = math.nextafter(0.0, 1.0)
_STICK_TOP = math.nextafter(1.0, 0.0)


@dataclass(frozen=True)
class StickLaw:
    """Law of the stick-breaking factor W on (0, 1).

    kinds:
      * ``beta`` -- density theta * x**(theta-1); W = U**(1/theta).
      * ``exppareto`` -- W = exp(-xi) with P{xi > x} = x**(-alpha) for
        x >= 1, so |log W| has an exact power tail.
    """

    kind: str
    theta: float | None = None
    alpha: float | None = None

    def __post_init__(self):
        if self.kind == "beta":
            if self.theta is None or self.theta <= 0.0:
                raise ValueError("beta stick requires theta > 0")
        elif self.kind == "exppareto":
            if self.alpha is None or self.alpha <= 0.0:
                raise ValueError("exppareto stick requires alpha > 0")
        else:
            raise ValueError(f"unknown stick law kind: {self.kind!r}")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def beta(theta: float) -> "StickLaw":
        return StickLaw(kind="beta", theta=float(theta))

    @staticmethod
    def exp_pareto(alpha: float) -> "StickLaw":
        return StickLaw(kind="exppareto", alpha=float(alpha))

    # -- sampling -----------------------------------------------------------

    def sample(self, rng: RngStream, size: int) -> np.ndarray:
        return self.from_unit(_open_unit(rng.gen, size))

    def from_unit(self, u: np.ndarray) -> np.ndarray:
        """The sticks of uniforms u in (0, 1), nondecreasing in u and clamped
        to [2^-1074, 1 - 2^-53], as a fresh array."""
        if self.kind == "beta":
            w = u ** (1.0 / self.theta)
        else:
            w = np.exp(-(u ** (-1.0 / self.alpha)))
        # w is a fresh array here, so it is clamped in place
        return np.minimum(np.maximum(w, _STICK_BOTTOM, out=w), _STICK_TOP, out=w)

    # -- distributional facts used by centerings and environments -----------

    def mean_abs_log(self) -> float:
        """mu = E|log W|; inf when the tail index is <= 1."""
        if self.kind == "beta":
            return 1.0 / self.theta
        if self.alpha <= 1.0:
            return math.inf
        return self.alpha / (self.alpha - 1.0)

    def var_abs_log(self) -> float:
        if self.kind == "beta":
            return 1.0 / self.theta**2
        if self.alpha <= 2.0:
            return math.inf
        a = self.alpha
        return a / ((a - 1.0) ** 2 * (a - 2.0))

    def cdf_abs_log1m(self, s):
        """F_eta(s) = P{|log(1 - W)| <= s}."""
        s = np.asarray(s, dtype=float)
        if self.kind == "beta":
            out = np.where(s > 0.0, (-np.expm1(-np.maximum(s, 0.0))) ** self.theta, 0.0)
        else:
            # eta = -log(1 - exp(-xi)) <= s  iff  xi >= g(s) = -log(1 - e^-s)
            with np.errstate(divide="ignore"):
                g = -np.log(-np.expm1(-np.maximum(s, 1e-320)))
            out = np.where(g <= 1.0, 1.0, np.where(s <= 0.0, 0.0, np.maximum(g, 1.0) ** (-self.alpha)))
        return out if out.shape else float(out)

    def tail_abs_log1m(self, s: float) -> float:
        """P{|log(1 - W)| > s} for s >= 0, free of 1 - F's cancellation; 0
        past s = -log(1 - 1/e) for exppareto sticks."""
        if s <= 0.0:
            return 1.0
        if self.kind == "beta":
            return -math.expm1(self.theta * math.log1p(-math.exp(-s)))
        g = -math.log(-math.expm1(-s))
        return -math.expm1(-self.alpha * math.log(g)) if g > 1.0 else 0.0

    def integral_cdf_abs_log1m(self, a: float, b: float) -> float:
        """Integral of F_eta over [a, b], to a few ulps: F itself up to eta's
        median, and above it b less the integral of the tail 1 - F, which is
        0.0 from s = 38 (beta: 1 - e^-s rounds to 1) or past -log(1 - 1/e)
        (exppareto).  F is not smooth at 0 only (like s^theta, or
        |log s|^-alpha), so the panels are graded toward it."""
        a = max(a, 0.0)
        if b <= a:
            return 0.0
        mid = min(max(-math.log1p(-float(self.from_unit(np.array([0.5]))[0])), a), b)
        cut = 38.0 if self.kind == "beta" else -math.log(-math.expm1(-1.0))
        return (_graded_panels(self.cdf_abs_log1m, a, mid) + (b - mid)
                - _graded_panels(lambda s: 1.0 - self.cdf_abs_log1m(s), mid, min(b, cut)))


def _graded_panels(fn, lo, hi):
    """Integral over [lo, hi] (0 <= lo) of a function smooth but at 0, by
    24-node Gauss-Legendre panels whose right ends double from hi 2^-60 (or
    lo) up to 8 and then step by 8.  A panel no wider than its distance from
    0 converges geometrically; the first, [0, hi 2^-60] when lo is 0, holds
    at most 2^-60 of an increasing fn's integral."""
    if hi <= lo:
        return 0.0
    start = max(lo, hi * 2.0**-60, 1e-300)
    geo = start * 2.0 ** np.arange(max(0, math.ceil(3.0 - math.log2(start))) + 1)
    edges = np.concatenate(([lo], geo[geo < hi], np.arange(min(geo[-1], hi) + 8.0, hi, 8.0), [hi]))
    mid, half = (edges[1:] + edges[:-1]) / 2.0, (edges[1:] - edges[:-1]) / 2.0
    # numpy.polynomial loads here, on the first integral, not with the package
    nodes, weights = np.polynomial.legendre.leggauss(24)
    values = fn((mid[:, None] + half[:, None] * nodes).ravel())
    return float(half @ (values.reshape(len(mid), -1) @ weights))


# ---------------------------------------------------------------------------
# binomial sampling
# ---------------------------------------------------------------------------

# numpy's generator inverts the CDF up to 30 expected successes (or failures)
# and draws by BTPE (Kachitvichyanukul and Schmeiser, Commun. ACM 31(2), 1988)
# above.  Past 2^60 trials its draws overstate the variance (by 2% at 2^61,
# 6-8% at 2^62), so a larger n is drawn as a sum over chunks of at most 2^60.
BINOMIAL_INVERSION_LIMIT = 30.0
BINOMIAL_CHUNK = 1 << 60


def binomial_regime(n: int, p: float) -> str:
    """Which branch numpy's sampler takes for one draw of (n, p)."""
    if n == 0 or p <= 0.0 or p >= 1.0:
        return "degenerate"
    if n * min(p, 1.0 - p) <= BINOMIAL_INVERSION_LIMIT:
        return "inversion"
    return "btpe"


def sample_binomial(n: int, p: float, rng: RngStream) -> int:
    """Binomial(n, p) draw by numpy's sampler, as a Python int.

    n <= 2^60 takes one numpy draw; a larger n (below 2^63 in the sieve)
    takes one per full chunk of 2^60 trials, then one for the rest.  The
    degenerate cases draw nothing.  This is the one definition of the rule:
    occupancy.occupy_sieve and occupy_scheme call it for every box, and
    occupy_sieve_block adds it over the trials past 2^60 to its array draw
    (for every stick law but beta(1), whose blocks draw no binomial).
    """
    n = int(n)
    if n < 0:
        raise ValueError("n must be >= 0")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if n == 0 or p == 0.0 or p == 1.0:
        return n if p == 1.0 else 0
    x = 0
    while n > BINOMIAL_CHUNK:
        x += int(rng.gen.binomial(BINOMIAL_CHUNK, p))
        n -= BINOMIAL_CHUNK
    return x + int(rng.gen.binomial(n, p))


# ---------------------------------------------------------------------------
# stable laws
# ---------------------------------------------------------------------------


def _chambers_mallows_stuck(alpha: float, beta: float, rng: RngStream, size):
    """Strictly stable draw with index alpha != 1, skewness beta and unit
    scale: E exp(iuX) = exp(-|u|**alpha (1 - i beta sign(u) tan(pi alpha/2))).
    Draws the uniform angle, then the exponential."""
    tan_a = math.tan(0.5 * math.pi * alpha)
    b = math.atan(beta * tan_a) / alpha
    s = (1.0 + (beta * tan_a) ** 2) ** (0.5 / alpha)
    v = rng.gen.uniform(-0.5 * math.pi, 0.5 * math.pi, size)
    w = rng.gen.exponential(1.0, size)
    frac = (1.0 - alpha) / alpha
    return s * np.sin(alpha * (v + b)) / np.cos(v) ** (1.0 / alpha) \
        * (np.cos(v - alpha * (v + b)) / w) ** frac


def _kanter(alpha: float, u):
    """Kanter's function K(u) = sin(a u) sin((1-a) u)**((1-a)/a) / sin(u)**(1/a),
    increasing on (0, pi) from K(0+) = a (1-a)**((1-a)/a) to infinity."""
    num = np.sin(alpha * u) * np.sin((1.0 - alpha) * u) ** ((1.0 - alpha) / alpha)
    return num / np.sin(u) ** (1.0 / alpha)


def sample_standard_positive_stable(alpha: float, rng: RngStream, size: int) -> np.ndarray:
    """Standard positive stable draw D with E exp(-z D) = exp(-z**alpha), by
    Kanter's representation D = K(U) E**(-(1-alpha)/alpha)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    u = rng.gen.uniform(0.0, math.pi, size)
    e = rng.gen.exponential(1.0, size)
    return _kanter(alpha, u) * e ** (-((1.0 - alpha) / alpha))


def sample_spectrally_negative_stable(alpha: float, rng: RngStream, size: int) -> np.ndarray:
    """Strictly stable draw with only negative jumps, alpha in (1, 2).

    Realised as scale * X where X is strictly stable with skewness beta = -1
    (CMS algorithm) and scale = (Gamma(1-alpha) * cos(pi alpha/2))**(1/alpha);
    both factors are negative on (1, 2), so the scale is positive.  The
    characteristic function of the result is
    exp(-|u|**alpha Gamma(1-alpha) (cos(pi alpha/2) + i sign(u) sin(pi alpha/2))).
    """
    if not 1.0 < alpha < 2.0:
        raise ValueError("alpha must lie in (1, 2)")
    x = _chambers_mallows_stuck(alpha, -1.0, rng, size)
    sigma = (math.gamma(1.0 - alpha) * math.cos(0.5 * math.pi * alpha)) ** (1.0 / alpha)
    return sigma * x


# ---------------------------------------------------------------------------
# inverse stable subordinator
# ---------------------------------------------------------------------------


def sample_inverse_subordinator_marginal(alpha: float, t: float, rng: RngStream,
                                         size: int) -> np.ndarray:
    """Exact draw of the first-passage time W_alpha^<-(t).

    Uses the reduction W_alpha^<-(t) = t**alpha / (Gamma(1-alpha) * D**alpha)
    with D standard positive stable; validated against the path-based sampler
    in the test suite before anything relies on it.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if t <= 0.0:
        raise ValueError("t must be > 0")
    d = sample_standard_positive_stable(alpha, rng, size)
    return t**alpha / (math.gamma(1.0 - alpha) * d**alpha)
