import math
import time

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import betainc

from conftest import sample_inverse_subordinator_path
from sievesim.harness import ExperimentSpec, _process_scale, _reference, ks_two_sample
from sievesim.limits import (
    _passage_pair,
    centering_prw,
    centering_u_v,
    log_normalizer,
    normal_cdf,
    sample_inverse_ratio,
    sample_inverse_reversal,
)
from sievesim.sampling import (
    RngStream,
    StickLaw,
    sample_inverse_subordinator_marginal,
    sample_spectrally_negative_stable,
)


def test_reversal_at_t1_matches_marginal():
    # left limit at level 0 is 0, so the reversal at t=1 is the passage time
    # itself; the path-based sampler must agree with the exact marginal
    rev = sample_inverse_reversal(0.5, 1.0, RngStream(2, 0), 10**4)
    marg = np.asarray(sample_inverse_subordinator_marginal(0.5, 1.0, RngStream(2, 1), 10**4))
    assert ks_two_sample(rev, marg) < 0.02
    assert np.all(rev >= 0.0)


def test_ratio_bounds_and_atom():
    rat = sample_inverse_ratio(0.5, 0.5, RngStream(3, 0), 4000)
    assert np.all((rat >= 0.0) & (rat <= 1.0))
    # one jump straddling both levels leaves no inner passage point: the
    # exact atom at 0 is (2/pi) arcsin(sqrt(1/2)) = 1/2 for alpha = 1/2
    assert abs(float(np.mean(rat == 0.0)) - 0.5) < 0.03


def test_reversal_marginals_stochastically_ordered():
    # one path evaluated at several levels gives pathwise monotonicity, hence
    # empirical CDF dominance across the grid with no slack needed
    ts = [0.2, 0.4, 0.6, 0.8, 1.0]
    levels = sorted(1.0 - t for t in ts) + [1.0]
    draws = {t: np.empty(3000) for t in ts}
    for i in range(3000):
        path_vals = sample_inverse_subordinator_path(0.5, levels, 1e-3, RngStream(4, i))
        inv = dict(zip(levels, path_vals))
        for t in ts:
            draws[t][i] = inv[1.0] - inv[1.0 - t]
    grid_x = np.linspace(0.0, 3.0, 60)
    prev_cdf = None
    for t in ts:
        cdf = np.array([np.mean(draws[t] <= x) for x in grid_x])
        if prev_cdf is not None:
            assert np.all(cdf <= prev_cdf + 0.02)
        prev_cdf = cdf


def test_normal_cdf_values_and_accuracy():
    assert normal_cdf(0.0) == 0.5
    for x in (0.3, 1.2345, 2.5, 4.0):
        assert abs(normal_cdf(x) + normal_cdf(-x) - 1.0) < 1e-12
    # quantile pinned by high-precision quadrature of the Gaussian density
    target = float(0.5 + mpmath.quad(lambda s: mpmath.npdf(s), [0, 1.959964]))
    assert abs(normal_cdf(1.959964) - target) < 1e-6
    for x in np.linspace(-8.0, 8.0, 33):
        assert abs(normal_cdf(float(x)) - float(mpmath.ncdf(x))) < 1e-10


def test_normalizer_exact_and_log_cases():
    # the stable regime's c(x) = x**(1/alpha) (ell = 1) is written inline
    assert abs(_process_scale(2, 1.0, math.inf, 8.0, 1.5) - 4.0) < 1e-12
    for x in (3.0, 10.0, 1e3, 1e6, 1e18):
        c = log_normalizer(x)
        assert abs(c**-2.0 * x * 2.0 * math.log(c) - 1.0) < 1e-9
        assert c > math.sqrt(x)  # the larger root
    # no root below x = e, and math.e lies below e
    for x in (0.0, 0.5, 2.0, math.e):
        with pytest.raises(ValueError):
            log_normalizer(x)


def _larger_log_root(x: float):
    """The larger root of c**2 = 2 x log c to 40 digits: Newton's method in
    mpmath from sqrt(2 x log x), run until a step moves it by under 1e-38."""
    with mpmath.workdps(40):
        x = mpmath.mpf(x)
        c = mpmath.sqrt(2 * x * mpmath.log(x))
        while True:
            nxt = c - (c * c - 2 * x * mpmath.log(c)) / (2 * c - 2 * x / c)
            if abs(nxt - c) < mpmath.mpf(10) ** -38 * c:
                return nxt
            c = nxt


@pytest.mark.parametrize("x", [2.7183, 2.72, 2.75, 3.0, 10.0, 1e4, 1e16])
def test_log_normalizer_matches_40_digit_roots(x):
    # near the double root at x = e the root's condition number grows like
    # (x - e)^(-1/2): at x = 2.7183 the error is 4.4e-15 relative
    c = log_normalizer(x)
    assert float(abs(c - _larger_log_root(x))) < 1e-14 * c


def test_normalizer_grows_faster_than_sqrt():
    ratios = [log_normalizer(x) / math.sqrt(x) for x in (1e2, 1e4, 1e6)]
    assert ratios[0] < ratios[1] < ratios[2]


def test_centering_u_v_closed_form_and_identity():
    assert centering_u_v(StickLaw.beta(1.0), 1000, 0.0) == (0.0, 0.0)
    for n in (100, 10**6):
        u, _ = centering_u_v(StickLaw.beta(1.0), n, 1.0)
        assert abs(u - (math.log(n) - 1.0 + 1.0 / n)) < 1e-10
    # oracle: adaptive quadrature of the same integrand
    for theta, n, t in ((2.0, 10**4, 0.7), (0.5, 10**5, 0.4), (1.0, 10**3, 0.9)):
        law = StickLaw.beta(theta)
        lo, hi = (1.0 - t) * math.log(n), math.log(n)
        oracle = quad(lambda s: (1.0 - math.exp(-s)) ** theta, lo, hi,
                      epsabs=1e-12, epsrel=1e-12)[0] * theta
        u, v = centering_u_v(law, n, t)
        assert abs(u - oracle) < 1e-8
        assert abs(u + v - t * math.log(n) * theta) < 1e-10
    rng = RngStream(5, 0)
    for _ in range(20):
        theta = float(rng.gen.uniform(0.3, 3.0))
        n = int(rng.gen.integers(10, 10**9))
        t = float(rng.gen.uniform(0.0, 1.0))
        u, v = centering_u_v(StickLaw.beta(theta), n, t)
        assert abs(u + v - t * math.log(n) * theta) < 1e-10 * max(1.0, t * math.log(n) * theta)


def test_centering_u_v_exppareto():
    law = StickLaw.exp_pareto(1.5)
    n, t = 10**6, 0.6
    lo, hi = (1.0 - t) * math.log(n), math.log(n)
    oracle = quad(lambda s: float(law.cdf_abs_log1m(s)), lo, hi,
                  epsabs=1e-11, epsrel=1e-11, limit=200)[0] / law.mean_abs_log()
    u, _ = centering_u_v(law, n, t)
    assert abs(u - oracle) < 1e-8
    with pytest.raises(ValueError):
        centering_u_v(StickLaw.exp_pareto(0.5), 100, 0.5)  # infinite mean


def test_centering_u_monotone_in_t():
    for law in (StickLaw.beta(0.7), StickLaw.exp_pareto(1.5)):
        us = [centering_u_v(law, 10**6, t)[0] for t in np.linspace(0, 1, 11)]
        assert all(b >= a - 1e-12 for a, b in zip(us, us[1:]))


def test_centering_prw_forms():
    assert centering_prw(("exp", 1.0), 10.0, 0.0, 1.0) == 0.0
    assert abs(centering_prw(("exp", 1.0), 10.0, 1.0, 1.0)
               - (10.0 - 1.0 + math.exp(-10.0))) < 1e-12
    assert centering_prw(("const", 2.0), 1.0, 1.0, 1.0) == 0.0
    assert abs(centering_prw(("const", 2.0), 10.0, 1.0, 2.0) - 4.0) < 1e-12
    stick = StickLaw.beta(1.0)
    oracle = quad(lambda u: float(stick.cdf_abs_log1m(u)), 0.0, 7.0)[0]
    assert abs(centering_prw(("log1mstick", stick), 7.0, 1.0, 1.0) - oracle) < 1e-8


def test_stable_marginal_self_similarity():
    # code-path identity plus a sanity KS between the two routes
    a = _reference(ExperimentSpec(target="A3", alpha=1.5, seed=6), False, 0, 0, 0.3, 10**4)
    b = 0.3 ** (1.0 / 1.5) * sample_spectrally_negative_stable(1.5, RngStream(6, 1), 10**4)
    assert ks_two_sample(a, b) < 0.02


def test_ratio_law_edge_times():
    assert np.all(sample_inverse_ratio(0.5, 0.0, RngStream(7, 0), 100) == 0.0)
    assert np.all(sample_inverse_ratio(0.5, 1.0, RngStream(7, 1), 100) == 1.0)
    assert np.all(sample_inverse_reversal(0.5, 0.0, RngStream(7, 2), 100) == 0.0)


def _ks_critical(n, m):
    """Two-sample KS critical value at level 1% (Smirnov's asymptotic form)."""
    return math.sqrt(-0.5 * math.log(0.005) * (n + m) / (n * m))


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
def test_exact_passage_matches_independent_constructions(alpha):
    # each passage time against the closed-form marginal at its level, the
    # reversal and the ratio against one lattice path per draw, and the atom
    # against the undershoot law: one jump crosses 1 - t and 1 exactly when the
    # undershoot at level 1 lies below 1 - t, P = I_{1-t}(alpha, 1 - alpha)
    n, m = 20000, 2000
    step = 1e-4 if alpha == 0.8 else 1e-3
    paths = np.array([sample_inverse_subordinator_path(alpha, [0.3, 0.7, 1.0], step,
                                                       RngStream(40, i)) for i in range(m)])
    for k, t in enumerate((0.3, 0.7)):
        lo, hi = _passage_pair(alpha, 1.0 - t, RngStream(41, k), n)
        marg_lo = sample_inverse_subordinator_marginal(alpha, 1.0 - t, RngStream(42, k), n)
        marg_hi = sample_inverse_subordinator_marginal(alpha, 1.0, RngStream(43, k), n)
        assert ks_two_sample(lo, marg_lo) < _ks_critical(n, n)
        assert ks_two_sample(hi, marg_hi) < _ks_critical(n, n)
        lat_lo, lat_hi = paths[:, 1 - k], paths[:, 2]
        lat_ratio = 1.0 - np.divide(lat_lo, lat_hi, out=np.ones(m), where=lat_hi > lat_lo)
        rev = sample_inverse_reversal(alpha, t, RngStream(44, k), n)
        ratio = sample_inverse_ratio(alpha, t, RngStream(45, k), n)
        assert ks_two_sample(rev, lat_hi - lat_lo) < _ks_critical(n, m)
        assert ks_two_sample(ratio, lat_ratio) < _ks_critical(n, m)
        atom = betainc(alpha, 1.0 - alpha, 1.0 - t)
        assert abs(np.mean(ratio == 0.0) - atom) < 4.0 * math.sqrt(atom * (1.0 - atom) / n)


def test_exact_passage_at_extreme_indices():
    for alpha in (0.05, 0.95, 0.99):
        for t in (0.3, 0.7):
            lo, hi = _passage_pair(alpha, 1.0 - t, RngStream(46, 0), 10**4)
            assert np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))
            rev = sample_inverse_reversal(alpha, t, RngStream(46, 1), 10**4)
            ratio = sample_inverse_ratio(alpha, t, RngStream(46, 2), 10**4)
            assert np.all(np.isfinite(rev)) and np.all(rev >= 0.0)
            assert np.all(np.isfinite(ratio)) and np.all((ratio >= 0.0) & (ratio <= 1.0))
    # a lattice walk's cell increments step**(1/alpha) underflow to 0 at
    # alpha = 0.01, so it never passes level 1; the exact draws do not walk
    start = time.perf_counter()
    ratio = sample_inverse_ratio(0.01, 0.5, RngStream(46, 3), 10**4)
    assert ratio.shape == (10**4,) and time.perf_counter() - start < 10.0
