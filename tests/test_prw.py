import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import chisquare, gamma, poisson

from conftest import full_path_visits
from sievesim.harness import ConfigurationError, ExperimentSpec, ks_two_sample, run_experiment
from sievesim.occupancy import build_environment, rho
from sievesim.prw import (
    StepLaw,
    lln_sup_deviation,
    max_window_count,
    path_from_sticks,
    simulate_path,
    visit_process,
)
from sievesim.sampling import RngStream, StickLaw

DET = StepLaw(("const", 1.0), ("const", 0.5))
EXP_EXP = StepLaw(("exp", 1.0), ("exp", 1.0))


def test_step_law_validation():
    with pytest.raises(ValueError):
        StepLaw(("exp", 0.0), ("exp", 1.0))
    with pytest.raises(ValueError):
        StepLaw(("exp", 1.0), ("const", 0.0))
    with pytest.raises(ValueError):
        StepLaw(("exp", 1.0), ("exp", 1.0), "sharedstick")
    stick = StickLaw.beta(1.0)
    law = StepLaw.shared_stick(stick)
    assert law.mean_xi() == 1.0 and law.var_xi() == 1.0
    assert StepLaw(("pareto", 1.5), ("exp", 1.0)).mean_xi() == 3.0
    assert StepLaw(("pareto", 0.5), ("exp", 1.0)).mean_xi() == math.inf


def count_visits(law, x, rng):
    """N(x) on a fresh walk realised up to x."""
    return simulate_path(law, x, rng).count_visits(x)


def count_renewals(law, t, rng):
    """nu(t) on a fresh walk realised up to t."""
    return simulate_path(law, t, rng).count_renewals(t)


def test_deterministic_visit_and_renewal_counts():
    rng = RngStream(1, 0)
    assert count_visits(DET, 2.0, rng) == 2       # T_k = k - 0.5
    assert count_visits(DET, 0.0, rng) == 0       # eta > 0 a.s.
    assert simulate_path(DET, 0.0, rng).count_renewals(-0.5) == 0
    assert count_renewals(DET, 3.5, rng) == 4     # floor(t) + 1 for unit steps
    assert count_renewals(DET, 3.0, rng) == 4


def test_visit_count_mean_matches_exact_oracle():
    # E N(10) for Exp/Exp: S_k + eta_{k+1} ~ Gamma(k+1), so the exact mean is
    # sum_j P(Gamma(j) <= 10) = 10 (a Poisson-process identity, evaluated
    # independently below).  Note this differs by 1 - e^-10 from the
    # first-order centering integral, which is a centering, not the mean.
    oracle = float(sum(gamma.cdf(10.0, j) for j in range(1, 200)))
    rng = RngStream(2, 0)
    vals = np.array([count_visits(EXP_EXP, 10.0, rng) for _ in range(10**5)], dtype=float)
    se = vals.std() / math.sqrt(len(vals))
    assert abs(vals.mean() - oracle) < 3.0 * se


def test_renewal_count_poisson_chi_square():
    # nu(t) - 1 ~ Poisson(t) for unit-rate exponential steps
    t = 5.0
    rng = RngStream(3, 0)
    draws = np.array([count_renewals(EXP_EXP, t, rng) - 1 for _ in range(10**5)])
    hi = int(draws.max())
    observed = np.bincount(draws, minlength=hi + 1).astype(float)
    expected = poisson.pmf(np.arange(hi + 1), t) * len(draws)
    # merge the tail so expected counts stay above 5
    cut = int(np.searchsorted(np.cumsum(expected[::-1]), 5.0))
    keep = hi + 1 - cut
    obs = np.concatenate([observed[:keep], [observed[keep:].sum()]])
    exp_ = np.concatenate([expected[:keep], [len(draws) - expected[:keep].sum()]])
    stat, p_value = chisquare(obs, exp_)
    assert p_value > 1e-3


def test_visit_process_monotone_and_marginal():
    rng = RngStream(4, 0)
    for _ in range(100):
        path_counts = visit_process(EXP_EXP, 50.0, [0.2, 0.5, 0.7, 1.0], rng)
        assert np.all(np.diff(path_counts) >= 0)
    # marginal at grid {1} agrees with count_visits in distribution; the
    # stated 0.01 threshold needs ~5e4 draws a side to sit above the
    # same-law KS noise floor
    a = np.array([visit_process(EXP_EXP, 30.0, [1.0], RngStream(5, i))[0]
                  for i in range(50000)], dtype=float)
    b = np.array([count_visits(EXP_EXP, 30.0, RngStream(6, i)) for i in range(50000)],
                 dtype=float)
    assert ks_two_sample(a, b) < 0.01


def test_visit_process_increment_decorrelation():
    n = 10**4
    rng = RngStream(7, 0)
    vals = np.array([visit_process(EXP_EXP, n, [0.5, 1.0], rng) for _ in range(10**4)],
                    dtype=float)
    first = vals[:, 0]
    second = vals[:, 1] - vals[:, 0]
    corr = np.corrcoef(first, second)[0, 1]
    assert abs(corr) < 0.05


def test_lln_uniform_deterministic_and_trend():
    rng = RngStream(8, 0)
    grid = (0.25, 0.5, 0.75, 1.0)
    for _ in range(3):  # deterministic walk: exact O(1/n)
        assert lln_sup_deviation(simulate_path(DET, 1000.0, rng), 1000.0, grid, 1.0) <= 2e-3
    rep2 = run_experiment(ExperimentSpec(target="P31", n_values=(100, 1000, 10**4),
                                         replicates=200, grid=grid, seed=8))
    meds = [r["median"] for r in rep2.rows if "median" in r]
    assert rep2.all_passed() and meds[-1] < meds[0]
    with pytest.raises(ConfigurationError):
        ExperimentSpec(target="P31", xi="pareto", xi_param=0.5, n_values=(100,),
                       replicates=10, grid=(1.0,), seed=8)


def test_lln_uniform_t_zero_contributes_nothing():
    rep = run_experiment(ExperimentSpec(target="P31", n_values=(500,), replicates=20,
                                        grid=(0.0,), seed=9))
    assert rep.rows[0]["median"] == 0.0


def test_window_growth_examples():
    rng = RngStream(10, 0)
    for n in (100, 1000):
        for _ in range(5):  # window counts are 0 or 1
            assert max_window_count(simulate_path(DET, n + 0.1, rng), 0.1, n) <= 1
    rep2 = run_experiment(ExperimentSpec(target="P32", n_values=(100, 1000, 10**4),
                                         replicates=200, seed=10, b=1.0, c=0.5))
    qs = [r["q95"] for r in rep2.rows if "q95" in r]
    assert rep2.all_passed() and qs[-1] < qs[0]
    with pytest.raises(ConfigurationError):
        ExperimentSpec(target="P32", n_values=(100,), replicates=10, seed=10, b=-1.0, c=0.5)


def test_visit_increment_bound_examples():
    rep = run_experiment(ExperimentSpec(target="P33", x_values=(0.0, 5.0),
                                        y_values=(0.0, 1.0, 2.0), replicates=400, seed=11))
    assert rep.all_passed()
    by_key = {(r["x"], r["y"]): r for r in rep.rows if "lhs" in r}
    assert by_key[(0.0, 0.0)]["lhs"] == 0.0
    assert by_key[(0.0, 0.0)]["u"] >= 1.0  # nu(0) counts S_0 = 0
    # exact Poisson renewal function U(y) = y + 1
    assert abs(by_key[(5.0, 2.0)]["u"] - 3.0) < 0.25
    # monotone in y for fixed x
    assert by_key[(5.0, 1.0)]["lhs"] <= by_key[(5.0, 2.0)]["lhs"] + 1e-12


def test_pathwise_invariants():
    rng = RngStream(12, 0)
    for i in range(50):
        path = simulate_path(EXP_EXP, 30.0, RngStream(13, i))
        for x in (0.0, 1.0, 7.5, 30.0):
            assert path.count_visits(x) <= path.count_renewals(x)
        assert np.all(np.diff(path.s_values) > 0)
    # constant perturbation: N(x) = nu(x - c) pathwise, exactly
    law = StepLaw(("exp", 1.0), ("const", 0.5))
    for i in range(50):
        path = simulate_path(law, 20.0, RngStream(14, i))
        for x in (0.3, 1.0, 5.0, 19.0):
            assert path.count_visits(x) == path.count_renewals(x - 0.5)


def test_shared_stick_matches_environment_rho():
    stick = StickLaw.beta(1.5)
    env = build_environment(stick, 2**-40, RngStream(15, 0))
    path = path_from_sticks(env.sticks)
    for x in np.exp(np.linspace(0.1, 20.0, 40)):
        assert rho(env, float(x)) == path.count_visits(math.log(float(x)))


def test_visit_counts_beyond_horizon_raise():
    path = simulate_path(EXP_EXP, 5.0, RngStream(17, 0))
    with pytest.raises(ValueError):
        path.count_visits(6.0)


# ---------------------------------------------------------------------------
# buffered step draws and scratch reuse, against the allocating numpy forms
# ---------------------------------------------------------------------------


def _allocating_one(spec, rng, size):
    """One marginal's steps from numpy's allocating calls."""
    kind, par = spec
    if kind == "exp":
        return rng.gen.exponential(1.0 / par, size)
    if kind == "const":
        return np.full(size, float(par))
    if kind == "pareto":
        u = rng.gen.random(size)
        u[u == 0.0] = 0.5
        return u ** (-1.0 / par)
    w = par.sample(rng, size)
    return -np.log(w) if kind == "logstick" else -np.log1p(-w)


def _allocating_draw(law, rng, size):
    """Steps from numpy's allocating calls: the reference for StepLaw.draw."""
    if law.dependence == "sharedstick":
        w = law.xi[1].sample(rng, size)
        return -np.log(w), -np.log1p(-w)
    return _allocating_one(law.xi, rng, size), _allocating_one(law.eta, rng, size)


def _allocating_path(law, horizon, rng):
    """The walk built with fresh arrays for every block: the reference for
    simulate_path.  Each block's xi is summed on from the last S; a shared
    stick draws eta with each block's xi, and an independent law draws it
    after the last block, for the kept steps only.  The first block holds
    horizon/m + 6 sigma sqrt(horizon/m)/m + 32 steps, 1.2 horizon/m + 32
    with an infinite variance, 64 with an infinite mean, and at least 64."""
    m, var = law.mean_xi(), law.var_xi()
    if not math.isfinite(m):
        block = 64
    elif math.isfinite(var):
        block = max(64, int(horizon / m + 6.0 * math.sqrt(var * horizon / m) / m) + 32)
    else:
        block = max(64, int(1.2 * horizon / m) + 32)
    shared = law.dependence == "sharedstick"
    s, etas = np.zeros(1), []
    while s[-1] <= horizon:
        if shared:
            xi, eta = _allocating_draw(law, rng, block)
            etas.append(eta)
        else:
            xi = _allocating_one(law.xi, rng, block)
        s = np.concatenate([s, np.cumsum(np.concatenate([[s[-1]], xi]))[1:]])
    kept = int(np.searchsorted(s, horizon, side="right"))  # S_0..S_{K-1} <= horizon
    s = s[: kept + 1]
    eta = np.concatenate(etas)[:kept] if shared else _allocating_one(law.eta, rng, kept)
    return s, s[:-1] + eta


STICK = StickLaw.exp_pareto(1.5)
BUFFERED_LAWS = {
    "exp_0.3": StepLaw(("exp", 0.3), ("exp", 3.0)),
    "exp_3": StepLaw(("exp", 3.0), ("exp", 0.3)),
    "exp_1": EXP_EXP,
    "const": StepLaw(("const", 2.0), ("const", 0.5)),
    **{f"pareto_{a:g}": StepLaw(("pareto", a), ("exp", 1.0)) for a in (0.5, 1.0, 2.0, 3.0)},
    "logstick": StepLaw(("logstick", StickLaw.beta(2.0)), ("log1mstick", STICK)),
    "sharedstick": StepLaw.shared_stick(STICK),
}


@pytest.mark.parametrize("name", list(BUFFERED_LAWS))
def test_buffered_draw_equals_allocating_numpy_bit_for_bit(name):
    law = BUFFERED_LAWS[name]
    rng, ref_rng = RngStream(40, 0), RngStream(40, 0)
    out = (np.empty(1001), np.empty(1001))
    for _ in range(3):  # the stream must also continue identically
        assert law.draw(rng, out) is out
        for got, want in zip(out, _allocating_draw(law, ref_rng, 1001)):
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["exp_0.3", "exp_1", "pareto_1", "pareto_2", "sharedstick"])
def test_simulate_path_equals_allocating_reference(name):
    law = BUFFERED_LAWS[name]
    # pareto_1 has no mean, so it walks 64-step blocks: about 9 of them to 5000
    for i, horizon in enumerate((0.0, 3.0, 50.0, 5000.0)):
        # the stream's next draw pins what the walk consumed: an independent
        # law's last block draws eta for its kept steps only, and a shared
        # stick draws whole blocks
        rng, ref_rng = RngStream(41, i), RngStream(41, i)
        path = simulate_path(law, horizon, rng)
        s, t = _allocating_path(law, horizon, ref_rng)
        assert path.s_values.tobytes() == s.tobytes()
        assert path.t_values.tobytes() == t.tobytes()
        assert rng.gen.random() == ref_rng.gen.random()


def test_one_block_path_is_a_read_only_view_until_the_next_call():
    first = simulate_path(EXP_EXP, 5000.0, RngStream(43, 0))
    t = first.t_values.copy()
    for values in (first.s_values, first.t_values):
        assert values.base is not None and not values.flags.writeable
        with pytest.raises(ValueError):
            values[0] = 1.0
    simulate_path(EXP_EXP, 5000.0, RngStream(43, 1))
    assert not np.array_equal(first.t_values[:5], t[:5])  # the next walk drew over it


def test_visit_process_allocates_no_path():
    # an exp xi walk draws eta_1 and one Poisson count per grid point, so it
    # runs at n = 1e12 too, where a path would take 16 TB; a const xi walk
    # sums its path in the scratch buffers
    for law, n in ((EXP_EXP, 1e5), (EXP_EXP, 1e12), (StepLaw(("const", 1.0), ("exp", 1.0)), 1e5)):
        rng = RngStream(44, 0)
        visit_process(law, n, [0.5, 1.0], rng)  # sizes the scratch buffers
        tracemalloc.start()
        try:
            visit_process(law, n, [0.5, 1.0], rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a fresh s_values and t_values would take about 1.6 MB at n = 1e5
        assert peak < 1 << 20


def test_returned_path_survives_the_next_call():
    # pareto_1 has no mean, so it walks 64-step blocks, several of them to
    # 5000: such a path is copied out of the scratch
    law = BUFFERED_LAWS["pareto_1"]
    first = simulate_path(law, 5000.0, RngStream(42, 0))
    s, t = first.s_values.copy(), first.t_values.copy()
    second = simulate_path(law, 5000.0, RngStream(42, 1))
    assert np.array_equal(first.s_values, s) and np.array_equal(first.t_values, t)
    assert not np.array_equal(second.t_values[:5], t[:5])
    assert first.s_values.base is None and first.t_values.base is None


# ---------------------------------------------------------------------------
# visit_process's sparse draws, against the exact exp/exp law and the full path
# ---------------------------------------------------------------------------


def _eta_cdf_and_integral(eta):
    """P{eta <= x} and the integral of it over [a, b]: closed forms for exp
    and const eta, scipy's quad over the stick's CDF for a log1mstick."""
    kind, par = eta
    if kind == "exp":
        return (lambda x: -math.expm1(-par * x),
                lambda a, b: b - a - (math.exp(-par * a) - math.exp(-par * b)) / par)
    if kind == "const":
        return lambda x: float(x >= par), lambda a, b: max(0.0, b - max(a, par))
    cdf = lambda x: float(par.cdf_abs_log1m(x))
    return cdf, lambda a, b: quad(cdf, a, b, epsabs=1e-12, limit=200)[0]


def _joint_pmf(law, x1, x2, top):
    """Exact P(N(x1) = a, N(x2) - N(x1) = b) for a, b < top, exp(rate) xi and
    an independent eta.

    S_1, S_2, ... are a Poisson process, so the points S_{k-1} + eta_k,
    k >= 2, form a Poisson process with mean measure Lambda(x) = rate
    integral_0^x F_eta, independent of eta_1 (Kingman, Poisson Processes,
    5.2).  So N(x1) is 1{eta_1 <= x1} + Poisson(Lambda(x1)), and the
    increment is 1{x1 < eta_1 <= x2} plus an independent
    Poisson(Lambda(x2) - Lambda(x1)).
    """
    cdf, integral = _eta_cdf_and_integral(law.eta)
    first = poisson.pmf(np.arange(top), law.xi[1] * integral(0.0, x1))
    second = poisson.pmf(np.arange(top), law.xi[1] * integral(x1, x2))
    shift = lambda pmf: np.concatenate(([0.0], pmf[:-1]))
    return (cdf(x1) * np.outer(shift(first), second)
            + (cdf(x2) - cdf(x1)) * np.outer(first, shift(second))
            + (1.0 - cdf(x2)) * np.outer(first, second))


def _joint_chi_square_p(law, counts, grid):
    """Chi-square p-values of each neighbouring pair (N(x1), N(x2) - N(x1))
    of the grid against the exact pmf, over the cells whose expected count
    is at least 5, with the rest merged into one cell."""
    p_values = []
    for i in range(1, len(grid)):
        first, increment = counts[:, i - 1], counts[:, i] - counts[:, i - 1]
        top = max(first.max(), increment.max()) + 2
        observed = np.zeros((top, top))
        np.add.at(observed, (first, increment), 1.0)
        expected = len(first) * _joint_pmf(law, grid[i - 1], grid[i], top)
        cells = expected >= 5.0
        obs = np.append(observed[cells], len(first) - observed[cells].sum())
        exp_ = np.append(expected[cells], len(first) - expected[cells].sum())
        p_values.append(chisquare(obs, exp_).pvalue)
    return p_values


def test_visit_process_matches_the_exact_exp_exp_joint_law():
    # 20,000 replicates of N at x = 15, 16 and 30: the close pair checks one
    # short grid interval, the far pair a long one
    grid = (15.0, 16.0, 30.0)
    counts = np.array([visit_process(EXP_EXP, 1.0, grid, RngStream(50, i)) for i in range(20000)])
    assert min(_joint_chi_square_p(EXP_EXP, counts, grid)) > 1e-3


def test_visit_process_matches_the_exact_joint_law_past_eta_reach():
    # exp(50) eta's tail underflows to 0.0 from x = 745.13 / 50 on: at x = 30
    # and 60 most of the Poisson counts' mean measure lies where F_eta is 1.0
    law = StepLaw(("exp", 0.5), ("exp", 50.0))
    grid = (30.0, 60.0)
    counts = np.array([visit_process(law, 1.0, grid, RngStream(55, i)) for i in range(20000)])
    assert min(_joint_chi_square_p(law, counts, grid)) > 1e-3


EXACT_LAWS = {
    # eta_1 <= 2 never holds: N(2) is 0, and N(2.7) is 1 + Poisson(0.2)
    "const": (StepLaw(("exp", 1.0), ("const", 2.5)), (2.0, 2.7, 12.0)),
    "log1m_beta": (StepLaw(("exp", 2.0), ("log1mstick", StickLaw.beta(0.7))), (0.3, 0.5, 5.0)),
    # eta <= -log(1 - 1/e) ~ 0.459
    "log1m_exppareto": (StepLaw(("exp", 4.0), ("log1mstick", StickLaw.exp_pareto(1.5))),
                        (0.1, 0.3, 4.0)),
}


@pytest.mark.parametrize("name", list(EXACT_LAWS))
def test_visit_process_matches_the_exact_joint_law(name):
    # 20,000 replicates, each pair of neighbouring grid points against the
    # displaced Poisson law, as for exp eta above
    law, grid = EXACT_LAWS[name]
    counts = np.array([visit_process(law, 1.0, grid, RngStream(57, i)) for i in range(20000)])
    assert min(_joint_chi_square_p(law, counts, grid)) > 1e-3


def test_visit_process_has_the_exact_moments_at_depth():
    # E N(x) = x and Var N(x) = x - 1 + e^-x (2 - e^-x) for exp(1) xi and
    # eta (item 4's construction), where no path of n steps could be held.
    # Four standard errors: of the mean sqrt(Var / R), of the variance about
    # Var sqrt(2 / R) for counts this close to normal
    replicates, n = 4000, 1e12
    counts = np.array([visit_process(EXP_EXP, n, [0.5, 1.0], RngStream(56, i))
                       for i in range(replicates)])
    for column, x in ((0, 0.5 * n), (1, n)):
        dev = (counts[:, column] - int(x)).astype(float)  # exact in int64
        var = x - 1.0 + math.exp(-x) * (2.0 - math.exp(-x))
        assert abs(dev.mean()) < 4.0 * math.sqrt(var / replicates)
        assert abs(dev.var(ddof=1) / var - 1.0) < 4.0 * math.sqrt(2.0 / replicates)


ETA_LAWS = {
    **{f"exp_{rate:g}": ("exp", rate) for rate in (0.5, 1.0, 50.0)},
    **{f"const_{c:g}": ("const", c) for c in (0.3, 2.5)},
    **{f"log1m_beta_{theta:g}": ("log1mstick", StickLaw.beta(theta)) for theta in (0.7, 2.0)},
    "log1m_exppareto": ("log1mstick", StickLaw.exp_pareto(1.5)),
}


@pytest.mark.parametrize("name", list(ETA_LAWS))
def test_eta_tail_never_rises_and_is_zero_at_its_reach(name):
    # the thinning walk down takes p_k to fall as k falls, and stops once
    # pbar is 0.0: exact only if the tail never rises.  Every tail here is
    # 0.0 within 2048, where the walk down ends
    law = StepLaw(("exp", 1.0), ETA_LAWS[name])
    tails = np.array([law._eta_tail(y) for y in np.linspace(0.0, 2048.0, 200001).tolist()])
    assert tails[0] == 1.0 and np.all(np.diff(tails) <= 0.0) and tails[-1] == 0.0


INTEGRAL_ETA_LAWS = {
    "exp_0.5": ("exp", 0.5), "exp_3": ("exp", 3.0), "const_2.5": ("const", 2.5),
    **{f"log1m_beta_{theta:g}": ("log1mstick", StickLaw.beta(theta)) for theta in (0.5, 0.7, 2.0, 2.5)},
    **{f"log1m_exppareto_{alpha:g}": ("log1mstick", StickLaw.exp_pareto(alpha))
       for alpha in (0.5, 1.5, 2.0)},
}


@pytest.mark.parametrize("name", list(INTEGRAL_ETA_LAWS))
def test_integral_eta_cdf_matches_40_digit_quadrature(name):
    # against mpmath's tanh-sinh quadrature of F_eta at 40 digits up to 200
    # (with the kinks of const and exppareto eta as break points), plus b -
    # 200 past it, where 1 - F_eta < 1e-21; from [0, 0.3], where a stick's F
    # is s^theta or |log s|^-alpha, to [0, 2^40] and a close pair at 1e12
    eta = INTEGRAL_ETA_LAWS[name]
    kind, par = eta
    with mpmath.workdps(40):
        if kind == "exp":
            cdf = lambda s: -mpmath.expm1(-par * s)
        elif kind == "const":
            cdf = lambda s: mpmath.mpf(s >= par)
        elif par.kind == "beta":
            cdf = lambda s: (-mpmath.expm1(-s)) ** par.theta
        else:
            cdf = lambda s: (-mpmath.log(-mpmath.expm1(-s))) ** -par.alpha if s < kink else 1
        kink = par if kind == "const" else -mpmath.log(-mpmath.expm1(-1))
        for a, b in ((0.0, 0.3), (0.0, 1.0), (0.2, 0.9), (0.0, 7.0), (3.0, 40.0), (0.0, 1e5),
                     (0.0, 1e12), (0.0, 2.0**40), (1e12, 1e12 + 0.5)):
            hi = min(b, 200.0)
            breaks = [a] + sorted(p for p in (kink, 1.0, 10.0, 50.0) if a < p < hi) + [hi]
            exact = (mpmath.quad(cdf, breaks) if a < hi else 0) + max(0.0, b - max(a, 200.0))
            got = StepLaw.integral_eta_cdf(eta, a, b)
            assert abs(got - exact) <= 1e-10 * exact, (a, b, got, exact)


SPARSE_LAWS = {
    # exp xi: the displaced Poisson counts
    "exp_rate_0.5": (StepLaw(("exp", 2.0), ("exp", 0.5)), 20.0, 0.55),
    "const": (StepLaw(("exp", 1.0), ("const", 2.5)), 20.0, 0.55),
    # eta <= -log(1 - 1/e) ~ 0.459, so the close grid points are 0.2 apart
    "log1m_exppareto": (StepLaw(("exp", 4.0), ("log1mstick", StickLaw.exp_pareto(1.5))), 20.0,
                        0.51),
    # any other xi: the thinning walk down, with each eta law's conditional draw
    "log1m_beta": (StepLaw(("logstick", StickLaw.beta(2.0)), ("log1mstick", StickLaw.beta(0.7))),
                   20.0, 0.55),
    "pareto_exp_rate_0.5": (StepLaw(("pareto", 2.5), ("exp", 0.5)), 20.0, 0.55),
    "pareto_const": (StepLaw(("pareto", 2.5), ("const", 2.5)), 20.0, 0.55),
    "const_log1m_exppareto": (StepLaw(("const", 0.25), ("log1mstick", StickLaw.exp_pareto(1.5))),
                              20.0, 0.51),
    # no mean: the walk to 5000 takes about 15 blocks of 64 steps
    "pareto_no_mean": (StepLaw(("pareto", 0.8), ("exp", 0.2)), 5000.0, 0.501),
}


@pytest.mark.parametrize("name", list(SPARSE_LAWS))
def test_visit_process_matches_the_full_path(name):
    # 5,000 replicates a side; 1.95 sqrt(2/5000) = 0.039 is the two-sample
    # KS's 0.1% level under the null, conservative for counts.  The grid
    # includes t = 0 and two points close enough for an accepted step to be
    # carried from one to the next; each grid point and increment is compared.
    law, n, close = SPARSE_LAWS[name]
    grid, replicates = (0.0, 0.5, close, 1.0), 5000
    sparse = np.array([visit_process(law, n, grid, RngStream(51, i)) for i in range(replicates)])
    full = np.array([full_path_visits(law, n, grid, RngStream(52, i))
                     for i in range(replicates)])
    assert np.all(sparse[:, 0] == 0) and np.all(full[:, 0] == 0)  # eta > 0
    for column in (1, 2, 3):
        for a, b in ((sparse[:, column], full[:, column]),
                     (sparse[:, column] - sparse[:, column - 1],
                      full[:, column] - full[:, column - 1])):
            assert ks_two_sample(a.astype(float), b.astype(float)) < 1.95 * math.sqrt(2 / replicates)


def test_walk_down_stops_at_an_underflowed_or_saturated_bound():
    """xi = 20 and eta ~ exp(50), so S = 0, 20, 40 and both steps below
    x = 30 or 35 have T_k <= x but with probability at most e^-500.

    At x = 35 the top index's tail e^-750 underflows to 0, so the walk down
    stops there and draws nothing.  The mass it drops is at most the sum of
    the underflowed tails, e^-750 + e^-1750, each below 2^-1074.  At x = 30
    that tail is e^-500 > 0, and the next skip, Geometric(e^-500), saturates
    at 2^63 - 1 in numpy: one geometric and one acceptance uniform are drawn,
    and the walk down leaves the indices.
    """
    law = StepLaw(("const", 20.0), ("exp", 50.0))
    assert np.random.default_rng(0).geometric(math.exp(-500.0)) == 2**63 - 1
    for i in range(20):
        rng, ref = RngStream(53, i), RngStream(53, i)
        assert visit_process(law, 35.0, [1.0], rng).tolist() == [2]
        assert rng.gen.random() == ref.gen.random()
        rng, ref = RngStream(54, i), RngStream(54, i)
        assert visit_process(law, 30.0, [1.0], rng).tolist() == [2]
        ref.gen.geometric(math.exp(-500.0))
        ref.gen.random(1)
        assert rng.gen.random() == ref.gen.random()


@pytest.mark.parametrize("xi", [("pareto", 0.5), ("pareto", 1.0), ("pareto", 1.5),
                                ("logstick", StickLaw.exp_pareto(0.8)), ("exp", 2.0)])
def test_mean_steps_brackets_the_mean_renewal_count(xi):
    # U(x) = E #{k >= 0 : S_k <= x} lies in [x/m(x), 2 x/m(x)], m(x) = E min(xi, x)
    # (Erickson 1973), which mean_steps is for an infinite mean; for a finite
    # mean m it is x/m, and U(x) >= x/m.  Each mean is over 4,000 walks; the
    # margins of 5% are several of its standard errors
    law = StepLaw(xi, ("exp", 1.0))
    rng = RngStream(61, 0)
    for x in (10.0, 1e4):
        mean = np.mean([simulate_path(law, x, rng).count_renewals(x) for _ in range(4000)])
        steps = law.mean_steps(x)
        assert 0.95 * steps <= mean, (x, mean, steps)
        if not math.isfinite(law.mean_xi()):
            assert mean <= 2.0 * 1.05 * steps, (x, mean, steps)
