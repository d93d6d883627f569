import math
from functools import partial

import mpmath
import numpy as np
import pytest
from scipy.special import digamma
from scipy.stats import chi2_contingency, kstwobign

from conftest import (
    empirical_type_tv,
    esf_probability,
    exact_cycle_type_probs,
    partitions,
    sample_cycles_crp,
)
from sievesim import ewens
from sievesim.ewens import (
    CycleCounts,
    _log_gap_remainder,
    _next_indicator,
    c_process,
    sample_cycles_feller,
)
from sievesim.harness import (
    DEFAULT_THRESHOLDS,
    _cycle_stat,
    _run_replicates,
    _sieve_stat,
    _stat_replicate,
    ks_two_sample,
)
from sievesim.sampling import RngStream, StickLaw


def _cycle_columns(n, theta, grid, seed, stream_base, reps):
    """C_n(t) of replicates 0..reps-1, as the harness draws them for EQ and ESF_FLT."""
    stat = partial(_cycle_stat, n, theta, grid)
    return np.asarray(_run_replicates(partial(_stat_replicate, stat, seed, stream_base),
                                      reps, 1), float)


def _box_columns(n, theta, grid, seed, stream_base, reps):
    """K_n(t) of replicates 0..reps-1 of the beta(theta) sieve."""
    stat = partial(_sieve_stat, StickLaw.beta(theta), n, grid, False)
    return np.asarray([r[0] for r in _run_replicates(
        partial(_stat_replicate, stat, seed, stream_base), reps, 1)], float)


def test_crp_trivial_and_large_theta():
    rng = RngStream(1, 0)
    assert sample_cycles_crp(1, 1.0, rng).counts == {1: 1}
    singles = sum(sample_cycles_crp(10, 1e6, rng).counts.get(1, 0) == 10
                  for _ in range(10**4))
    assert singles / 10**4 > 0.99


def test_crp_matches_exact_esf():
    exact = exact_cycle_type_probs(5, 1.5)
    rng = RngStream(2, 0)
    samples = [sample_cycles_crp(5, 1.5, rng).cycle_type() for _ in range(10**5)]
    assert empirical_type_tv(samples, exact) < 0.02


def test_feller_trivial_and_three_cycle():
    rng = RngStream(3, 0)
    assert sample_cycles_feller(1, 1.0, rng).counts == {1: 1}
    # theta != 1 searches G_i(j) in floats instead of the integer ceiling
    assert sample_cycles_feller(1, 2.0, RngStream(3, 1)).counts == {1: 1}
    # uniform permutation of 3 elements contains a 3-cycle with prob 1/3
    hits = sum(sample_cycles_feller(3, 1.0, rng).counts.get(3, 0) == 1
               for _ in range(10**5))
    assert abs(hits / 10**5 - 1.0 / 3.0) < 0.01


def test_feller_matches_crp_chi_square():
    n, theta, draws = 6, 2.0, 10**5
    rng_a = RngStream(4, 0)
    rng_b = RngStream(4, 1)
    types = sorted(exact_cycle_type_probs(n, theta))
    index = {typ: i for i, typ in enumerate(types)}
    table = np.zeros((2, len(types)))
    for _ in range(draws):
        table[0, index[sample_cycles_crp(n, theta, rng_a).cycle_type()]] += 1
        table[1, index[sample_cycles_feller(n, theta, rng_b).cycle_type()]] += 1
    keep = table.sum(axis=0) >= 10
    _, p_value, _, _ = chi2_contingency(table[:, keep])
    assert p_value > 1e-3


def test_esf_probability_values():
    assert esf_probability(CycleCounts(1, 1.0, {1: 1})) == pytest.approx(1.0)
    # identity permutation under theta=1 is one of 3! equally likely outcomes
    assert esf_probability(CycleCounts(3, 1.0, {1: 3})) == pytest.approx(1.0 / 6.0)
    with pytest.raises(ValueError):
        CycleCounts(4, 1.0, {1: 2, 3: 1})  # lengths sum to 5, not 4


@pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
def test_esf_normalization(theta):
    total = sum(esf_probability(CycleCounts(6, theta, dict(c)))
                for c in partitions(6))
    assert abs(total - 1.0) < 1e-12


def test_c_process_examples():
    counts = CycleCounts(6, 1.0, {1: 2, 4: 1})
    assert c_process(counts, [0.0, 0.5, 1.0]).tolist() == [2, 2, 3]
    ident = CycleCounts(5, 1.0, {1: 5})
    assert np.all(c_process(ident, np.linspace(0, 1, 7)) == 5)
    assert c_process(counts, [1.0])[0] == counts.num_cycles()


def test_cycle_length_sum_invariant():
    rng = RngStream(5, 0)
    for i in range(200):
        for draw in (sample_cycles_crp, sample_cycles_feller):
            cc = draw(50, 0.7, rng)
            assert sum(r * c for r, c in cc.counts.items()) == 50
            assert all(c >= 0 for c in cc.counts.values())


def test_crp_feller_agree_at_n_1000():
    # two-sample KS on the number of cycles at the stated 1e4 draws a side
    crp = np.asarray([sample_cycles_crp(1000, 1.0, RngStream(6, r)).num_cycles()
                      for r in range(10**4)], float)
    fel = _cycle_columns(1000, 1.0, (1.0,), 6, 1 << 16, 10**4)[:, 0]
    assert ks_two_sample(crp, fel) < 0.02


@pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
def test_sieve_equality_on_grid(theta):
    # the cycle process and the beta-stick box process share one law; the
    # Feller sampler carries the cycle side (validated against CRP above)
    n, reps = 1000, 5000
    grid = (0.2, 0.4, 0.6, 0.8, 1.0)
    fel = _cycle_columns(n, theta, grid, 7, 0, reps)
    sieve = _box_columns(n, theta, grid, 7, 1 << 16, reps)
    for j in range(len(grid)):
        assert ks_two_sample(fel[:, j], sieve[:, j]) < 0.04


def _dense_feller(n, theta, rng):
    """The Feller coupling drawn densely, one Bernoulli indicator per position:
    an independent oracle for the sampler, which jumps between indicators."""
    i = np.arange(1, n + 1, dtype=float)
    ones = np.flatnonzero(rng.gen.random(n) < theta / (theta + i - 1.0)) + 1
    lengths, counts = np.unique(np.diff(np.append(ones, n + 1)), return_counts=True)
    return CycleCounts(n, theta, dict(zip(lengths.tolist(), counts.tolist())))


def test_feller_draw_depends_only_on_its_stream():
    cases = [(500, 1.0), (500, 1.0), (37, 2.5), (500, 0.7), (8, 1.0), (10**12, 20.0)]
    first = [sample_cycles_feller(n, theta, RngStream(9, k)).counts
             for k, (n, theta) in enumerate(cases)]
    # the same streams again, in reverse order and with other draws in between
    for k, (n, theta) in reversed(list(enumerate(cases))):
        sample_cycles_feller(10**6, 1.3, RngStream(9, 100 + k))
        assert sample_cycles_feller(n, theta, RngStream(9, k)).counts == first[k]


@pytest.mark.parametrize("theta", [0.5, 1.0, 2.5])
def test_feller_cycle_count_law_at_n_1e4(theta):
    # the cycle count is a sum of independent Bernoulli(p_i) indicators, so
    # its mean, variance and fourth cumulant are exact sums
    n, draws, dense_draws = 10**4, 20000, 5000
    rng = RngStream(21, 0)
    samples = [sample_cycles_feller(n, theta, rng) for _ in range(draws)]
    k = np.array([s.num_cycles() for s in samples], float)
    p = theta / (theta + np.arange(n))
    mean, var = theta * (digamma(theta + n) - digamma(theta)), float(np.sum(p * (1 - p)))
    assert abs(mean - np.sum(p)) < 1e-9
    kappa4 = float(np.sum(p * (1 - p) * (1 - 6 * p * (1 - p))))
    assert abs(k.mean() - mean) < 4 * math.sqrt(var / draws)
    assert abs(k.var(ddof=1) - var) < 4 * math.sqrt((kappa4 + 2 * var**2) / draws)
    # C_n(0.5) against the dense construction, at the Kolmogorov 1e-3 quantile
    sparse = [c_process(s, (0.5,))[0] for s in samples]
    rng_d = RngStream(21, 1)
    dense = [c_process(_dense_feller(n, theta, rng_d), (0.5,))[0] for _ in range(dense_draws)]
    bound = kstwobign.isf(1e-3) * math.sqrt((draws + dense_draws) / (draws * dense_draws))
    assert ks_two_sample(sparse, dense) < bound


def test_gap_remainder_matches_mpmath():
    # R(x) = log(poch(x, theta)/x^theta) across the recurrence, the switch to
    # the asymptotic form at max(32, 8 theta) and up to 2^53; a difference of
    # lgamma values loses every digit of R at large x, and scipy's poch is
    # off by up to 1.6e-11.  Then theta = 20, whose poch would overflow near
    # 2^53, keeps its exact mean cycle count.
    xs = [1.0, 1.5, 2.0, 7.5, 15.0, 31.0, 32.0, 33.0, 159.0, 160.0, 161.0, 299.0, 300.0,
          301.0] + [float(round(10.0**e)) for e in np.arange(0.25, 16.0, 0.25)] + [2.0**53]
    with mpmath.workdps(50):
        for theta in (0.05, 0.7, 2.5, 20.0, 37.5):
            for x in xs:
                mx, mt = mpmath.mpf(x), mpmath.mpf(theta)
                exact = float(mpmath.loggamma(mx + mt) - mpmath.loggamma(mx) - mt * mpmath.log(mx))
                assert abs(_log_gap_remainder(x, theta) - exact) <= 1e-14 * abs(exact), (theta, x)
    n, theta, draws = 10**4, 20.0, 2000
    rng = RngStream(22, 0)
    k = np.array([sample_cycles_feller(n, theta, rng).num_cycles() for _ in range(draws)], float)
    p = theta / (theta + np.arange(n))
    assert abs(k.mean() - np.sum(p)) < 4 * math.sqrt(np.sum(p * (1 - p)) / draws)


@pytest.mark.parametrize("theta", [0.05, 0.7, 2.5, 20.0, 37.5])
def test_memoised_gap_remainder_is_bit_identical(theta):
    # R is memoised below its switch to the asymptotic form at max(32, 8 theta),
    # where a Feller walk probes the same x over and over; visit x downwards,
    # upwards and downwards again, so the cache fills in every order, and
    # compare each value with a fresh run of the recurrence
    memo = ewens._log_gap_remainder_below
    switch = max(32.0, 8.0 * theta)
    below = [float(x) for x in range(1, math.ceil(switch))] + [1.5, switch - 0.5]
    memo.cache_clear()
    for x in below[::-1] + below + below[::-1]:
        assert _log_gap_remainder(x, theta) == memo.__wrapped__(x, theta), (theta, x)
    assert memo.cache_info().currsize == len(below)
    for x in (switch, switch + 1.0, 1e6):  # the asymptotic form is not cached
        _log_gap_remainder(x, theta)
    assert memo.cache_info().currsize == len(below)


@pytest.mark.parametrize("theta", [0.7, 2.5, 20.0])
def test_next_indicator_is_exact_at_n_1e12(theta):
    # J is exact when G_i(J) <= u < G_i(J - 1), with G_i(j) = poch(i)/poch(j)
    # at 50 digits: the first 100 decisions along fixed Feller walks that no
    # shortcut settles
    n, decisions, rep = 10**12, [], 0
    while len(decisions) < 100:
        rng, i = RngStream(23, rep), 1
        while i <= n:
            u = rng.gen.random()
            j = _next_indicator(i, n, theta, u)
            if 0.0 < u < i / (i + theta):
                decisions.append((i, u, j))
            i = j
        rep += 1
    with mpmath.workdps(50):
        def gap(i, j):
            return mpmath.rf(i, theta) / mpmath.rf(j, theta)

        for i, u, j in decisions:
            assert j == n + 1 or gap(i, j) <= u, (i, u, j)
            assert j == i + 1 or gap(i, j - 1) > u, (i, u, j)


def test_sieve_equality_beyond_the_dense_range():
    # n = 1e12 is out of reach of n uniforms per replicate.  eq_ks is
    # calibrated at 5000 replicates a side; the same Kolmogorov level at 2000
    # a side is eq_ks * sqrt(5000/2000)
    n, reps, grid = 10**12, 2000, (0.5, 1.0)
    fel = _cycle_columns(n, 1.0, grid, 31, 0, reps)
    sieve = _box_columns(n, 1.0, grid, 31, 1 << 16, reps)
    bound = DEFAULT_THRESHOLDS["eq_ks"] * math.sqrt(5000 / reps)
    for j in range(len(grid)):
        assert ks_two_sample(fel[:, j], sieve[:, j]) < bound


@pytest.mark.parametrize("theta", [1.0, 2.5])
def test_feller_reaches_n_2_53_exactly(theta):
    cycles = sample_cycles_feller(2**53, theta, RngStream(10, 0))
    assert sum(r * c for r, c in cycles.counts.items()) == 2**53
    with pytest.raises(ValueError):
        sample_cycles_feller(2**53 + 1, theta, RngStream(10, 0))


def test_sampler_validation():
    with pytest.raises(ValueError):
        sample_cycles_crp(0, 1.0, RngStream(0, 0))
    with pytest.raises(ValueError):
        sample_cycles_feller(5, -1.0, RngStream(0, 0))


def test_cycle_counts_serialization():
    cc = sample_cycles_crp(40, 1.3, RngStream(8, 0))
    back = CycleCounts.from_json(cc.to_json())
    assert back.counts == cc.counts and back.n == cc.n and back.theta == cc.theta
