import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import levy_stable

from conftest import (
    cms_positive_stable,
    exact_binomial_pmf,
    sample_inverse_subordinator_path,
    sample_positive_stable,
    spectrally_negative_cf,
)
from sievesim.harness import ks_one_sample, ks_two_sample
from sievesim.sampling import (
    RngStream,
    _block_state,
    ScratchSlot,
    StickLaw,
    binomial_regime,
    sample_binomial,
    sample_inverse_subordinator_marginal,
    sample_spectrally_negative_stable,
    sample_standard_positive_stable,
)


# ---------------------------------------------------------------------------
# streams
# ---------------------------------------------------------------------------


def test_stream_determinism_and_independence():
    a = RngStream(123, 5).gen.random(1000)
    b = RngStream(123, 5).gen.random(1000)
    assert np.array_equal(a, b)
    c = RngStream(123, 6).gen.random(1000)
    d = RngStream(124, 5).gen.random(1000)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def _numpy_stream(seed, stream_id):
    """The oracle: PCG64 seeded through numpy's own SeedSequence."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream_id,))
    return np.random.Generator(np.random.PCG64(ss))


def _same_draws(seed, stream_id):
    return np.array_equal(RngStream(seed, stream_id).gen.random(8),
                          _numpy_stream(seed, stream_id).random(8))


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**130 + 1])
def test_stream_draws_what_seedsequence_seeds(seed):
    # block edges, one- and two-word ids, the reference base 2^40 and a
    # three-word id; seeds of one to five words
    for stream_id in (0, 1023, 1024, 2**20 + 7, 2**32 - 1, 2**32, 2**40 + 4096 + 65,
                      2**64 - 1):
        assert _same_draws(seed, stream_id), (seed, stream_id)


def test_evicted_stream_blocks_are_rebuilt():
    blocks = _block_state.cache_info().maxsize + 3
    pairs = [(seed, 1024 * block + offset) for block in range(blocks)
             for seed in (5, 2**33 + 1) for offset in (0, 517, 1023)]
    _block_state.cache_clear()
    for seed, stream_id in pairs[::2] + pairs[1::2] + pairs[::-1]:
        assert _same_draws(seed, stream_id), (seed, stream_id)
    assert _block_state.cache_info().misses > 2 * blocks  # some blocks were built twice


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 2**80), st.integers(0, 2**70))
def test_stream_matches_seedsequence_property(seed, stream_id):
    assert _same_draws(seed, stream_id)


@pytest.mark.parametrize("seed, stream_id", [(-1, 0), (0, -1), (-(2**40), 7), (3, -(2**33))])
def test_negative_seed_or_stream_id_raises(seed, stream_id):
    with pytest.raises(ValueError):
        RngStream(seed, stream_id)


def test_scratch_slot_keeps_its_largest_buffer():
    slot = ScratchSlot(float, bool)
    first = slot.arrays(100)
    assert [(len(a), a.dtype) for a in first] == [(100, np.float64), (100, np.bool_)]
    for size in (64, 100):  # a shorter request, then the first length again
        again = slot.arrays(size)
        assert [len(a) for a in again] == [size, size]
        assert all(np.shares_memory(a, b) for a, b in zip(again, first))


def test_sampler_determinism_bit_identical():
    x = sample_spectrally_negative_stable(1.5, RngStream(9, 2), 500)
    y = sample_spectrally_negative_stable(1.5, RngStream(9, 2), 500)
    assert np.array_equal(x, y)


# ---------------------------------------------------------------------------
# stick laws
# ---------------------------------------------------------------------------


def test_beta_theta_one_is_uniform():
    w = StickLaw.beta(1.0).sample(RngStream(1, 0), 10**6)
    assert abs(float(np.mean(w)) - 0.5) < 0.002
    assert np.all((w > 0.0) & (w < 1.0))


def test_beta_theta_two_mean_abs_log():
    # E|log W| = 1/theta for the beta(theta, 1) stick
    w = StickLaw.beta(2.0).sample(RngStream(2, 0), 10**6)
    assert abs(float(np.mean(-np.log(w))) - 0.5) < 0.002
    assert StickLaw.beta(2.0).mean_abs_log() == 0.5
    assert StickLaw.beta(2.0).var_abs_log() == 0.25


def test_exppareto_exact_tail():
    # P{|log W| > 4} = 4**(-1/2) = 0.5 exactly
    law = StickLaw.exp_pareto(0.5)
    w = law.sample(RngStream(3, 0), 10**6)
    assert abs(float(np.mean(-np.log(w) > 4.0)) - 0.5) < 0.002


def test_stick_one_sample_ks_against_exact_cdf():
    w = StickLaw.beta(2.0).sample(RngStream(4, 0), 10**5)
    assert ks_one_sample(w, lambda x: np.clip(x, 0, 1) ** 2) < 0.01
    # tail index 2 keeps the float-underflow atom at W = 5e-324 below 2e-6;
    # at alpha = 0.5 that atom carries mass 745**-0.5 ~ 0.037 and would
    # dominate any CDF comparison (the atom is a float artifact, not a
    # sampler defect; the alpha = 0.5 tail itself is pinned above)
    we = StickLaw.exp_pareto(2.0).sample(RngStream(5, 0), 10**5)

    def cdf(x):
        x = np.minimum(x, math.exp(-1.0))
        return (-np.log(x)) ** -2.0

    assert ks_one_sample(we, cdf) < 0.01


def test_stick_validation():
    with pytest.raises(ValueError):
        StickLaw.beta(0.0)
    with pytest.raises(ValueError):
        StickLaw.exp_pareto(-1.0)


# ---------------------------------------------------------------------------
# binomial
# ---------------------------------------------------------------------------


def test_binomial_trivial_cases():
    rng = RngStream(7, 0)
    assert sample_binomial(0, 0.3, rng) == 0
    assert sample_binomial(10**6, 1.0, rng) == 10**6
    assert sample_binomial(10**6, 0.0, rng) == 0
    with pytest.raises(ValueError):
        sample_binomial(10, 1.5, rng)
    with pytest.raises(ValueError):
        sample_binomial(-1, 0.5, rng)


def test_binomial_pmf_total_variation():
    # exact PMF recursion is the oracle
    rng = RngStream(8, 0)
    n, p, draws = 20, 0.3, 10**6
    got = np.zeros(n + 1)
    for _ in range(draws):
        got[sample_binomial(n, p, rng)] += 1
    tv = 0.5 * float(np.sum(np.abs(got / draws - exact_binomial_pmf(n, p))))
    assert tv < 0.005


@pytest.mark.parametrize("n,p,expected_regime", [
    (50, 0.1, "inversion"),
    (10**4, 0.3, "btpe"),
    (10**9, 0.5, "btpe"),
])
def test_binomial_regime_moments(n, p, expected_regime):
    assert binomial_regime(n, p) == expected_regime
    rng = RngStream(9, 0)
    draws = 10**5
    xs = np.array([sample_binomial(n, p, rng) for _ in range(draws)], dtype=float)
    mean, var = n * p, n * p * (1.0 - p)
    se_mean = math.sqrt(var / draws)
    assert abs(xs.mean() - mean) < 3.0 * se_mean
    # Var(s^2) = sigma^4 (2/(N-1) + kappa/N) with binomial excess kurtosis
    kappa = (1.0 - 6.0 * p * (1.0 - p)) / var
    se_var = var * math.sqrt(2.0 / (draws - 1) + abs(kappa) / draws)
    assert abs(xs.var(ddof=1) - var) < 3.0 * se_var


@pytest.mark.parametrize("n,p", [
    (60, 0.5), (61, 0.5), (120, 0.75), (121, 0.75),        # n min(p, 1-p) = 30 | 30.25
    (40_000_004, 0.5), (10**9, 0.5), (10**16, 0.3), (1 << 60, 0.5), (1 << 60, 1e-17),
])
def test_sample_binomial_is_one_numpy_draw_up_to_2_60(n, p):
    # the draw sequence the golden digests rest on, also where the sampler
    # once rounded a Gaussian (n p (1-p) > 1e7)
    for stream_id in range(3):
        expected = int(RngStream(12, stream_id).gen.binomial(n, p))
        assert sample_binomial(n, p, RngStream(12, stream_id)) == expected


def test_sample_binomial_above_2_60_sums_chunks_of_2_60():
    for stream_id in range(3):
        gen = RngStream(13, stream_id).gen
        expected = int(gen.binomial(1 << 60, 0.5)) + int(gen.binomial(1, 0.5))
        assert sample_binomial((1 << 60) + 1, 0.5, RngStream(13, stream_id)) == expected


def test_chunked_binomial_variance_at_2_62():
    # one numpy draw at n = 2^62 reads a standardised variance of 1.06 to 1.08
    n, p, draws = 1 << 62, 0.5, 10**5
    rng = RngStream(14, 0)
    z = np.array([sample_binomial(n, p, rng) - (n >> 1) for _ in range(draws)], dtype=float)
    z /= math.sqrt(n * p * (1.0 - p))
    assert abs(z.var(ddof=1) - 1.0) < 4.0 * math.sqrt(2.0 / (draws - 1))


def test_binomial_huge_n_stays_exact_integer():
    rng = RngStream(10, 0)
    n = 1 << 62
    x = sample_binomial(n, 0.5, rng)
    assert isinstance(x, int) and 0 <= x <= n
    y = sample_binomial(n, 1e-18, rng)  # about 4.6 expected successes
    assert 0 <= y < 100


# ---------------------------------------------------------------------------
# positive stable
# ---------------------------------------------------------------------------


def test_positive_stable_laplace_transform():
    d = sample_standard_positive_stable(0.5, RngStream(11, 0), 10**6)
    assert abs(float(np.mean(np.exp(-d))) - math.exp(-1.0)) < 0.002
    w = sample_positive_stable(0.5, RngStream(12, 0), 10**6)
    # Laplace exponent Gamma(1-alpha) z^alpha at z=1; oracle gamma from the
    # standard library, independent of the in-package Lanczos routine
    assert abs(float(np.mean(np.exp(-w))) - math.exp(-math.gamma(0.5))) < 0.003


def test_positive_stable_cross_implementations_agree():
    a = sample_standard_positive_stable(0.5, RngStream(13, 0), 10**5)
    b = cms_positive_stable(0.5, RngStream(13, 1), 10**5)
    assert ks_two_sample(a, b) < 0.01


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
def test_positive_stable_stability_identity(alpha):
    rng = RngStream(14, 0)
    x = sample_positive_stable(alpha, rng, 10**5)
    pair = sample_positive_stable(alpha, rng, 2 * 10**5).reshape(2, -1)
    rescaled = (pair[0] + pair[1]) / 2.0 ** (1.0 / alpha)
    assert ks_two_sample(x, rescaled) < 0.01


def test_positive_stable_rejects_bad_alpha():
    with pytest.raises(ValueError):
        sample_positive_stable(1.2, RngStream(0, 0), 10)


# ---------------------------------------------------------------------------
# spectrally negative stable
# ---------------------------------------------------------------------------


def test_spectrally_negative_zero_mean():
    s = sample_spectrally_negative_stable(1.5, RngStream(15, 0), 10**6)
    se = float(np.std(s)) / 10**3
    assert abs(float(np.mean(s))) < 3.0 * se


def test_spectrally_negative_stability_identity():
    rng = RngStream(16, 0)
    x = sample_spectrally_negative_stable(1.5, rng, 10**5)
    pair = sample_spectrally_negative_stable(1.5, rng, 2 * 10**5).reshape(2, -1)
    assert ks_two_sample(x, (pair[0] + pair[1]) / 2.0 ** (1.0 / 1.5)) < 0.01


def test_spectrally_negative_characteristic_function():
    s = sample_spectrally_negative_stable(1.5, RngStream(17, 0), 10**6)
    target = spectrally_negative_cf(1.5, 1.0)
    emp = np.mean(np.exp(1j * s))
    assert abs(emp.real - target.real) < 0.01
    assert abs(emp.imag - target.imag) < 0.01
    # P{S > 0} against numerical inversion of the characteristic function.
    # (Total negative skew puts the heavy tail on the left, so the median is
    # positive and P{S > 0} comes out near 2/3 at alpha = 1.5.)
    def integrand(u):
        return spectrally_negative_cf(1.5, u).imag / u

    p_pos = 0.5 + quad(integrand, 1e-9, 200.0, limit=400)[0] / math.pi
    assert abs(float(np.mean(s > 0.0)) - p_pos) < 0.005
    assert 0.5 < p_pos < 0.95


def test_spectrally_negative_matches_reference_library():
    # scipy's levy_stable in the S1 parametrization with beta=-1 and the
    # derived scale is an independent implementation of the same law
    s = sample_spectrally_negative_stable(1.5, RngStream(18, 0), 10**5)
    sigma = (math.gamma(-0.5) * math.cos(0.75 * math.pi)) ** (1.0 / 1.5)
    ref = levy_stable.rvs(1.5, -1.0, scale=sigma, size=10**5,
                          random_state=np.random.default_rng(18))
    assert ks_two_sample(s, ref) < 0.01


# ---------------------------------------------------------------------------
# inverse subordinator
# ---------------------------------------------------------------------------


def test_inverse_marginal_self_similarity():
    rng = RngStream(19, 0)
    m4 = np.asarray(sample_inverse_subordinator_marginal(0.5, 4.0, rng, 10**5))
    m1 = np.asarray(sample_inverse_subordinator_marginal(0.5, 1.0, rng, 10**5))
    assert ks_two_sample(m4, 4.0**0.5 * m1) < 0.01


def test_inverse_marginal_against_path_sampler():
    # the closed-form reduction must agree with the discretised path inverse
    marg = np.asarray(sample_inverse_subordinator_marginal(0.5, 1.0, RngStream(20, 0), 10**4))
    paths = np.array([sample_inverse_subordinator_path(0.5, [1.0], 1e-4, RngStream(21, i))[0]
                      for i in range(10**4)])
    assert ks_two_sample(marg, paths) < 0.02


def test_inverse_marginal_mean_against_path_oracle():
    # oracle first: Monte Carlo of the path sampler pins the mean, then the
    # closed-form 1/(Gamma(1.5) Gamma(0.5)) and the marginal sampler must both
    # sit within combined standard errors of it
    paths = np.array([sample_inverse_subordinator_path(0.5, [1.0], 2e-4, RngStream(22, i))[0]
                      for i in range(4000)])
    oracle_mean = float(np.mean(paths))
    oracle_se = float(np.std(paths)) / math.sqrt(len(paths))
    formula = 1.0 / (math.gamma(0.5) * math.gamma(1.5))
    assert abs(formula - oracle_mean) < 3.0 * oracle_se + 2e-4  # mesh bias allowance
    marg = np.asarray(sample_inverse_subordinator_marginal(0.5, 1.0, RngStream(23, 0), 10**5))
    se = float(np.std(marg)) / math.sqrt(len(marg))
    assert abs(float(np.mean(marg)) - formula) < 3.0 * math.hypot(se, oracle_se) + 2e-4


def test_inverse_path_monotone_and_zero_level():
    for i in range(50):
        vals = sample_inverse_subordinator_path(0.5, [0.0, 0.3, 0.7, 1.0, 1.5], 1e-3,
                                                RngStream(24, i))
        assert vals[0] == 0.0  # the first increment is already positive
        assert np.all(np.diff(vals) >= 0.0)


def test_inverse_path_validation():
    with pytest.raises(ValueError):
        sample_inverse_subordinator_path(0.5, [1.0, 0.5], 1e-3, RngStream(0, 0))
    with pytest.raises(ValueError):
        sample_inverse_subordinator_path(0.5, [1.0], -1.0, RngStream(0, 0))
    with pytest.raises(ValueError):
        sample_inverse_subordinator_marginal(0.5, 0.0, RngStream(0, 0), 10)
