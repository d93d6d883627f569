import math
from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import chi2, chi2_contingency

from conftest import (
    StickBinomialUniform,
    environment_json,
    exact_cycle_type_probs,
    expected_occupancy_oracle,
    naive_placement,
    ratio_sup_walk,
    sup_abs_difference_walk,
    sup_rho_window_scan,
    window_box_count,
)
from sievesim.harness import (
    ConfigurationError,
    ExperimentSpec,
    _sieve_stat,
    ks_two_sample,
    run_experiment,
)
from sievesim.occupancy import (
    BOUND_CONSTANT_X0,
    DeterministicScheme,
    OccupancyResult,
    SieveEnvironment,
    approximation_bound_rhs,
    approximation_sup,
    build_environment,
    floor_power,
    k_process,
    occupy_scheme,
    occupy_sieve,
    occupy_sieve_block,
    rho,
    _g_jumps,
    _integral_term,
    _k_jumps,
    _ratio_sup_deviation,
    _sup_abs_difference,
    _sup_rho_window,
)
from sievesim.prw import path_from_sticks, simulate_path, StepLaw
from sievesim.sampling import RngStream, StickLaw, sample_binomial


# ---------------------------------------------------------------------------
# floor(n**t)
# ---------------------------------------------------------------------------


def test_floor_power_endpoints_and_guard():
    assert floor_power(10**16, 0.0) == 1
    assert floor_power(10**16, 1.0) == 10**16
    assert floor_power(10**16, 0.5) == 10**8          # exact boundary
    assert floor_power(2**40, 0.25) == 2**10
    assert floor_power(100, 0.5) == 10
    assert floor_power(10, 0.5) == 3
    with pytest.raises(ValueError):
        floor_power(0, 0.5)
    with pytest.raises(ValueError):
        floor_power(10, 1.5)


def test_floor_power_integer_tier_at_and_above_2_62():
    assert floor_power(2**62, 0.5) == 2**31
    assert floor_power(2**64, 0.5) == 2**32
    assert floor_power(3**40, 0.25) == 3**10


@pytest.mark.parametrize("d", [3, 5, 6, 7, 9, 10])
def test_floor_power_decimal_tier_matches_50_digit_mpmath(d):
    """t = j/d as a double has a denominator above 1024, so a perfect d-th
    power n = m^d puts n**t within 1e-9 of an integer in the decimal tier; its
    neighbours m^d +- 1 sit just inside or outside that band."""
    checked = 0
    with mpmath.workdps(50):
        for m in range(2, min(120, int(2 ** (62 / d)))):
            for n in (m**d - 1, m**d, m**d + 1):
                for t in (j / d for j in range(1, d) if 2 * j != d):  # 1/2 is dyadic
                    assert Fraction(t).denominator > 1024
                    y = math.exp(t * math.log(n))
                    checked += abs(y - round(y)) < 1e-9 * y
                    assert floor_power(n, t) == int(mpmath.floor(mpmath.power(n, mpmath.mpf(t))))
    assert checked >= 100


@st.composite
def _dyadic_powers(draw):
    """(n, p, q) with t = p/q dyadic; half the time n is a perfect q-th
    power, where n**t is an integer and a double-precision floor is fragile."""
    q = 2 ** draw(st.integers(0, 10))
    p = draw(st.integers(0, q))
    if draw(st.booleans()):
        n = draw(st.integers(1, max(1, int(2 ** (61.9 / q))))) ** q
    else:
        n = draw(st.integers(1, 2**62 - 1))
    return n, p, q


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_dyadic_powers())
def test_memoised_floor_power_is_the_exact_integer_root(npq):
    n, p, q = npq
    c = floor_power(n, p / q)
    assert c**q <= n**p < (c + 1) ** q
    assert floor_power(n, p / q) == c


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 2**62), st.floats(0.3, 3.0), st.integers(0, 2**32 - 1),
       st.lists(st.floats(0.0, 1.0), max_size=8))
def test_k_process_is_nondecreasing_and_ends_at_k_n(n, theta, seed, ts):
    rng = RngStream(seed, 0)
    occ = occupy_sieve(build_environment(StickLaw.beta(theta), 2**-80, rng), n, rng)
    kp = k_process(occ, sorted(ts) + [1.0])
    assert kp.dtype == np.int64 and np.all(np.diff(kp[:-1]) >= 0)
    assert kp[-2] == kp[-1] == len(occ.counts)
    assert kp[:-1].tolist() == [sum(1 for z in occ.counts.values() if z <= floor_power(n, t))
                                for t in sorted(ts) + [1.0]]


# ---------------------------------------------------------------------------
# environments
# ---------------------------------------------------------------------------


def _cumprod_environment(law, mass, rng):
    """Whole 32-stick blocks until numpy's cumprod over all sticks drawn
    drops below mass, cut at the first cut point below it."""
    sticks = law.sample(rng, 32)
    while np.cumprod(sticks)[-1] >= mass:
        sticks = np.concatenate([sticks, law.sample(rng, 32)])
    return sticks[:int(np.argmax(np.cumprod(sticks) < mass)) + 1].tolist()


_LAWS = {"beta": StickLaw.beta, "exppareto": StickLaw.exp_pareto}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(["beta", "exppareto"]), st.floats(0.3, 3.0), st.integers(1, 200),
       st.integers(0, 2**32 - 1))
def test_build_environment_stops_at_the_first_resolving_stick(kind, param, log2_mass, seed):
    law = _LAWS[kind](param)
    env = build_environment(law, 2.0**-log2_mass, RngStream(seed, 0))
    assert env.sticks == _cumprod_environment(law, 2.0**-log2_mass, RngStream(seed, 0))


@pytest.mark.parametrize("kind,param", [("beta", 1.0), ("beta", 2.5), ("exppareto", 1.5)])
@pytest.mark.parametrize("boundary", [32, 64])
@pytest.mark.parametrize("last_of_block", [True, False])
def test_build_environment_resolves_at_a_block_edge(kind, param, boundary, last_of_block):
    """The resolving stick is the last of a block (the mass sits just above
    that block's final cut point) or the first of the next (the mass equals
    it, which does not resolve: V_k must drop strictly below the mass)."""
    law = _LAWS[kind](param)
    v = np.cumprod(law.sample(RngStream(31, 0), boundary + 32))
    edge = float(v[boundary - 1])
    mass = math.nextafter(edge, 1.0) if last_of_block else edge
    env = build_environment(law, mass, RngStream(31, 0))
    assert env.num_boxes == (boundary if last_of_block else boundary + 1)
    assert env.sticks == _cumprod_environment(law, mass, RngStream(31, 0))


def test_environment_stopping_rule_and_mass():
    env = build_environment(StickLaw.beta(1.0), 1e-9, RngStream(2, 0))
    assert env.cutpoints[-1] < 1e-9  # the unresolved mass V_K


def test_environment_depth_matches_first_passage_oracle():
    # the number of sticks needed to resolve mass 1e-9 equals the first
    # passage of the |log W| walk over 9 log 10; oracle = direct simulation
    target = 9.0 * math.log(10.0)
    oracle_rng = RngStream(999, 0)
    oracle = np.array([simulate_path(StepLaw(("exp", 1.0), ("const", 1.0)),
                                     target, oracle_rng).count_renewals(target)
                       for _ in range(4000)], dtype=float)
    depths = np.array([build_environment(StickLaw.beta(1.0), 1e-9,
                                         RngStream(3, i)).num_boxes
                       for i in range(4000)], dtype=float)
    se = math.hypot(oracle.std() / 63.2, depths.std() / 63.2)
    assert abs(depths.mean() - oracle.mean()) < 3.0 * se
    # the coarse heuristic depth/mu stays within 5% of the oracle mean
    assert abs(oracle.mean() - target) / target < 0.06


def test_environment_extension_is_bitwise_consistent():
    env = build_environment(StickLaw.beta(1.0), 2**-10, RngStream(4, 0))
    before = env.sticks.copy()
    rho(env, 1e9)  # forces lazy extension well past the initial depth
    assert env.num_boxes > len(before) and np.array_equal(env.sticks[:len(before)], before)
    assert env.cutpoints[-1] < 1e-9  # no later box can reach 1/x
    assert np.array_equal(env.cutpoints, np.cumprod(env.sticks))


def test_frozen_environment_raises_on_extension():
    env = build_environment(StickLaw.beta(1.0), 2**-10, RngStream(5, 0))
    frozen = SieveEnvironment.from_json(environment_json(env))
    assert np.array_equal(frozen.sticks, env.sticks)
    with pytest.raises(RuntimeError):
        rho(frozen, 1e300)


# ---------------------------------------------------------------------------
# occupancy
# ---------------------------------------------------------------------------


def test_occupy_trivial():
    env = build_environment(StickLaw.beta(1.0), 2**-40, RngStream(6, 0))
    assert occupy_sieve(env, 0, RngStream(6, 1)).counts == {}
    one = occupy_sieve(env, 1, RngStream(6, 2))
    assert one.total() == 1 and list(one.counts.values()) == [1]


def test_single_ball_box_distribution():
    # P{ball lands in box k} = p*_k for the realised environment
    env = SieveEnvironment(None, None, sticks=[0.5] * 31)  # p*_k = 2^-k
    rng = RngStream(7, 1)
    draws = 20000
    hits = np.zeros(8)
    for _ in range(draws):
        box = next(iter(occupy_sieve(env, 1, rng).counts))
        if box <= 8:
            hits[box - 1] += 1
    for k in range(1, 7):
        p = 0.5**k
        assert abs(hits[k - 1] / draws - p) < 4.0 * math.sqrt(p * (1 - p) / draws)


def test_thinning_matches_naive_placement_chi_square():
    # joint law of (Z1, Z2) from sequential thinning vs per-ball placement
    env = SieveEnvironment(None, None, sticks=[0.5] * 41)  # p*_k = 2^-k
    reps, n = 30000, 100
    rng = RngStream(8, 1)
    thinned = np.zeros((reps, 2), dtype=np.int64)
    for r in range(reps):
        occ = occupy_sieve(env, n, rng)
        thinned[r] = [occ.counts.get(1, 0), occ.counts.get(2, 0)]
    naive = naive_placement(env.cutpoints, n, RngStream(8, 2).gen, reps)[:, :2]
    # bucket joint outcomes coarsely so expected cell counts stay healthy
    edges = [0, 42, 47, 50, 53, 58, 101]
    h1, _, _ = np.histogram2d(thinned[:, 0], thinned[:, 1], bins=[edges, [0, 20, 24, 26, 28, 32, 101]])
    h2, _, _ = np.histogram2d(naive[:, 0], naive[:, 1], bins=[edges, [0, 20, 24, 26, 28, 32, 101]])
    keep = (h1 + h2) >= 10
    table = np.stack([h1[keep], h2[keep]])
    _, p_value, _, _ = chi2_contingency(table)
    assert p_value > 1e-3


def test_occupancy_total_exact_at_huge_n():
    env = build_environment(StickLaw.beta(1.0), 2**-80, RngStream(9, 0))
    n = (1 << 62) - 3
    occ = occupy_sieve(env, n, RngStream(9, 1))
    assert occ.total() == n  # exact integer bookkeeping through all regimes
    assert all(v >= 0 for v in occ.counts.values())


def _per_box_occupy(env, n, rng):
    """Sequential thinning one box at a time, extending by whole blocks when
    the sticks run out: the reference that occupy_sieve's list walk must
    reproduce draw for draw."""
    counts, remaining, k = {}, n, 0
    while remaining > 0:
        k += 1
        while env.num_boxes < k:
            env._extend()
        z = sample_binomial(remaining, 1.0 - env.sticks[k - 1], rng)
        if z > 0:
            counts[k] = z
            remaining -= z
    return counts


@pytest.mark.parametrize("law", [StickLaw.beta(1.0), StickLaw.exp_pareto(2.0)],
                         ids=["beta", "exppareto"])
@pytest.mark.parametrize("n", [10**6, 2**62])
def test_lazy_extension_matches_per_box_thinning(law, n):
    def three_sticks():
        rng = RngStream(21, 0)
        return SieveEnvironment(law, rng, sticks=law.sample(rng, 3).tolist()), rng

    env, rng = three_sticks()
    occ = occupy_sieve(env, n, rng)
    ref_env, ref_rng = three_sticks()
    assert occ.counts == _per_box_occupy(ref_env, n, ref_rng)
    assert rng.gen.random() == ref_rng.gen.random()  # the same draws, chunked ones at 2^62
    assert occ.total() == n
    assert env.num_boxes > 3 and env.sticks == ref_env.sticks
    assert np.array_equal(env.cutpoints, np.cumprod(env.sticks))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(0, 2**62), st.sampled_from(["beta", "exppareto"]), st.floats(0.3, 3.0),
       st.integers(0, 2**32 - 1))
def test_thinning_conserves_n(n, kind, param, seed):
    law = StickLaw.beta(param) if kind == "beta" else StickLaw.exp_pareto(param)
    rng = RngStream(seed, 0)
    occ = occupy_sieve(build_environment(law, 2**-80, rng), n, rng)
    assert occ.total() == n
    assert all(z > 0 for z in occ.counts.values())


def test_occupy_scheme_geometric():
    rng = RngStream(10, 0)
    occ = occupy_scheme(DeterministicScheme.geometric(0.5), 1000, rng)
    assert occ.total() == 1000


@pytest.mark.parametrize("n", [10**12, 2**62])
def test_occupy_sieve_draws_nothing_at_a_box_with_p_1(n):
    # 1 - W_k rounds to 1 for some exppareto(0.5) sticks; occupy_sieve draws
    # every box through sample_binomial, which takes the rest of such a box
    # without a draw (numpy's binomial(n, 1.0) would consume a double)
    law = StickLaw.exp_pareto(0.5)

    def environment_and_stream(stream_id):
        rng = RngStream(31, stream_id)
        return build_environment(law, 2**-80, rng), rng

    draw_free = 0
    for stream_id in range(40):
        env, rng = environment_and_stream(stream_id)
        ref_env, ref_rng = environment_and_stream(stream_id)
        counts = occupy_sieve(env, n, rng).counts
        assert counts == _per_box_occupy(ref_env, n, ref_rng)
        assert rng.gen.random() == ref_rng.gen.random()
        draw_free += 1.0 - env.sticks[max(counts) - 1] == 1.0
    assert draw_free > 0


# ---------------------------------------------------------------------------
# blocks of sieve replicates
# ---------------------------------------------------------------------------


class _ConstantSticks:
    """A stick law that draws nothing and gives every box W = w."""

    def __init__(self, w):
        self.w = w

    def sample(self, rng, size):
        return np.full(size, self.w)


def _block_rows(law, n, reps, seed, grid):
    """K_n(t) on the grid, then K_n, of replicates 0..reps-1, thinned in blocks
    of 1,024 as the harness draws them: block b from stream 1024 b."""
    return np.concatenate([
        occupy_sieve_block(law, n, min(1024, reps - first), RngStream(seed, first), grid)[0]
        for first in range(0, reps, 1024)])


def _per_replicate_k(law, n, grid, seed, reps):
    """K_n(t) on the grid, then K_n, by the per-replicate path: sticks to the
    2^-80 floor, thinning box by box, counting on the sorted counts."""
    rows = []
    for r in range(reps):
        rng = RngStream(seed, r)
        rows.append(k_process(occupy_sieve(build_environment(law, 2**-80, rng), n, rng), grid))
    return np.array(rows)


def _ewens_moments(theta, n):
    """Exact mean and variance of the number of cycles of an Ewens(theta)
    permutation of n, which K_n(1) of the beta(theta) sieve shares."""
    with mpmath.workdps(40):
        th = mpmath.mpf(theta)
        mean = th * (mpmath.psi(0, th + n) - mpmath.psi(0, th))
        var = mean - th**2 * (mpmath.psi(1, th) - mpmath.psi(1, th + n))
        return float(mean), float(var)


@pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("n", [10**3, 10**16, 2**62])
def test_block_k_n_has_the_exact_ewens_mean_and_variance(theta, n):
    reps = 24000
    k = _block_rows(StickLaw.beta(theta), n, reps, 41, (1.0,))[:, -1].astype(float)
    mean, var = _ewens_moments(theta, n)
    dev = k - k.mean()
    se_var = math.sqrt((np.mean(dev**4) - k.var() ** 2) / reps)
    assert abs(k.mean() - mean) < 4.0 * math.sqrt(var / reps)
    assert abs(k.var(ddof=1) - var) < 4.0 * se_var


@pytest.mark.parametrize("n", [10**12, 2**62])
def test_block_k_process_matches_the_per_replicate_path(n):
    # exppareto(0.5) sticks put some boxes at 1 - W_k == 1, where the block's
    # array binomial takes every remaining ball; 3,000 replicates a side, whose
    # two-sample KS has 99.9% null level 1.95 sqrt(2/3000) = 0.050
    law, grid, reps = StickLaw.exp_pareto(0.5), (0.25, 0.5, 1.0), 3000
    blocked = _block_rows(law, n, reps, 42, grid)
    single = _per_replicate_k(law, n, grid, 43, reps)
    for j in range(len(grid) + 1):
        assert ks_two_sample(blocked[:, j], single[:, j]) < 1.95 * math.sqrt(2.0 / reps)


@pytest.mark.parametrize("law", [StickLaw.beta(1.0), StickLaw.beta(0.3), StickLaw.exp_pareto(0.5)],
                         ids=["beta1", "beta0.3", "exppareto0.5"])
@pytest.mark.parametrize("n", [1, 7, 10**6, (1 << 60) + 1, 2**62])
def test_block_conserves_n_in_every_replicate(law, n):
    # the block's int64 total would overflow at 2^62; each replicate's sum is
    # taken in Python ints
    counts, last = occupy_sieve_block(law, n, 300, RngStream(44, 0), None)
    assert len(counts) == 300 and all(sum(c.tolist()) == n for c in counts)
    assert all(c.min() > 0 and len(c) <= box for c, box in zip(counts, last.tolist()))


def test_block_grid_counts_equal_k_process_on_its_counts():
    law, n, grid = StickLaw.beta(1.0), 10**12, (0.0, 0.25, 0.5, 0.75, 1.0)
    counts, last = occupy_sieve_block(law, n, 500, RngStream(45, 0), None)
    rows, last_grid = occupy_sieve_block(law, n, 500, RngStream(45, 0), grid)
    assert np.array_equal(last, last_grid)
    for c, row in zip(counts, rows.tolist()):
        assert row == k_process(OccupancyResult(dict(enumerate(c.tolist(), start=1)), n),
                                grid).tolist()


def test_p21_block_sup_equals_the_sup_of_each_replicates_counts():
    law, n = StickLaw.beta(1.0), 10**8
    sups, boxes = _sieve_stat(law, n, (1.0,), True, 700, RngStream(46, 0))
    counts, last = occupy_sieve_block(law, n, 700, RngStream(46, 0), None)
    assert sups.shape == (700, 1) and boxes == last.sum()
    assert sups[:, 0].tolist() == [_ratio_sup_deviation(c, n) for c in counts]
    assert sups[:, 0].tolist() == [ratio_sup_walk(_k_jumps(c, n), len(c)) for c in counts]


def test_block_thinning_matches_per_ball_placement():
    # fixed sticks 1/2 (p*_k = 2^-k): K_n(t) from the block sampler against
    # per-ball uniform placement, at 20,000 replicates a side (99.9% null
    # level of the two-sample KS: 1.95 sqrt(2/20000) = 0.0195)
    n, reps, grid = 100, 20000, (0.0, 0.25, 0.5, 0.75, 1.0)
    blocked = _block_rows(_ConstantSticks(0.5), n, reps, 47, grid)
    naive = naive_placement(np.cumprod([0.5] * 60), n, RngStream(48, 0).gen, reps)
    occupied = [OccupancyResult({k: z for k, z in enumerate(row) if z}, n)
                for row in naive.tolist()]
    for j, t in enumerate(grid):
        placed = [k_process(occ, (t,))[0] for occ in occupied]
        assert ks_two_sample(blocked[:, j], placed) < 1.95 * math.sqrt(2.0 / reps)


def test_block_keeps_the_chunk_rule_past_2_60():
    # depth 1 at n = 2^62 with W = 1/2: one array draw over 2^60 balls each,
    # then sample_binomial over the other 3 * 2^60 per replicate, in order
    n, size = 2**62, 4
    counts, _ = occupy_sieve_block(_ConstantSticks(0.5), n, size, RngStream(50, 0), None)
    ref = RngStream(50, 0)
    first = ref.gen.binomial(np.full(size, 2**60), 0.5).tolist()
    first = [z + sample_binomial(n - 2**60, 0.5, ref) for z in first]
    assert [int(c[0]) for c in counts] == first
    # numpy's one draw over 2^62 trials overstates the variance by about 8%;
    # the chunked Z_1 has variance n/4 (20,480 draws, SE of the ratio 0.01)
    z1 = np.array([float(int(c[0]) - n // 2) for first in range(0, 20480, 1024)
                   for c in occupy_sieve_block(_ConstantSticks(0.5), n, 1024,
                                               RngStream(51, first), None)[0]])
    assert abs(np.mean(z1**2) / (n / 4) - 1.0) < 0.04


def test_block_array_binomial_at_p_1_takes_the_rest_with_one_draw():
    # W below 2^-54 makes 1 - W == 1: every replicate's first box takes all
    # n balls, and numpy's array draw still consumes one double per replicate
    # (and one chunked sum per replicate above 2^60, which draws nothing here)
    for n in (10**9, 2**62):
        rng = RngStream(49, 0)
        counts, last = occupy_sieve_block(_ConstantSticks(2.0**-60), n, 5, rng, None)
        assert [c.tolist() for c in counts] == [[n]] * 5 and last.tolist() == [1] * 5
        ref = RngStream(49, 0)
        ref.gen.random(5)
        assert rng.gen.random() == ref.gen.random()


class _IntegersOnly:
    """A generator that draws bounded integers and nothing else: a stick or
    a binomial drawn through it raises AttributeError."""

    def __init__(self, gen):
        self.integers = gen.integers


def test_uniform_block_partition_has_the_exact_ewens_law():
    # the theta = 1 sieve's box counts of n balls are the cycle type of a
    # uniform permutation (the paper's Ewens identity); 200 blocks of 1,024,
    # chi-square over the 11 partitions of 6 (10 df)
    n, blocks = 6, 200
    probs = exact_cycle_type_probs(n, 1.0)
    seen = Counter(tuple(sorted(Counter(c.tolist()).items()))
                   for b in range(blocks)
                   for c in occupy_sieve_block(StickLaw.beta(1.0), n, 1024,
                                               RngStream(52, 1024 * b), None)[0])
    assert set(seen) == set(probs)
    reps = 1024 * blocks
    stat = sum((seen[key] - reps * p) ** 2 / (reps * p) for key, p in probs.items())
    assert chi2.sf(stat, len(probs) - 1) > 1e-3


@pytest.mark.parametrize("n", [10**8, 2**62])
def test_uniform_block_matches_stick_and_binomial_thinning(n):
    # one uniform integer per box against uniform sticks thinned by array
    # binomials (and the 2^60 chunk rule at 2^62), 20,000 replicates a side:
    # the two-sample KS has 99.9% null level 1.95 sqrt(2/20000) = 0.0195
    grid, reps = (0.25, 0.5, 0.75, 1.0), 20000
    uniform = _block_rows(StickLaw.beta(1.0), n, reps, 53, grid)
    sticks = _block_rows(StickBinomialUniform(), n, reps, 54, grid)
    for j in range(len(grid) + 1):
        assert ks_two_sample(uniform[:, j], sticks[:, j]) < 1.95 * math.sqrt(2.0 / reps)


@pytest.mark.parametrize("n", [1, 7, (1 << 60) + 1, 2**62])
def test_uniform_block_draws_only_bounded_integers(n):
    # beta(1) sticks, however the law object was built, draw no stick, no
    # array binomial and no chunked sample_binomial, even past 2^60, and
    # every replicate keeps all n balls; any other law object draws sticks
    for law in (StickLaw.beta(1.0), StickLaw(kind="beta", theta=1)):
        rng = RngStream(55, 0)
        rng.gen = _IntegersOnly(rng.gen)
        counts, _ = occupy_sieve_block(law, n, 300, rng, None)
        assert all(sum(c.tolist()) == n for c in counts)
    for law in (StickBinomialUniform(), StickLaw.beta(1.0 + 2.0**-52)):
        rng = RngStream(55, 0)
        rng.gen = _IntegersOnly(rng.gen)
        with pytest.raises(AttributeError):
            occupy_sieve_block(law, n, 300, rng, None)


# ---------------------------------------------------------------------------
# K process
# ---------------------------------------------------------------------------


def test_k_process_examples():
    occ = OccupancyResult({1: 7, 2: 7, 3: 7}, 21)
    kp = k_process(occ, [0.3, 1.0])
    assert kp[-2] == kp[-1] == 3
    flat = k_process(OccupancyResult({1: 1, 5: 1, 9: 1}, 3), [0.0, 0.4, 1.0])
    assert flat.tolist() == [3, 3, 3, 3]  # all singletons: constant in t
    # counts {1, 3, 10} at n=100: floor(100^0) = 1 keeps only the singleton,
    # floor(100^0.5) = 10 already covers every occupied box
    hand = k_process(OccupancyResult({4: 1, 5: 3, 6: 10}, 100), [0.0, 0.5, 1.0])
    assert hand.tolist() == [1, 3, 3, 3]
    assert k_process(OccupancyResult({}, 0), [0.0, 1.0]).tolist() == [0, 0, 0]


def test_k_process_monotone_and_bounded():
    env = build_environment(StickLaw.beta(1.0), 2**-40, RngStream(11, 0))
    occ = occupy_sieve(env, 10**6, RngStream(11, 1))
    kp = k_process(occ, np.linspace(0.0, 1.0, 11))
    assert np.all(np.diff(kp[:-1]) >= 0)
    assert kp[-2] == kp[-1] == len(occ.counts)
    assert kp[0] >= 0 and kp[-1] <= min(occ.n, env.num_boxes)


# ---------------------------------------------------------------------------
# counting functions
# ---------------------------------------------------------------------------


def test_rho_geometric_boundaries():
    g = DeterministicScheme.geometric(0.5)
    assert rho(g, 8.0) == 3          # 2^-k >= 1/8 for k <= 3, tie included
    assert rho(g, 7.999) == 2
    assert rho(g, 1.999) == 0        # x < 1/p_1
    assert rho(g, 2.0) == 1


@pytest.mark.parametrize("q", [0.5, 0.25, 0.3, 0.9, 0.999])
def test_rho_geometric_equals_the_rational_search(q):
    # rho's float shortcut must give the rational count at every near tie
    # x = 1/p_k, its neighbours, and the exact ties p_k = threshold
    g = DeterministicScheme.geometric(q)
    fq = Fraction(q)
    probs = [(1 - fq) * fq**k for k in range(120)]  # p_1 .. p_120
    xs = [x for k in range(1, 100) for x in (1.0 / g.prob(k), float(1 / probs[k - 1]))]
    for x in xs + [np.nextafter(x, 0.0) for x in xs] + [np.nextafter(x, np.inf) for x in xs]:
        threshold = Fraction(1) / Fraction(x)
        assert rho(g, x) == sum(p >= threshold for p in probs)
    for k in range(1, 100):
        assert g.last_index_ge(probs[k - 1]) == k
        assert g.last_index_gt(probs[k - 1]) == k - 1


def test_rho_equals_visit_count_exactly():
    # the counting identity on shared realisations, 50 environments x 50 x
    for i in range(50):
        env = build_environment(StickLaw.beta(1.0), 2**-40, RngStream(12, i))
        path = path_from_sticks(env.sticks)
        xs = np.exp(RngStream(13, i).gen.uniform(0.05, 25.0, size=50))
        for x in xs:
            assert rho(env, float(x)) == path.count_visits(math.log(float(x)))


# ---------------------------------------------------------------------------
# approximation bound
# ---------------------------------------------------------------------------


def test_x0_defining_equation():
    # the double nearest the root of x - x**(3/4) = 1, from a 40-digit root
    with mpmath.workdps(40):
        root = mpmath.findroot(lambda x: x - x ** mpmath.mpf(0.75) - 1, 3.6)
        assert abs(root - root ** mpmath.mpf(0.75) - 1) < mpmath.mpf(10) ** -38
        assert BOUND_CONSTANT_X0 == float(root)
    assert BOUND_CONSTANT_X0 - BOUND_CONSTANT_X0**0.75 - 1.0 == 0.0


def test_integral_term_closed_form_vs_quadrature():
    # oracle: substitute u = 1/t, integrate the step function piecewise
    g = DeterministicScheme.geometric(0.5)
    for n in (10**4, 10**6):
        closed = _integral_term(g, n)
        jumps = []
        k = 1
        while True:
            u = n * g.prob(k)
            if u < 1e-14:
                break
            if u < 1.0:
                jumps.append(u)
            k += 1
        pts = sorted(set(jumps)) + [1.0]
        total = 0.0
        lo = 0.0
        for hi in pts:
            mid = 0.5 * (lo + hi)
            count = rho(g, n / mid) - rho(g, float(n))
            total += quad(lambda u: 1.0, lo, hi)[0] * count
            lo = hi
        assert abs(closed - total) < 1e-6 * max(1.0, closed)


def test_sup_window_matches_dense_grid():
    g = DeterministicScheme.geometric(0.5)
    for n in (10**4, 10**6):
        scanned = _sup_rho_window(g, n)
        ts = np.linspace(0.0, 1.0, 10**4)
        dense = max(rho(g, math.e * n ** (1.0 - t)) - rho(g, n ** (1.0 - t) / math.e)
                    for t in ts)
        assert scanned == dense


# the scan settles a near tie in rationals at nearly every box, so its cost
# grows faster than its box count: 1,016 boxes take about 2 s
_SCAN_BOXES = 1200


@pytest.mark.parametrize("q", [2.0**-60, 0.05, 0.1353352832366127, 0.5, 0.9, 0.99, 0.999])
@pytest.mark.parametrize("n", [3, 10, 1000, 10**6, 10**9])
def test_sup_window_closed_form_equals_the_scan(q, n):
    # q = 0.1353352832366127 puts -2/log q at exactly 1.0
    g = DeterministicScheme.geometric(q)
    if window_box_count(g, n) > _SCAN_BOXES:
        pytest.skip(f"the scan is slow past {_SCAN_BOXES} boxes")
    assert _sup_rho_window(g, n) == sup_rho_window_scan(g, n)


def test_sup_window_near_q_1_keeps_the_scan_values():
    # the box scan gives these over 330,257 and 125,123 boxes, in minutes of CPU
    assert _sup_rho_window(DeterministicScheme.geometric(0.99999), 10**6) == 199999
    assert _sup_rho_window(DeterministicScheme.geometric(0.9999), 10**9) == 19999


@pytest.mark.parametrize("q", [0.05, 0.5, 0.9, 0.999, 0.9999])
def test_window_box_count_equals_the_scan(q):
    g = DeterministicScheme.geometric(q)
    for n in (3, 10, 1000, 10**6, 10**9):
        k = 0
        while math.e * g.prob(k + 1) * n >= 1.0:
            k += 1
        assert window_box_count(g, n) == k


def test_bound_rhs_and_lhs_geometric():
    g = DeterministicScheme.geometric(0.5)
    eps = approximation_bound_rhs(g, 10**6)
    assert eps > 0.0
    row = run_experiment(ExperimentSpec(target="P41", n_values=(10**6,), replicates=200,
                                        seed=16, q=0.5)).rows[1]
    assert 0.0 <= row["lhs"] <= eps  # asymptotic bound holds comfortably here
    assert row["stderr"] > 0.0
    with pytest.raises(ValueError):
        approximation_bound_rhs(g, 2)
    with pytest.raises(ConfigurationError):
        ExperimentSpec(target="P41", n_values=(100,), replicates=10, seed=0)


def test_sup_abs_difference_equals_the_jump_walk():
    """The vectorised sup equals a walk over the merged jumps, also where K's
    and g's jumps share a location and where g's arrive unsorted."""
    rng = np.random.default_rng(41)
    for _ in range(500):
        n = int(rng.integers(3, 10**6))
        counts = np.sort(rng.integers(1, 50, size=rng.integers(1, 40)))
        k_locs = _k_jumps(counts, n)
        g_locs = np.concatenate([rng.choice(k_locs, size=rng.integers(0, 10)),
                                 rng.integers(0, 9, size=rng.integers(0, 20)) / 8.0])
        assert _sup_abs_difference(counts, g_locs, n) == sup_abs_difference_walk(k_locs, g_locs)


def test_ratio_sup_equals_the_jump_walk():
    """P21's vectorised sup equals the walk over K's jumps float for float,
    with tied counts, counts of 1 (jumps at t = 0) and n up to 2^62."""
    rng = np.random.default_rng(43)
    for i in range(2000):
        n = (1 << 62) if i % 4 == 0 else int(rng.integers(2, 10**12))
        high = min(n, int(rng.choice([3, 50, 10**6, n])))
        counts = np.sort(rng.integers(1, high, size=rng.integers(1, 60), endpoint=True))
        expected = ratio_sup_walk(_k_jumps(counts, n), len(counts))
        assert _ratio_sup_deviation(counts, n) == expected
    assert _ratio_sup_deviation(np.array([1 << 62]), 1 << 62) == 1.0


def test_g_jumps_are_memoised_read_only_and_exclude_the_tie():
    g = DeterministicScheme.geometric(0.5)
    locs = _g_jumps(g, 1024)
    assert locs is _g_jumps(g, 1024) and not locs.flags.writeable
    # p_k = 2^-k > 1/1024 for k <= 9; p_10 = 1/n is no jump of g
    assert np.allclose(locs, 1.0 - np.arange(1, 10) / 10.0)


def test_bound_lhs_single_box_and_stderr_shrink():
    # 1 - 2^-60 rounds to 1.0, so box 1 takes every ball: a single-box scheme
    single = DeterministicScheme.geometric(2.0**-60)
    rng = RngStream(17, 0)
    sups = [approximation_sup(single, 100, rng) for _ in range(100)]
    assert 0.0 <= np.mean(sups) <= 1.0  # K == 1 always; counting function is 0 or 1

    def stderr(replicates):
        spec = ExperimentSpec(target="P41", n_values=(10**4,), replicates=replicates,
                              seed=18, q=0.5)
        return run_experiment(spec).rows[1]["stderr"]

    assert stderr(400) < stderr(100)


# ---------------------------------------------------------------------------
# expectation oracle
# ---------------------------------------------------------------------------


def test_expected_occupancy_trivial():
    g = DeterministicScheme.geometric(0.5)
    exact = sum((0.5 * 0.5 ** (k - 1)) ** 3 for k in range(1, 200))
    assert abs(expected_occupancy_oracle(g, 3, 3) - exact) < 1e-12
    assert abs(expected_occupancy_oracle(g, 1) - 1.0) < 1e-9
    with pytest.raises(ValueError):
        expected_occupancy_oracle(g, 10**7)


def test_expected_occupancy_matches_monte_carlo():
    g = DeterministicScheme.geometric(0.5)
    n, reps = 100, 20000
    rng = RngStream(19, 0)
    ks = np.array([len(occupy_scheme(g, n, rng).counts) for _ in range(reps)], dtype=float)
    oracle = expected_occupancy_oracle(g, n)
    assert abs(ks.mean() - oracle) < 3.0 * ks.std() / math.sqrt(reps)
    # and one fixed-count expectation
    k1 = np.array([occupy_scheme(g, n, rng).count_values().tolist().count(1)
                   for _ in range(5000)], dtype=float)
    oracle_r1 = expected_occupancy_oracle(g, n, 1)
    assert abs(k1.mean() - oracle_r1) < 4.0 * k1.std() / math.sqrt(len(k1))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_serialization_roundtrips():
    env = build_environment(StickLaw.beta(2.0), 2**-30, RngStream(20, 0))
    env2 = SieveEnvironment.from_json(environment_json(env))
    assert np.array_equal(env.sticks, env2.sticks)
    assert np.array_equal(env.cutpoints, env2.cutpoints)
