"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with pytest -s; the -v test
status carries the same verdict).  Distributional thresholds are finite-n
calibration values.  Two checks in the infinite-mean family (criterion 8)
are known to sit beyond what any representable ball count can deliver; they
run faithfully and their failure messages carry the quantified reason.
"""

import math
from functools import partial

import numpy as np
import pytest
from scipy.stats import chi2_contingency

from conftest import (
    calibration_guard,
    cms_positive_stable,
    cycle_type,
    empirical_type_tv,
    esf_probability,
    exact_cycle_type_probs,
    naive_placement,
    partitions,
    sample_cycles_crp,
    sample_inverse_subordinator_path,
    sample_positive_stable,
)
from sievesim.ewens import CycleCounts, c_process_block, sample_cycles_feller
from sievesim.harness import (
    ExperimentSpec,
    _block_columns,
    _sieve_stat,
    ks_one_sample,
    ks_two_sample,
    run_experiment,
)
from sievesim.limits import normal_cdf, sample_inverse_ratio
from sievesim.occupancy import (
    BOUND_CONSTANT_X0,
    DeterministicScheme,
    SieveEnvironment,
    _integral_term,
    approximation_bound_rhs,
    build_environment,
    occupy_sieve,
    rho,
)
from sievesim.prw import path_from_sticks
from sievesim.sampling import (
    RngStream,
    StickLaw,
    sample_inverse_subordinator_marginal,
    sample_spectrally_negative_stable,
    sample_standard_positive_stable,
)

SEED = 20260810


def report(name, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    return passed


# ---------------------------------------------------------------------------
# criterion 1: exact small-case oracles
# ---------------------------------------------------------------------------


def test_c1a_counting_identity_on_shared_realisations():
    bad = 0
    for i in range(50):
        env = build_environment(StickLaw.beta(1.0), 2**-40, RngStream(SEED, i))
        path = path_from_sticks(env.sticks)
        xs = np.exp(RngStream(SEED + 1, i).gen.uniform(0.05, 25.0, size=50))
        bad += sum(rho(env, float(x)) != path.count_visits(math.log(float(x))) for x in xs)
    assert report("c1a box-count identity", bad == 0,
                  f"{bad} mismatches over 50 environments x 50 points (exact equality required)")


def test_c1b_thinning_vs_naive_placement():
    env = SieveEnvironment(None, None, sticks=[0.5] * 41)  # p*_k = 2^-k
    reps, n = 10**5, 100
    rng = RngStream(SEED, 101)
    thinned = np.zeros((reps, 2), dtype=np.int64)
    for r in range(reps):
        occ = occupy_sieve(env, n, rng)
        thinned[r] = [occ.counts.get(1, 0), occ.counts.get(2, 0)]
    naive = naive_placement(env.cutpoints, n, RngStream(SEED, 102).gen, reps)[:, :2]
    edges1 = [0, 42, 45, 47, 49, 51, 53, 55, 58, 101]
    edges2 = [0, 20, 22, 24, 25, 26, 28, 30, 101]
    h1, _, _ = np.histogram2d(thinned[:, 0], thinned[:, 1], bins=[edges1, edges2])
    h2, _, _ = np.histogram2d(naive[:, 0], naive[:, 1], bins=[edges1, edges2])
    keep = (h1 + h2) >= 10
    _, p_value, _, _ = chi2_contingency(np.stack([h1[keep], h2[keep]]))
    assert report("c1b thinning vs per-ball placement", p_value > 1e-3,
                  f"joint (Z1, Z2) chi-square p = {p_value:.5f} at significance 1e-3")


@pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
def test_c1c_cycle_samplers_match_exact_distribution(theta):
    exact = exact_cycle_type_probs(6, theta)
    draws = 10**5
    rng_a, rng_b = RngStream(SEED, 110), RngStream(SEED, 111)
    tv_crp = empirical_type_tv(
        [cycle_type(sample_cycles_crp(6, theta, rng_a)) for _ in range(draws)], exact)
    tv_fel = empirical_type_tv(
        [cycle_type(sample_cycles_feller(6, theta, rng_b)) for _ in range(draws)], exact)
    ok = tv_crp < 0.02 and tv_fel < 0.02
    assert report(f"c1c cycle-type tv (theta={theta})", ok,
                  f"restaurant tv = {tv_crp:.4f}, coupling tv = {tv_fel:.4f} (< 0.02)")


def test_c1d_cycle_distribution_normalizes():
    worst = max(abs(sum(esf_probability(CycleCounts(6, th, dict(c)))
                        for c in partitions(6)) - 1.0)
                for th in (0.5, 1.0, 2.0))
    assert report("c1d sampling-formula normalization", worst < 1e-12,
                  f"max |sum - 1| = {worst:.2e} over theta in {{0.5, 1, 2}}")


# ---------------------------------------------------------------------------
# criterion 2: cycle counts and sieve box counts share one law
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("theta", [1.0, 2.0])
def test_c2_equality_of_sieve_and_cycle_counts(theta):
    spec = ExperimentSpec(target="EQ", theta=theta, n_values=(1000,), replicates=5000,
                          grid=(1.0,), seed=SEED)
    rep = run_experiment(spec)
    stat = rep.rows[0]["value"]
    assert report(f"c2 equality (theta={theta})", stat < 0.04,
                  f"two-sample KS = {stat:.4f} at 5000+5000 replicates (< 0.04)")


# ---------------------------------------------------------------------------
# criterion 3: Gaussian limits for the cycle and box processes
# ---------------------------------------------------------------------------


def test_c3_gaussian_limits():
    ewens_ks = []
    for n in (10**4, 10**6):
        # drawn in blocks of 1,024, as ESF_FLT and EQ draw them
        stat = partial(c_process_block, n, 1.0, (1.0,))
        vals = _block_columns(stat, SEED, 0, 4000, 1, None)[0][:, 0].astype(float)
        norm = (vals - math.log(n)) / math.sqrt(math.log(n))
        ewens_ks.append(ks_one_sample(norm, normal_cdf))
    ok_e = ewens_ks[-1] < 0.12 and ewens_ks[1] < ewens_ks[0]
    report("c3 cycle-count clt", ok_e,
           f"KS = {ewens_ks[0]:.4f} -> {ewens_ks[1]:.4f} (decreasing, final < 0.12)")
    spec = ExperimentSpec(target="A1", n_values=(10**8, 10**12, 10**16), replicates=4000,
                          grid=(1.0,), seed=SEED, centering="linear")
    rep = run_experiment(spec)
    sieve_ks = [r["value"] for r in rep.rows if r["stat"] == "ks_normal"]
    ok_s = sieve_ks[-1] < 0.08 and sieve_ks[0] > sieve_ks[1] > sieve_ks[2]
    report("c3 box-count clt", ok_s,
           f"KS = {sieve_ks[0]:.4f} -> {sieve_ks[1]:.4f} -> {sieve_ks[2]:.4f} "
           f"(decreasing, final < 0.08)")
    assert ok_e and ok_s


# ---------------------------------------------------------------------------
# criterion 4: visit-count limit theorems
# ---------------------------------------------------------------------------


def test_c4_visit_count_limits():
    spec = ExperimentSpec(target="B1", n_values=(10**5,), replicates=10**4,
                          grid=(0.5, 1.0), seed=SEED)
    rep = run_experiment(spec)
    ks_rows = {r["t"]: r["value"] for r in rep.rows if r["stat"] == "ks_normal"}
    cov_row = [r for r in rep.rows if r["stat"] == "cov"][0]
    ok_b1 = all(v < 0.02 for v in ks_rows.values())
    ok_corr = abs(cov_row["corr"] - math.sqrt(0.5)) < 0.05
    report("c4 finite-variance clt", ok_b1 and ok_corr,
           f"KS = {ks_rows}, corr = {cov_row['corr']:.4f} vs sqrt(0.5) +- 0.05")

    spec3 = ExperimentSpec(target="B3", xi="pareto", xi_param=1.5, n_values=(10**5,),
                           replicates=10**4, grid=(1.0,), seed=SEED)
    ks3 = run_experiment(spec3).rows[0]["value"]
    report("c4 stable limit", ks3 < 0.04, f"two-sample KS = {ks3:.4f} (< 0.04)")

    spec4 = ExperimentSpec(target="B4", xi="pareto", xi_param=0.5, n_values=(10**6,),
                           replicates=10**4, grid=(1.0,), seed=SEED)
    ks4 = run_experiment(spec4).rows[0]["value"]
    report("c4 inverse-subordinator limit", ks4 < 0.03,
           f"two-sample KS = {ks4:.4f} (< 0.03)")
    assert ok_b1 and ok_corr and ks3 < 0.04 and ks4 < 0.03


# ---------------------------------------------------------------------------
# criterion 5: uniformity of the normalized processes
# ---------------------------------------------------------------------------


def test_c5_uniformity_trends():
    spec = ExperimentSpec(target="P21", n_values=(10**4, 10**8, 10**12, 10**16),
                          replicates=500, grid=(1.0,), seed=SEED)
    rep = run_experiment(spec)
    medians = [r["value"] for r in rep.rows if r["stat"] == "p21_median_sup"]
    ok_p21 = all(b < a for a, b in zip(medians, medians[1:])) and medians[-1] < 0.2
    report("c5 box-ratio uniformity", ok_p21,
           f"medians = {[round(m, 4) for m in medians]} (decreasing, final < 0.2)")

    spec2 = ExperimentSpec(target="P31", n_values=(10**2, 10**3, 10**4, 10**5),
                           replicates=500, grid=(0.25, 0.5, 0.75, 1.0), seed=SEED)
    rep2 = run_experiment(spec2)
    meds = [r["median"] for r in rep2.rows if "median" in r]
    ok_p31 = all(b < a for a, b in zip(meds, meds[1:]))
    report("c5 visit-count uniform lln", ok_p31,
           f"medians = {[round(m, 5) for m in meds]} (strictly decreasing)")
    assert ok_p21 and ok_p31


# ---------------------------------------------------------------------------
# criterion 6: the uniform approximation bound
# ---------------------------------------------------------------------------


def test_c6_approximation_bound():
    x0 = BOUND_CONSTANT_X0
    ok_x0 = abs(x0 - x0**0.75 - 1.0) < 1e-10
    report("c6 window constant", ok_x0, f"x0 = {x0:.12f}, residual < 1e-10")

    g = DeterministicScheme.geometric(0.5)
    n = 10**6
    closed = _integral_term(g, n)
    jumps = sorted({n * g.prob(k) for k in range(1, 200)
                    if 1e-14 < n * g.prob(k) < 1.0})
    total, lo = 0.0, 0.0
    for hi in jumps + [1.0]:
        total += (hi - lo) * (rho(g, n / (0.5 * (lo + hi))) - rho(g, float(n)))
        lo = hi
    ok_int = abs(closed - total) < 1e-6 * max(1.0, closed)
    report("c6 integral closed form", ok_int,
           f"closed = {closed:.9f}, piecewise quadrature = {total:.9f} (within 1e-6)")

    eps = approximation_bound_rhs(g, n)
    row = run_experiment(ExperimentSpec(target="P41", n_values=(n,), replicates=500,
                                        seed=SEED, q=0.5)).rows[1]
    mean, se = row["lhs"], row["stderr"]
    ok_bound = mean <= eps + 3.0 * se
    report("c6 bound dominance", ok_bound,
           f"lhs = {mean:.3f} +- {se:.3f} <= envelope {eps:.3f} (asymptotic; "
           f"hard-fail only beyond 3 stderr)")
    assert ok_x0 and ok_int and ok_bound


# ---------------------------------------------------------------------------
# criterion 7: window growth and increment bounds
# ---------------------------------------------------------------------------


def test_c7_window_and_increment_bounds():
    spec = ExperimentSpec(target="P32", n_values=(10**2, 10**3, 10**4), replicates=500,
                          seed=SEED, b=1.0, c=0.5)
    rep = run_experiment(spec)
    qs = [r["q95"] for r in rep.rows if "q95" in r]
    ok_w = all(b <= a for a, b in zip(qs, qs[1:])) and qs[-1] < qs[0]
    report("c7 window growth", ok_w, f"95th percentiles = {[round(q, 4) for q in qs]}")

    spec2 = ExperimentSpec(target="P33", x_values=(0.0, 5.0, 20.0), y_values=(1.0, 2.0, 5.0),
                           replicates=500, seed=SEED)
    rep2 = run_experiment(spec2)
    rows = [r for r in rep2.rows if "lhs" in r]
    ok_i = all(r["ok"] for r in rows)
    worst = max(r["lhs"] - r["u"] for r in rows)
    report("c7 increment bound", ok_i,
           f"max(lhs - renewal bound) = {worst:.3f} over 9 (x, y) pairs "
           f"(must stay within 3 stderr)")
    assert ok_w and ok_i


# ---------------------------------------------------------------------------
# criterion 8: infinite-mean limits (two known-infeasible tolerances)
# ---------------------------------------------------------------------------


def test_c8_t22_marginal_convergence():
    n = 10**12
    logn = math.log(n)
    stat = partial(_sieve_stat, StickLaw.exp_pareto(0.5), n, (1.0,), False)
    vals = _block_columns(stat, SEED, 0, 4000, 1, None)[0][:, 0].astype(float)
    norm = vals / logn**0.5
    ref = np.asarray(sample_inverse_subordinator_marginal(
        0.5, 1.0, RngStream(SEED, 1 << 41), 4000))
    stat = ks_two_sample(norm, ref)
    report("c8 infinite-mean marginal", stat < 0.05,
           f"two-sample KS = {stat:.4f} vs threshold 0.05")
    assert stat < 0.05, (
        f"KS = {stat:.4f}: the box count is a positive integer on the lattice "
        f"k/(log n)^0.5 with spacing {1/logn**0.5:.3f}, while the limit law "
        f"puts mass {2*normal_cdf(logn**-0.5 * math.sqrt(math.pi/2)) - 1:.3f} "
        f"below the first lattice point; the gap shrinks like (log n)^-0.5, "
        f"so no representable ball count (n <= 2^62) can reach 0.05.")


def test_c8_t22_ratio_convergence():
    n = 10**12
    stat = partial(_sieve_stat, StickLaw.exp_pareto(0.5), n, (0.5, 1.0), False)
    rows = _block_columns(stat, SEED, 0, 4000, 1, None)[0].astype(float)
    ratio = rows[:, 0] / rows[:, -1]  # K_n(0.5) / K_n
    ref = sample_inverse_ratio(0.5, 0.5, RngStream(SEED, (1 << 41) + 1), 4000)
    stat = ks_two_sample(ratio, ref)
    atom_pre = float(np.mean(ratio == 0.0))
    report("c8 infinite-mean ratio", stat < 0.06,
           f"two-sample KS = {stat:.4f} vs threshold 0.06")
    assert stat < 0.06, (
        f"KS = {stat:.4f}: the ratio carries atom P(=0) = {atom_pre:.3f} at "
        f"n = 1e12 while the limit atom is exactly (2/pi) arcsin(sqrt(0.5)) = 0.5; "
        f"the prelimit excess decays like 1/sqrt(log n), putting 0.06 out of "
        f"reach for any representable ball count.")


# ---------------------------------------------------------------------------
# criterion 9: calibration guard and sampler cross-checks
# ---------------------------------------------------------------------------


def test_c9_null_model_guard_and_sampler_cross_checks():
    guard = calibration_guard(SEED)
    ok_guard = all(c["passed"] for c in guard)
    worst = max(c["value"] / c["threshold"] for c in guard)
    report("c9 null-model guard", ok_guard,
           f"{len(guard)} pipeline checks on limit-law draws, worst value at "
           f"{worst:.2f} of threshold")

    rng = RngStream(SEED, 300)
    a = sample_standard_positive_stable(0.5, rng, 10**5)
    b = cms_positive_stable(0.5, rng, 10**5)
    ks_impl = ks_two_sample(a, b)

    x = sample_positive_stable(0.5, rng, 10**5)
    pair = sample_positive_stable(0.5, rng, 2 * 10**5).reshape(2, -1)
    ks_stab = ks_two_sample((pair[0] + pair[1]) / 4.0, x)

    s = sample_spectrally_negative_stable(1.5, rng, 10**5)
    spair = sample_spectrally_negative_stable(1.5, rng, 2 * 10**5).reshape(2, -1)
    ks_sneg = ks_two_sample((spair[0] + spair[1]) / 2 ** (1 / 1.5), s)

    marg = np.asarray(sample_inverse_subordinator_marginal(0.5, 1.0, rng, 10**4))
    paths = np.array([sample_inverse_subordinator_path(0.5, [1.0], 1e-4, RngStream(SEED, 400 + i))[0]
                      for i in range(10**4)])
    ks_path = ks_two_sample(marg, paths)

    ok_cross = ks_impl < 0.01 and ks_stab < 0.01 and ks_sneg < 0.01 and ks_path < 0.02
    report("c9 sampler cross-checks", ok_cross,
           f"construction agreement = {ks_impl:.4f}, stability identities = "
           f"{ks_stab:.4f}/{ks_sneg:.4f}, marginal vs path = {ks_path:.4f}")
    assert ok_guard and ok_cross
