import json
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from conftest import calibration_guard
from sievesim.harness import (
    ConfigurationError,
    TARGETS,
    ExperimentSpec,
    _SIEVE,
    Normalization,
    ks_one_sample,
    ks_two_sample,
    run_experiment,
)
from sievesim.limits import centering_prw, normal_cdf
from sievesim.occupancy import DeterministicScheme, approximation_sup
from sievesim.prw import lln_sup_deviation, max_window_count, simulate_path
from sievesim.sampling import RngStream, StickLaw, sample_binomial


# ---------------------------------------------------------------------------
# KS statistics
# ---------------------------------------------------------------------------


def test_ks_one_sample_hand_values():
    m = 50
    # values placed exactly at cdf ranks (i - 0.5)/m give statistic 0.5/m
    from scipy.stats import norm

    vals = norm.ppf((np.arange(1, m + 1) - 0.5) / m)
    assert abs(ks_one_sample(vals, normal_cdf) - 0.5 / m) < 1e-12
    assert ks_one_sample([0.0], normal_cdf) == 0.5
    with pytest.raises(ValueError):
        ks_one_sample([], normal_cdf)


def test_ks_one_sample_rank_invariance():
    rng = np.random.default_rng(1)
    vals = rng.normal(size=500)
    base = ks_one_sample(vals, normal_cdf)
    transformed = ks_one_sample(np.exp(vals), lambda y: normal_cdf(np.log(y)))
    assert abs(base - transformed) < 1e-12


def test_ks_two_sample_hand_values():
    assert ks_two_sample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0
    assert ks_two_sample([0.0], [1.0]) == 1.0
    assert abs(ks_two_sample([1.0, 2.0], [1.5]) - 0.5) < 1e-12
    # the rational 1/3, rounded once: two rounded CDFs would give 0.33333333333333337
    assert ks_two_sample([0], [0, 0, 1]) == 1 / 3
    with pytest.raises(ValueError):
        ks_two_sample([], [1.0])


_TIED_COUNTS = st.lists(st.integers(0, 6), min_size=1, max_size=80)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_TIED_COUNTS, _TIED_COUNTS)
def test_ks_two_sample_is_the_exact_rational_rounded_once(a, b):
    # small integer counts tie heavily, as the ks_sieve_equality rows do
    exact = max(abs(Fraction(sum(x <= v for x in a), len(a))
                    - Fraction(sum(y <= v for y in b), len(b))) for v in set(a) | set(b))
    assert ks_two_sample(a, b) == float(exact)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_TIED_COUNTS, _TIED_COUNTS)
def test_ks_two_sample_equals_scipy_on_tied_counts(a, b):
    # scipy is an independent implementation of the same rational statistic
    assert abs(ks_two_sample(a, b) - ks_2samp(a, b).statistic) <= 2**-51


def test_ks_two_sample_matches_scipy_with_ties():
    rng = np.random.default_rng(2)
    a = np.round(rng.normal(size=400), 1)  # heavy ties
    b = np.round(rng.normal(0.2, 1.1, size=300), 1)
    assert abs(ks_two_sample(a, b) - ks_2samp(a, b).statistic) < 1e-12


# ---------------------------------------------------------------------------
# spec and report plumbing
# ---------------------------------------------------------------------------


def test_spec_validation_and_thresholds():
    with pytest.raises(ConfigurationError):
        ExperimentSpec(target="XX")
    with pytest.raises(ConfigurationError):
        ExperimentSpec(target="T22", alpha=1.5)
    spec = ExperimentSpec(target="B1", thresholds={"ks": 0.5})
    assert spec.threshold("ks") == 0.5
    assert ExperimentSpec(target="B1").threshold("ks") == 0.02


def test_small_stable_index_starts_at_kanters_finite_range():
    # Kanter's sampler stays finite from alpha = 0.05 on (see _TAIL_INDEX);
    # the bound is closed, and 0.02 below it exits 2 in test_cli
    assert ExperimentSpec(target="T22", alpha=0.05, n_values=(1e4,)).alpha == 0.05
    assert ExperimentSpec(target="B4", xi="pareto", xi_param=0.05, n_values=(100,)).xi_param == 0.05
    below = ({"target": "T22", "alpha": 0.049},
             {"target": "B4", "xi": "pareto", "xi_param": 0.049})
    for spec in below:
        with pytest.raises(ConfigurationError, match=r"\[0\.05, 1\)"):
            ExperimentSpec(n_values=(100,), **spec)


def test_normalization_roundtrip_guard():
    norm = Normalization(3.0, 2.0)
    x = np.array([1.0, 5.0, 11.0])
    assert np.allclose(norm.apply(x), (x - 3.0) / 2.0)


def test_reports_are_bit_reproducible():
    spec = ExperimentSpec(target="A1", n_values=(10**6,), replicates=50,
                          grid=(0.5, 1.0), seed=11)
    rep1 = run_experiment(spec)
    rep2 = run_experiment(spec)
    assert list(rep1.csv_lines(timestamp=False)) == list(rep2.csv_lines(timestamp=False))
    j1, j2 = json.loads(rep1.to_json()), json.loads(rep2.to_json())
    for j in (j1, j2):
        j["metadata"].pop("runtime_s"), j["metadata"].pop("replicates_per_s")
    assert j1 == j2


def test_parallel_equals_serial():
    spec = ExperimentSpec(target="B1", n_values=(500.0,), replicates=40,
                          grid=(0.5, 1.0), seed=3)
    rep1 = run_experiment(spec, jobs=1)
    rep2 = run_experiment(spec, jobs=2)
    assert list(rep1.csv_lines(False)) == list(rep2.csv_lines(False))


def test_worker_pool_never_outnumbers_the_replicates(monkeypatch):
    # a stand-in for the spawn context records each pool's size and maps in
    # this process, so no worker is started
    sizes = []

    class Pool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return [fn(x) for x in iterable]

    monkeypatch.setattr("multiprocessing.get_context", lambda method: SimpleNamespace(Pool=Pool))
    spec = ExperimentSpec(target="ESF_FLT", n_values=(100.0, 1000.0), replicates=5,
                          grid=(0.5, 1.0), seed=3)
    serial = list(run_experiment(spec, jobs=1).csv_lines(False))
    for jobs, size in ((8, 5), (2, 2)):
        sizes.clear()
        assert list(run_experiment(spec, jobs=jobs).csv_lines(False)) == serial
        assert sizes == [size] * 4  # two draws per n: the cycles and the sieve half


def test_csv_format():
    spec = ExperimentSpec(target="B1", n_values=(200.0,), replicates=5, grid=(1.0,), seed=4)
    rep = run_experiment(spec)
    lines = list(rep.csv_lines(timestamp=True))
    assert lines[0].startswith("#")
    assert lines[1] == "target,n,t,replicate,raw,normalized"
    assert len(lines) == 2 + 5
    target, n, t, r, raw, normalized = lines[2].split(",")
    assert target == "B1" and int(r) == 0
    float(raw), float(normalized)


# ---------------------------------------------------------------------------
# runner behaviour
# ---------------------------------------------------------------------------


def test_sieve_runner_degenerate_grid_point():
    spec = ExperimentSpec(target="A1", n_values=(10**4,), replicates=30,
                          grid=(0.0, 1.0), seed=5)
    rep = run_experiment(spec)
    row0 = [r for r in rep.rows if r.get("t") == 0.0][0]
    assert row0["stat"] == "report_only" and row0["passed"] is None
    assert any(r["stat"] == "ks_normal" for r in rep.rows)


def test_ratio_runner_endpoint_identities():
    spec = ExperimentSpec(target="A1", mode="ratio", n_values=(10**6,),
                          replicates=40, grid=(0.0, 0.5, 1.0), seed=6)
    rep = run_experiment(spec)
    t1 = np.array([row[5] for row in rep.raw if row[2] == 1.0])
    assert np.all(t1 == 0.0)  # ratio 1 and centering 1 cancel exactly
    mid = [r for r in rep.rows if r.get("t") == 0.5][0]
    assert mid["stat"] == "ks_bridge"


def test_esf_runner_reports_equality_and_degenerate_t0():
    spec = ExperimentSpec(target="ESF_FLT", n_values=(2000,), replicates=60,
                          grid=(0.0, 1.0), seed=7, theta=1.0)
    rep = run_experiment(spec)
    stats = {r["stat"] for r in rep.rows}
    assert "ks_sieve_equality" in stats and "report_only" in stats


def test_eq_reports_esf_flts_sieve_equality():
    # one sampler draws the cycles: for the same spec, EQ's CSV rows carry
    # ESF_FLT's raw cycle counts and its ks_equality rows are ESF_FLT's
    # ks_sieve_equality rows
    common = dict(n_values=(500, 10**4), replicates=40, grid=(0.0, 0.5, 1.0), seed=14,
                  theta=1.5)
    eq, esf = (run_experiment(ExperimentSpec(target=target, **common))
               for target in ("EQ", "ESF_FLT"))

    def n_t_replicate_raw(rep):
        return [line.split(",")[1:5] for line in list(rep.csv_lines(timestamp=False))[1:]]

    def values(rep, stat):
        return [(row["n"], row["t"], row["value"]) for row in rep.rows if row["stat"] == stat]

    assert n_t_replicate_raw(eq) == n_t_replicate_raw(esf)
    assert len(values(eq, "ks_equality")) == 6
    assert values(eq, "ks_equality") == values(esf, "ks_sieve_equality")


def test_t22_runner_smoke():
    spec = ExperimentSpec(target="T22", stick="exppareto", alpha=0.5,
                          n_values=(10**8,), replicates=50, grid=(1.0,), seed=8,
                          thresholds={"ks": 1.0})
    rep = run_experiment(spec)
    assert rep.rows[0]["stat"] == "ks_two_sample"


def test_dispatcher_covers_every_target(monkeypatch):
    draws = []

    def counted_binomial(n, p, rng):
        draws.append(n)
        return sample_binomial(n, p, rng)

    monkeypatch.setattr("sievesim.occupancy.sample_binomial", counted_binomial)
    small = dict(n_values=(200.0,), replicates=12, grid=(0.5, 1.0), seed=9,
                 thresholds={"ks": 1.0, "ratio_ks": 1.0, "eq_ks": 1.0, "cov_tol": 10.0,
                             "p21_final": 10.0})
    specs = [
        ExperimentSpec(target="A1", n_values=(10**4,), replicates=12, grid=(0.5, 1.0), seed=9,
                       thresholds=small["thresholds"]),
        ExperimentSpec(target="A2", stick="exppareto", alpha=2.0, n_values=(10**4,),
                       replicates=12, grid=(1.0,), seed=9, thresholds=small["thresholds"]),
        ExperimentSpec(target="A3", stick="exppareto", alpha=1.5, n_values=(10**4,),
                       replicates=12, grid=(1.0,), seed=9, thresholds=small["thresholds"]),
        ExperimentSpec(target="T22", stick="exppareto", alpha=0.5, n_values=(10**4,),
                       replicates=12, grid=(0.5, 1.0), seed=9, thresholds=small["thresholds"]),
        ExperimentSpec(target="A1", mode="ratio", n_values=(10**4,), replicates=12,
                       grid=(0.5,), seed=9, thresholds=small["thresholds"]),
        ExperimentSpec(target="P21", n_values=(10**4, 10**6), replicates=12, grid=(1.0,),
                       seed=9, thresholds=small["thresholds"]),
        ExperimentSpec(target="B1", **small),
        ExperimentSpec(target="B2", xi="pareto", xi_param=2.0, **small),
        ExperimentSpec(target="B3", xi="pareto", xi_param=1.5, **small),
        ExperimentSpec(target="B4", xi="pareto", xi_param=0.5, **small),
        ExperimentSpec(target="P31", **small),
        ExperimentSpec(target="P32", n_values=(100.0, 1000.0), replicates=12, seed=9, b=1.0, c=0.5),
        ExperimentSpec(target="P33", x_values=(0.0, 2.0), y_values=(1.0,), replicates=150, seed=9),
        ExperimentSpec(target="P41", n_values=(10**4,), replicates=150, grid=(1.0,), seed=9, q=0.5),
        ExperimentSpec(target="EQ", n_values=(200,), replicates=100, grid=(1.0,), seed=9,
                       theta=2.0, thresholds=small["thresholds"]),
        ExperimentSpec(target="ESF_FLT", n_values=(1000,), replicates=40, grid=(1.0,),
                       seed=9, thresholds=small["thresholds"]),
    ]
    metadata_keys = set()
    for spec in specs:
        draws.clear()
        rep = run_experiment(spec)
        assert rep.rows, spec.target
        metadata_keys.add(tuple(sorted(rep.metadata)))
        assert rep.metadata["replicates"] >= spec.replicates, spec.target
        assert rep.metadata["replicates_per_s"] > 0.0, spec.target
        sieve = rep.metadata["sieve"]
        assert set(sieve) == {"boxes_built", "boxes_resolved", "lazy_extensions"}
        if spec.target in _SIEVE + ("P21", "EQ", "ESF_FLT"):
            # one binomial draw per box thinned, and thinning ends at the last box
            assert sieve["boxes_resolved"] == len(draws), spec.target
            assert (sieve["boxes_built"] + sieve["lazy_extensions"]
                    >= sieve["boxes_resolved"] > 0), spec.target
        else:
            assert set(sieve.values()) == {0}, spec.target
    assert {spec.target for spec in specs} == set(TARGETS)
    assert metadata_keys == {("replicates", "replicates_per_s", "runtime_s", "seed", "sieve",
                              "version")}


def test_ratio_t22_smoke():
    spec = ExperimentSpec(target="T22", mode="ratio", stick="exppareto", alpha=0.5,
                          n_values=(10**6,), replicates=60, grid=(0.5,), seed=10,
                          thresholds={"ratio_ks": 1.0})
    rep = run_experiment(spec)
    assert rep.rows[0]["stat"] == "ks_ratio"


def test_b1_covariance_structure_reported():
    spec = ExperimentSpec(target="B1", n_values=(2000.0,), replicates=600,
                          grid=(0.5, 1.0), seed=12)
    rep = run_experiment(spec)
    cov_rows = [r for r in rep.rows if r["stat"] == "cov"]
    assert len(cov_rows) == 1
    assert abs(cov_rows[0]["expected_corr"] - math.sqrt(0.5)) < 1e-12


def test_configuration_errors():
    with pytest.raises(ConfigurationError):
        run_experiment(ExperimentSpec(target="B1", xi="pareto", xi_param=1.5,
                                      n_values=(100.0,), replicates=5, grid=(1.0,)))
    with pytest.raises(ConfigurationError):
        run_experiment(ExperimentSpec(target="P31", xi="pareto", xi_param=0.5,
                                      n_values=(100.0,), replicates=5, grid=(1.0,)))


@pytest.mark.parametrize("stick_eta", [dict(eta="log1mstick", theta=1.0),
                                       dict(dependence="sharedstick", theta=3.0)])
def test_walk_centering_uses_the_step_laws_eta(stick_eta):
    # eta = |log(1 - W)| comes from the stick law, not from (eta, eta_param)
    n, theta = 1000.0, stick_eta["theta"]
    spec = ExperimentSpec(target="B1", xi="logstick", n_values=(n,), replicates=20,
                          grid=(0.5, 1.0), seed=13, thresholds={"ks": 1.0, "cov_tol": 10.0},
                          **stick_eta)
    rep = run_experiment(spec)
    law = StickLaw.beta(theta)
    m, s2 = law.mean_abs_log(), law.var_abs_log()
    scale = math.sqrt(s2 * n / m**3)
    for t in (0.5, 1.0):
        center = centering_prw(("log1mstick", law), n, t, m)
        raw = np.array([r[4] for r in rep.raw if r[2] == t])
        normalized = np.array([r[5] for r in rep.raw if r[2] == t])
        assert np.allclose(raw - normalized * scale, center, rtol=0.0, atol=1e-9 * n)


def test_stream_ranges_are_checked_at_their_limits():
    # reference streams: 64 per n, so several n values allow 64 grid points
    grid64 = tuple(np.linspace(0.0, 1.0, 64))
    grid65 = tuple(np.linspace(0.0, 1.0, 65))
    for target, kw in (("A3", {"alpha": 1.5}), ("T22", {}), ("B3", {"xi_param": 1.5}),
                       ("B4", {"xi_param": 0.5})):
        ExperimentSpec(target=target, n_values=(1e4, 1e5), grid=grid64, **kw)
        ExperimentSpec(target=target, n_values=(1e4,), grid=grid65, **kw)
        with pytest.raises(ConfigurationError):
            ExperimentSpec(target=target, n_values=(1e4, 1e5), grid=grid65, **kw)
    # the sieve half of ESF_FLT and EQ starts at stream 2^20
    for target in ("ESF_FLT", "EQ"):
        ExperimentSpec(target=target, n_values=(100, 200), replicates=1 << 19)
        with pytest.raises(ConfigurationError):
            ExperimentSpec(target=target, n_values=(100, 200), replicates=(1 << 19) + 1)
        with pytest.raises(ConfigurationError):
            ExperimentSpec(target=target, n_values=(100,), replicates=(1 << 20) + 1)


_TREND_SPECS = [
    ExperimentSpec(target="P31", n_values=(100, 1000), replicates=6, grid=(0.5, 1.0), seed=21),
    ExperimentSpec(target="P32", n_values=(100, 1000), replicates=6, seed=21, b=1.0, c=0.5),
    ExperimentSpec(target="P33", x_values=(0.0, 3.0), y_values=(1.0, 2.0), replicates=6, seed=21),
    ExperimentSpec(target="P41", n_values=(100, 10**4), replicates=100, seed=21, q=0.5),
]


def _trend_replicate(spec, i, r):
    """Replicate r of the i-th n (of the i-th y for P33), recomputed alone from
    stream i * R + r, as its CSV rows (n, t, raw, normalized)."""
    rng = RngStream(spec.seed, i * spec.replicates + r)
    if spec.target == "P41":
        n = int(spec.n_values[i])
        sup = approximation_sup(DeterministicScheme.geometric(spec.q), n, rng)
        return [(n, 1.0, sup, sup)]
    law = spec.step_law()
    if spec.target == "P33":
        y = spec.y_values[i]
        path = simulate_path(law, max(spec.x_values) + y, rng)
        incs = [path.count_visits(x + y) - path.count_visits(x) for x in spec.x_values]
        renewals = simulate_path(law, y, rng).count_renewals(y)
        return [(y, x, inc, renewals) for x, inc in zip(spec.x_values, incs)]
    n = float(spec.n_values[i])
    if spec.target == "P31":
        stat = lln_sup_deviation(simulate_path(law, n, rng), n, spec.grid, law.mean_xi())
    else:
        stat = n**-spec.c * max_window_count(simulate_path(law, n + spec.b, rng), spec.b, n)
    return [(n, 1.0, stat, stat)]


@pytest.mark.parametrize("spec", _TREND_SPECS, ids=lambda spec: spec.target)
def test_trend_targets_draw_addressable_replicates(spec):
    serial = run_experiment(spec)
    csv = list(serial.csv_lines(timestamp=False))
    assert csv == list(run_experiment(spec, jobs=2).csv_lines(timestamp=False))
    steps = len(spec.y_values if spec.target == "P33" else spec.n_values)
    block = spec.replicates * (len(spec.x_values) if spec.target == "P33" else 1)
    rows = [line.split(",") for line in csv[1:]]
    assert len(rows) == steps * block  # one row per replicate per n (per (x, y) for P33)
    for i in range(steps):
        for r in (0, spec.replicates - 1):
            got = [tuple(float(v) for v in row[1:3] + row[4:])
                   for row in rows[i * block:(i + 1) * block] if int(row[3]) == r]
            assert got == [tuple(map(float, row)) for row in _trend_replicate(spec, i, r)]


def test_calibration_guard_light():
    checks = calibration_guard(seed=1)
    assert all(c["passed"] for c in checks)
