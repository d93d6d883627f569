import json
import math
import tempfile
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from conftest import calibration_guard, csv_lines
from sievesim.cli import main
from sievesim.harness import (
    ConfigurationError,
    TARGETS,
    ExperimentReport,
    ExperimentSpec,
    _SIEVE,
    _covariance_rows,
    _normalize,
    ks_one_sample,
    ks_two_sample,
    run_experiment,
)
from sievesim.limits import centering_prw, normal_cdf
from sievesim.occupancy import DeterministicScheme, approximation_sup, occupy_sieve_block
from sievesim.prw import lln_sup_deviation, max_window_count, simulate_path
from sievesim.sampling import RngStream, StickLaw


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


def _ks_one_sample_every_value(values, cdf) -> float:
    """The one-sample KS with the cdf taken at every sorted value, as it was
    before a run of ties shared one cdf value."""
    x = np.sort(np.asarray(values, dtype=float))
    m = len(x)
    f = np.asarray(cdf(x), dtype=float)
    ranks = np.arange(1, m + 1, dtype=float)
    return float(max(np.max(ranks / m - f), np.max(f - (ranks - 1.0) / m), 0.0))


def test_ks_one_sample_takes_the_cdf_once_per_distinct_value():
    # tied counts (as sieve_deep's columns), heavy ties, no ties, a single
    # value, signed zeros; the statistic keeps its bits, and the cdf sees each
    # distinct value once
    rng = np.random.default_rng(3)
    samples = [rng.poisson(6.0, 1200) - 6.0, rng.poisson(0.3, 1200), np.zeros(7),
               rng.normal(size=1200), (rng.integers(0, 38, 1200) - 19) / 4.2, [1.5],
               [-0.0, 0.0, 0.0, 2.0, 2.0], rng.poisson(40.0, 50) / 7.0]
    for values in samples:
        for sd in (1.0, 0.7, 3.0):
            seen = []

            def cdf(x):
                seen.append(len(x))
                return normal_cdf(x / sd)

            got = ks_one_sample(values, cdf)
            assert got == _ks_one_sample_every_value(values, lambda x: normal_cdf(x / sd))
            assert seen == [len(np.unique(values))]


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
    x = np.array([1.0, 5.0, 11.0])
    assert np.allclose(_normalize(x, 3.0, 2.0), (x - 3.0) / 2.0)
    with np.errstate(over="ignore"), pytest.raises(RuntimeError, match="round-trip"):
        _normalize(x, 0.0, 1e-320)  # (x - c)/s overflows to inf


def test_reports_are_bit_reproducible():
    spec = ExperimentSpec(target="A1", n_values=(10**6,), replicates=50,
                          grid=(0.5, 1.0), seed=11)
    rep1 = run_experiment(spec)
    rep2 = run_experiment(spec)
    assert csv_lines(rep1) == csv_lines(rep2)
    j1, j2 = json.loads(rep1.to_json()), json.loads(rep2.to_json())
    for j in (j1, j2):
        for timing in ("runtime_s", "phases_s", "replicates_per_s"):
            j["metadata"].pop(timing)
    assert j1 == j2


def test_report_times_its_phases(tmp_path):
    spec = ExperimentSpec(target="T22", stick="exppareto", alpha=0.5, n_values=(10**6,),
                          replicates=50, grid=(0.5, 1.0), seed=8, thresholds={"ks": 1.0})
    rep = run_experiment(spec)
    phases = rep.metadata["phases_s"]
    assert phases["simulate"] > 0.0 and phases["reference"] > 0.0 and phases["write"] == 0.0
    assert phases["statistics"] >= 0.0
    assert math.isclose(phases["simulate"] + phases["reference"] + phases["statistics"],
                        rep.metadata["runtime_s"])
    _, json_path = rep.write(tmp_path, "t22")
    written = json.loads(json_path.read_text())["metadata"]["phases_s"]
    assert written["write"] > 0.0 and written == rep.metadata["phases_s"]


def test_parallel_equals_serial():
    spec = ExperimentSpec(target="B1", n_values=(500.0,), replicates=40,
                          grid=(0.5, 1.0), seed=3)
    rep1 = run_experiment(spec, jobs=1)
    rep2 = run_experiment(spec, jobs=2)
    assert csv_lines(rep1) == csv_lines(rep2)


def test_worker_pool_never_outnumbers_the_replicates(monkeypatch):
    # a stand-in for the spawn context records each pool's size and closing
    # and maps in this process, so no worker is started
    sizes, closed = [], []

    class Pool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            closed.append(self)
            return False

        def map(self, fn, iterable, chunksize=1):
            return [fn(x) for x in iterable]

    monkeypatch.setattr("multiprocessing.get_context", lambda method: SimpleNamespace(Pool=Pool))
    spec = ExperimentSpec(target="ESF_FLT", n_values=(100.0, 1000.0), replicates=2100,
                          grid=(0.5, 1.0), seed=3)
    serial = csv_lines(run_experiment(spec, jobs=1))
    for jobs, size in ((8, 3), (2, 2)):
        sizes.clear(), closed.clear()
        assert csv_lines(run_experiment(spec, jobs=jobs)) == serial
        # one pool serves all four draws (the cycles and the sieve half of each
        # n, each in three blocks) and is closed with the run
        assert sizes == [size] and len(closed) == 1
    # a pareto xi walk's units of work are its replicates; a sieve, Feller or
    # exp xi walk target's are its blocks of 1,024 replicates: three for 2,100
    # replicates, and one, which needs no pool, for 1,024 or fewer
    for target, replicates, expected in (("B3", 5, [5]), ("B1", 5, []), ("B1", 2100, [3]),
                                         ("A1", 2100, [3]), ("A1", 1024, []), ("EQ", 1024, [])):
        sizes.clear()
        xi = {"xi": "pareto", "xi_param": 1.5} if target == "B3" else {}
        run_experiment(ExperimentSpec(target=target, n_values=(100.0,), replicates=replicates,
                                      grid=(1.0,), seed=3, **xi), jobs=8)
        assert sizes == expected, target
    # a draw that raises still closes the pool
    monkeypatch.setattr(Pool, "map", lambda self, *args, **kwargs: 1 / 0)
    closed.clear()
    with pytest.raises(ZeroDivisionError):
        run_experiment(spec, jobs=2)
    assert len(closed) == 1


def test_csv_format():
    spec = ExperimentSpec(target="B1", n_values=(200.0,), replicates=5, grid=(1.0,), seed=4)
    rep = run_experiment(spec)
    lines = csv_lines(rep, timestamp=True)
    assert lines[0].startswith("#")
    assert lines[1] == "target,n,t,replicate,raw,normalized"
    assert len(lines) == 2 + 5
    target, n, t, r, raw, normalized = lines[2].split(",")
    assert target == "B1" and int(r) == 0
    float(raw), float(normalized)


def test_csv_formats_each_value_as_its_repr(tmp_path):
    # the writer formats each distinct (raw, normalized) pair of bit patterns
    # of a column once; a per-row repr is the reference, on columns where
    # values collide
    x = 0.1 + 0.2
    payload = np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0]
    raw = np.array([0.0, -0.0, 0.0, -0.0, np.nan, payload, np.inf, -np.inf, 5e-324,
                    1e16, 1e22, x, np.nextafter(x, 1.0), -0.0, 3.0])
    normalized = np.array([-0.0, 0.0, np.nan, -np.inf, 0.0, 5e-324, -0.0, x, 1e22,
                           np.nextafter(x, 1.0), 1e16, np.inf, 0.0, 3.0, payload])
    rep = ExperimentReport(ExperimentSpec(target="P31", n_values=(50,), grid=(1.0,)))
    columns = [(10**4, 0.5, raw, normalized), (1e4, 1.0, normalized, raw),
               (50, 1.0, raw, raw)]   # P31's sups are both its raw and normalized values
    for n, t, rv, nv in columns:
        rep.add_raw(n, t, rv, nv)
    expected = ["target,n,t,replicate,raw,normalized"]
    for n, t, rv, nv in columns:
        prefix = f"P31,{n!r},{t!r},"
        expected += [f"{prefix}{r},{a!r},{b!r}"
                     for r, (a, b) in enumerate(zip(rv.tolist(), nv.tolist()))]
    assert csv_lines(rep) == expected
    csv_path, _ = rep.write(tmp_path, "report", timestamp=False)
    assert csv_path.read_text() == "\n".join(expected) + "\n"
    assert expected[1] == "P31,10000,0.5,0,0.0,-0.0" and expected[16] == "P31,10000.0,1.0,0,-0.0,0.0"


def _bits(values):
    return np.array(values, dtype=np.float64).view(np.uint64).tolist()


# float64 bit patterns: signed zeros, infinities, subnormals, 1e16 (the first
# float repr writes with an exponent) and 1e22, any float, and NaNs with any
# sign and payload
_FLOAT_BITS = st.one_of(
    st.sampled_from(_bits([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072e-308,
                           1e16, 1e22, -1e22, 0.1 + 0.2, 3.0, 1200.0])),
    st.floats(allow_subnormal=True).map(lambda v: _bits([v])[0]),
    st.builds(lambda sign, payload: sign << 63 | 0x7FF << 52 | payload,
              st.integers(0, 1), st.integers(1, 2**52 - 1)))


@st.composite
def _csv_columns(draw):
    """Up to four columns of 0 to 40 rows whose values repeat: each row picks
    raw from a small pool of bit patterns, and normalized either as a function
    of raw's pool entry (the sieve and walk shapes) or freely (EQ, P33)."""
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        pool = draw(st.lists(_FLOAT_BITS, min_size=1, max_size=6))
        rows = draw(st.lists(st.integers(0, len(pool) - 1), max_size=40))
        if draw(st.booleans()):
            paired = draw(st.lists(_FLOAT_BITS, min_size=len(pool), max_size=len(pool)))
            normalized = [paired[i] for i in rows]
        else:
            normalized = draw(st.lists(st.sampled_from(pool) | _FLOAT_BITS,
                                       min_size=len(rows), max_size=len(rows)))
        n = draw(st.sampled_from([10**4, 1e4, 1e16, 2**62, 7.5]))
        t = draw(st.floats(0.0, 1.0))
        columns.append((n, t, np.array([pool[i] for i in rows], dtype=np.uint64).view(np.float64),
                        np.array(normalized, dtype=np.uint64).view(np.float64)))
    return columns


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_csv_columns(), st.sampled_from(["P31", "EQ", "A1"]))
def test_csv_writer_matches_the_per_row_repr(columns, target):
    # the writer formats each distinct (raw, normalized) pair once and each
    # column with one format call; a per-row repr is the reference
    spec = ExperimentSpec(target=target, n_values=(50,), grid=(1.0,))
    rep = ExperimentReport(spec)
    for n, t, raw, normalized in columns:
        rep.add_raw(n, t, raw, normalized)
    expected = ["target,n,t,replicate,raw,normalized"]
    for n, t, raw, normalized in columns:
        prefix = f"{target},{n!r},{t!r},"
        expected += [f"{prefix}{r},{a!r},{b!r}"
                     for r, (a, b) in enumerate(zip(raw.tolist(), normalized.tolist()))]
    assert csv_lines(rep) == expected
    with tempfile.TemporaryDirectory() as out:
        csv_path, _ = rep.write(out, "report", timestamp=False)
        assert csv_path.read_text() == "\n".join(expected) + "\n"


def _covariance_rows_per_pair(n, grid, normalized_by_t, tol):
    """The covariance rows with each pair's columns centred, and their
    variances taken, inside the pair loop: the reference for
    _covariance_rows, which does both once per column."""
    rows = []
    usable = [t for t in grid if 0.0 < t <= 1.0]
    for i, s in enumerate(usable):
        for t in usable[i + 1:]:
            a, b = normalized_by_t[s], normalized_by_t[t]
            cov = float(np.mean((a - a.mean()) * (b - b.mean())))
            corr = cov / math.sqrt(max(a.var() * b.var(), 1e-300))
            expected_cov = min(s, t)
            expected_corr = expected_cov / math.sqrt(s * t)
            rows.append({"n": n, "t": (s, t), "stat": "cov",
                         "value": cov, "corr": corr,
                         "expected_cov": expected_cov, "expected_corr": expected_corr,
                         "threshold": tol,
                         "passed": bool(abs(cov - expected_cov) < tol)})
    return rows


@pytest.mark.parametrize("spec", [
    ExperimentSpec(target="A1", n_values=(10**8, 10**12), grid=(0.25, 0.5, 0.75, 1.0),
                   replicates=300, seed=31, centering="linear"),
    ExperimentSpec(target="B1", n_values=(1e3, 1e5), grid=(0.0, 0.25, 0.5, 1.0),
                   replicates=300, seed=32),
    ExperimentSpec(target="A1", n_values=(10**6,), grid=(0.5, 0.25, 0.5, 1.0, 0.25),
                   replicates=300, seed=33),
], ids=["A1", "B1", "A1_repeated_t"])
def test_covariance_rows_match_the_per_pair_formula_bit_for_bit(spec):
    rep = run_experiment(spec)
    tol = spec.threshold("cov_tol")
    cov_rows = [row for row in rep.rows if row["stat"] == "cov"]
    usable = [t for t in spec.grid if t > 0.0]
    assert len(cov_rows) == len(spec.n_values) * len(usable) * (len(usable) - 1) // 2
    for n in {row["n"] for row in cov_rows}:
        normalized_by_t = {t: normalized for _, m, t, _, normalized in rep.raw if m == n}
        expected = _covariance_rows_per_pair(n, spec.grid, normalized_by_t, tol)
        got = _covariance_rows(n, spec.grid, normalized_by_t, tol)
        # repr tells every float's bits apart, -0.0 from 0.0 included
        assert repr(got) == repr(expected)
        assert repr([row for row in cov_rows if row["n"] == n]) == repr(expected)


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
    t1 = np.concatenate([normalized for _, _, t, _, normalized in rep.raw if t == 1.0])
    assert np.all(t1 == 0.0)  # ratio 1 and centering 1 cancel exactly
    mid = [r for r in rep.rows if r.get("t") == 0.5][0]
    assert mid["stat"] == "ks_bridge"


def test_esf_runner_reports_equality_and_degenerate_t0():
    spec = ExperimentSpec(target="ESF_FLT", n_values=(2000,), replicates=60,
                          grid=(0.0, 1.0), seed=7, theta=1.0)
    rep = run_experiment(spec)
    stats = {r["stat"] for r in rep.rows}
    assert "ks_sieve_equality" in stats and "report_only" in stats


@pytest.mark.parametrize("target, mode, law", [
    ("A1", "process", {}), ("B1", "process", {}), ("ESF_FLT", "process", {}),
    ("A3", "process", {"stick": "exppareto", "alpha": 1.5}), ("A1", "ratio", {}),
    ("A3", "ratio", {"stick": "exppareto", "alpha": 1.5}),
    ("T22", "ratio", {"stick": "exppareto", "alpha": 0.5})])
def test_endpoint_rows_report_the_normalized_mean(monkeypatch, target, mode, law):
    # where the limit law is a point mass (t = 0, and t = 1 in ratio mode)
    # the row reports the mean of the normalized column, with max |value|
    # for A1..A3 in ratio mode, and draws no reference
    import sievesim.harness as harness

    reference, referenced = harness._reference, []

    def recording_reference(spec, ratio, i_n, j, t, size):
        referenced.append(t)
        return reference(spec, ratio, i_n, j, t, size)

    monkeypatch.setattr(harness, "_reference", recording_reference)
    spec = ExperimentSpec(target=target, mode=mode, n_values=(1000,), replicates=30,
                          grid=(0.0, 0.5, 1.0), seed=2, **law)
    rep = run_experiment(spec)
    ratio = mode == "ratio"
    endpoints = (0.0, 1.0) if ratio else (0.0,)
    normalized = {t: column for _, _, t, _, column in rep.raw}
    rows = {r["t"]: r for r in rep.rows if r["stat"] == "report_only"}
    assert sorted(rows) == list(endpoints)
    for t, row in rows.items():
        assert row["value"] == float(np.mean(normalized[t])) and row["passed"] is None
        assert ("max_abs" in row) == (ratio and target != "T22")
        if "max_abs" in row:
            assert row["max_abs"] == float(np.max(np.abs(normalized[t])))
    if target in ("A3", "T22"):
        assert referenced == [t for t in spec.grid if t not in endpoints]
    if target == "ESF_FLT":  # the cycle count at t = 0 is scaled, not raw
        raw0 = next(raw for _, _, t, raw, _ in rep.raw if t == 0.0)
        assert rows[0.0]["value"] != float(np.mean(raw0))


def test_eq_reports_esf_flts_sieve_equality():
    # one sampler draws the cycles: for the same spec, EQ's CSV rows carry
    # ESF_FLT's raw cycle counts and its ks_equality rows are ESF_FLT's
    # ks_sieve_equality rows
    common = dict(n_values=(500, 10**4), replicates=40, grid=(0.0, 0.5, 1.0), seed=14,
                  theta=1.5)
    eq, esf = (run_experiment(ExperimentSpec(target=target, **common))
               for target in ("EQ", "ESF_FLT"))

    def n_t_replicate_raw(rep):
        return [line.split(",")[1:5] for line in csv_lines(rep)[1:]]

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
    # the sieve counter against a count taken outside the harness: every
    # numpy binomial variate drawn on a replicate or block stream (a box with
    # 1 - W_k == 1 draws one too, which takes every remaining ball), and every
    # bounded integer, which a beta(1) box draws instead
    placed, at_p_1, poisson_drawn = [], [], []

    class CountingGenerator:
        def __init__(self, gen):
            self._gen = gen

        def __getattr__(self, name):
            return getattr(self._gen, name)

        def binomial(self, n, p, size=None):
            z = self._gen.binomial(n, p, size)
            placed.append(np.size(z))
            at_p_1.append(np.count_nonzero(np.asarray(p) == 1.0))
            return z

        def integers(self, low, high=None, size=None, dtype=np.int64, endpoint=False):
            z = self._gen.integers(low, high, size, dtype, endpoint)
            placed.append(np.size(z))
            return z

        def poisson(self, lam, size=None):
            z = self._gen.poisson(lam, size)
            poisson_drawn.append(np.size(z))
            return z

    class CountingStream(RngStream):
        def __init__(self, seed, stream_id=0):
            super().__init__(seed, stream_id)
            self.gen = CountingGenerator(self.gen)

    monkeypatch.setattr("sievesim.harness.RngStream", CountingStream)
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
        placed.clear(), at_p_1.clear(), poisson_drawn.clear()
        rep = run_experiment(spec)
        assert rep.rows, spec.target
        metadata_keys.add(tuple(sorted(rep.metadata)))
        assert set(rep.metadata["phases_s"]) == {"simulate", "reference", "statistics", "write"}
        assert rep.metadata["replicates"] >= spec.replicates, spec.target
        assert rep.metadata["replicates_per_s"] > 0.0, spec.target
        sieve = rep.metadata["sieve"]
        assert set(sieve) == {"boxes_resolved"}
        if spec.target in _SIEVE + ("P21", "EQ", "ESF_FLT"):
            # one binomial variate or bounded integer per box thinned, and
            # thinning ends at the last box
            assert sieve["boxes_resolved"] == sum(placed) > 0, spec.target
            assert sum(at_p_1) or spec.target != "T22"  # its alpha = 0.5 sticks have some
        else:
            assert sieve == {"boxes_resolved": 0}, spec.target
        # one Feller uniform per cycle: C_n(1) summed over the replicates
        feller = spec.target in ("EQ", "ESF_FLT")
        cycles = sum(raw.sum() for _, _, t, raw, _ in rep.raw if t == 1.0) if feller else 0
        assert rep.metadata["feller"] == {"uniforms": int(cycles)}, spec.target
        assert cycles > 0 or not feller
        # one Poisson variate per exp xi walk replicate and grid point (B1, the
        # only exp xi walk here): its blocks draw them all
        walk = rep.metadata["walk"]
        assert walk == {"poisson": sum(poisson_drawn)}, spec.target
        assert walk["poisson"] == (spec.replicates * len(spec.grid) if spec.target == "B1" else 0)
        assert rep.metadata["numpy"] == np.__version__
    assert {spec.target for spec in specs} == set(TARGETS)
    assert metadata_keys == {("feller", "numpy", "phases_s", "replicates", "replicates_per_s",
                              "runtime_s", "seed", "sieve", "version", "walk")}


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
        raw, normalized = next(column[3:] for column in rep.raw if column[2] == t)
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
        renewals = path.count_renewals(y)
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
    csv = csv_lines(serial)
    assert csv == csv_lines(run_experiment(spec, jobs=2))
    steps = len(spec.y_values if spec.target == "P33" else spec.n_values)
    block = spec.replicates * (len(spec.x_values) if spec.target == "P33" else 1)
    rows = [line.split(",") for line in csv[1:]]
    assert len(rows) == steps * block  # one row per replicate per n (per (x, y) for P33)
    for i in range(steps):
        for r in (0, spec.replicates - 1):
            got = [tuple(float(v) for v in row[1:3] + row[4:])
                   for row in rows[i * block:(i + 1) * block] if int(row[3]) == r]
            assert got == [tuple(map(float, row)) for row in _trend_replicate(spec, i, r)]


def _block_row(law, n, grid, seed, column_base, replicates, r):
    """Replicate r of a sieve column, from a standalone call on its block:
    replicates 1024 b .. 1024 b + 1023 on stream column_base + 1024 b."""
    first = r - r % 1024
    rows, _ = occupy_sieve_block(law, n, min(1024, replicates - first),
                                 RngStream(seed, column_base + first), grid)
    return rows[r - first, :len(grid)].astype(float).tolist()


def test_sieve_replicates_are_addressable_by_block():
    spec = ExperimentSpec(target="A1", n_values=(10**4, 10**9), replicates=1100,
                          grid=(0.5, 1.0), seed=23, thresholds={"ks": 1.0, "cov_tol": 10.0})
    raw = run_experiment(spec).raw
    for i, n in enumerate((10**4, 10**9)):
        for r in (0, 1023, 1024, 1099):
            got = [float(column[3][r]) for column in raw if column[1] == n]
            assert got == _block_row(spec.stick_law(), n, spec.grid, 23, i * 1100, 1100, r)
    # EQ's CSV carries the sieve half that ESF_FLT draws, from 2^20 + i R on
    common = dict(n_values=(300, 1000), replicates=1100, grid=(1.0,), seed=24, theta=1.5)
    eq, esf = (run_experiment(ExperimentSpec(target=target, **common)) for target in ("EQ", "ESF_FLT"))
    for r in (0, 1023, 1024, 1099):
        got = [float(column[4][r]) for column in eq.raw if column[1] == 1000]
        assert got == _block_row(StickLaw.beta(1.5), 1000, (1.0,), 24, (1 << 20) + 1100, 1100, r)
    boxes = [_block_row(StickLaw.beta(1.5), 1000, (1.0,), 24, (1 << 20) + 1100, 1100, r)[0]
             for r in range(1100)]
    cycles = next(column[3] for column in esf.raw if column[1] == 1000).tolist()
    assert [row["value"] for row in esf.rows if row["stat"] == "ks_sieve_equality"][1] == \
        ks_two_sample(cycles, boxes)


def test_walk_blocks_run_on_workers_as_serially(tmp_path):
    # 1,025 replicates: one full block of an exp xi walk and a block of one,
    # which the two workers take one each
    spec = tmp_path / "b1.cfg"
    spec.write_text("target = B1\nxi = exp\neta = exp\neta_param = 2.0\nn_values = 300, 1e5\n"
                    "grid = 0.5, 1.0\nreplicates = 1025\nseed = 26\n")
    csv = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert main(["run", "--spec", str(spec), "--out", str(out), "--no-timestamp",
                     "--jobs", jobs]) in (0, 1)
        csv.append((out / "b1.csv").read_bytes())
    assert csv[0] == csv[1] and csv[0].count(b"\n") == 1 + 2 * 2 * 1025


def test_a_one_block_walk_starts_no_worker_pool(monkeypatch):
    def no_pool(method):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr("multiprocessing.get_context", no_pool)
    spec = ExperimentSpec(target="B1", n_values=(1e5,), replicates=200, grid=(0.5, 1.0), seed=27)
    assert csv_lines(run_experiment(spec, jobs=2)) == csv_lines(run_experiment(spec))


def test_sieve_blocks_run_on_workers_as_serially():
    # 2,100 replicates make three blocks per n, the last one short
    spec = ExperimentSpec(target="A1", mode="ratio", n_values=(10**5, 10**10), replicates=2100,
                          grid=(0.5, 1.0), seed=25, thresholds={"ratio_ks": 1.0})
    serial, parallel = run_experiment(spec), run_experiment(spec, jobs=2)
    assert csv_lines(serial) == csv_lines(parallel)
    assert serial.rows == parallel.rows
    assert serial.metadata["sieve"] == parallel.metadata["sieve"]


def test_calibration_guard_light():
    checks = calibration_guard(seed=1)
    assert all(c["passed"] for c in checks)
