import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import environment_json
from sievesim.cli import SpecFileError, main, parse_spec_file
from sievesim.harness import TARGETS, ExperimentSpec
from sievesim.occupancy import approximation_bound_rhs, build_environment
from sievesim.sampling import RngStream, StickLaw

P21_SPEC = """\
# uniformity experiment, small smoke configuration
target = P21
stick = beta
theta = 1.0
n_values = 1e4
replicates = 10
grid = 1.0
seed = 42
threshold.p21_final = 1.0   # calibrated default applies at n = 1e16 only
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_parse_spec_file(tmp_path):
    spec = parse_spec_file(write(tmp_path, "a.cfg", P21_SPEC))
    assert spec.target == "P21" and spec.replicates == 10 and spec.seed == 42
    assert spec.n_values == (1e4,)
    # integral floats are integers; 2.7 is not (test_bad_spec_exits_2_before_any_replicate)
    spec = parse_spec_file(write(tmp_path, "c.cfg",
                                 "target = B1\nn_values = 100\nreplicates = 1e3\nseed = 7.0\n"))
    assert (spec.replicates, spec.seed) == (1000, 7)
    assert type(spec.replicates) is int and type(spec.seed) is int


def test_parse_spec_threshold_override(tmp_path):
    spec = parse_spec_file(write(tmp_path, "b.cfg",
                                 "target = B1\nthreshold.ks = 0.5\nn_values = 100\n"))
    assert spec.threshold("ks") == 0.5


def test_parse_spec_errors_are_line_anchored(tmp_path):
    p = write(tmp_path, "bad.cfg", "target = B1\nwhatsit = 3\n")
    with pytest.raises(SpecFileError) as err:
        parse_spec_file(p)
    assert "bad.cfg:2" in str(err.value) and "whatsit" in str(err.value)
    p2 = write(tmp_path, "bad2.cfg", "target = B1\nreplicates = soon\n")
    with pytest.raises(SpecFileError) as err2:
        parse_spec_file(p2)
    assert "bad2.cfg:2" in str(err2.value)
    with pytest.raises(SpecFileError):
        parse_spec_file(tmp_path / "missing.cfg")


def test_run_verb_smoke(tmp_path, capsys):
    spec_path = write(tmp_path, "p21.cfg", P21_SPEC)
    code = main(["run", "--spec", str(spec_path), "--out", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "p21.csv").exists()
    assert (tmp_path / "out" / "p21.json").exists()
    body = json.loads((tmp_path / "out" / "p21.json").read_text())
    assert body["target"] == "P21" and body["all_passed"] is True


def test_run_byte_identical_output_without_timestamp(tmp_path):
    spec_path = write(tmp_path, "p21.cfg", P21_SPEC)
    for sub in ("o1", "o2"):
        assert main(["run", "--spec", str(spec_path), "--out", str(tmp_path / sub),
                     "--no-timestamp"]) == 0
    c1 = (tmp_path / "o1" / "p21.csv").read_bytes()
    c2 = (tmp_path / "o2" / "p21.csv").read_bytes()
    assert c1 == c2


def test_run_seed_override_changes_output(tmp_path, capsys):
    spec_path = write(tmp_path, "p21.cfg", P21_SPEC)
    assert main(["run", "--spec", str(spec_path), "--out", str(tmp_path / "s1"),
                 "--no-timestamp"]) == 0
    assert main(["run", "--spec", str(spec_path), "--out", str(tmp_path / "s2"),
                 "--no-timestamp", "--seed", "43"]) == 0
    assert (tmp_path / "s1" / "p21.csv").read_bytes() != (tmp_path / "s2" / "p21.csv").read_bytes()
    # a negative override is anchored like oracle's and every spec error
    capsys.readouterr()
    assert main(["run", "--spec", str(spec_path), "--out", str(tmp_path / "s3"),
                 "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {spec_path}:0:") and "--seed must be >= 0" in err
    assert not (tmp_path / "s3").exists()


def test_malformed_spec_exits_2(tmp_path, capsys):
    spec_path = write(tmp_path, "bad.cfg", "target = B1\nnope = 1\n")
    assert main(["run", "--spec", str(spec_path), "--out", str(tmp_path)]) == 2
    assert "bad.cfg:2" in capsys.readouterr().err
    assert main(["run", "--out", str(tmp_path)]) == 2  # --spec required
    with pytest.raises(SystemExit) as usage:  # run and oracle are the only verbs
        main(["selftest"])
    assert usage.value.code == 2


@pytest.mark.parametrize("spec_text", [
    "target = A1\nn_values = 1\nreplicates = 5\n",           # log n = 0
    "target = B1\nxi = const\nn_values = 100\nreplicates = 5\n",  # zero variance
], ids=["A1_log_n_zero", "B1_constant_step"])
def test_degenerate_scale_exits_2(tmp_path, capsys, spec_text):
    spec_path = write(tmp_path, "degenerate.cfg", spec_text)
    assert main(["run", "--spec", str(spec_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {spec_path}:0:") and "Traceback" not in err


# a value that the parser rejects is reported at its own line; every other
# bad spec below is rejected as a whole, at line 0
_VALUE_ERROR_LINE = {"target = B1\nn_values = 100\nreplicates = 2.7\n": 3,
                     "target = B1\nn_values = 100\nseed = 1.9\n": 3,
                     "target = A1\nn_values = 1e4\nn_values = 1e5\n": 3,
                     "target = B1\nn_values = 100\nthreshold.ks = 0.5\nthreshold.ks = 0.6\n": 4}


@pytest.mark.parametrize("spec_text", [
    "target = A3\nstick = beta\nn_values = 1e4\n",       # stable index alpha = 0.5
    "target = B3\nxi = exp\nn_values = 100\n",           # stable index xi_param = 1
    "target = B4\nxi = pareto\nn_values = 100\n",        # inverse index xi_param = 1
    "target = A1\nn_values = 0.5\n",
    "target = P21\n",
    "target = A1\n",
    "target = A1\nmode = rati\nn_values = 1e4\n",
    "target = A1\ncentering = lin\nn_values = 1e4\n",
    "target = B1\ndependence = shared\nn_values = 100\n",
    "target = B1\nxi = foo\nn_values = 100\n",
    "target = P33\ny_values = 1\n",
    "target = P33\nx_values = 0\ny_values = 1\nreplicates = 1\n",
    "target = P32\nb = -1\nn_values = 100\n",
    "target = P41\nn_values = 2\nreplicates = 100\n",
    "target = P41\nn_values = 1e4\nreplicates = 50\n",
    "target = P31\nxi = pareto\nxi_param = 0.5\nn_values = 100\n",
    "target = B1\nxi_param = 0\nn_values = 100\n",                  # exp rate 0
    "target = P41\nq = 1.5\nn_values = 1e4\nreplicates = 100\n",   # q outside (0, 1)
    "target = A1\ntheta = 0\nn_values = 1e4\n",                     # beta stick theta 0
    "target = T22\nalpha = 0.02\nn_values = 1e4\n",        # below Kanter's finite range
    "target = B4\nxi = pareto\nxi_param = 0.02\nn_values = 100\n",
    "target = B1\nn_values = 100\ngrid =\n",
    "target = A1\nn_values = inf\n",
    "target = P31\nn_values = inf\n",
    "target = P41\nn_values = inf\nreplicates = 100\n",
    "target = A1\nn_values = nan\n",
    "target = B1\nn_values = 100\nseed = -1\n",
    "target = P33\nx_values = 0\ny_values = -1\n",
    "target = P33\nx_values = -5\ny_values = 1\n",
    "target = P33\nx_values = 0\ny_values = nan\n",
    "target = P32\nb = inf\nn_values = 100\n",
    "target = B4\nxi = pareto\nxi_param = 0.5\nn_values = -5\n",
    "target = B1\nn_values = 100\ngrid = 1, 0.5\n",
    "target = P21\nn_values = 1\n",                             # log n = 0
    "target = B1\nn_values = 100\nreplicates = 2.7\n",
    "target = B1\nn_values = 100\nseed = 1.9\n",
    "target = A1\nn_values = 1e4\nthreshold.cov = 1.0\n",       # the key is cov_tol
    "target = A1\nn_values = 1e4\nthreshold.ks = nan\n",
    "target = B3\nxi = pareto\nxi_param = 1.5\nmode = ratio\nn_values = 100\n",
    "target = ESF_FLT\nmode = ratio\nn_values = 1e3\n",  # only A1..T22 and P21 have it
    "target = A1\nn_values = 1e19\n",                   # balls are counted in int64
    "target = P21\nn_values = 1e4, 1e19\n",
    "target = A1\nn_values = 1e4\nn_values = 1e5\n",          # the repeat is reported
    "target = B1\nn_values = 100\nthreshold.ks = 0.5\nthreshold.ks = 0.6\n",
    "target = A2\nstick = exppareto\nalpha = 2.0\nn_values = 15\n",  # c**2 = 2x log c: x < e
    "target = B1\nn_values = 1e16\n",                   # exp xi: rate * n * t <= 2^40
    "target = B1\nxi_param = 4\nn_values = 1e12\ngrid = 0.5\n",  # rate * n * t = 2e12
    # walks that hold their path, of about 3e11, 7e9 and 1e8 steps (at most 2^24)
    "target = B3\nxi = pareto\nxi_param = 1.5\nn_values = 1e12\n",
    "target = B4\nxi = pareto\nxi_param = 0.9\nn_values = 1e12\n",
    "target = P33\nx_values = 1e8\ny_values = 1\n",
], ids=["A3_beta_stick", "B3_exp_steps", "B4_index_1", "A1_n_below_1", "P21_no_n",
        "A1_no_n", "mode_typo", "centering_typo", "dependence_typo", "xi_unknown",
        "P33_no_x", "P33_one_replicate", "P32_negative_b", "P41_n_below_3",
        "P41_50_replicates", "P31_infinite_mean", "B1_exp_rate_0", "P41_q_above_1",
        "A1_theta_0", "T22_alpha_0.02", "B4_index_0.02", "B1_empty_grid", "A1_n_inf",
        "P31_n_inf", "P41_n_inf", "A1_n_nan", "seed_negative", "P33_y_negative",
        "P33_x_negative", "P33_y_nan", "P32_b_inf", "B4_n_negative",
        "B1_grid_decreasing", "P21_n_1", "replicates_2.7", "seed_1.9", "threshold_misspelt",
        "threshold_nan", "B3_mode_ratio", "ESF_FLT_mode_ratio", "A1_n_1e19", "P21_n_1e19",
        "key_repeated", "threshold_repeated", "A2_log_n_below_e", "B1_n_1e16",
        "B1_rate_n_t_2e12", "B3_path_1e12", "B4_path_1e12", "P33_path_1e8"])
def test_bad_spec_exits_2_before_any_replicate(tmp_path, capsys, monkeypatch, spec_text):
    def no_replicates(*args):
        raise AssertionError("a replicate was drawn")

    monkeypatch.setattr("sievesim.harness._run_replicates", no_replicates)
    line = _VALUE_ERROR_LINE.get(spec_text, 0)
    if "replicates" not in spec_text:
        spec_text += "replicates = 5\n"
    spec_path = write(tmp_path, "bad.cfg", spec_text)
    assert main(["run", "--spec", str(spec_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {spec_path}:{line}:") and "Traceback" not in err
    assert not list(tmp_path.glob("out/*.csv"))


def test_sieve_n_just_below_2_63_runs_to_its_verdicts(tmp_path, capsys):
    # 9.2e18 < 2^63 fits the block thinner's int64 counts; five replicates
    # fail A1's calibrated verdicts, which is exit 1, not a crash
    spec_path = write(tmp_path, "deep.cfg", "target = A1\nn_values = 9.2e18\nreplicates = 5\n")
    assert main(["run", "--spec", str(spec_path), "--out", str(tmp_path / "out")]) == 1
    assert "Traceback" not in capsys.readouterr().err
    assert (tmp_path / "out" / "deep.csv").exists()


def test_exp_walk_at_2_40_runs_to_its_verdicts(tmp_path, capsys):
    # a rate-2 exp xi walk to n = 5e11 takes about 1e12 steps: it draws no
    # path, only a window of sums and a Poisson count, and five replicates
    # fail B1's calibrated verdicts, which is exit 1, not a crash
    spec_path = write(tmp_path, "deep.cfg", "target = B1\nxi_param = 2\nn_values = 5e11\n"
                                            "replicates = 5\n")
    assert main(["run", "--spec", str(spec_path), "--out", str(tmp_path / "out")]) in (0, 1)
    assert "Traceback" not in capsys.readouterr().err
    assert (tmp_path / "out" / "deep.csv").exists()


def test_b2_n_just_above_e_runs_to_its_verdicts(tmp_path, capsys):
    # c**2 = 2x log c has a double root at x = e; just above it the larger
    # root exists, and Newton's method settles on it
    spec_path = write(tmp_path, "near_e.cfg",
                      "target = B2\nxi = pareto\nxi_param = 2.0\nn_values = 2.72\n"
                      "replicates = 5\n")
    assert main(["run", "--spec", str(spec_path), "--out", str(tmp_path / "out")]) in (0, 1)
    assert "Traceback" not in capsys.readouterr().err
    assert (tmp_path / "out" / "near_e.csv").exists()


def test_p41_near_q_1_builds_and_bounds_without_a_replicate(tmp_path, monkeypatch):
    # 330,257 boxes reach P41's window: its closed form needs none of them
    def no_replicates(*args):
        raise AssertionError("a replicate was drawn")

    monkeypatch.setattr("sievesim.harness._run_replicates", no_replicates)
    spec = parse_spec_file(write(tmp_path, "p41.cfg",
                                 "target = P41\nq = 0.99999\nn_values = 1e6\nreplicates = 100\n"))
    assert approximation_bound_rhs(spec.law(), 10**6) > 0.0


# one short valid spec per target, which _spec_files then mutates; n <= 1e4
# and replicates <= 5 keep every run short (P41 needs 100 replicates, so it
# only ever exits 2 here)
_BASE_SPECS = {
    "A1": "n_values = 100, 1e4\ngrid = 0.5, 1",
    "A2": "stick = exppareto\nalpha = 2.5\nn_values = 1e4\ngrid = 0.5, 1",
    "A3": "stick = exppareto\nalpha = 1.5\nmode = ratio\nn_values = 1e4\ngrid = 0.5",
    "T22": "stick = exppareto\nalpha = 0.5\nn_values = 1e4\ngrid = 0.5, 1",
    "P21": "n_values = 100, 1e4",
    "B1": "n_values = 1e3\ngrid = 0.5, 1",
    "B2": "xi = pareto\nxi_param = 2\nn_values = 1e3",
    "B3": "xi = pareto\nxi_param = 1.5\nn_values = 1e3",
    "B4": "xi = pareto\nxi_param = 0.5\nn_values = 1e3",
    "P31": "n_values = 100, 1e3\ngrid = 0.5, 1",
    "P32": "n_values = 100, 1e3",
    "P33": "x_values = 0, 3\ny_values = 1, 2",
    "P41": "n_values = 100",
    "EQ": "theta = 2\nn_values = 100",
    "ESF_FLT": "n_values = 1e3",
}
_NUMBER = st.sampled_from(["-5", "-1", "0", "0.05", "0.5", "1", "1.5", "2", "2.5", "3", "100",
                           "1e4", "nan", "inf", "-inf", "1e400", "x"])
_PARAMETER = st.sampled_from(["-1", "0", "0.05", "0.5", "1", "1.5", "2.5", "nan", "inf", "-inf",
                              "1e400", "x"])


def _listed(values):
    return st.lists(values, max_size=3).map(", ".join)


# a value strategy per key, with out-of-range, non-finite and unparsable entries
_SPEC_VALUES = {
    "target": st.sampled_from(TARGETS + ("XX",)),
    "n_values": _listed(_NUMBER),
    "grid": _listed(st.sampled_from(["-0.5", "0", "0.25", "0.5", "1", "1.5", "nan"])),
    "x_values": _listed(_NUMBER),
    "y_values": _listed(_NUMBER),
    "seed": st.sampled_from(["-1", "0", "7", "1e30", "nan", "inf"]),
    "mode": st.sampled_from(["process", "ratio", "rati"]),
    "stick": st.sampled_from(["beta", "exppareto", "uniform"]),
    "xi": st.sampled_from(["exp", "pareto", "const", "logstick", "foo"]),
    "eta": st.sampled_from(["exp", "const", "log1mstick", "foo"]),
    "dependence": st.sampled_from(["independent", "sharedstick", "shared"]),
    "centering": st.sampled_from(["u", "linear", "lin"]),
    **{key: _PARAMETER for key in ("theta", "alpha", "xi_param", "eta_param", "q", "b", "c",
                                   "threshold.ks")},
}
_EXTRA_LINES = st.sampled_from(["# a comment", "", "threshold.bogus = 1", "whatsit = 3",
                                "no equals sign here", "= 4"])


@st.composite
def _spec_files(draw):
    target = draw(st.sampled_from(TARGETS))
    replicates = draw(st.sampled_from(["2", "5"] * 4 + ["1", "0", "-1", "nan", "inf", "x"]))
    lines = [f"target = {target}", f"replicates = {replicates}",
             *_BASE_SPECS[target].splitlines()]
    for key in draw(st.lists(st.sampled_from(sorted(_SPEC_VALUES)), max_size=3, unique=True)):
        lines.append(f"{key} = {draw(_SPEC_VALUES[key])}")  # a later line overrides
    for extra in draw(st.lists(_EXTRA_LINES, max_size=1)):
        lines.insert(draw(st.integers(0, len(lines))), extra)
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_spec_files())
def test_random_spec_file_exits_0_1_or_2_without_raising(text):
    with tempfile.TemporaryDirectory() as tmp:
        spec_path = Path(tmp) / "random.cfg"
        spec_path.write_text(text)
        code = main(["run", "--spec", str(spec_path), "--out", str(Path(tmp) / "out"),
                     "--no-timestamp"])
    assert code in (0, 1, 2)


@pytest.mark.parametrize("target", ["ESF_FLT", "EQ"])
def test_permutation_targets_reject_n_above_2_53(tmp_path, capsys, monkeypatch, target):
    def no_replicates(*args):
        raise AssertionError("a replicate was drawn")

    monkeypatch.setattr("sievesim.harness._run_replicates", no_replicates)
    assert ExperimentSpec(target=target, n_values=(2.0**53,)).n_values == (2.0**53,)
    spec_path = write(tmp_path, "deep.cfg", f"target = {target}\nn_values = 1e4, 1e16\n"
                                            "replicates = 5\n")
    assert main(["run", "--spec", str(spec_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {spec_path}:0:") and "2^53" in err and "Traceback" not in err
    assert not list(tmp_path.glob("out/*.csv"))


def test_oracle_verb(tmp_path, capsys):
    env = build_environment(StickLaw.beta(1.0), 2**-40, RngStream(17, 0))
    env_path = write(tmp_path, "env.json", environment_json(env))
    assert main(["oracle", "--spec", str(env_path), "--seed", "3"]) == 0
    assert "50 points" in capsys.readouterr().out


@pytest.mark.parametrize("text, seed", [
    ("{}", "3"),
    ("[1, 2]", "3"),
    ('{"sticks": []}', "3"),
    ('{"sticks": "abc"}', "3"),
    ('{"sticks": [0.5, 0.0]}', "3"),
    ('{"sticks": [1.5, 0.5]}', "3"),
    ('{"sticks": [0.5, NaN]}', "3"),
    ('{"sticks": [[0.5], [0.5]]}', "3"),
    ('{"sticks": [0.5, 0.5], "cutpoints": [0.5, 0.3]}', "3"),
    ('{"sticks": [0.5, 0.5], "cutpoints": "abc"}', "3"),
    ("not json", "3"),
    ('{"sticks": [0.5, 0.5]}', "-1"),
], ids=["empty_object", "list", "no_sticks", "string_sticks", "stick_0", "stick_above_1",
        "stick_nan", "nested_sticks", "inconsistent_cutpoints", "string_cutpoints",
        "not_json", "seed_negative"])
def test_bad_oracle_input_exits_2(tmp_path, capsys, text, seed):
    env_path = write(tmp_path, "env.json", text)
    assert main(["oracle", "--spec", str(env_path), "--seed", seed]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {env_path}:0:") and "Traceback" not in err


def test_runtime_imports_no_scipy(tmp_path):
    # scipy and mpmath are test-only dependencies: with both blocked, a run
    # that takes normal_cdf and the theta != 1 gap law, and an A1 run whose
    # 1e12**t lands near an integer in both floor_power tiers (t = 0.25 and 0.5
    # by integer square roots, t = 0.3333333333333333 by decimal) pass; runs
    # that reach the walk's stable reference (B3), the inverse-subordinator
    # ratio through Kanter's sampler (T22), the geometric scheme and x0 (P41),
    # the log normaliser and the Gauss-Legendre centering (A2), and the oracle
    # end in a verdict, whichever it is
    def spec(name, text):
        return ["run", "--spec", str(write(tmp_path, f"{name}.cfg", text + "seed = 5\n")),
                "--out", str(tmp_path / name)]

    passing = [
        spec("a1", "target = A1\nstick = beta\ntheta = 1.0\nn_values = 1e12\n"
             "grid = 0.25, 0.3333333333333333, 0.5, 1.0\ncentering = linear\n"
             "replicates = 20\nthreshold.ks = 1.0\nthreshold.cov_tol = 1.0\n"),
        spec("esf", "target = ESF_FLT\ntheta = 2.5\nn_values = 1e6\nreplicates = 20\n"
             "grid = 0.5, 1.0\nthreshold.ks = 1.0\nthreshold.eq_ks = 1.0\n"),
    ]
    env_path = write(tmp_path, "env.json",
                     environment_json(build_environment(StickLaw.beta(1.0), 2**-40,
                                                       RngStream(17, 0))))
    verdicts = [
        spec("b3", "target = B3\nxi = pareto\nxi_param = 1.5\nn_values = 1e3\n"
             "grid = 0.5, 1.0\nreplicates = 20\n"),
        spec("t22", "target = T22\nmode = ratio\nstick = exppareto\nalpha = 0.5\n"
             "n_values = 1e4\ngrid = 0.5, 1.0\nreplicates = 20\n"),
        spec("p41", "target = P41\nq = 0.5\nn_values = 1e3\nreplicates = 100\n"),
        spec("a2", "target = A2\nstick = exppareto\nalpha = 2.5\ncentering = u\n"
             "n_values = 1e4\ngrid = 0.5, 1.0\nreplicates = 20\n"),
        ["oracle", "--spec", str(env_path), "--seed", "3"],
    ]
    code = ("import sys\nsys.modules['scipy'] = None\nsys.modules['mpmath'] = None\n"
            "from sievesim.cli import main\n"
            f"print('exit codes', [main(argv) for argv in {passing + verdicts!r}])\n")
    env = dict(os.environ)
    src = Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=300)
    assert result.returncode == 0 and "Traceback" not in result.stderr, \
        result.stdout + result.stderr
    codes = json.loads(result.stdout.splitlines()[-1].removeprefix("exit codes "))
    assert codes[:len(passing)] == [0] * len(passing), result.stdout
    assert all(c in (0, 1) for c in codes[len(passing):]), result.stdout


def test_cli_import_leaves_mpmath_and_multiprocessing_out():
    # the runtime never imports mpmath, and multiprocessing runs only --jobs > 1
    code = ("import sys\nimport sievesim.cli\n"
            "print(sorted({'mpmath', 'multiprocessing'} & set(sys.modules)))\n")
    env = dict(os.environ)
    src = Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
