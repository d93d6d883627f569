"""Byte-identity of CLI reports: short runs whose CSV sha256 digests are
pinned.  A change that only speeds up a sampler keeps every draw and every
floating-point operation, so these digests must not move; a change that
alters drawn values on purpose re-records them and says why.

The specs cover each step law the walk draws (exp, pareto with one and
several blocks, const, independent and shared log sticks), the Feller
coupling with its sieve half (ESF_FLT, and EQ at n = 1e12 with theta != 1),
the sieve at depths where floor_power settles near-integer powers (with
theta = 1, with theta = 2 over several stick blocks, and on a grid that
reaches both its integer square-root and its decimal tier), P21's and P41's
exact sup paths (P41 also where a box probability ties 1/n exactly),
exppareto sticks in both the ratio (T22) and the process (A3) mode, and a
seed above 2^32 whose replicate streams cross the edge of a 1,024-id block
of `RngStream` seeding words.
"""

import hashlib

import pytest

from sievesim.cli import main

GOLDEN = {
    "B1_exp": (
        "target = B1\nxi = exp\nxi_param = 1.0\neta = exp\neta_param = 2.0\n"
        "n_values = 100, 1000\ngrid = 0.25, 0.5, 1.0\nreplicates = 60\nseed = 3\n",
        "c412024031c611524afbbed4b8ef28290e069970201ac36eac0d7a171e88a66c"),
    "B3_pareto": (
        "target = B3\nxi = pareto\nxi_param = 1.5\neta = exp\n"
        "n_values = 300\ngrid = 0.5, 1.0\nreplicates = 60\nseed = 4\n",
        "957e4ac7d3768d7805b1eb3271fbe782239b0809dbcebe05922dfd384503ea78"),
    "B2_shared_stick": (
        "target = B2\ndependence = sharedstick\nstick = exppareto\nalpha = 2.0\n"
        "n_values = 200\ngrid = 0.5, 1.0\nreplicates = 60\nseed = 5\n",
        "9e34d266e49353a71e6d5e53a7c29faf8b4e0375a5b94cfd7ad25357917590e6"),
    "B4_pareto_const": (
        "target = B4\nxi = pareto\nxi_param = 0.9\neta = const\neta_param = 0.5\n"
        "n_values = 5000\ngrid = 0.5, 1.0\nreplicates = 60\nseed = 9\n",
        "786075d45f5ce263214f5894cb7862213426550424db3504cc73933667cd01b3"),
    "P31_log_sticks": (
        "target = P31\nxi = logstick\neta = log1mstick\nstick = beta\ntheta = 2.0\n"
        "n_values = 50, 200\ngrid = 0.5, 1.0\nreplicates = 30\nseed = 10\n",
        "f1a8978807d162dd62ab1f199dc1f3eb3f5721bf40555173af899a5800aa8cbd"),
    "P33": (
        "target = P33\nx_values = 0, 3, 7\ny_values = 1, 2.5\nreplicates = 40\nseed = 6\n",
        "7c516e305d2c8683493697c8306c01bd531c17bf3fa6ff6018622445fca5555e"),
    # re-recorded on purpose when the Feller coupling began to jump from one
    # indicator to the next: one uniform per cycle instead of one per position
    # changes its draws; its sieve half and every other digest stayed put
    "ESF_FLT": (
        "target = ESF_FLT\ntheta = 1.0\nn_values = 1000, 5000\ngrid = 0.5, 1.0\n"
        "replicates = 40\nseed = 7\n",
        "5e23ed100e5b85351d5ef6ae5677964ac2ab351b92e8d821686fc914a1073280"),
    # A1, P21_sup, A3_exppareto, EQ_deep, A1_wide_seed, A1_theta2_deep and
    # A1_decimal_tier were re-recorded when sample_binomial stopped rounding a
    # Gaussian for draws of variance above 1e7: numpy's sampler now draws
    # every box (220 to 2,203 such draws per spec had been Gaussian).
    # T22_ratio_exppareto had 55 too, yet its ratios came out the same.
    "A1": (
        "target = A1\nstick = beta\ntheta = 1.0\nn_values = 1e8, 1e12\n"
        "grid = 0.25, 0.5, 0.75, 1.0\ncentering = linear\nreplicates = 40\nseed = 8\n",
        "6e0621ddfb14d4d3c868371a91f8062114ce7801d95d2fdfdcd9461441a048dc"),
    "P21_sup": (
        "target = P21\nstick = beta\ntheta = 1.0\nn_values = 1e4, 1e12\ngrid = 1.0\n"
        "replicates = 40\nseed = 11\n",
        "a769195c2d1c3877419e8f94760169495919f26690cb262c1445b53550f3ba02"),
    "T22_ratio_exppareto": (
        "target = T22\nmode = ratio\nstick = exppareto\nalpha = 0.5\nn_values = 1e12\n"
        "grid = 0.5, 1.0\nreplicates = 40\nseed = 12\n",
        "f44a01c9246eacce6caef97718ec2a19e68d216e400d0754dc5957f8d41c3c6e"),
    "A3_exppareto": (
        "target = A3\nstick = exppareto\nalpha = 1.5\nn_values = 1e8, 1e12\n"
        "grid = 0.5, 1.0\nreplicates = 40\nseed = 13\n",
        "61f23cfe52304c96a203898c446844551106070b2215d7f4b6cca03760b72892"),
    # recorded when EQ began to draw its cycles with the Feller coupling
    # instead of the Chinese restaurant, whose n uniforms per replicate put
    # n = 1e12 out of reach
    "EQ_deep": (
        "target = EQ\ntheta = 1.5\nn_values = 1e12\ngrid = 0.5, 1.0\n"
        "replicates = 40\nseed = 14\n",
        "12406cca0a2c414f99b484c66d68272824c1d8552b3b365a84f4cd45cd9ccc7b"),
    # first recorded with numpy's SeedSequence building every stream, before
    # the seeding words were hashed a block of ids at a time, and re-recorded
    # with the one binomial sampler, which SeedSequence streams reproduce too:
    # a two-word seed, and replicate ids 0..1199, which cross the block edge
    # at 1024
    "A1_wide_seed": (
        "target = A1\nstick = beta\ntheta = 1.0\nn_values = 1e4, 1e9\ngrid = 0.5, 1.0\n"
        "centering = linear\nreplicates = 600\nseed = 4294967301\n",
        "0c97d895b6dbc9ec904d6c0b704a88677bdebdea0a558601efacf6d599471096"),
    # theta = 2 resolves 2^-80 in about four 32-stick blocks, and n = 1e16
    # thins through BTPE and inversion binomials
    "A1_theta2_deep": (
        "target = A1\nstick = beta\ntheta = 2.0\nn_values = 1e16\n"
        "grid = 0.25, 0.5, 0.75, 1.0\nreplicates = 40\nseed = 15\n",
        "d5032802d1055885b4274d080b68ef40598bea6f7a357f15fa7e02f063522bb1"),
    # the next three were recorded while floor_power still used mpmath and
    # P41 still rebuilt g's jumps and walked its events in Python, each
    # replicate: at q = 0.5, p_10 = 1/1024 ties 1/n, which g's jumps exclude
    "P41_tie": (
        "target = P41\nq = 0.5\nn_values = 1e3, 1024\nreplicates = 100\nseed = 16\n",
        "f88de305845e24b69bb4efc24107c9d85c814f1208de25dc68ba1dee4aeccbef"),
    "P41_q099": (
        "target = P41\nq = 0.99\nn_values = 1e4\nreplicates = 100\nseed = 17\n",
        "aaede64bee9892b7e2f096e4393a8a1e5b76ec740cd7adcc6bbf1a006122d58a"),
    # 1e12**t is within 1e-9 of an integer at every grid point: t = 0.25 and
    # 0.5 take the integer square roots, t = 0.3333333333333333 the decimal tier
    "A1_decimal_tier": (
        "target = A1\nstick = beta\ntheta = 1.0\nn_values = 1e12\n"
        "grid = 0.25, 0.3333333333333333, 0.5, 1.0\ncentering = linear\n"
        "replicates = 40\nseed = 18\n",
        "8816f68f07ed76b3205117cdb807ee5eec22fe69b4c61ff6da6de4f060037af8"),
}


def _run_csv(tmp_path, name, *args) -> bytes:
    spec_path = tmp_path / f"{name}.cfg"
    spec_path.write_text(GOLDEN[name][0])
    out = tmp_path / ("out" + "".join(args))
    assert main(["run", "--spec", str(spec_path), "--out", str(out), "--no-timestamp",
                 *args]) in (0, 1)
    return (out / f"{name}.csv").read_bytes()


@pytest.mark.parametrize("name", list(GOLDEN))
def test_cli_csv_matches_pinned_digest(tmp_path, name):
    assert hashlib.sha256(_run_csv(tmp_path, name)).hexdigest() == GOLDEN[name][1]


def test_workers_starting_mid_block_reproduce_the_serial_csv(tmp_path):
    """At --jobs 2 each worker's first replicate sits inside a block of ids
    (chunks of 600 // 16 = 37), so it builds that block's seeding words itself."""
    assert _run_csv(tmp_path, "A1_wide_seed", "--jobs", "2") == _run_csv(tmp_path, "A1_wide_seed")
