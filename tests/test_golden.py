"""Byte-identity of CLI reports: short runs whose CSV sha256 digests are
pinned.  A change that only speeds up a sampler keeps every draw and every
floating-point operation, so these digests must not move; a change that
alters drawn values on purpose re-records them and says why.

The specs cover each step law the walk draws (exp, pareto with one and
several blocks, const, independent and shared log sticks), the Feller
coupling with its sieve half (ESF_FLT, and EQ at n = 1e12 with theta != 1),
the sieve at depths where floor_power settles near-integer powers (with
theta = 1, with theta = 2 about 74 boxes deep, and on a grid that reaches
both its integer square-root and its decimal tier), P21's and P41's exact
sup paths (P41 also where a box probability ties 1/n exactly), exppareto
sticks in both the ratio (T22) and the process (A3) mode, and a seed above
2^32 whose sieve blocks' streams cross the edge of a 1,024-id block of
`RngStream` seeding words.
"""

import hashlib

import pytest

from sievesim.cli import main

GOLDEN = {
    # B1_exp and B3_pareto were re-recorded when visit_process began to draw
    # eta only where it can move a count (sparse thinning below each grid
    # point); B4_pareto_const's const eta draws nothing, so its digest held.
    # B1_exp was re-recorded again when an exp xi walk stopped drawing its
    # path: per grid point it draws the sums within eta's reach backwards
    # and counts those further below with one Poisson draw.  Re-recorded
    # when it began to draw the displaced Poisson law itself: eta_1, then
    # one Poisson count per grid interval
    "B1_exp": (
        "target = B1\nxi = exp\nxi_param = 1.0\neta = exp\neta_param = 2.0\n"
        "n_values = 100, 1000\ngrid = 0.25, 0.5, 1.0\nreplicates = 60\nseed = 3\n",
        "1e13ad4e59d22803c187050c30fffe8a66f69534e19097b806a354a2f0754c12"),
    "B3_pareto": (
        "target = B3\nxi = pareto\nxi_param = 1.5\neta = exp\n"
        "n_values = 300\ngrid = 0.5, 1.0\nreplicates = 60\nseed = 4\n",
        "6021113dc6cf743d48090414052406cbc303d0ee18cc08a2265bea45aaff26d5"),
    # re-recorded when log_normalizer became Newton's method: the scale moved
    # by about 1e-12 relative, to the correctly rounded root.  Re-recorded
    # with A3_exppareto and A1_theta2_deep when the integral of F_eta became
    # graded quadrature: the centering of its exppareto eta moved by 1e-8
    # (2e-10 relative; the old panels missed F's |log s|^-alpha edge at 0),
    # its counts held
    "B2_shared_stick": (
        "target = B2\ndependence = sharedstick\nstick = exppareto\nalpha = 2.0\n"
        "n_values = 200\ngrid = 0.5, 1.0\nreplicates = 60\nseed = 5\n",
        "e980807f342fe6d83d83afd6b91fa9ebd066f61626fff9a6df3164d973f22cbc"),
    "B4_pareto_const": (
        "target = B4\nxi = pareto\nxi_param = 0.9\neta = const\neta_param = 0.5\n"
        "n_values = 5000\ngrid = 0.5, 1.0\nreplicates = 60\nseed = 9\n",
        "786075d45f5ce263214f5894cb7862213426550424db3504cc73933667cd01b3"),
    # re-recorded with the six-sigma first xi block: its eta are drawn after
    # a block of another length
    "P31_log_sticks": (
        "target = P31\nxi = logstick\neta = log1mstick\nstick = beta\ntheta = 2.0\n"
        "n_values = 50, 200\ngrid = 0.5, 1.0\nreplicates = 30\nseed = 10\n",
        "893b075086c02b6f7e0b7a95675ac58d81fe8c8b853e0f76b12bb4abc42328ee"),
    # re-recorded when P33 began to count nu(y) on the increments' own walk
    # instead of on a second walk from the same stream: the increments held,
    # and the normalized column now holds the renewals of that one path
    "P33": (
        "target = P33\nx_values = 0, 3, 7\ny_values = 1, 2.5\nreplicates = 40\nseed = 6\n",
        "f203f70e81cd99c91e924e30f9ecbc19234c85244c95b00e244437df54f7d782"),
    # re-recorded on purpose when the Feller coupling began to jump from one
    # indicator to the next: one uniform per cycle instead of one per position
    # changes its draws; its sieve half and every other digest stayed put.
    # Re-recorded with EQ_deep when the Feller coupling began to draw blocks of
    # up to 1,024 replicates from one stream, a round of uniforms per cycle
    "ESF_FLT": (
        "target = ESF_FLT\ntheta = 1.0\nn_values = 1000, 5000\ngrid = 0.5, 1.0\n"
        "replicates = 40\nseed = 7\n",
        "b0ece7a9c8c272d9e7e1302ded2b33064454471e8e66cd2cea430470f95edbbc"),
    # A1, P21_sup, T22_ratio_exppareto, A3_exppareto, EQ_deep, A1_wide_seed,
    # A1_theta2_deep and A1_decimal_tier were re-recorded when the sieve began
    # to thin blocks of up to 1,024 replicates together from one stream,
    # drawing each depth's sticks and then one array binomial for the block.
    # ESF_FLT's CSV holds only its cycle counts, so its digest held, while its
    # sieve half moved.
    "A1": (
        "target = A1\nstick = beta\ntheta = 1.0\nn_values = 1e8, 1e12\n"
        "grid = 0.25, 0.5, 0.75, 1.0\ncentering = linear\nreplicates = 40\nseed = 8\n",
        "80ed7c9f8987509e0d167951f6ed70e0b0c6e5f0ed80aaa1a78a70915f291f5d"),
    "P21_sup": (
        "target = P21\nstick = beta\ntheta = 1.0\nn_values = 1e4, 1e12\ngrid = 1.0\n"
        "replicates = 40\nseed = 11\n",
        "7c2f0ac6492fa6201ed1f4d2db35de6c33263a3b1f6f950e855843a10367e1d2"),
    "T22_ratio_exppareto": (
        "target = T22\nmode = ratio\nstick = exppareto\nalpha = 0.5\nn_values = 1e12\n"
        "grid = 0.5, 1.0\nreplicates = 40\nseed = 12\n",
        "ab6117e87c17cc99b0d18cfa58c37021eebe832eb594e1179fcdea53714aa1b2"),
    # re-recorded again when the integral of F_eta in its centering u_n(t)
    # became graded quadrature: the old panels missed F's |log s|^-alpha edge
    # at 0: u_n(1) moved by 2e-8 (3e-9 relative), the counts held
    "A3_exppareto": (
        "target = A3\nstick = exppareto\nalpha = 1.5\nn_values = 1e8, 1e12\n"
        "grid = 0.5, 1.0\nreplicates = 40\nseed = 13\n",
        "05585a22c3e77775bbdd317811f0fe0e23e06564484808b93d4589787de771d0"),
    # recorded when EQ began to draw its cycles with the Feller coupling
    # instead of the Chinese restaurant, whose n uniforms per replicate put
    # n = 1e12 out of reach; re-recorded with ESF_FLT when the Feller coupling
    # began to draw its replicates in blocks
    "EQ_deep": (
        "target = EQ\ntheta = 1.5\nn_values = 1e12\ngrid = 0.5, 1.0\n"
        "replicates = 40\nseed = 14\n",
        "9598e0764a520e3d819b4ea3b5bd7098fcc6c2326b159b507f2f76e78c78b66c"),
    # first recorded with numpy's SeedSequence building every stream, before
    # the seeding words were hashed a block of ids at a time: a two-word seed.
    # The sieve blocks took it from 600 to 1,100 replicates, so that its two
    # columns draw from streams 0, 1024, 1100 and 2124, which still cross the
    # edges of the 1,024-id seeding blocks, and --jobs 2 splits each column
    "A1_wide_seed": (
        "target = A1\nstick = beta\ntheta = 1.0\nn_values = 1e4, 1e9\ngrid = 0.5, 1.0\n"
        "centering = linear\nreplicates = 1100\nseed = 4294967301\n",
        "8d982fc5162c1a18ecbfc828d81beef996f4a2ec5ed191144c716f63df55e41e"),
    # theta = 2 thins about 2 log n = 74 boxes deep at n = 1e16, through BTPE
    # and inversion binomials.  Re-recorded, with A3_exppareto, when the
    # centering's integral of F_eta became graded quadrature for every stick:
    # here it replaced theta = 2's closed form, which it matches to an ulp
    # (u_n(0.5) moved by one), and the counts held
    "A1_theta2_deep": (
        "target = A1\nstick = beta\ntheta = 2.0\nn_values = 1e16\n"
        "grid = 0.25, 0.5, 0.75, 1.0\nreplicates = 40\nseed = 15\n",
        "334d0349f81436cb7ee0a6490db1203bca7e39d1a37efaea8cbbf19f1f1b0ef0"),
    # the two P41 digests were recorded while floor_power still used mpmath
    # and P41 still rebuilt g's jumps and walked its events in Python, each
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
        "5b6088eeb5c5c0a09c72e9301311b60fd88494f63521329f3713d2aab7c724a2"),
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
    """At --jobs 2 the two workers take a sieve block each, and the worker
    with the second block of a column builds its own seeding words for ids
    1024 and 2124."""
    assert _run_csv(tmp_path, "A1_wide_seed", "--jobs", "2") == _run_csv(tmp_path, "A1_wide_seed")
