"""Build a stick-breaking sieve, occupy it with a huge number of balls via
sequential thinning, and watch the small-count process approach its Gaussian
limit across three decades of n.

Run:  python demos/sieve_clt_demo.py
"""

import math

import numpy as np

from sievesim.harness import ExperimentSpec, run_experiment
from sievesim.occupancy import build_environment, k_process, occupy_sieve
from sievesim.sampling import RngStream, StickLaw

rng = RngStream(7, 0)
law = StickLaw.beta(1.0)

print("One realisation, n = 10^12 balls placed with ~40 binomial draws:")
env = build_environment(law, 2.0**-80, rng)
occ = occupy_sieve(env, 10**12, rng)
grid = np.linspace(0.0, 1.0, 6)
kp = k_process(occ, grid)
print(f"  environment resolved {env.num_boxes} boxes, {len(occ.counts)} occupied")
for t, v in zip(grid, kp):  # kp ends with K_n, past the grid
    print(f"  K_n({t:.1f}) = {v:3d}   (boxes holding at most floor(n^t) balls)")

print("\nGaussian limit of (K_n(1) - t log n) / sqrt(log n), beta(1,1) sticks:")
for n in (10**8, 10**12, 10**16):
    spec = ExperimentSpec(target="A1", n_values=(n,), replicates=1500, grid=(1.0,),
                          seed=11, centering="linear")
    row = [r for r in run_experiment(spec).rows if r["stat"] == "ks_normal"][0]
    print(f"  n = 1e{round(math.log10(n)):2d}: KS distance to N(0,1) = {row['value']:.4f}")
print("(the distance keeps shrinking; the calibrated gate is 0.08 at n = 1e16)")
