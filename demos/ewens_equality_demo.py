"""The cycle structure of a theta-biased random permutation and the occupancy
of a beta(theta, 1) stick-breaking sieve share one law; compare them head to
head with both cycle samplers.

Run:  python demos/ewens_equality_demo.py
"""

import numpy as np

from sievesim.ewens import sample_cycles_crp, sample_cycles_feller
from sievesim.harness import ExperimentSpec, ks_two_sample, run_experiment
from sievesim.sampling import RngStream

theta, n, reps = 1.0, 1000, 2000

rng = RngStream(3, 0)
crp = np.array([sample_cycles_crp(n, theta, rng).num_cycles() for _ in range(reps)])
fel = np.array([sample_cycles_feller(n, theta, rng).num_cycles() for _ in range(reps)])
print(f"number of cycles at n={n}, theta={theta}:")
print(f"  restaurant construction: mean {crp.mean():.2f}, sd {crp.std():.2f}")
print(f"  coupling construction:   mean {fel.mean():.2f}, sd {fel.std():.2f}")
print(f"  two-sample KS between the constructions: {ks_two_sample(crp, fel):.4f}")

spec = ExperimentSpec(target="EQ", theta=theta, n_values=(n,), replicates=reps,
                      grid=(1.0,), seed=5)
row = run_experiment(spec).rows[0]
print(f"\ncycle count vs occupied-box count, {reps}+{reps} replicates:")
print(f"  two-sample KS = {row['value']:.4f}  (calibrated gate {row['threshold']})")
