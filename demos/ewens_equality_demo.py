"""The cycle structure of a theta-biased random permutation and the occupancy
of a beta(theta, 1) stick-breaking sieve share one law: the number of cycles
of length at most n^t and the number of boxes holding at most n^t balls.
Compare the two head to head with the EQ target, at a small n and at
n = 1e12, far beyond what a per-customer construction of the permutation
could reach.

Run:  python demos/ewens_equality_demo.py
"""

from sievesim.harness import ExperimentSpec, run_experiment

theta, reps = 1.0, 2000

for n in (10**3, 10**12):
    spec = ExperimentSpec(target="EQ", theta=theta, n_values=(n,), replicates=reps,
                          grid=(0.5, 1.0), seed=5)
    report = run_experiment(spec)
    print(f"n = {n:.0e}, theta = {theta}, {reps}+{reps} replicates:")
    for row in report.rows:
        cycles, boxes = next(column[3:] for column in report.raw if column[2] == row["t"])
        print(f"  t = {row['t']}: mean cycles {cycles.mean():6.2f}, mean boxes {boxes.mean():6.2f}, "
              f"two-sample KS = {row['value']:.4f} (calibrated gate {row['threshold']})")
