"""The uniform approximation of the small-count process by the reversed
box-counting function: Monte Carlo left side against the computable envelope.

Run:  python demos/occupancy_bound_demo.py
"""

from sievesim.harness import ExperimentSpec, run_experiment

spec = ExperimentSpec(target="P41", n_values=(10**3, 10**4, 10**5, 10**6), replicates=300,
                      seed=2, q=0.5)
x0_row, *rows = run_experiment(spec).rows
print(f"window constant x0 (root of x - x^0.75 = 1): {x0_row['value']:.12f}\n")

print("geometric(1/2) boxes: E sup_t |K_n(t) - reversed-count(t)| vs envelope")
print(f"{'n':>10} {'lhs estimate':>16} {'envelope':>10}")
for row in rows:
    print(f"{row['n']:>10} {row['lhs']:>10.3f} +- {row['stderr']:.3f} {row['threshold']:>10.2f}")
print("\nthe envelope is loose by design; what matters is that it grows like")
print("the counting function near the boundary while the left side stays flat")
