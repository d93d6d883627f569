"""Perturbed random walks: visit counts, the renewal comparison, the uniform
law of large numbers, and the stable regimes of the visit-count limit.

Run:  python demos/prw_visits_demo.py
"""

import math

import numpy as np

from sievesim.harness import ExperimentSpec, run_experiment
from sievesim.prw import StepLaw, simulate_path
from sievesim.sampling import RngStream

rng = RngStream(1, 0)
law = StepLaw(("exp", 1.0), ("exp", 1.0))

path = simulate_path(law, 20.0, rng)
print("one Exp/Exp walk up to horizon 20:")
for x in (2.0, 5.0, 10.0, 20.0):
    print(f"  N({x:>4}) = {path.count_visits(x):2d}   nu({x:>4}) = {path.count_renewals(x):2d}"
          f"   (visits never exceed renewals)")

rep = run_experiment(ExperimentSpec(target="P31", n_values=(100, 1000, 10**4), replicates=300,
                                    grid=(0.25, 0.5, 0.75, 1.0), seed=1))
print("\nuniform LLN: median sup_t |m(N(n) - N(n(1-t)-))/n - t|")
for row in rep.rows[:-1]:
    print(f"  n = {int(row['n']):>6}: median = {row['median']:.4f}")

print("\nvisit-count limits (KS against the limit marginal; the acceptance")
print("gates are calibrated at 1e4 replicates, this demo uses 2000):")
for target, kw in (("B1", dict(xi="exp", xi_param=1.0)),
                   ("B3", dict(xi="pareto", xi_param=1.5)),
                   ("B4", dict(xi="pareto", xi_param=0.5))):
    n = 10**6 if target == "B4" else 10**5
    spec = ExperimentSpec(target=target, n_values=(n,), replicates=2000,
                          grid=(1.0,), seed=9, eta="exp", eta_param=1.0, **kw)
    row = run_experiment(spec).rows[0]
    print(f"  {target} ({kw['xi']} steps, n = 1e{round(math.log10(n))}): "
          f"KS = {row['value']:.4f}")
