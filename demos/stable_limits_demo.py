"""The limit-law toolbox: positive stable draws and their Laplace transform,
the spectrally negative marginal and its characteristic function, and the
inverse subordinator sampled two independent ways.

Run:  python demos/stable_limits_demo.py
"""

import math

import numpy as np

from sievesim.harness import ks_two_sample
from sievesim.limits import sample_inverse_ratio
from sievesim.sampling import (
    RngStream,
    sample_inverse_subordinator_marginal,
    sample_inverse_subordinator_path,
    sample_positive_stable,
    sample_spectrally_negative_stable,
    sample_standard_positive_stable,
    spectrally_negative_cf,
)

rng = RngStream(4, 0)

d = sample_standard_positive_stable(0.5, rng, 10**5)
print(f"positive stable, alpha = 0.5: E exp(-D) = {np.mean(np.exp(-d)):.5f} "
      f"(exact e^-1 = {math.exp(-1):.5f})")
w = sample_positive_stable(0.5, rng, 10**5)
print(f"subordinator marginal:        E exp(-W) = {np.mean(np.exp(-w)):.5f} "
      f"(exact e^-Gamma(0.5) = {math.exp(-math.gamma(0.5)):.5f})")

s = sample_spectrally_negative_stable(1.5, rng, 10**5)
target = spectrally_negative_cf(1.5, 1.0)
emp = np.mean(np.exp(1j * s))
print(f"\nspectrally negative, alpha = 1.5:")
print(f"  E e^(iS) empirical {emp:.4f} vs characteristic function {target:.4f}")
print(f"  P(S > 0) = {np.mean(s > 0):.4f}  (heavy tail sits left, so above 1/2)")

marg = np.asarray(sample_inverse_subordinator_marginal(0.5, 1.0, rng, 3000))
paths = np.array([sample_inverse_subordinator_path(0.5, [1.0], 1e-3, RngStream(8, i))[0]
                  for i in range(3000)])
print(f"\ninverse subordinator at t=1: closed-form sampler vs discretised path")
print(f"  means {marg.mean():.4f} / {paths.mean():.4f}, two-sample KS = "
      f"{ks_two_sample(marg, paths):.4f}")

rat = sample_inverse_ratio(0.5, 0.5, rng, 3000)
print(f"\ntime-reversal ratio at t=0.5: P(ratio = 0) = {np.mean(rat == 0):.3f} "
      f"(exact arcsine atom = 0.5)")
