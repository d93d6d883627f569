"""The limit-law toolbox: positive stable draws and their Laplace transform,
the spectrally negative marginal and its characteristic function, the
inverse subordinator's exact marginal against its closed-form mean, and the
time-reversal ratio's arcsine atom.

Run:  python demos/stable_limits_demo.py
"""

import cmath
import math

import numpy as np

from sievesim.limits import sample_inverse_ratio
from sievesim.sampling import (
    RngStream,
    sample_inverse_subordinator_marginal,
    sample_spectrally_negative_stable,
    sample_standard_positive_stable,
)

rng = RngStream(4, 0)

d = sample_standard_positive_stable(0.5, rng, 10**5)
print(f"positive stable, alpha = 0.5: E exp(-D) = {np.mean(np.exp(-d)):.5f} "
      f"(exact e^-1 = {math.exp(-1):.5f})")
# the subordinator marginal W(1) = Gamma(1 - alpha)^(1/alpha) D has Laplace
# exponent Gamma(1 - alpha) z^alpha
w = math.gamma(0.5) ** 2 * sample_standard_positive_stable(0.5, rng, 10**5)
print(f"subordinator marginal:        E exp(-W) = {np.mean(np.exp(-w)):.5f} "
      f"(exact e^-Gamma(0.5) = {math.exp(-math.gamma(0.5)):.5f})")

s = sample_spectrally_negative_stable(1.5, rng, 10**5)
# E e^(iuS) = exp(-|u|^alpha Gamma(1 - alpha) e^(i sign(u) pi alpha / 2)) at u = 1
target = cmath.exp(-math.gamma(-0.5) * cmath.exp(0.75j * math.pi))
emp = np.mean(np.exp(1j * s))
print(f"\nspectrally negative, alpha = 1.5:")
print(f"  E e^(iS) empirical {emp:.4f} vs characteristic function {target:.4f}")
print(f"  P(S > 0) = {np.mean(s > 0):.4f}  (heavy tail sits left, so above 1/2)")

marg = np.asarray(sample_inverse_subordinator_marginal(0.5, 1.0, rng, 10**5))
exact = 1.0 / (math.gamma(0.5) * math.gamma(1.5))  # t^alpha / (Gamma(1-alpha) Gamma(1+alpha))
print(f"\ninverse subordinator at t=1: mean {marg.mean():.4f} +- "
      f"{marg.std() / math.sqrt(len(marg)):.4f} (exact 2/pi = {exact:.4f})")

rat = sample_inverse_ratio(0.5, 0.5, rng, 3000)
print(f"\ntime-reversal ratio at t=0.5: P(ratio = 0) = {np.mean(rat == 0):.3f} "
      f"(exact arcsine atom = 0.5)")
