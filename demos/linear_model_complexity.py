"""
Linear model: closed-form complexity and its Monte Carlo check
==============================================================

The complexity of hitting an eps-ball around a target weight vector under a
Gaussian prior has a closed form for the linear model (a noncentral
chi-square tail). This script shows the two headline behaviours:

* chi(eps) = -ln q grows like d * ln(1/eps), so the fitted slope of chi
  against ln(1/eps) recovers the parameter count d;
* a plain Monte Carlo estimate of the same probability agrees with the
  closed form within its standard error.
"""

import numpy as np

from bayescomplex.complexity import (
    chi_from_q,
    limiting_complexity_closed_form,
    sharp_complexity_mc,
)
from bayescomplex.families import LinearFamily, LinearPriorSpec, LinearTarget
from bayescomplex.models import BasisSpec
from bayescomplex.rng import SeededRng

# The slope of chi against ln(1/eps) counts parameters.
eps_grid = tuple(10.0**e for e in np.linspace(-1, -3, 5))
print("slope of chi(eps) vs ln(1/eps), kappa = sigma_w = 1:")
for d in (2, 3, 5):
    fit = limiting_complexity_closed_form(1.0, 1.0, d, eps_grid)
    print(f"  d = {d}: slope = {fit.slope:.4f} (expect {d})")

# Monte Carlo at a single radius agrees with the closed form.
d = 3
family = LinearFamily(BasisSpec(d=d), LinearPriorSpec(1.0))
target = LinearTarget((1.0, 0.0, 0.0))
eps_sq = 0.09
mc = sharp_complexity_mc(family, target, eps_sq, 1_000_000, SeededRng(0))
exact = chi_from_q(1.0, 1.0, eps_sq, d)
print(f"\nchi at eps^2 = {eps_sq} with d = {d}:")
print(f"  closed form : {exact.chi:.5f}")
print(f"  monte carlo : {mc.chi:.5f} +- {mc.std_err:.5f} ({mc.n_hits} hits)")
print(f"  |difference|: {abs(mc.chi - exact.chi):.5f}")
