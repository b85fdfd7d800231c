"""
Codimension of the representation set by volume scaling
=======================================================

The parameters that represent a c-kink target exactly form a set of
codimension 2c + 1 inside parameter space. That exponent is observable:
the prior volume of the tube {theta : dist(theta, set) <= eps} scales like
eps^(2c+1), so regressing ln(volume) on ln(eps) counts the constraints.

The distance oracle is exact (per-node hyperbola projections plus a
dead-node alternative), and the volume is estimated by sampling the ball
B_R (hidden biases in [0, M]) uniformly and counting tube hits.
"""

from bayescomplex.complexity import codim_estimate
from bayescomplex.families import NnPriorSpec
from bayescomplex.pwl import PwlFunction
from bayescomplex.rng import SeededRng

# One kink (c = 1) in a k = 1 network: expect slope 3.
g1 = PwlFunction(bias=0.0, knots=((0.35, 1.0),))
fit = codim_estimate(g1, 1, NnPriorSpec.default_for(1), 300_000, SeededRng(42))
print("c = 1 (expect codimension 3):")
for eps, est in zip(fit.eps_grid, fit.per_eps):
    print(f"  eps = {eps:5.2f}: {est.n_hits:6d} hits")
print(f"  slope = {fit.slope:.3f} +- {fit.ci_halfwidth:.3f}")
if fit.note:
    print(f"  note: {fit.note}")

# Two kinks (c = 2) in a k = 2 network: expect slope 5. Hits at codimension
# five are rare, so widen the radii and spend more samples.
g2 = PwlFunction(bias=0.0, knots=((0.3, 1.0), (0.7, -0.8)))
fit2 = codim_estimate(
    g2,
    2,
    NnPriorSpec.default_for(2),
    500_000,
    SeededRng(42),
    eps_grid=(0.5, 0.4, 0.3, 0.22),
    radius=4.0,
)
print("\nc = 2 (expect codimension 5):")
for eps, est in zip(fit2.eps_grid, fit2.per_eps):
    print(f"  eps = {eps:5.2f}: {est.n_hits:6d} hits")
print(f"  slope = {fit2.slope:.3f} +- {fit2.ci_halfwidth:.3f}")
