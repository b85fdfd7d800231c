"""
Projecting a network onto an exact representation set
======================================================

A shallow ReLU network whose function is small in L2 can be moved onto the
set of networks computing *exactly* zero, with parameter movement controlled
by the function norm: movement^2 <= 96 k^(13/5) ||f||^(4/5). The projection
runs in two phases -- merge nearby kinks (bias moves), then cancel each
merged group's total weight (weight changes) -- and this script replays both
phases move by move.

The same machinery projects onto an arbitrary piecewise-linear target by
zero-projecting the difference network with the target's nodes pinned, and
onto the zero set with the output bias b2 left free.
"""

from bayescomplex.models import ShallowNetParams, shallow_to_pwl
from bayescomplex.projection import (
    project_to_target,
    project_to_zero,
    project_to_zero_with_bias,
)
from bayescomplex.pwl import PwlFunction, canonical_equal, l2_norm_sq

# A three-node network computing a function of tiny L2 norm. The first two
# kinks sit closer together than the local slope is large, so phase 1 will
# merge them before phase 2 cancels the grouped weights.
u = (8e-4, -5e-4, 3e-4)
b = (0.30, 0.3004, 0.87)
theta = ShallowNetParams((1.0,) * 3, u, b, 0.0)
norm_sq = l2_norm_sq(shallow_to_pwl(theta))
print(f"start: ||f||^2 = {norm_sq:.3e}, biases = {b}")

res = project_to_zero(theta)
f_star = shallow_to_pwl(res.theta_star)
print(f"after projection: knots = {f_star.knots}, bias = {f_star.bias}")
print(f"movement^2 = {res.movement_sq:.3e} (bound {res.bound:.3e})")

print("\nphase 1 (bias moves):")
for i, old, new in res.phases.bias_moves:
    print(f"  node {i}: bias {old:.6f} -> {new:.6f}")
print("phase 2 (weight changes):")
for i, old, new in res.phases.weight_changes:
    print(f"  node {i}: weight {old:+.3e} -> {new:+.3e}")

# Projection onto a nonzero target: perturb an exact representation of g
# and recover it exactly.
g = PwlFunction(bias=0.25, knots=((0.4, 0.8),))
theta = ShallowNetParams((1.0, 1.0), (0.8 + 1e-5, 1e-5), (0.4 + 1e-5, 0.9), 0.25)
res = project_to_target(theta, g, R=2.0, guard_scale=1.0)
recovered = canonical_equal(shallow_to_pwl(res.theta_star), g)
print(f"\ntarget recovery: f* == g is {recovered}")
print(f"movement^2 = {res.movement_sq:.3e}")

# Projection with a free output bias: a small net with b2 != 0 is moved onto
# the zero set, movement^2 <= k^5 R^(4/5) ||f||^(2/5).
theta = ShallowNetParams((1.0, 1.0), (1e-3, -5e-4), (0.2, 0.6), 1e-4)
res = project_to_zero_with_bias(theta, R=1.0)
zero = canonical_equal(shallow_to_pwl(res.theta_star), PwlFunction(bias=0.0))
print(f"\nwith output bias b2 = {theta.b2:g}: f* == 0 is {zero}")
print(f"movement^2 = {res.movement_sq:.3e} (bound {res.bound:.3e})")
