"""
Depth advantage on periodic targets
===================================

Tiling a reflection-symmetric sawtooth l times is cheap for a deep network
-- compose the tile with a triangle wave built from ~4l parameters -- but
expensive for a shallow one, which must spend fresh nodes on every kink.
The constrained-parameter counts are 4l + 2m + 6 (deep) versus
2 l (m + 2) + 1 (shallow), so depth wins for every l >= 4.

The deep construction here is exact to floating-point roundoff, not just
approximate.
"""

import numpy as np

from bayescomplex.models import build_periodic_deep_net, interior_knot_count
from bayescomplex.pwl import PwlFunction, periodize

# One tile: a tent with m = 1 interior kink, g0(0) = g0(1) = 0.
tent = PwlFunction(bias=0.0, knots=((0.0, 2.0), (0.5, -4.0)))
m = interior_knot_count(tent)

print(" l   deep params   deep bound   shallow count   sup |deep - tiled|")
for l in (2, 4, 8, 16):
    net, count = build_periodic_deep_net(tent, l)
    tiled = periodize(tent, l)
    xs = np.linspace(0.0, float(l), 10_000)
    sup = float(np.max(np.abs(net.forward(xs) - tiled(xs))))
    deep_bound = 4 * l + 2 * m + 6
    shallow = 2 * (l * (m + 2)) + 1
    print(f"{l:2d}   {count:8d}      {deep_bound:6d}       {shallow:8d}        {sup:.2e}")

print("\nlayer widths for l = 16:", build_periodic_deep_net(tent, 16)[0].layer_dims)
