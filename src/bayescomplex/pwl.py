"""Exact algebra for piecewise-linear functions on a bounded interval.

A function is stored in the ramp representation

    g(x) = bias + sum_i v_i * max(0, x - t_i),

with strictly increasing knot locations t_i in [domain_lo, domain_hi) and
nonzero slope changes v_i. Everything downstream (distances, complexities,
projections) relies on this algebra being closed-form exact, so none of the
operations here use numerical quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

# Tolerance for canonical-form equality of two functions. Projection results
# must represent their targets exactly up to floating-point rounding, and this
# is the acceptance threshold for "exact".
CANONICAL_TOL = 1e-12


@dataclass(frozen=True)
class PwlFunction:
    """Canonical piecewise-linear function on [domain_lo, domain_hi]."""

    bias: float
    knots: tuple[tuple[float, float], ...] = field(default=())
    domain_lo: float = 0.0
    domain_hi: float = 1.0

    def __post_init__(self):
        if not self.domain_lo < self.domain_hi:
            raise ConfigError(
                f"degenerate domain [{self.domain_lo}, {self.domain_hi}]"
            )
        prev = None
        for t, v in self.knots:
            if not (self.domain_lo <= t < self.domain_hi):
                raise ConfigError(f"knot location {t} outside [lo, hi)")
            if prev is not None and t <= prev:
                raise ConfigError("knot locations must be strictly increasing")
            if v == 0.0:
                raise ConfigError("zero slope change; canonicalize first")
            prev = t

    # -- evaluation ---------------------------------------------------------

    def __call__(self, x):
        """Evaluate at a scalar or array of points inside the domain."""
        xs = np.asarray(x, dtype=float)
        if np.any(xs < self.domain_lo - 1e-12) or np.any(xs > self.domain_hi + 1e-12):
            raise ConfigError("evaluation point outside the function domain")
        out = np.full_like(xs, self.bias, dtype=float)
        for t, v in self.knots:
            out += v * np.maximum(0.0, xs - t)
        return out if out.ndim else float(out)

    def breakpoints(self) -> np.ndarray:
        """Domain endpoints plus knot locations, sorted."""
        return np.array([self.domain_lo, *(t for t, _ in self.knots), self.domain_hi], dtype=float)


def canonicalize(
    raw_knots,
    bias: float,
    domain_lo: float = 0.0,
    domain_hi: float = 1.0,
) -> PwlFunction:
    """Sort knots, merge duplicates by summing v, drop zero slope changes."""
    merged: dict[float, float] = {}
    for t, v in raw_knots:
        t = float(t)
        merged[t] = merged.get(t, 0.0) + float(v)
    knots = tuple(
        (t, v) for t, v in sorted(merged.items()) if v != 0.0
    )
    return PwlFunction(float(bias), knots, domain_lo, domain_hi)


def canonical_equal(f: PwlFunction, g: PwlFunction) -> bool:
    """Equality as functions to within CANONICAL_TOL, checked at the union
    of breakpoints.

    The difference of two piecewise-linear functions attains its maximum
    modulus at a breakpoint, so this finite check is exact up to rounding.
    """
    tol = CANONICAL_TOL
    if abs(f.domain_lo - g.domain_lo) > tol or abs(f.domain_hi - g.domain_hi) > tol:
        return False
    pts = np.unique(np.concatenate([f.breakpoints(), g.breakpoints()]))
    pts = np.clip(pts, f.domain_lo, f.domain_hi)
    return bool(np.max(np.abs(f(pts) - g(pts))) <= tol)


def _integral_sq(pts, vals) -> float:
    """Exact integral of h^2 for h linear between the sorted points pts,
    with h(pts) = vals: each segment of length L contributes
    L * (a^2 + a*b + b^2) / 3, with a, b its endpoint values."""
    terms = [
        (x1 - x0) * (a * a + a * b + b * b) / 3.0
        for x0, x1, a, b in zip(pts, pts[1:], vals, vals[1:])
    ]
    return float(np.sum(terms))


def l2_norm_sq(f: PwlFunction) -> float:
    """Unnormalized squared L2 norm over the function's own domain; f is
    evaluated at its breakpoints on floats, in the order f(x) adds ramps."""
    knots = [(float(t), float(v)) for t, v in f.knots]
    pts = [float(f.domain_lo), *(t for t, _ in knots), float(f.domain_hi)]
    vals = []
    for x in pts:
        acc = float(f.bias)
        for t, v in knots:
            acc += v * (0.0 if x - t <= 0.0 else x - t)  # np.maximum(0.0, x - t)
        vals.append(acc)
    return _integral_sq(pts, vals)


def periodize(g0: PwlFunction, l: int) -> PwlFunction:
    """Tile g0 (period-1 profile on [0,1]) l times onto [0, l].

    Requires g0(0) = g0(1) so the tiling is continuous. Slope is allowed to
    jump at integer seams; the jump becomes a knot there.
    """
    if l < 1 or int(l) != l:
        raise ConfigError("period count must be a positive integer")
    if abs(g0.domain_lo) > 1e-12 or abs(g0.domain_hi - 1.0) > 1e-12:
        raise ConfigError("profile must live on [0, 1]")
    wrap_gap = g0(1.0) - g0(0.0)
    if abs(wrap_gap) > 1e-10:
        raise ConfigError(
            f"profile endpoints differ by {wrap_gap:.3g}; tiling would be discontinuous"
        )
    l = int(l)
    start_slope = sum(v for t, v in g0.knots if t == 0.0)
    end_slope = sum(v for _, v in g0.knots)
    raw = []
    for j in range(l):
        # Seam knot: restart the within-period slope pattern.
        seam = start_slope if j == 0 else start_slope - end_slope
        if seam != 0.0:
            raw.append((float(j), seam))
        for t, v in g0.knots:
            if t > 0.0:
                raw.append((t + j, v))
    return canonicalize(raw, g0(0.0), 0.0, float(l))
