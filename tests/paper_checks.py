"""Checkers of the paper's side inequalities and claimed closed forms, and
Monte Carlo references for the posterior losses.

None of these feeds an estimator or a CLI report. They exist so the tests
(acceptance criterion 07 among them) can assert the scalar inequalities the
movement proofs and the complexity chain rest on, check the minimum-norm
realization's cost against the variational complexity, show the claimed
product density next to a Monte Carlo estimate of the true one, and compare
the exact conjugate clipped losses with their Monte Carlo estimates over
posterior draws (empirical_loss_of_Q, true_loss_of_Q).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from bayescomplex.errors import ConfigError
from bayescomplex.posterior import Dataset, LossSpec, generate_dataset
from bayescomplex.projection import _norm_sq_nodes
from bayescomplex.pwl import L2Measure, PwlFunction
from bayescomplex.rng import SeededRng


def megaineq_gap(px: np.ndarray, py: np.ndarray, f: np.ndarray) -> float:
    """E_X[ln E_Y e^{-f}] - ln E_Y[e^{-E_X f}] for finite discrete (X, Y, f).

    Nonnegative for f >= 0 (in fact for any bounded f, by convexity); the
    returned gap lets property tests assert it never dips below -1e-12.
    """
    px = np.asarray(px, dtype=float)
    py = np.asarray(py, dtype=float)
    f = np.asarray(f, dtype=float)
    if f.shape != (px.size, py.size):
        raise ConfigError("f must have shape (len(px), len(py))")
    lhs = float(px @ np.log(np.exp(-f) @ py))
    rhs = float(np.log(np.exp(-(px @ f)) @ py))
    return lhs - rhs


def prefix_sum_bound(x) -> tuple[float, float]:
    """(sum of squared prefix sums, (1/8) sum of squares); the first is
    never smaller than the second."""
    x = np.asarray(x, dtype=float)
    prefix = np.cumsum(x)
    return float(prefix @ prefix), float(x @ x) / 8.0


def l2_slope_lower_bound(u, b) -> tuple[float, float]:
    """For f(x) = sum u_i [x - b_i]_+ with biases in [0, 1):
    (||f||^2 over [0,1], (1/12) sum_j W_j^2 (d_{j+1} - d_j)^3) with W the
    prefix-sum slopes over distinct biases and d_{m+1} = 1."""
    u = np.asarray(u, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.any(b < 0.0) or np.any(b >= 1.0):
        raise ConfigError("biases must lie in [0, 1)")
    norm_sq = _norm_sq_nodes(u, b, 0.0)
    locs = np.unique(b)
    w = np.array([u[b <= loc].sum() for loc in locs])
    gaps = np.diff(np.append(locs, 1.0))
    rhs = float(np.sum(w * w * gaps**3)) / 12.0
    return norm_sq, rhs


def variational_complexity(g: PwlFunction) -> float:
    """Total variation of g': sum of |v_i|, counting a knot at the left endpoint."""
    return float(np.sum(np.abs(np.array([v for _, v in g.knots], dtype=float))))


def product_density_claimed(a0: float, sigma_w_sq: float) -> float:
    """Claimed density of w1*w2 at a0 for iid N(0, sigma_w_sq) factors:
    (1/sqrt(2 pi sigma_w_sq)) * exp(-|a0|/sigma_w_sq), reproduced verbatim.

    The companion diagnostic product_density_mc estimates the actual density
    so the tests can show the discrepancy; neither value is asserted correct.
    """
    if sigma_w_sq <= 0:
        raise ConfigError(f"sigma_w_sq must be > 0, got {sigma_w_sq}")
    return math.exp(-abs(a0) / sigma_w_sq) / math.sqrt(2.0 * math.pi * sigma_w_sq)


def product_density_mc(
    a0: float,
    sigma_w_sq: float,
    n: int,
    rng: SeededRng,
    bandwidth: float | None = None,
) -> tuple[float, float]:
    """Gaussian kernel-density estimate (value, std_err) of the density of
    w1*w2 at a0."""
    if sigma_w_sq <= 0:
        raise ConfigError(f"sigma_w_sq must be > 0, got {sigma_w_sq}")
    gen = rng.generator()
    sw = math.sqrt(sigma_w_sq)
    prod = gen.normal(0.0, sw, size=n) * gen.normal(0.0, sw, size=n)
    if bandwidth is None:
        bandwidth = 1.06 * float(prod.std()) * n ** (-0.2)
    kernel = np.exp(-0.5 * ((prod - a0) / bandwidth) ** 2) / (
        bandwidth * math.sqrt(2.0 * math.pi)
    )
    return float(kernel.mean()), float(kernel.std() / math.sqrt(n))


# --------------------------------------------------------------------------
# Monte Carlo posterior losses
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class LossEstimate:
    value: float
    std_err: float


def clipped_loss(pred, y, spec: LossSpec):
    return np.minimum((np.asarray(pred) - np.asarray(y)) ** 2, spec.clip_C)


def empirical_loss_of_Q(
    draws: np.ndarray, S: Dataset, spec: LossSpec, family
) -> LossEstimate:
    """L_S(Q) = E_{h~Q}[(1/N) sum_i min((h(x_i) - y_i)^2, C)] over posterior
    draws; the standard error covers the h-sampling only (S is fixed)."""
    draws = np.atleast_2d(np.asarray(draws, dtype=float))
    if draws.shape[0] == 0:
        raise ConfigError("empirical_loss_of_Q needs at least one posterior draw")
    preds = family.predict_batch(draws, S.xs)
    per_draw = clipped_loss(preds, S.ys[None, :], spec).mean(axis=1)
    n = per_draw.size
    return LossEstimate(float(per_draw.mean()), float(per_draw.std() / math.sqrt(n)))


def true_loss_of_Q(
    draws: np.ndarray,
    g,
    sigma_e_sq: float,
    measure: L2Measure,
    spec: LossSpec,
    n_x: int,
    rng: SeededRng,
    family,
) -> LossEstimate:
    """L_D(Q) estimated on fresh (x, y) pairs; the standard error combines
    the h-draw and the fresh-data axes conservatively."""
    draws = np.atleast_2d(np.asarray(draws, dtype=float))
    if draws.shape[0] == 0:
        raise ConfigError("true_loss_of_Q needs at least one posterior draw")
    if n_x < 2:
        raise ConfigError(f"n_x must be >= 2, got {n_x}")
    fresh = generate_dataset(g, n_x, sigma_e_sq, measure, rng)
    xs, ys = fresh.xs, fresh.ys
    # Chunk over draws so the (draws, n_x) loss matrix never exceeds a few
    # hundred megabytes; the per-draw and per-point means accumulate exactly.
    n_draws = draws.shape[0]
    rows = max(1, int(4_000_000 / n_x))
    per_draw = np.empty(n_draws)
    point_sums = np.zeros(n_x)
    for start in range(0, n_draws, rows):
        block = draws[start : start + rows]
        losses = clipped_loss(family.predict_batch(block, xs), ys[None, :], spec)
        per_draw[start : start + block.shape[0]] = losses.mean(axis=1)
        point_sums += losses.sum(axis=0)
    per_point = point_sums / n_draws
    se_h = per_draw.std() / math.sqrt(per_draw.size)
    se_x = per_point.std() / math.sqrt(per_point.size)
    return LossEstimate(float(per_draw.mean()), float(math.hypot(se_h, se_x)))
