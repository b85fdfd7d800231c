"""Checkers of the paper's side inequalities and claimed closed forms,
reference estimators the tests compare against, and the helpers they share.

None of these feeds an estimator or a CLI report. They exist so the tests
(acceptance criteria 07 and 08 among them) can assert the scalar
inequalities the movement proofs and the complexity chain rest on, check the
minimum-norm realization's cost against the variational complexity, show
the claimed product density next to a Monte Carlo estimate of the true one,
and compare:
- the exact conjugate clipped losses with their Monte Carlo estimates over
  posterior draws (empirical_loss_of_Q, true_loss_of_Q);
- the sharp complexity with the paper's exponential, noise-shifted and
  dataset-conditional complexities (exponential_complexity_mc,
  sharp_with_noise, empirical_complexity_mc) and the divergence bound
  through the last (divergence_upper_bound);
- the exact distance kernels with the segment-by-segment L2 distance of two
  piecewise-linear functions (l2_distance_sq);
- the piecewise-linear conversion of a shallow network with its direct
  forward pass (shallow_forward);
- the samplers, which draw through numpy's standard fill path, with
  numpy's normal and uniform calls (prior_draws_ref, cloud_draws_ref,
  linear_draws_ref, dataset_draws_ref), and the shallow family's factored
  hit screen with its T1/T2/T3 formulation (lower_bound_ref).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from bayescomplex.complexity import ComplexityEstimate, _impossible, _map_batches
from bayescomplex.errors import ConfigError
from bayescomplex.families import LinearFamily
from bayescomplex.models import ShallowNetParams, basis_matrix
from bayescomplex.posterior import Dataset, GaussianPosterior, LossSpec, generate_dataset
from bayescomplex.projection import _norm_sq_nodes
from bayescomplex.pwl import PwlFunction, _integral_sq
from bayescomplex.rng import SeededRng


@dataclass(frozen=True)
class L2Measure:
    """Uniform input distribution over the interval [lo, hi], lo < hi."""

    lo: float
    hi: float


UNIFORM_UNIT = L2Measure(0.0, 1.0)


# --------------------------------------------------------------------------
# Parameter and prediction helpers
# --------------------------------------------------------------------------


def params_from_flat(vec: np.ndarray, k: int) -> ShallowNetParams:
    """Inverse of ShallowNetParams.flat()."""
    vec = np.asarray(vec, dtype=float)
    if vec.size != 3 * k + 1:
        raise ConfigError("flat parameter vector has wrong length")
    return ShallowNetParams(
        tuple(vec[:k]), tuple(vec[k : 2 * k]), tuple(vec[2 * k : 3 * k]), float(vec[3 * k])
    )


def shallow_forward(theta: ShallowNetParams, x):
    """f(x) = sum_i w2_i w1_i [x - b1_i]_+ + b2, evaluated node by node."""
    xs = np.asarray(x, dtype=float)
    acts = np.maximum(0.0, xs[..., None] - np.asarray(theta.b1, dtype=float))
    out = acts @ theta.effective_weights() + theta.b2
    return out if out.ndim else float(out)


def linear_model(w, basis):
    """The linear model f_w(x) = sum_i w_i b_i(x) as a callable."""
    return lambda x: basis_matrix(basis, x) @ np.asarray(w, dtype=float)


def predict(family, thetas: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """(n, xs.size) predictions of the n parameter rows of thetas."""
    if isinstance(family, LinearFamily):
        return thetas @ basis_matrix(family.basis, xs).T
    n = thetas.shape[0]
    out = np.empty((n, xs.size))
    chunk = max(256, int(2_000_000 / max(1, family.k * xs.size)))
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        w1, w2, b1, b2 = family.split(thetas[lo:hi])
        u = w1 * w2
        acts = np.maximum(0.0, xs[None, None, :] - b1[:, :, None])
        out[lo:hi] = np.einsum("ij,ijn->in", u, acts) + b2[:, None]
    return out


def sample_gaussian(post: GaussianPosterior, n: int, gen: np.random.Generator) -> np.ndarray:
    """n draws from the posterior, one per row."""
    return post.mean + gen.standard_normal((n, post.d)) @ np.linalg.cholesky(post.covariance).T


# --------------------------------------------------------------------------
# Side inequalities and closed forms
# --------------------------------------------------------------------------


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
    preds = predict(family, draws, S.xs)
    per_draw = clipped_loss(preds, S.ys[None, :], spec).mean(axis=1)
    n = per_draw.size
    return LossEstimate(float(per_draw.mean()), float(per_draw.std() / math.sqrt(n)))


def true_loss_of_Q(
    draws: np.ndarray,
    w,
    sigma_e_sq: float,
    spec: LossSpec,
    n_x: int,
    rng: SeededRng,
    family: LinearFamily,
) -> LossEstimate:
    """L_D(Q) estimated on fresh (x, y) pairs drawn for the linear target w;
    the standard error combines the h-draw and the fresh-data axes
    conservatively."""
    draws = np.atleast_2d(np.asarray(draws, dtype=float))
    if draws.shape[0] == 0:
        raise ConfigError("true_loss_of_Q needs at least one posterior draw")
    if n_x < 2:
        raise ConfigError(f"n_x must be >= 2, got {n_x}")
    fresh = generate_dataset(w, family.basis, n_x, sigma_e_sq, rng)
    xs, ys = fresh.xs, fresh.ys
    # Chunk over draws so the (draws, n_x) loss matrix never exceeds a few
    # hundred megabytes; the per-draw and per-point means accumulate exactly.
    n_draws = draws.shape[0]
    rows = max(1, int(4_000_000 / n_x))
    per_draw = np.empty(n_draws)
    point_sums = np.zeros(n_x)
    for start in range(0, n_draws, rows):
        block = draws[start : start + rows]
        losses = clipped_loss(predict(family, block, xs), ys[None, :], spec)
        per_draw[start : start + block.shape[0]] = losses.mean(axis=1)
        point_sums += losses.sum(axis=0)
    per_point = point_sums / n_draws
    se_h = per_draw.std() / math.sqrt(per_draw.size)
    se_x = per_point.std() / math.sqrt(per_point.size)
    return LossEstimate(float(per_draw.mean()), float(math.hypot(se_h, se_x)))


# --------------------------------------------------------------------------
# Exponential, dataset-conditional and noise-shifted complexities
# --------------------------------------------------------------------------


def _logmean_estimate(a: np.ndarray) -> ComplexityEstimate:
    """-ln of the mean of exp(a), with its delta-method standard error."""
    n = a.size
    m = float(a.max())
    y = np.exp(a - m)
    mean_y = float(y.mean())
    log_mean = m + math.log(mean_y)
    se = float(y.std()) / (mean_y * math.sqrt(n))
    return ComplexityEstimate(
        chi=-log_mean,
        std_err=se,
        n_samples=n,
        n_hits=n,
    )


def exponential_complexity_mc(
    family,
    target,
    sigma_y_sq: float,
    n: int,
    rng: SeededRng,
    sigma_e_sq: float = 0.0,
    workers: int = 1,
) -> ComplexityEstimate:
    """chi = -ln E_theta[ exp(-(E_x[(g - f_theta)^2] + sigma_e_sq)/(2 sigma_y_sq)) ].

    With sigma_e_sq = 0 this is the exponential complexity; a positive
    sigma_e_sq gives the true-with-noise variant, which exceeds the plain
    value by exactly sigma_e_sq/(2 sigma_y_sq) on identical draws.
    """
    if sigma_y_sq <= 0:
        raise ConfigError(f"sigma_y_sq must be > 0, got {sigma_y_sq}")
    prepared = family.prepare(target)
    d2 = np.concatenate(_map_batches(
        rng, n, workers, family.batch_rows,
        lambda gen, m: family.dist_sq(prepared, family.sample_matrix(m, gen)),
    ))
    return _logmean_estimate(-(d2 + sigma_e_sq) / (2.0 * sigma_y_sq))


def empirical_complexity_mc(
    family,
    g,
    xs: np.ndarray,
    noise_draws: np.ndarray,
    sigma_y_sq_over_N: float,
    n: int,
    rng: SeededRng,
    workers: int = 1,
) -> ComplexityEstimate:
    """Dataset-conditional complexity:
    chi = -ln E_theta[ exp(-(1/(2 T N)) sum_n (g(x_n) + eta_n - f_theta(x_n))^2) ]
    with T = sigma_y_sq_over_N.
    """
    xs = np.asarray(xs, dtype=float)
    noise = np.asarray(noise_draws, dtype=float)
    if xs.size < 1:
        raise ConfigError("empirical complexity needs N >= 1 sample points")
    if xs.size != noise.size:
        raise ConfigError(f"xs has {xs.size} points but noise_draws has {noise.size}")
    if sigma_y_sq_over_N <= 0:
        raise ConfigError("sigma_y_sq_over_N must be > 0")
    big_n = xs.size
    ys = (g(xs) if callable(g) else np.asarray(g, dtype=float)) + noise
    denom = 2.0 * sigma_y_sq_over_N * big_n
    rows = max(256, min(family.batch_rows, int(4_000_000 / big_n)))

    def batch(gen, m):
        resid = predict(family, family.sample_matrix(m, gen), xs) - ys[None, :]
        return -np.einsum("ij,ij->i", resid, resid) / denom

    return _logmean_estimate(np.concatenate(_map_batches(rng, n, workers, rows, batch)))


def sharp_with_noise(
    chi_sharp_fn: Callable[[float], ComplexityEstimate],
    sigma_e_sq: float,
    eps_sq: float,
) -> ComplexityEstimate:
    """Sharp complexity under observation noise: evaluate the noiseless
    estimator at the shifted radius eps_sq - sigma_e_sq. A nonpositive shift
    makes the event impossible and returns a flagged infinite estimate."""
    if sigma_e_sq < 0:
        raise ConfigError(f"sigma_e_sq must be >= 0, got {sigma_e_sq}")
    if eps_sq <= sigma_e_sq:
        return _impossible()
    return chi_sharp_fn(eps_sq - sigma_e_sq)


def divergence_upper_bound(
    chiE: ComplexityEstimate, N: int, sigma_y_sq: float, L_S_Q: float
) -> float:
    """KL(Q || P) <= chi^E - N L_S(Q) / (2 sigma_y_sq), floored at zero."""
    if not math.isfinite(chiE.chi):
        raise ConfigError("divergence bound needs a finite complexity estimate")
    if sigma_y_sq <= 0:
        raise ConfigError(f"sigma_y_sq must be > 0, got {sigma_y_sq}")
    return max(0.0, chiE.chi - N * L_S_Q / (2.0 * sigma_y_sq))


# --------------------------------------------------------------------------
# L2 distance of two piecewise-linear functions
# --------------------------------------------------------------------------


def _check_shared_domain(f: PwlFunction, g: PwlFunction, mu: L2Measure) -> None:
    for h in (f, g):
        if abs(h.domain_lo - mu.lo) > 1e-12 or abs(h.domain_hi - mu.hi) > 1e-12:
            raise ConfigError(
                f"function domain [{h.domain_lo}, {h.domain_hi}] does not match "
                f"measure domain [{mu.lo}, {mu.hi}]"
            )


def l2_distance_sq(f: PwlFunction, g: PwlFunction, mu: L2Measure) -> float:
    """E_{x~mu}[(f(x) - g(x))^2], exact segment-by-segment."""
    _check_shared_domain(f, g, mu)
    pts = np.unique(np.concatenate([f.breakpoints(), g.breakpoints()]))
    return _integral_sq(pts, f(pts) - g(pts)) / (mu.hi - mu.lo)


# --------------------------------------------------------------------------
# Reference draws and hit screen
# --------------------------------------------------------------------------


def prior_draws_ref(fam, n: int, gen: np.random.Generator) -> np.ndarray:
    """ShallowNetFamily.sample_matrix's values, C-ordered, from one
    normal or uniform call per coordinate group."""
    k, p = fam.k, fam.prior
    out = np.empty((n, fam.dim))
    out[:, : 2 * k] = gen.normal(0.0, math.sqrt(p.sigma_w_sq), (n, 2 * k))
    out[:, 2 * k : 3 * k] = gen.uniform(0.0, p.M, (n, k))
    out[:, 3 * k] = gen.normal(0.0, math.sqrt(p.sigma_b_sq), n)
    return out


def cloud_draws_ref(fam, n: int, center: np.ndarray, scale: float,
                    gen: np.random.Generator) -> np.ndarray:
    """ShallowNetFamily.cloud_sample's values, as prior_draws_ref."""
    k = fam.k
    out = np.empty((n, fam.dim))
    out[:, : 2 * k] = gen.normal(center[: 2 * k], scale, (n, 2 * k))
    out[:, 2 * k : 3 * k] = gen.uniform(center[2 * k : 3 * k] - scale,
                                        center[2 * k : 3 * k] + scale, (n, k))
    out[:, 3 * k] = gen.normal(center[3 * k], scale, n)
    return out


def linear_draws_ref(fam: LinearFamily, n: int, gen: np.random.Generator) -> np.ndarray:
    """LinearFamily.sample_matrix's values from one normal call."""
    return gen.normal(0.0, math.sqrt(fam.prior.sigma_w_sq), size=(n, fam.dim))


def dataset_draws_ref(w, basis, N: int, sigma_e_sq: float, gen: np.random.Generator):
    """generate_dataset's (xs, ys), from numpy's uniform and normal calls."""
    xs = gen.uniform(-1.0, 1.0, size=N)
    ys = basis_matrix(basis, xs) @ np.asarray(w, dtype=float)
    if sigma_e_sq > 0:
        ys = ys + gen.normal(0.0, math.sqrt(sigma_e_sq), size=N)
    return xs, ys


def lower_bound_ref(fam, mo, thetas: np.ndarray):
    """ShallowNetFamily._lower_bound's (lb, margin) from the T's of
    _dist_sq_chunk: h0 = b2 - E[g] + sum_i u_i (T2_i - b_i T1_i) and
    hx = b2/2 - E[x g] + sum_i u_i (T3_i - b_i T2_i)."""
    w1, w2, b1, b2 = fam.split(thetas)
    u = w1 * w2
    m = np.clip(b1, 0.0, 1.0)
    t1, t2, t3 = 1.0 - m, (1.0 - m * m) / 2.0, (1.0 - m * m * m) / 3.0
    h0 = b2 - mo.mean + np.einsum("ij,ij->i", u, t2 - b1 * t1)
    hx = b2 / 2.0 - mo.mean_x + np.einsum("ij,ij->i", u, t3 - b1 * t2)
    lb = h0 * h0 + 3.0 * (2.0 * hx - h0) ** 2
    s = np.abs(b2) + np.einsum("ij,ij->i", np.abs(u), 1.0 + np.abs(b1)) + mo.scale
    return lb, 2.0**-46 * (fam.k + 64) * (s * s)
