"""Gibbs posteriors, SGLD sampling, clipped losses, and PAC-Bayes bounds.

The Gibbs posterior at temperature sigma_y_sq reweights the prior by
exp(-sum (y_n - f_theta(x_n))^2 / (2 sigma_y_sq)); for the linear family it
is Gaussian and computed in closed form, otherwise SGLD samples it. Losses
reported anywhere are the clipped quadratic min((h(x) - y)^2, C). The module
also provides the PAC-Bayes right-hand side, the Gaussian KL, the
divergence upper bound through the dataset-conditional complexity, the main
generalization bound, and the bisection search for the temperature at which
the expected empirical loss equals (1 + beta) sigma_e_sq.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .complexity import ComplexityEstimate
from .errors import CheckFailure, ConfigError, NumericalError
from .families import LinearFamily, LinearPriorSpec, LinearTarget
from .models import BasisSpec, basis_matrix
from .pwl import L2Measure
from .rng import SeededRng

# scipy.linalg and scipy.special are imported inside the functions that call
# them: at module level they cost every process about half a second, and five
# of the eight commands never call them.


# --------------------------------------------------------------------------
# Data and loss types
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Dataset:
    """A sample S = (xs, ys) drawn with noise variance sigma_e_sq.

    The conjugate formulas need the design phi = basis_matrix(basis, xs),
    phi'phi and phi'ys; the bisection in find_sigma_alg asks for them once
    per replica at every step. Each dataset therefore memoizes them per basis
    size (_design), after checking once that phi is finite. xs and ys are
    stored as read-only float copies, so the memo (and that check) cannot go
    stale and the caller's arrays stay writable.
    """

    xs: np.ndarray
    ys: np.ndarray
    sigma_e_sq: float
    _designs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("xs", "ys"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if self.xs.shape != self.ys.shape:
            raise ConfigError("xs and ys must have matching shapes")

    @property
    def n(self) -> int:
        return int(self.xs.size)

    def _design(self, basis: BasisSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(phi, phi'phi, phi'ys) for basis, computed on first use; read-only."""
        cached = self._designs.get(basis.d)
        if cached is None:
            phi = basis_matrix(basis, self.xs)
            if not np.all(np.isfinite(phi)):
                raise NumericalError("design matrix contains non-finite entries")
            cached = (phi, phi.T @ phi, phi.T @ self.ys)
            for arr in cached:
                arr.flags.writeable = False
            self._designs[basis.d] = cached
        return cached


@dataclass(frozen=True)
class LossSpec:
    clip_C: float = 4.0

    def __post_init__(self):
        if self.clip_C <= 0:
            raise ConfigError(f"clip_C must be > 0, got {self.clip_C}")


@dataclass(frozen=True)
class LossEstimate:
    value: float
    std_err: float


@dataclass(frozen=True)
class SgldConfig:
    eta: float
    steps: int
    burn_in: int
    thin: int
    sigma_y_sq: float

    def __post_init__(self):
        if self.eta <= 0:
            raise ConfigError(f"eta must be > 0, got {self.eta}")
        if self.steps <= self.burn_in:
            raise ConfigError("steps must exceed burn_in")
        if self.thin < 1:
            raise ConfigError("thin must be >= 1")
        if self.sigma_y_sq <= 0:
            raise ConfigError(f"sigma_y_sq must be > 0, got {self.sigma_y_sq}")


class GaussianPosterior:
    def __init__(self, mean: np.ndarray, covariance: np.ndarray):
        self.mean = np.asarray(mean, dtype=float)
        self.covariance = np.asarray(covariance, dtype=float)
        if self.covariance.shape != (self.mean.size, self.mean.size):
            raise ConfigError("covariance shape does not match mean")
        cov = self.covariance
        if not (np.array_equal(cov, cov.T) or np.allclose(cov, cov.T, atol=1e-10)):
            raise NumericalError("covariance is not symmetric")
        try:
            self._chol = np.linalg.cholesky(self.covariance)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"covariance is not positive definite: {exc}") from exc

    @property
    def d(self) -> int:
        return self.mean.size

    def sample(self, n: int, gen: np.random.Generator) -> np.ndarray:
        return self.mean + gen.standard_normal((n, self.d)) @ self._chol.T


# --------------------------------------------------------------------------
# Data generation and losses
# --------------------------------------------------------------------------


def generate_dataset(
    g, N: int, sigma_e_sq: float, measure: L2Measure, rng: SeededRng
) -> Dataset:
    """ys = g(xs) + eta with eta iid N(0, sigma_e_sq), xs iid from measure."""
    if N < 1:
        raise ConfigError(f"N must be >= 1, got {N}")
    if sigma_e_sq < 0:
        raise ConfigError(f"sigma_e_sq must be >= 0, got {sigma_e_sq}")
    gen = rng.generator()
    xs = gen.uniform(measure.lo, measure.hi, size=N)
    ys = np.asarray(g(xs), dtype=float)
    if sigma_e_sq > 0:
        ys = ys + gen.normal(0.0, math.sqrt(sigma_e_sq), size=N)
    return Dataset(xs=xs, ys=ys, sigma_e_sq=sigma_e_sq)


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


# --------------------------------------------------------------------------
# Conjugate linear posterior and exact clipped-loss formulas
# --------------------------------------------------------------------------


def conjugate_posterior_linear(
    S: Dataset, prior: LinearPriorSpec, basis: BasisSpec, sigma_y_sq: float
) -> GaussianPosterior:
    if sigma_y_sq <= 0:
        raise ConfigError(f"sigma_y_sq must be > 0, got {sigma_y_sq}")
    d = basis.d
    if S.n == 0:
        return GaussianPosterior(np.zeros(d), prior.sigma_w_sq * np.eye(d))
    _, gram, rhs = S._design(basis)
    with np.errstate(over="ignore"):
        precision = gram / sigma_y_sq + np.eye(d) / prior.sigma_w_sq
        scaled_rhs = rhs / sigma_y_sq
    if not (np.all(np.isfinite(precision)) and np.all(np.isfinite(scaled_rhs))):
        raise NumericalError(
            f"posterior precision or data term not finite at sigma_y_sq={sigma_y_sq}, "
            f"sigma_w_sq={prior.sigma_w_sq}"
        )
    # The LAPACK calls scipy.linalg.cho_factor/cho_solve make, without their
    # per-call wrappers and finiteness checks (both inputs were checked above).
    from scipy.linalg import lapack

    factor, info = lapack.dpotrf(precision, lower=0, clean=0)
    if info != 0:
        raise NumericalError(
            f"posterior precision not positive definite (LAPACK dpotrf info={info})"
        )
    cov = _cho_solve(factor, np.eye(d), lower=0)
    mean = _cho_solve(factor, scaled_rhs, lower=0)
    return GaussianPosterior(mean, (cov + cov.T) / 2.0)


def _cho_solve(factor: np.ndarray, b: np.ndarray, lower: int) -> np.ndarray:
    """Solve A x = b given A's Cholesky factor (upper, or lower if lower=1),
    by LAPACK dpotrs as scipy.linalg.cho_solve does."""
    from scipy.linalg import lapack

    x, info = lapack.dpotrs(factor, b, lower=lower)
    if info != 0:
        raise NumericalError(f"Cholesky solve failed (LAPACK dpotrs info={info})")
    return x


_SQRT_2PI = np.sqrt(2 * np.pi)
# exp(-x**2/2) is exactly 0 from |x| ~ 38.6 on; capping |x| here keeps x**2
# finite (no overflow warning) and changes no value.
_PDF_CAP = 1e150


def _std_normal_pdf(x):
    x = np.minimum(np.abs(x), _PDF_CAP)
    return np.exp(-x**2/2.0) / _SQRT_2PI


def expected_clipped_loss_gaussian(mu, s_sq, C: float):
    """E[min(r^2, C)] for r ~ N(mu, s_sq), exactly, via truncated-normal
    second moments. Vectorized over mu and s_sq.

    The standard normal pdf is scipy's own expression exp(-x**2/2)/sqrt(2 pi)
    and the cdf is scipy.special.ndtr, the calls scipy.stats.norm makes at
    loc=0, scale=1, so the result is bit for bit the same without the cost
    of scipy.stats (its import and its per-call argument handling)."""
    from scipy import special

    mu = np.asarray(mu, dtype=float)
    s = np.sqrt(np.asarray(s_sq, dtype=float))
    root = math.sqrt(C)
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha = np.where(s > 0, (-root - mu) / s, 0.0)
        beta = np.where(s > 0, (root - mu) / s, 0.0)
    phi_a, phi_b = _std_normal_pdf(alpha), _std_normal_pdf(beta)
    cdf_a, cdf_b = special.ndtr(alpha), special.ndtr(beta)
    mass = cdf_b - cdf_a
    second = (mu * mu + s * s) * mass + 2.0 * mu * s * (phi_a - phi_b) + s * s * (
        alpha * phi_a - beta * phi_b
    )
    out = second + C * (1.0 - mass)
    degenerate = s == 0.0
    if np.any(degenerate):
        out = np.where(degenerate, np.minimum(mu * mu, C), out)
    return out


def conjugate_empirical_loss(
    S: Dataset, post: GaussianPosterior, basis: BasisSpec, spec: LossSpec
) -> float:
    """Exact E_{h~Q}[L_S(h)] for a Gaussian posterior over linear weights."""
    phi = S._design(basis)[0]
    mu = phi @ post.mean - S.ys
    s_sq = np.einsum("ij,jk,ik->i", phi, post.covariance, phi)
    return float(expected_clipped_loss_gaussian(mu, s_sq, spec.clip_C).mean())


@functools.lru_cache(maxsize=8)
def _quadrature_design(
    basis: BasisSpec, measure: L2Measure, n_nodes: int
) -> tuple[np.ndarray, np.ndarray]:
    """The basis design at the n_nodes Gauss-Legendre nodes mapped onto
    measure's interval, and the rule's weights, computed once per argument
    set (each leggauss call is an n_nodes x n_nodes eigenproblem); the arrays
    are read-only because every caller shares them."""
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    xs = (measure.lo + measure.hi) / 2.0 + (measure.hi - measure.lo) / 2.0 * nodes
    phi = basis_matrix(basis, xs)
    phi.flags.writeable = False
    weights.flags.writeable = False
    return phi, weights


def conjugate_true_loss(
    post: GaussianPosterior,
    target: LinearTarget,
    basis: BasisSpec,
    sigma_e_sq: float,
    measure: L2Measure,
    spec: LossSpec,
    n_nodes: int = 200,
) -> float:
    """E_{h~Q} E_{x,y}[min((h(x) - y)^2, C)] for a realizable linear target,
    by Gauss-Legendre quadrature of the exact per-x formula."""
    if target.perp_sq != 0.0:
        raise ConfigError("conjugate_true_loss requires a fully realizable target")
    phi, weights = _quadrature_design(basis, measure, n_nodes)
    mu = phi @ (post.mean - np.asarray(target.w))
    s_sq = np.einsum("ij,jk,ik->i", phi, post.covariance, phi) + sigma_e_sq
    vals = expected_clipped_loss_gaussian(mu, s_sq, spec.clip_C)
    return float(np.sum(weights * vals) / 2.0)


# --------------------------------------------------------------------------
# SGLD
# --------------------------------------------------------------------------


# Steps per compiled solve of the linear family's recursion: 8192 steps of
# noise and state are 64 KiB per coordinate, and the per-block Python
# overhead is paid ~25 times on a 205k-step chain.
_SGLD_BLOCK = 8192


def run_sgld(
    S: Dataset,
    family,
    cfg: SgldConfig,
    rng: SeededRng,
    inject_noise: bool = True,
    init: np.ndarray | None = None,
) -> np.ndarray:
    """Stochastic gradient Langevin chain targeting the Gibbs posterior.

    Update: theta <- theta - eta * (grad Lhat_loglik - (1/N) grad ln P)
    + sqrt(2 eta / N) N(0, I), with Lhat_loglik the full-sample mean of
    (y - f_theta(x))^2 / (2 sigma_y_sq) and N read as max(N, 1). Hidden
    biases reflect at their uniform-prior boundaries. With
    inject_noise=False the chain is plain gradient descent to the MAP
    (diagnostic mode). Returns the post-burn-in, thinned draws (steps
    burn_in, burn_in + thin, ...) as an (n_draws, dim) array.

    For LinearFamily the update is affine, theta <- theta - eta (H theta - r)
    + s z, with H = J'J / (N sigma_y_sq) + I / (sigma_w_sq max(N, 1)),
    r = J'y / (N sigma_y_sq) (J and r zero when N = 0) and
    s = sqrt(2 eta / max(N, 1)), and the chain is solved exactly rather
    than stepped: with H = Q diag(lambda) Q', each coordinate of psi = Q'theta
    is a scalar AR(1), psi_i <- (1 - eta lambda_i) psi_i + u_i, run in
    compiled code as a unit lower-bidiagonal solve (LAPACK dtbtrs) over
    blocks of _SGLD_BLOCK steps. Each block's noise is one (m, dim)
    standard-normal draw, the same stream as m per-step draws of size dim,
    so the draws equal the stepped chain's up to rounding. Other families
    are stepped one update at a time.

    Raises NumericalError at the first step whose ||theta|| is above 1e6
    or not finite, naming that step.
    """
    gen = rng.generator()
    if init is not None:
        theta = np.asarray(init, dtype=float).copy()
    else:
        theta = family.sample_matrix(1, gen)[0]
    if isinstance(family, LinearFamily):
        return _linear_sgld(S, family, cfg, gen, theta, inject_noise)
    n = S.n
    n_eff = max(n, 1)
    noise_scale = math.sqrt(2.0 * cfg.eta / n_eff)
    draws = []
    for step in range(cfg.steps):
        if n:
            preds, jac = family.forward_and_jac(theta, S.xs)
            grad = jac.T @ (preds - S.ys) / (n * cfg.sigma_y_sq)
        else:
            grad = np.zeros_like(theta)
        grad -= family.grad_log_prior(theta) / n_eff
        theta = theta - cfg.eta * grad
        if inject_noise:
            theta = theta + noise_scale * gen.standard_normal(theta.size)
        theta = family.reflect(theta)
        _check_sgld_norm(np.linalg.norm(theta, keepdims=True), step, cfg)
        if step >= cfg.burn_in and (step - cfg.burn_in) % cfg.thin == 0:
            draws.append(theta.copy())
    return np.array(draws)


def _check_sgld_norm(norms: np.ndarray, start: int, cfg: SgldConfig) -> None:
    """Raise at the first of norms (for steps start, start + 1, ...) that is
    above 1e6 or not finite."""
    bad = ~(norms <= 1e6)
    if bad.any():
        first = int(np.argmax(bad))
        raise NumericalError(
            f"SGLD diverged at step {start + first}: ||theta|| = {norms[first]:.3g} "
            f"(eta={cfg.eta}, sigma_y_sq={cfg.sigma_y_sq})"
        )


def _linear_sgld(
    S: Dataset,
    family: LinearFamily,
    cfg: SgldConfig,
    gen: np.random.Generator,
    theta: np.ndarray,
    inject_noise: bool,
) -> np.ndarray:
    """run_sgld's exact affine recursion for the linear family."""
    from scipy.linalg import lapack

    n, d = S.n, theta.size
    n_eff = max(n, 1)
    with np.errstate(over="ignore"):
        hess = np.eye(d) / (family.prior.sigma_w_sq * n_eff)
        drift = np.zeros(d)
        if n:
            jac = family.design(S.xs)
            hess = hess + jac.T @ jac / (n * cfg.sigma_y_sq)
            drift = jac.T @ S.ys / (n * cfg.sigma_y_sq)
    if not (np.all(np.isfinite(hess)) and np.all(np.isfinite(drift))):
        raise NumericalError(
            f"SGLD Hessian or drift not finite at sigma_y_sq={cfg.sigma_y_sq}, "
            f"sigma_w_sq={family.prior.sigma_w_sq}"
        )
    lam, Q = np.linalg.eigh(hess)
    decay = 1.0 - cfg.eta * lam
    shift = cfg.eta * drift @ Q
    noise_scale = math.sqrt(2.0 * cfg.eta / n_eff)
    psi = theta @ Q
    draws = []
    for start in range(0, cfg.steps, _SGLD_BLOCK):
        m = min(_SGLD_BLOCK, cfg.steps - start)
        # Row i of u holds eigen-coordinate i's inputs over the block's m
        # steps, and the solve turns it into psi_i at those steps:
        # psi_i[t] - decay_i psi_i[t - 1] = u_i[t], psi_i[-1] the carried state.
        if inject_noise:
            u = noise_scale * (Q.T @ gen.standard_normal((m, d)).T) + shift[:, None]
        else:
            u = np.repeat(shift[:, None], m, axis=1)
        u[:, 0] += decay * psi
        for i in range(d):
            band = np.vstack([np.ones(m), np.full(m, -decay[i])])
            x, info = lapack.dtbtrs(band, u[i][:, None], uplo="L", diag="U")
            if info != 0:
                raise NumericalError(f"SGLD block solve failed (LAPACK info={info})")
            u[i] = x[:, 0]
        with np.errstate(over="ignore", invalid="ignore"):
            _check_sgld_norm(np.linalg.norm(u, axis=0), start, cfg)
        psi = u[:, -1]
        steps = np.arange(start, start + m)
        keep = (steps >= cfg.burn_in) & ((steps - cfg.burn_in) % cfg.thin == 0)
        draws.append(u.T[keep] @ Q.T)
    return np.concatenate(draws)


def batch_means_se(chain: np.ndarray, n_batches: int = 30) -> float:
    """Standard error of a correlated chain's mean via batch means."""
    chain = np.asarray(chain, dtype=float)
    m = chain.shape[0] // n_batches
    if m < 1:
        raise ConfigError("chain too short for the requested batch count")
    trimmed = chain[: m * n_batches]
    means = trimmed.reshape(n_batches, m, *chain.shape[1:]).mean(axis=1)
    return float(np.max(means.std(axis=0) / math.sqrt(n_batches)))


# --------------------------------------------------------------------------
# PAC-Bayes pieces
# --------------------------------------------------------------------------


def pac_bayes_rhs(L_S_Q: float, kl: float, N: int, C: float) -> float:
    if kl < 0:
        raise ConfigError(f"kl must be >= 0, got {kl}")
    if N < 1:
        raise ConfigError(f"N must be >= 1, got {N}")
    return L_S_Q + C * math.sqrt(kl / (2.0 * N))


def kl_gaussians(q: GaussianPosterior, p: GaussianPosterior) -> float:
    if q.d != p.d:
        raise ConfigError("dimension mismatch between posteriors")
    d = q.d
    chol_p = p._chol
    solved = _cho_solve(chol_p, q.covariance, lower=1)
    trace = float(np.trace(solved))
    diff = p.mean - q.mean
    quad = float(diff @ _cho_solve(chol_p, diff, lower=1))
    logdet_p = 2.0 * float(np.sum(np.log(np.diag(chol_p))))
    logdet_q = 2.0 * float(np.sum(np.log(np.diag(q._chol))))
    return 0.5 * (trace + quad - d + logdet_p - logdet_q)


def divergence_upper_bound(
    chiE: ComplexityEstimate, N: int, sigma_y_sq: float, L_S_Q: float
) -> float:
    """KL(Q || P) <= chi^E - N L_S(Q) / (2 sigma_y_sq), floored at zero."""
    if not math.isfinite(chiE.chi):
        raise ConfigError("divergence bound needs a finite complexity estimate")
    if sigma_y_sq <= 0:
        raise ConfigError(f"sigma_y_sq must be > 0, got {sigma_y_sq}")
    return max(0.0, chiE.chi - N * L_S_Q / (2.0 * sigma_y_sq))


def theorem_bound(
    sigma_e_sq: float, beta: float, chi_sharp_at_beta_sigma: float, N: int, C: float
) -> float:
    """Main generalization bound:
    sigma_e_sq + beta sigma_e_sq + (C/sqrt(2)) sqrt(chi / N)."""
    if not 0.0 < beta <= 1.0:
        raise ConfigError(f"beta must lie in (0, 1], got {beta}")
    if not math.isfinite(chi_sharp_at_beta_sigma) or chi_sharp_at_beta_sigma < 0:
        raise ConfigError("chi must be finite and nonnegative")
    if N < 1:
        raise ConfigError(f"N must be >= 1, got {N}")
    return (
        sigma_e_sq
        + beta * sigma_e_sq
        + (C / math.sqrt(2.0)) * math.sqrt(chi_sharp_at_beta_sigma / N)
    )


def find_sigma_alg(
    beta: float,
    sigma_e_sq: float,
    dataset_generator: Callable[[SeededRng], Dataset],
    family,
    tol: float,
    rng: SeededRng,
    *,
    sgld_cfg: SgldConfig | None = None,
    loss_spec: LossSpec | None = None,
    n_replicas: int = 32,
    bracket: tuple[float, float] = (1e-6, 1e6),
    max_iter: int = 60,
) -> tuple[float, float]:
    """Bisection on ln sigma_y_sq for E_S E_{h~Q(sigma_y_sq)}[L_S(h)] =
    (1 + beta) sigma_e_sq, using a fixed set of dataset replicas so the
    objective is monotone and deterministic across iterations. The linear
    family uses the exact conjugate expected loss; other families fall back
    to SGLD draws with the chain settings sgld_cfg (its sigma_y_sq is
    replaced at every bisection step), which they require. Replica i's
    dataset comes from rng.stream(i) and its SGLD chain from
    rng.stream(i).stream(0), so the two never share a stream.

    Returns (sigma_y_sq, achieved objective).
    """
    if not 0.0 < beta <= 1.0:
        raise ConfigError(f"beta must lie in (0, 1], got {beta}")
    if tol <= 0:
        raise ConfigError(f"tol must be > 0, got {tol}")
    conjugate = isinstance(family, LinearFamily)
    if not conjugate and sgld_cfg is None:
        raise ConfigError(f"find_sigma_alg needs sgld_cfg for {type(family).__name__}")
    spec = loss_spec if loss_spec is not None else LossSpec()
    replicas = [dataset_generator(rng.stream(i)) for i in range(n_replicas)]

    def mean_loss(sigma_y_sq: float) -> float:
        losses = []
        for i, S in enumerate(replicas):
            if conjugate:
                post = conjugate_posterior_linear(S, family.prior, family.basis, sigma_y_sq)
                losses.append(conjugate_empirical_loss(S, post, family.basis, spec))
            else:
                draws = run_sgld(
                    S, family, replace(sgld_cfg, sigma_y_sq=sigma_y_sq), rng.stream(i).stream(0)
                )
                losses.append(empirical_loss_of_Q(draws, S, spec, family).value)
        return float(np.mean(losses))

    target = (1.0 + beta) * sigma_e_sq
    lo, hi = math.log(bracket[0]), math.log(bracket[1])
    loss_lo, loss_hi = mean_loss(bracket[0]), mean_loss(bracket[1])
    if not loss_lo <= target <= loss_hi:
        raise CheckFailure(
            "sigma_alg bracket failure: "
            f"L(sigma_y_sq={bracket[0]:g}) = {loss_lo:.6g}, "
            f"L(sigma_y_sq={bracket[1]:g}) = {loss_hi:.6g}, target = {target:.6g}"
        )
    mid_val = bracket[0]
    for _ in range(max_iter):
        mid = (lo + hi) / 2.0
        mid_val = math.exp(mid)
        loss_mid = mean_loss(mid_val)
        if abs(loss_mid - target) <= tol:
            return mid_val, loss_mid
        if loss_mid < target:
            lo = mid
        else:
            hi = mid
    raise CheckFailure(
        f"sigma_alg bisection did not reach |L - {target:.6g}| <= {tol:g} "
        f"within {max_iter} iterations (last sigma_y_sq = {mid_val:.6g})"
    )
