"""Gibbs posteriors, SGLD sampling, clipped losses, and PAC-Bayes bounds.

Datasets are drawn for the linear model with inputs from U[-1, 1], the law
its basis is orthonormal under, and each carries its basis and design. The
Gibbs posterior at temperature sigma_y_sq reweights the prior by
exp(-sum (y_n - f_theta(x_n))^2 / (2 sigma_y_sq)); for the linear family it
is Gaussian and computed in closed form, and SGLD chains sample it exactly
as an affine recursion. Losses reported anywhere are the clipped quadratic
min((h(x) - y)^2, C). The module also provides the PAC-Bayes right-hand
side, the Gaussian KL, the main generalization bound, and the bisection
search for the temperature at which the expected empirical loss
equals (1 + beta) sigma_e_sq.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import CheckFailure, ConfigError, NumericalError
from .families import LinearFamily, LinearPriorSpec, LinearTarget, _scale_shift
from .models import BasisSpec, basis_matrix
from .rng import SeededRng

# scipy.linalg and scipy.special are imported inside the functions that call
# them: at module level they cost every process about half a second, and five
# of the eight commands never call them.


# --------------------------------------------------------------------------
# Data and loss types
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Dataset:
    """A sample S = (xs, ys) drawn for one basis.

    The conjugate formulas need the design phi = basis_matrix(basis, xs),
    phi'phi and phi'ys; the bisection in find_sigma_alg asks for them once
    per replica at every step. The dataset therefore builds them once, when
    it is made, after checking that phi is finite. xs and ys are stored as
    read-only float copies, and phi, gram and rhs are read-only, so none of
    them can go stale and the caller's arrays stay writable. A dataset from
    generate_dataset takes over the design that formed its ys.
    """

    xs: np.ndarray
    ys: np.ndarray
    basis: BasisSpec
    phi: np.ndarray = field(init=False, repr=False, compare=False)
    gram: np.ndarray = field(init=False, repr=False, compare=False)
    rhs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self, phi: np.ndarray | None = None):
        for name in ("xs", "ys"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if self.xs.shape != self.ys.shape:
            raise ConfigError("xs and ys must have matching shapes")
        if phi is None:
            phi = basis_matrix(self.basis, self.xs)
        if not np.isfinite(phi).all():
            raise NumericalError("design matrix contains non-finite entries")
        for name, arr in (("phi", phi), ("gram", phi.T @ phi), ("rhs", phi.T @ self.ys)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @classmethod
    def _with_design(cls, xs, ys, basis: BasisSpec, phi: np.ndarray) -> Dataset:
        """Dataset(xs, ys, basis), taking over phi = basis_matrix(basis, xs)
        instead of computing it again: for generate_dataset, which formed
        ys with phi and holds it nowhere else."""
        S = cls.__new__(cls)
        for name, value in (("xs", xs), ("ys", ys), ("basis", basis)):
            object.__setattr__(S, name, value)
        S.__post_init__(phi)
        return S

    @property
    def n(self) -> int:
        return int(self.xs.size)


@dataclass(frozen=True)
class LossSpec:
    clip_C: float

    def __post_init__(self):
        if not 0.0 < self.clip_C < math.inf:
            raise ConfigError(f"clip_C must be finite and > 0, got {self.clip_C}")


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

    @property
    def d(self) -> int:
        return self.mean.size


# --------------------------------------------------------------------------
# Data generation
# --------------------------------------------------------------------------


def generate_dataset(
    w, basis: BasisSpec, N: int, sigma_e_sq: float, rng: SeededRng
) -> Dataset:
    """ys = f_w(xs) + eta for the linear model f_w(x) = sum_i w_i b_i(x),
    with xs iid U[-1, 1] (the law the basis is orthonormal under) and eta
    iid N(0, sigma_e_sq)."""
    if len(w) != basis.d:
        raise ConfigError("coefficient length does not match basis size")
    if N < 1:
        raise ConfigError(f"N must be >= 1, got {N}")
    if sigma_e_sq < 0:
        raise ConfigError(f"sigma_e_sq must be >= 0, got {sigma_e_sq}")
    gen = rng.generator()
    xs = _scale_shift(gen.random(N), 2.0, -1.0)  # gen.uniform(-1.0, 1.0, N)
    phi = basis_matrix(basis, xs)
    ys = phi @ np.asarray(w, dtype=float)
    if sigma_e_sq > 0:
        ys += _scale_shift(gen.standard_normal(N), math.sqrt(sigma_e_sq), 0.0)
    return Dataset._with_design(xs, ys, basis, phi)


# --------------------------------------------------------------------------
# Conjugate linear posterior and exact clipped-loss formulas
# --------------------------------------------------------------------------


def conjugate_posterior_linear(
    S: Dataset, prior: LinearPriorSpec, sigma_y_sq: float
) -> GaussianPosterior:
    """The Gibbs posterior over S's basis weights, in closed form."""
    if sigma_y_sq <= 0:
        raise ConfigError(f"sigma_y_sq must be > 0, got {sigma_y_sq}")
    d = S.basis.d
    if S.n == 0:
        return GaussianPosterior(np.zeros(d), prior.sigma_w_sq * np.eye(d))
    eye = np.eye(d)  # dpotrs below only reads it
    with np.errstate(over="ignore"):
        precision = S.gram / sigma_y_sq + eye / prior.sigma_w_sq
        scaled_rhs = S.rhs / sigma_y_sq
    if not (np.isfinite(precision).all() and np.isfinite(scaled_rhs).all()):
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
    cov = _cho_solve(factor, eye, lower=0)
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
    second moments. Vectorized over mu and s_sq; a negative or NaN variance
    (from a covariance that is not positive definite) raises NumericalError.

    The standard normal pdf is scipy's own expression exp(-x**2/2)/sqrt(2 pi)
    and the cdf is scipy.special.ndtr, the calls scipy.stats.norm makes at
    loc=0, scale=1, so the result is bit for bit the same without the cost
    of scipy.stats (its import and its per-call argument handling).

    Both truncation ends, alpha = (-sqrt(C) - mu) / s and beta = (sqrt(C) -
    mu) / s, are rows 0 and 1 of one array, so each elementwise step below
    is one call for both; every value keeps its bits."""
    from scipy import special

    mu = np.asarray(mu, dtype=float)
    s_sq = np.asarray(s_sq, dtype=float)
    if not (s_sq >= 0.0).all():
        raise NumericalError("clipped loss got a negative or NaN variance")
    s = np.sqrt(s_sq)
    degenerate = s == 0.0
    root = math.sqrt(C)
    ends = np.array([-root, root]).reshape((2,) + (1,) * max(mu.ndim, s.ndim))
    with np.errstate(divide="ignore", invalid="ignore"):
        ab = (ends - mu) / s
    # In place, here and below: a batch's (2, n) arrays then need no more
    # memory at once than the two ends computed one after the other.
    np.copyto(ab, 0.0, where=degenerate)
    phi = _std_normal_pdf(ab)
    cdf = special.ndtr(ab)
    ab_phi = np.multiply(ab, phi, out=ab)  # ab is not read again
    mass = cdf[1] - cdf[0]
    s2 = s * s
    second = (mu * mu + s2) * mass + 2.0 * mu * s * (phi[0] - phi[1]) + s2 * (
        ab_phi[0] - ab_phi[1]
    )
    out = second + C * (1.0 - mass)
    if degenerate.any():
        out = np.where(degenerate, np.minimum(mu * mu, C), out)
    return out


def conjugate_empirical_loss(
    batch: Sequence[tuple[Dataset, GaussianPosterior]], spec: LossSpec
) -> list[float]:
    """Exact E_{h~Q}[L_S(h)] for each (S, Q) in batch, Q Gaussian over linear weights: one
    expected_clipped_loss_gaussian call, then a mean per item over its own slice.

    A one-item batch hands its arrays to that call as they are, without
    concatenating copies. Each mean is np.add.reduce(v) / n, the sum and
    division ndarray.mean makes."""
    mus, s_sqs, ends = [], [], [0]
    for S, post in batch:
        mus.append(S.phi @ post.mean - S.ys)
        s_sqs.append(np.einsum("ij,jk,ik->i", S.phi, post.covariance, S.phi))
        ends.append(ends[-1] + S.n)
    if len(mus) == 1:
        vals = expected_clipped_loss_gaussian(mus[0], s_sqs[0], spec.clip_C)
    else:
        vals = expected_clipped_loss_gaussian(
            np.concatenate(mus), np.concatenate(s_sqs), spec.clip_C)
    return [float(np.add.reduce(vals[start:end]) / (end - start))
            for start, end in zip(ends, ends[1:])]


_QUAD_NODES = 200  # Gauss-Legendre nodes of conjugate_true_loss's quadrature


@functools.lru_cache(maxsize=8)
def _quadrature_design(basis: BasisSpec) -> tuple[np.ndarray, np.ndarray]:
    """The basis design at the _QUAD_NODES Gauss-Legendre nodes on [-1, 1],
    and the rule's weights, computed once per basis (each leggauss call is
    an eigenproblem of that size); the arrays are read-only because every
    caller shares them."""
    nodes, weights = np.polynomial.legendre.leggauss(_QUAD_NODES)
    phi = basis_matrix(basis, nodes)
    phi.flags.writeable = False
    weights.flags.writeable = False
    return phi, weights


def conjugate_true_loss(
    posts: Sequence[GaussianPosterior],
    target: LinearTarget,
    basis: BasisSpec,
    sigma_e_sq: float,
    spec: LossSpec,
) -> list[float]:
    """E_{h~Q} E_{x,y}[min((h(x) - y)^2, C)] for each Q in posts and a
    realizable linear target, x ~ U[-1, 1], by Gauss-Legendre quadrature of
    the exact per-x formula; batched as conjugate_empirical_loss is."""
    if target.perp_sq != 0.0:
        raise ConfigError("conjugate_true_loss requires a fully realizable target")
    phi, weights = _quadrature_design(basis)
    w = np.asarray(target.w)
    mu = np.concatenate([phi @ (post.mean - w) for post in posts])
    s_sq = np.concatenate([
        np.einsum("ij,jk,ik->i", phi, post.covariance, phi) + sigma_e_sq for post in posts
    ])
    vals = expected_clipped_loss_gaussian(mu, s_sq, spec.clip_C)
    return [
        float(np.sum(weights * vals[start:start + _QUAD_NODES]) / 2.0)
        for start in range(0, vals.size, _QUAD_NODES)
    ]


# --------------------------------------------------------------------------
# SGLD
# --------------------------------------------------------------------------


# Steps per compiled solve of the linear family's recursion: 8192 steps of
# noise and state are 64 KiB per coordinate, and the per-block Python
# overhead is paid ~25 times on a 205k-step chain.
_SGLD_BLOCK = 8192


def run_sgld(
    S: Dataset,
    family: LinearFamily,
    cfg: SgldConfig,
    rng: SeededRng,
    inject_noise: bool = True,
) -> np.ndarray:
    """Stochastic gradient Langevin chain targeting the linear model's Gibbs
    posterior.

    Update: theta <- theta - eta (H theta - r) + s z, z ~ N(0, I), the
    gradient step on the full-sample mean of (y - f_theta(x))^2 /
    (2 sigma_y_sq) minus (1/N) ln P, with N read as max(N, 1):
    H = J'J / (N sigma_y_sq) + I / (sigma_w_sq max(N, 1)), r = J'y /
    (N sigma_y_sq) (J and r zero when N = 0) and s = sqrt(2 eta / max(N, 1)).
    With inject_noise=False the chain is plain gradient descent to the MAP
    (diagnostic mode). The chain starts at a prior draw. Returns
    the post-burn-in, thinned draws (steps burn_in, burn_in + thin, ...) as
    an (n_draws, dim) array.

    The update is affine, so the chain is solved exactly rather than
    stepped: with H = Q diag(lambda) Q', each coordinate of psi = Q'theta is
    a scalar AR(1), psi_i <- (1 - eta lambda_i) psi_i + u_i, run in compiled
    code as a unit lower-bidiagonal solve (LAPACK dtbtrs) over blocks of
    _SGLD_BLOCK steps. Each block's noise is one (m, dim) standard-normal
    draw, the same stream as m per-step draws of size dim, so the draws
    equal the stepped chain's up to rounding.

    Raises ConfigError when S was drawn for another basis than the
    family's, and NumericalError at the first step whose ||theta|| is
    above 1e6 or not finite, naming that step.
    """
    from scipy.linalg import lapack

    if S.basis != family.basis:
        raise ConfigError(f"dataset drawn for {S.basis}, family has {family.basis}")
    gen = rng.generator()
    theta = family.sample_matrix(1, gen)[0]
    n, d = S.n, theta.size
    n_eff = max(n, 1)
    with np.errstate(over="ignore"):
        hess = np.eye(d) / (family.prior.sigma_w_sq * n_eff)
        drift = np.zeros(d)
        if n:
            hess = hess + S.gram / (n * cfg.sigma_y_sq)
            drift = S.rhs / (n * cfg.sigma_y_sq)
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
    band_len, bands = 0, []
    for start in range(0, cfg.steps, _SGLD_BLOCK):
        m = min(_SGLD_BLOCK, cfg.steps - start)
        if m != band_len:
            # dtbtrs only reads its band, so each coordinate's is built once
            # per block length (Fortran-ordered, as LAPACK takes it).
            band_len = m
            bands = [np.asfortranarray([np.ones(m), np.full(m, neg)])
                     for neg in -decay]
        # Row i of u holds eigen-coordinate i's inputs over the block's m
        # steps, and the solve turns it into psi_i at those steps:
        # psi_i[t] - decay_i psi_i[t - 1] = u_i[t], psi_i[-1] the carried state.
        if inject_noise:
            u = Q.T @ gen.standard_normal((m, d)).T
            u *= noise_scale
            u += shift[:, None]
        else:
            u = np.repeat(shift[:, None], m, axis=1)
        u[:, 0] += decay * psi
        for i, band in enumerate(bands):
            x, info = lapack.dtbtrs(band, u[i][:, None], uplo="L", diag="U")
            if info != 0:
                raise NumericalError(f"SGLD block solve failed (LAPACK info={info})")
            u[i] = x[:, 0]
        with np.errstate(over="ignore", invalid="ignore"):
            norms = np.linalg.norm(u, axis=0)
            bad = ~(norms <= 1e6)
        if bad.any():
            first = int(np.argmax(bad))
            raise NumericalError(
                f"SGLD diverged at step {start + first}: ||theta|| = {norms[first]:.3g} "
                f"(eta={cfg.eta}, sigma_y_sq={cfg.sigma_y_sq})"
            )
        psi = u[:, -1]
        steps = np.arange(start, start + m)
        keep = (steps >= cfg.burn_in) & ((steps - cfg.burn_in) % cfg.thin == 0)
        draws.append(u.T[keep] @ Q.T)
    return np.concatenate(draws)


_N_BATCHES = 30  # batches of batch_means_se


def batch_means_se(chain: np.ndarray) -> float:
    """Standard error of a correlated chain's mean via _N_BATCHES batch means."""
    chain = np.asarray(chain, dtype=float)
    m = chain.shape[0] // _N_BATCHES
    if m < 1:
        raise ConfigError(f"chain too short for {_N_BATCHES} batches")
    trimmed = chain[: m * _N_BATCHES]
    means = trimmed.reshape(_N_BATCHES, m, *chain.shape[1:]).mean(axis=1)
    return float(np.max(means.std(axis=0) / math.sqrt(_N_BATCHES)))


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
    try:
        chol_p, chol_q = np.linalg.cholesky(p.covariance), np.linalg.cholesky(q.covariance)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"covariance is not positive definite: {exc}") from exc
    solved = _cho_solve(chol_p, q.covariance, lower=1)
    trace = float(np.trace(solved))
    diff = p.mean - q.mean
    quad = float(diff @ _cho_solve(chol_p, diff, lower=1))
    logdet_p = 2.0 * float(np.sum(np.log(np.diag(chol_p))))
    logdet_q = 2.0 * float(np.sum(np.log(np.diag(chol_q))))
    return 0.5 * (trace + quad - d + logdet_p - logdet_q)


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


# find_sigma_alg's sigma_y_sq bracket and its cap on bisection halvings.
_SIGMA_BRACKET = (1e-6, 1e6)
_SIGMA_MAX_ITER = 60


def find_sigma_alg(
    beta: float,
    sigma_e_sq: float,
    dataset_generator: Callable[[SeededRng], Dataset],
    family: LinearFamily,
    tol: float,
    rng: SeededRng,
    *,
    loss_spec: LossSpec,
    n_replicas: int = 32,
) -> tuple[float, float]:
    """Bisection on ln sigma_y_sq for E_S E_{h~Q(sigma_y_sq)}[L_S(h)] =
    (1 + beta) sigma_e_sq, using a fixed set of dataset replicas so the
    objective is monotone and deterministic across iterations. Each
    replica's loss is the exact expected loss under its conjugate posterior;
    replica i's dataset comes from rng.stream(i).

    The search brackets sigma_y_sq in _SIGMA_BRACKET and raises CheckFailure
    when the target is outside the losses at its ends (as one above clip_C
    is), or is still farther than tol after _SIGMA_MAX_ITER halvings.

    Returns (sigma_y_sq, achieved objective).
    """
    if not 0.0 < beta <= 1.0:
        raise ConfigError(f"beta must lie in (0, 1], got {beta}")
    if not 0.0 < tol < math.inf:
        raise ConfigError(f"tol must be finite and > 0, got {tol}")
    replicas = [dataset_generator(rng.stream(i)) for i in range(n_replicas)]

    def mean_loss(sigma_y_sq: float) -> float:
        # One call per replica: perfbench counts them as bisection iterations.
        losses = []
        for S in replicas:
            post = conjugate_posterior_linear(S, family.prior, sigma_y_sq)
            losses += conjugate_empirical_loss([(S, post)], loss_spec)
        return float(np.mean(losses))

    target = (1.0 + beta) * sigma_e_sq
    bottom, top = _SIGMA_BRACKET
    lo, hi = math.log(bottom), math.log(top)
    loss_lo, loss_hi = mean_loss(bottom), mean_loss(top)
    if not loss_lo <= target <= loss_hi:
        raise CheckFailure(
            "sigma_alg bracket failure: "
            f"L(sigma_y_sq={bottom:g}) = {loss_lo:.6g}, "
            f"L(sigma_y_sq={top:g}) = {loss_hi:.6g}, target = {target:.6g}"
        )
    mid_val = bottom
    for _ in range(_SIGMA_MAX_ITER):
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
        f"within {_SIGMA_MAX_ITER} iterations (last sigma_y_sq = {mid_val:.6g})"
    )
