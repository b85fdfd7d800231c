"""Model + prior bundles with vectorized kernels.

Priors (NnPriorSpec, LinearPriorSpec): the shallow network's weights are
i.i.d. N(0, sigma_w^2), its hidden biases i.i.d. U([0, M]) and its output
bias N(0, sigma_b^2); the linear model's basis coefficients are isotropic
N(0, sigma_w^2). Defaults follow the k-node convention M = k,
sigma_w^2 = 1/k, sigma_b^2 = 1.

The complexity estimators and the posterior machinery are generic over a
"family": something that can sample parameters from its prior, measure the
exact mean-squared distance between a parameter's function and a target
(after ``prepare`` has put the target in the form its kernels take),
evaluate prior log-densities, and provide an importance-sampling center for
a realizable target; ``batch_rows`` sets the estimators' draws per batch.
Two families exist: the orthonormal-basis linear model and the shallow ReLU
network in the product parametrization.

All batch kernels work on plain (n, dim) parameter matrices; the distance
kernels are closed-form exact (no quadrature) so that ten-million-draw Monte
Carlo runs stay cheap and unbiased.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .models import BasisSpec, basis_matrix, min_norm_realization
from .pwl import PwlFunction, _integral_sq

_LOG_2PI = math.log(2.0 * math.pi)


def _scale_shift(z: np.ndarray, scale, shift) -> np.ndarray:
    """z * scale + shift, in place."""
    z *= scale
    z += shift
    return z


# --------------------------------------------------------------------------
# Prior specifications
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class NnPriorSpec:
    sigma_w_sq: float
    M: float
    sigma_b_sq: float

    def __post_init__(self):
        if not (0 < self.sigma_w_sq < math.inf and 0 < self.sigma_b_sq < math.inf):
            raise ConfigError(
                "prior variances must be finite and > 0, got "
                f"sigma_w_sq={self.sigma_w_sq}, sigma_b_sq={self.sigma_b_sq}"
            )
        if not 1 <= self.M < math.inf:
            raise ConfigError(f"hidden-bias range M must be finite and >= 1, got {self.M}")

    @staticmethod
    def default_for(k: int) -> "NnPriorSpec":
        return NnPriorSpec(sigma_w_sq=1.0 / k, M=float(k), sigma_b_sq=1.0)


@dataclass(frozen=True)
class LinearPriorSpec:
    sigma_w_sq: float

    def __post_init__(self):
        if not 0 < self.sigma_w_sq < math.inf:
            raise ConfigError(f"prior variance must be finite and > 0, got {self.sigma_w_sq}")


# --------------------------------------------------------------------------
# Linear family
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearTarget:
    """A target for the linear family: coefficients plus an optional
    unrealizable component, recorded through its contribution perp_sq to the
    expected squared distance."""

    w: tuple[float, ...]
    perp_sq: float = 0.0

    @property
    def kappa(self) -> float:
        return float(np.linalg.norm(self.w))


class LinearFamily:
    def __init__(self, basis: BasisSpec, prior: LinearPriorSpec):
        self.basis = basis
        self.prior = prior
        self.dim = basis.d
        # Rows per tile of the IS weight pass and hit test: about 2**15 elements.
        self.tile_rows = max(256, 32768 // self.dim)
        # Rows per estimator batch. Fixes RNG consumption per batch: changing
        # it changes every report's bytes.
        self.batch_rows = 1_000_000

    def prepare(self, target: LinearTarget) -> LinearTarget:
        """The form dist_sq and within take the target in: as given."""
        return target

    def sample_matrix(self, n: int, gen: np.random.Generator) -> np.ndarray:
        return gen.normal(0.0, math.sqrt(self.prior.sigma_w_sq), size=(n, self.dim))

    def dist_sq(self, target: LinearTarget, thetas: np.ndarray) -> np.ndarray:
        diff = thetas - np.asarray(target.w)
        return 0.5 * np.einsum("ij,ij->i", diff, diff) + target.perp_sq

    def within(self, target: LinearTarget, thetas: np.ndarray, eps_sq: float) -> np.ndarray:
        """Hit mask dist_sq(target, thetas) <= eps_sq, tile by tile so no
        temporary outgrows tile_rows rows; the distance is O(d) already, so
        there is nothing to screen."""
        t, hit = self.tile_rows, np.empty(thetas.shape[0], dtype=bool)
        for lo in range(0, thetas.shape[0], t):
            hit[lo : lo + t] = self.dist_sq(target, thetas[lo : lo + t]) <= eps_sq
        return hit

    def log_prior_density(self, thetas: np.ndarray) -> np.ndarray:
        s2 = self.prior.sigma_w_sq
        quad = np.einsum("ij,ij->i", thetas, thetas)
        return -0.5 * quad / s2 - 0.5 * self.dim * (_LOG_2PI + math.log(s2))

    # -- importance-sampling cloud (all-Gaussian) ---------------------------

    def is_center(self, target: LinearTarget) -> np.ndarray:
        return np.asarray(target.w, dtype=float)

    def cloud_sample(self, n, center, scale, gen) -> np.ndarray:
        return gen.normal(center, scale, size=(n, self.dim))

    def cloud_log_density(self, thetas, center, scale) -> np.ndarray:
        z = (thetas - center) / scale
        quad = np.einsum("ij,ij->i", z, z)
        return -0.5 * quad - self.dim * (0.5 * _LOG_2PI + math.log(scale))

    # -- data-space kernels --------------------------------------------------

    def design(self, xs: np.ndarray) -> np.ndarray:
        return basis_matrix(self.basis, xs)

    def predict_batch(self, thetas: np.ndarray, xs: np.ndarray) -> np.ndarray:
        return thetas @ self.design(xs).T

    def grad_log_prior(self, theta: np.ndarray) -> np.ndarray:
        return -theta / self.prior.sigma_w_sq


# --------------------------------------------------------------------------
# Piecewise-linear target moments (closed-form building blocks)
# --------------------------------------------------------------------------


class PwlMoments:
    """Precomputed integrals of a target g on [0, 1] against ramp functions.

    Supports the exact batched evaluation of E_x[(f_theta - g)^2] under
    U([0, 1]) without constructing per-sample piecewise functions.
    """

    def __init__(self, g: PwlFunction):
        if abs(g.domain_lo) > 1e-12 or abs(g.domain_hi - 1.0) > 1e-12:
            raise ConfigError("target must live on [0, 1]")
        pts = np.unique(g.breakpoints())
        vals = g(pts)
        seg = np.diff(pts)
        a, b = vals[:-1], vals[1:]
        # E[g], E[g^2] over U([0,1]) (density 1 on the unit interval).
        self.mean = float(np.sum(seg * (a + b) / 2.0))
        self.mean_sq = _integral_sq(pts, vals)
        self._pts = pts
        self._g_at = vals
        self._slope = (b - a) / seg
        # max|g| + max|g'|: bounds sup|g| and the size of every term the
        # kernels form from g (ramp_inner works with g's segment slopes).
        self.scale = float(np.max(np.abs(vals)) + np.max(np.abs(self._slope)))
        # Suffix moments S0(j) = int_{s_j}^1 g dx and S1(j) = int_{s_j}^1 x g dx.
        s0_seg = seg * (a + b) / 2.0
        x0, x1 = pts[:-1], pts[1:]
        alpha = a - self._slope * x0
        s1_seg = alpha * (x1**2 - x0**2) / 2.0 + self._slope * (x1**3 - x0**3) / 3.0
        self._S0 = np.concatenate([np.cumsum(s0_seg[::-1])[::-1], [0.0]])
        self._S1 = np.concatenate([np.cumsum(s1_seg[::-1])[::-1], [0.0]])
        # E[x g] over U([0,1]).
        self.mean_x = float(self._S1[0])

    def ramp_inner(self, b: np.ndarray) -> np.ndarray:
        """I(b) = int_0^1 max(0, x - b) g(x) dx for an array of thresholds."""
        b = np.asarray(b, dtype=float)
        m = np.clip(b, 0.0, 1.0)
        j = np.clip(np.searchsorted(self._pts, m, side="right") - 1, 0, len(self._pts) - 2)
        x0 = self._pts[j]
        x1 = self._pts[j + 1]
        alpha = self._g_at[j] - self._slope[j] * x0
        beta = self._slope[j]

        def F(x):
            # antiderivative of (x - b)(alpha + beta x)
            return beta * x**3 / 3.0 + (alpha - b * beta) * x**2 / 2.0 - b * alpha * x

        partial = F(x1) - F(m)
        tail = self._S1[j + 1] - b * self._S0[j + 1]
        out = partial + tail
        return np.where(b >= 1.0, 0.0, out)


# --------------------------------------------------------------------------
# Shallow ReLU family
# --------------------------------------------------------------------------


class ShallowNetFamily:
    """Single-hidden-layer ReLU networks on [0, 1] under the product prior.

    Flat layout: [w1 (k), w2 (k), b1 (k), b2]; dim = 3k + 1.
    """

    def __init__(self, k: int, prior: NnPriorSpec):
        if k < 1:
            raise ConfigError("node count must be >= 1")
        self.k = k
        self.prior = prior
        self.dim = 3 * k + 1
        # Rows per kernel tile (dist_sq, and the IS weight pass): the
        # scratch is a few (rows, k) arrays, so keep rows * k near 2**15.
        self.tile_rows = max(256, 32768 // k)
        # Rows per estimator batch. Fixes RNG consumption per batch: changing
        # it changes every report's bytes.
        self.batch_rows = min(200_000, max(4096, int(4_000_000 / (k * k))))

    # -- layout helpers ------------------------------------------------------

    def split(self, thetas: np.ndarray):
        k = self.k
        return (
            thetas[:, :k],
            thetas[:, k : 2 * k],
            thetas[:, 2 * k : 3 * k],
            thetas[:, 3 * k],
        )

    # -- prior ----------------------------------------------------------------

    def sample_matrix(self, n: int, gen: np.random.Generator) -> np.ndarray:
        k, p = self.k, self.prior
        out = np.empty((n, self.dim))
        sw = math.sqrt(p.sigma_w_sq)
        out[:, : 2 * k] = gen.normal(0.0, sw, size=(n, 2 * k))
        out[:, 2 * k : 3 * k] = gen.uniform(0.0, p.M, size=(n, k))
        out[:, 3 * k] = gen.normal(0.0, math.sqrt(p.sigma_b_sq), size=n)
        return out

    def log_prior_density(self, thetas: np.ndarray) -> np.ndarray:
        k, p = self.k, self.prior
        w1, w2, b1, b2 = self.split(thetas)
        quad = np.einsum("ij,ij->i", w1, w1) + np.einsum("ij,ij->i", w2, w2)
        logp = -0.5 * quad / p.sigma_w_sq
        logp = logp - k * (_LOG_2PI + math.log(p.sigma_w_sq))
        logp = logp - k * math.log(p.M)
        logp = logp - 0.5 * b2**2 / p.sigma_b_sq - 0.5 * (_LOG_2PI + math.log(p.sigma_b_sq))
        inside = np.all((b1 >= 0.0) & (b1 <= p.M), axis=1)
        return np.where(inside, logp, -np.inf)

    # -- exact distance to a piecewise-linear target --------------------------

    def prepare(self, target) -> PwlMoments:
        """The moments dist_sq and within work from; a PwlMoments passes
        through, so a target prepared once is reused across calls."""
        return target if isinstance(target, PwlMoments) else PwlMoments(target)

    def dist_sq(self, target, thetas: np.ndarray) -> np.ndarray:
        moments = self.prepare(target)
        n = thetas.shape[0]
        out = np.empty(n)
        for lo in range(0, n, self.tile_rows):
            hi = min(n, lo + self.tile_rows)
            out[lo:hi] = self._dist_sq_chunk(moments, thetas[lo:hi])
        return out

    def within(self, target, thetas: np.ndarray, eps_sq: float) -> np.ndarray:
        """Hit mask, exactly ``self.dist_sq(target, thetas) <= eps_sq``.

        A row runs the O(k log k) kernel only if an O(k) lower bound on its
        distance leaves it a chance (_lower_bound): a row is dropped when
        lb > eps_sq + margin, and the margin exceeds the rounding of both
        kernels, so a dropped row has a computed dist_sq above eps_sq too.
        Rows where the bound is nan, or its margin overflows, are kept.
        """
        mo = self.prepare(target)
        n = thetas.shape[0]
        keep = np.empty(n, dtype=bool)
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, n, self.tile_rows):
                lb, margin = self._lower_bound(mo, thetas[lo : lo + self.tile_rows])
                keep[lo : lo + self.tile_rows] = ~(lb > eps_sq + margin)
        hit = np.zeros(n, dtype=bool)
        hit[keep] = self.dist_sq(mo, thetas[keep]) <= eps_sq
        return hit

    def _lower_bound(self, mo: PwlMoments, thetas: np.ndarray):
        """(lb, margin) per row with lb <= E_x[(f - g)^2] in exact arithmetic.

        Bessel's inequality for h = f - g against the orthonormal pair 1,
        sqrt(3)(2x - 1) of U([0, 1]): E[h^2] >= h0^2 + 3 (2 hx - h0)^2 with
        h0 = E[h] = b2 - E[g] + sum_i u_i (T2_i - b_i T1_i) and
        hx = E[x h] = b2/2 - E[x g] + sum_i u_i (T3_i - b_i T2_i), the T's
        as in _dist_sq_chunk. It is tight when h is affine on [0, 1].

        Rounding: S = |b2| + sum_i |u_i| (1 + |b_i|) + max|g| + max|g'|
        bounds sup|f| + sup|g| and the size of every term either kernel
        sums (each at most a few S^2, at most 3k + 4 of them, summed by
        sequential sums and cumsums of length <= k). Each product carries a
        few roundings, so each kernel's error is below about
        70 (k + 10) 2^-53 S^2 (measured against exact rational arithmetic:
        under 3 * 2^-53 S^2 at k <= 64, rows with cancelling 1e6 weights
        included). The margin 2^-46 (k + 64) S^2 = 128 (k + 64) 2^-53 S^2
        covers both at every k.
        """
        w1, w2, b1, b2 = self.split(thetas)
        u = w1 * w2
        m = np.clip(b1, 0.0, 1.0)
        t1, t2, t3 = 1.0 - m, (1.0 - m * m) / 2.0, (1.0 - m * m * m) / 3.0
        h0 = b2 - mo.mean + np.einsum("ij,ij->i", u, t2 - b1 * t1)
        hx = b2 / 2.0 - mo.mean_x + np.einsum("ij,ij->i", u, t3 - b1 * t2)
        lb = h0 * h0 + 3.0 * (2.0 * hx - h0) ** 2
        s = np.abs(b2) + np.einsum("ij,ij->i", np.abs(u), 1.0 + np.abs(b1)) + mo.scale
        return lb, 2.0**-46 * (self.k + 64) * (s * s)

    def _dist_sq_chunk(self, mo: PwlMoments, thetas: np.ndarray) -> np.ndarray:
        """E_x[(f - g)^2] per row in O(k log k), f(x) = sum_i u_i (x - b_i)_+ + b2.

        Sort each row's biases; then ramps i <= j overlap on [m_j, 1] with
        m = clip(b, 0, 1). With T1 = 1 - m, T2 = (1 - m^2)/2, T3 = (1 - m^3)/3,
        exclusive prefix sums A_j = sum_{i<j} u_i, B_j = sum_{i<j} u_i b_i, and
        Ac = u + 2A, Bc = u b + 2B:
            sum_ij u_i u_j int_0^1 (x - b_i)_+ (x - b_j)_+ dx
                = sum_j u_j [Ac_j T3_j - (Bc_j + Ac_j b_j) T2_j + Bc_j b_j T1_j],
        and int_0^1 (x - b)_+ dx = T2 - b T1.
        """
        w1, w2, b1, b2 = self.split(thetas)
        order = np.argsort(b1, axis=1)
        b = np.take_along_axis(b1, order, axis=1)
        u = np.take_along_axis(w1 * w2, order, axis=1)
        m = np.clip(b, 0.0, 1.0)
        t1, t2, t3 = 1.0 - m, (1.0 - m * m) / 2.0, (1.0 - m * m * m) / 3.0
        ub = u * b
        ac = 2.0 * np.cumsum(u, axis=1) - u
        bc = 2.0 * np.cumsum(ub, axis=1) - ub
        cross = ac * t3 - (bc + ac * b) * t2 + bc * b * t1
        e_f_sq = (
            b2**2
            + 2.0 * b2 * np.einsum("ij,ij->i", u, t2 - b * t1)
            + np.einsum("ij,ij->i", u, cross)
        )
        inner = mo.ramp_inner(b.ravel()).reshape(b.shape)
        e_fg = b2 * mo.mean + np.einsum("ij,ij->i", u, inner)
        return np.maximum(e_f_sq - 2.0 * e_fg + mo.mean_sq, 0.0)

    # -- importance-sampling cloud --------------------------------------------

    def is_center(self, g: PwlFunction) -> np.ndarray:
        theta = min_norm_realization(g, self.k)
        flat = theta.flat()
        k = self.k
        # Surplus nodes sit at 1.5 for norm accounting; recenter them inside
        # the prior's bias support while keeping them inactive on [0, 1].
        surplus = flat[2 * k : 3 * k] > 1.0
        flat[2 * k : 3 * k][surplus] = (1.0 + self.prior.M) / 2.0
        return flat

    def cloud_sample(self, n, center, scale, gen) -> np.ndarray:
        # numpy draws normal(loc, scale) as loc + scale * z and uniform(lo,
        # hi) as lo + (hi - lo) * U: standard draws scaled in place give the
        # same bytes without the per-element broadcast path.
        k = self.k
        out = np.empty((n, self.dim))
        out[:, : 2 * k] = _scale_shift(gen.standard_normal((n, 2 * k)), scale, center[: 2 * k])
        lo, hi = center[2 * k : 3 * k] - scale, center[2 * k : 3 * k] + scale
        out[:, 2 * k : 3 * k] = _scale_shift(gen.random((n, k)), hi - lo, lo)
        out[:, 3 * k] = gen.normal(center[3 * k], scale, size=n)
        return out

    def cloud_log_density(self, thetas, center, scale) -> np.ndarray:
        k = self.k
        gauss_cols = np.concatenate([np.arange(2 * k), [3 * k]])
        z = (thetas[:, gauss_cols] - center[gauss_cols]) / scale
        logp = -0.5 * np.einsum("ij,ij->i", z, z) - (2 * k + 1) * (
            0.5 * _LOG_2PI + math.log(scale)
        )
        b = thetas[:, 2 * k : 3 * k]
        cb = center[2 * k : 3 * k]
        inside = np.all(np.abs(b - cb) <= scale, axis=1)
        logp = logp - k * math.log(2.0 * scale)
        return np.where(inside, logp, -np.inf)

    # -- data-space kernels ----------------------------------------------------

    def predict_batch(self, thetas: np.ndarray, xs: np.ndarray) -> np.ndarray:
        n = thetas.shape[0]
        out = np.empty((n, xs.size))
        chunk = max(256, int(2_000_000 / max(1, self.k * xs.size)))
        for lo in range(0, n, chunk):
            hi = min(n, lo + chunk)
            w1, w2, b1, b2 = self.split(thetas[lo:hi])
            u = w1 * w2
            acts = np.maximum(0.0, xs[None, None, :] - b1[:, :, None])
            out[lo:hi] = np.einsum("ij,ijn->in", u, acts) + b2[:, None]
        return out

    def forward_and_jac(self, theta: np.ndarray, xs: np.ndarray):
        k = self.k
        w1, w2, b1, b2 = theta[:k], theta[k : 2 * k], theta[2 * k : 3 * k], theta[3 * k]
        ramps = np.maximum(0.0, xs[:, None] - b1[None, :])  # (N, k)
        active = (xs[:, None] > b1[None, :]).astype(float)
        preds = ramps @ (w1 * w2) + b2
        J = np.empty((xs.size, self.dim))
        J[:, :k] = ramps * w2[None, :]
        J[:, k : 2 * k] = ramps * w1[None, :]
        J[:, 2 * k : 3 * k] = -active * (w1 * w2)[None, :]
        J[:, 3 * k] = 1.0
        return preds, J

    def grad_log_prior(self, theta: np.ndarray) -> np.ndarray:
        k, p = self.k, self.prior
        g = np.zeros_like(theta)
        g[: 2 * k] = -theta[: 2 * k] / p.sigma_w_sq
        g[3 * k] = -theta[3 * k] / p.sigma_b_sq
        return g

    def reflect(self, theta: np.ndarray) -> np.ndarray:
        """Fold hidden biases back into [0, M] (reflecting boundaries)."""
        k, M = self.k, self.prior.M
        out = theta.copy()
        b = np.remainder(out[2 * k : 3 * k], 2.0 * M)
        out[2 * k : 3 * k] = np.where(b > M, 2.0 * M - b, b)
        return out

    def expected_prior_norm_sq(self) -> float:
        p = self.prior
        return 2 * self.k * p.sigma_w_sq + self.k * p.M**2 / 3.0 + p.sigma_b_sq
