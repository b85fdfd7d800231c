"""Model + prior bundles with vectorized kernels.

Priors (NnPriorSpec, LinearPriorSpec): the shallow network's weights are
i.i.d. N(0, sigma_w^2), its hidden biases i.i.d. U([0, M]) and its output
bias N(0, sigma_b^2); the linear model's basis coefficients are isotropic
N(0, sigma_w^2). Defaults follow the k-node convention M = k,
sigma_w^2 = 1/k, sigma_b^2 = 1.

The naive Monte Carlo estimators are generic over a "family": something
that can sample parameters from its prior (``sample_matrix``) and test
which of them lie within a squared distance of a target (``within``, on
the form ``prepare`` gives; ``dist_sq`` is the exact mean-squared distance
it thresholds); ``batch_rows`` sets the estimators' draws per batch.
Importance sampling also needs prior and cloud log-densities and a cloud
centered at a realization of the target, which only the shallow family
has. Two families exist: the orthonormal-basis linear model and the
shallow ReLU network in the product parametrization. The posterior
machinery (conjugate posteriors, SGLD, temperature search) takes the
linear family only.

All batch kernels work on plain (n, dim) parameter matrices; the distance
kernels are closed-form exact (no quadrature) so that ten-million-draw Monte
Carlo runs stay cheap and unbiased.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .models import BasisSpec, min_norm_realization
from .pwl import PwlFunction, _integral_sq

_LOG_2PI = math.log(2.0 * math.pi)


def _scale_shift(z: np.ndarray, scale, shift) -> np.ndarray:
    """z * scale + shift, in place. On standard draws (numpy's fill path,
    cheaper per value than its scalar-parameter calls) this is numpy's
    normal(loc, scale) = loc + scale * z and uniform(lo, hi) = lo + (hi -
    lo) * U bit for bit; a zero shift is still added, as numpy adds it, so
    that -0.0 becomes +0.0."""
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
        # Rows per estimator batch, about 2**15 elements: within tests a
        # batch in one pass, so a batch is one cache-sized tile. sample_matrix
        # draws a batch in one generator call, so the hit counts do not
        # depend on the batch size.
        self.batch_rows = max(256, 32768 // self.dim)

    def prepare(self, target: LinearTarget) -> LinearTarget:
        """The form dist_sq and within take the target in: as given."""
        return target

    def sample_matrix(self, n: int, gen: np.random.Generator) -> np.ndarray:
        return _scale_shift(gen.standard_normal((n, self.dim)),
                            math.sqrt(self.prior.sigma_w_sq), 0.0)

    def dist_sq(self, target: LinearTarget, thetas: np.ndarray) -> np.ndarray:
        diff = thetas - np.asarray(target.w)
        return 0.5 * np.einsum("ij,ij->i", diff, diff) + target.perp_sq

    def within(self, target: LinearTarget, thetas: np.ndarray, eps_sq: float) -> np.ndarray:
        """Hit mask dist_sq(target, thetas) <= eps_sq; the distance is O(d)
        already, so there is nothing to screen."""
        return self.dist_sq(target, thetas) <= eps_sq


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

    Flat layout: [w1 (k), w2 (k), b1 (k), b2]; dim = 3k + 1. Drawn blocks
    are column-major, so the O(k) screen reads contiguous columns. Each of
    a block's draws ((n, 2k) weights, (n, k) biases, n output biases) is
    made on consecutive tile_rows-row pieces: numpy's standard fill
    (standard_normal, random) into one tile-sized scratch, scaled there,
    copied into the block and shifted in it. numpy's normal and uniform
    are those standard draws scaled and shifted, and a run of same-kind
    draws is one stream however it is split, so the block holds the bytes
    of one normal or uniform call.
    einsum may order a row's sum by layout, so dist_sq and the two densities
    take C-ordered rows: their bits do not depend on the layout handed in.
    """

    def __init__(self, k: int, prior: NnPriorSpec):
        if k < 1:
            raise ConfigError("node count must be >= 1")
        self.k = k
        self.prior = prior
        self.dim = 3 * k + 1
        # Rows per kernel tile (dist_sq, within's screen, the draws'
        # pieces): the distance kernel holds about 20 (rows, k) arrays, so
        # keep rows * k near 2**15.
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

    def _fill_tiles(self, out: np.ndarray, cols, fill, scale, shift) -> None:
        """out[:, cols] = fill(n) * scale + shift, tile_rows rows at a time:
        each piece is filled into one scratch and scaled there, then copied
        into the block and shifted in it, where a per-column shift runs
        down whole columns."""
        n = out.shape[0]
        scratch = np.empty((min(n, self.tile_rows), *out[:0, cols].shape[1:]))
        for lo in range(0, n, self.tile_rows):
            hi = min(n, lo + self.tile_rows)
            piece = scratch[: hi - lo]
            fill(out=piece)
            piece *= scale
            block = out[lo:hi, cols]
            block[...] = piece
            block += shift

    def sample_matrix(self, n: int, gen: np.random.Generator) -> np.ndarray:
        k, p = self.k, self.prior
        out = np.empty((n, self.dim), order="F")
        self._fill_tiles(out, slice(0, 2 * k), gen.standard_normal, math.sqrt(p.sigma_w_sq), 0.0)
        self._fill_tiles(out, slice(2 * k, 3 * k), gen.random, p.M, 0.0)
        self._fill_tiles(out, 3 * k, gen.standard_normal, math.sqrt(p.sigma_b_sq), 0.0)
        return out

    def log_prior_density(self, thetas: np.ndarray) -> np.ndarray:
        k, p = self.k, self.prior
        w1, w2, b1, b2 = self.split(np.ascontiguousarray(thetas))
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
        thetas = np.ascontiguousarray(thetas)
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
        The kept rows go to dist_sq in chunks of a quarter tile, so the
        gathered rows stay about as small as the kernel's own scratch.
        """
        mo = self.prepare(target)
        n = thetas.shape[0]
        keep = np.empty(n, dtype=bool)
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, n, self.tile_rows):
                lb, margin = self._lower_bound(mo, thetas[lo : lo + self.tile_rows])
                keep[lo : lo + self.tile_rows] = ~(lb > eps_sq + margin)
        hit = np.zeros(n, dtype=bool)
        kept = np.flatnonzero(keep)
        step = (self.tile_rows + 3) // 4
        for lo in range(0, kept.size, step):
            rows = kept[lo : lo + step]
            hit[rows] = self.dist_sq(mo, thetas[rows]) <= eps_sq
        return hit

    def _lower_bound(self, mo: PwlMoments, thetas: np.ndarray):
        """(lb, margin) per row with lb <= E_x[(f - g)^2] in exact arithmetic.

        Bessel's inequality for h = f - g against the orthonormal pair 1,
        sqrt(3)(2x - 1) of U([0, 1]): E[h^2] >= h0^2 + 3 e^2 with h0 = E[h]
        and e = 2 E[x h] - h0. It is tight when h is affine on [0, 1].
        With m = clip(b, 0, 1), c = 1 - m and d = m - b, the T's of
        _dist_sq_chunk give T2 - b T1 = c (c/2 + d) and
        2 (T3 - b T2) - (T2 - b T1) = c (c (1 + 2m)/6 + d m). Each node has
        d = 0 (b in [0, 1]), or m = 0 and c = 1 (b < 0), or c = 0 (b > 1);
        so c d = -min(b, 0), d m = 0 where c != 0, and 1 + 2m = 3 - 2c.
        b2 cancels from e, and with c = clip(1 - b, 0, 1),
            h0 = b2 - E[g] + P2/2 - N,    e = E[g] - 2 E[x g] + P2/2 - P3/3,
            P2 = sum_i u_i c_i^2,  P3 = sum_i u_i c_i^3,  N = sum_i u_i min(b_i, 0):
        13 elementwise passes over u and two (rows, k) scratch arrays.

        Rounding: S = |b2| + sum_i |u_i| (1 + |b_i|) + max|g| + max|g'|
        bounds sup|f| + sup|g|, |h0| and |e| / 3, and the size of every term
        either kernel sums. Rounded in any order or grouping, a sum of m
        terms is off by at most gamma_(m-1) = (m - 1) u / (1 - (m - 1) u),
        u = 2^-53, times the sum of their magnitudes: each term passes
        through at most m - 1 additions, however the summation tree is
        shaped (Higham, Accuracy and Stability of Numerical Algorithms,
        sec. 4.2). So the bound holds however einsum orders the k-term sums,
        which may depend on the layout of thetas. Here the clip and
        min(b, 0) are exact and 1 - b is exact for b >= 1/2, so a term of
        P2, P3 and N carries at most 5, 7 and 2 roundings: |dh0| <= (k + 7) u S
        and |de| <= 3 (k + 10) u S to first order. With the three roundings
        of h0^2 + 3 e^2 <= 28 S^2, the screen is off by at most
        2 S |dh0| + 18 S |de| + 84 u S^2 <= 56 (k + 12) u S^2; the
        distance kernel, by about 70 (k + 10) u S^2. (Measured against exact
        rational arithmetic, each is under 3 u S^2 at k <= 64, rows with
        cancelling 1e6 weights included.) The margin 2^-46 (k + 64) S^2 =
        128 (k + 64) u S^2 covers their sum at every k. The checks, at
        k <= 64 on C- and F-ordered rows, are tests/test_families.py's
        test_lower_bound_is_valid_and_tight_when_the_difference_is_affine
        and test_lower_bound_is_the_reference_bound_within_the_margin.
        """
        w1, w2, b1, b2 = self.split(thetas)
        u = w1 * w2
        c = np.abs(u)
        r = np.abs(b1)
        r += 1.0
        s = np.abs(b2) + np.einsum("ij,ij->i", c, r) + mo.scale
        # The margin's scratch, reused: c = clip(1 - b, 0, 1), r = min(b, 0).
        np.subtract(1.0, b1, out=c)
        np.clip(c, 0.0, 1.0, out=c)
        np.minimum(b1, 0.0, out=r)
        n = np.einsum("ij,ij->i", u, r)
        u *= c
        half_p2 = 0.5 * np.einsum("ij,ij->i", u, c)
        u *= c
        p3 = np.einsum("ij,ij->i", u, c)
        del u, c, r  # free the (rows, k) arrays before the per-row arithmetic
        h0 = b2 - mo.mean + (half_p2 - n)
        e = (mo.mean - 2.0 * mo.mean_x) + (half_p2 - p3 / 3.0)
        lb = h0 * h0 + 3.0 * (e * e)
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
        k = self.k
        out = np.empty((n, self.dim), order="F")
        self._fill_tiles(out, slice(0, 2 * k), gen.standard_normal, scale, center[: 2 * k])
        # uniform(lo, hi) scales by hi - lo, which need not round to 2 * scale.
        lo, hi = center[2 * k : 3 * k] - scale, center[2 * k : 3 * k] + scale
        self._fill_tiles(out, slice(2 * k, 3 * k), gen.random, hi - lo, lo)
        self._fill_tiles(out, 3 * k, gen.standard_normal, scale, center[3 * k])
        return out

    def cloud_log_density(self, thetas, center, scale) -> np.ndarray:
        k = self.k
        thetas = np.ascontiguousarray(thetas)
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

    def expected_prior_norm_sq(self) -> float:
        p = self.prior
        return 2 * self.k * p.sigma_w_sq + self.k * p.M**2 / 3.0 + p.sigma_b_sq
