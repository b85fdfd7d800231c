"""Complexity estimators and closed forms.

Implements the sharp complexity chi#(g, eps^2) = -ln P_theta[E_x[(g - f_theta)^2] <= eps^2]
via naive Monte Carlo and defensive importance sampling, the limiting
complexity (weighted log-log slope regression), the closed-form log q for
the linear model (a series in math: the module imports no scipy), the
exponential/empirical/with-noise complexity chain, Minkowski codimension
estimation for shallow-net representation sets, and the one-slope-change
bounds.

Conventions: natural logarithms throughout; eps arguments are radii and
eps_sq arguments are squared radii; every randomized estimate carries a
delta-method standard error.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, InsufficientSamplesError, NumericalError
from .families import NnPriorSpec, ShallowNetFamily
from .pwl import PwlFunction
from .rng import SeededRng, partition_counts

#: Default geometric grid of eps radii for slope fits.
DEFAULT_EPS_GRID = (0.3, 0.2, 0.14, 0.1, 0.07, 0.05)


# --------------------------------------------------------------------------
# Result records
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ComplexityEstimate:
    """A single complexity number with its sample counts and flags.

    ``chi`` is -log_prob for probability-based methods and the negative log
    of the relevant expectation for the exponential family of definitions.
    ``zero_hits`` marks rule-of-three lower bounds (chi = ln(n/3)) that must
    not enter slope regressions. ``infinite`` marks structurally impossible
    events (probability zero).
    """

    chi: float
    log_prob: float
    std_err: float
    n_samples: int
    n_hits: int
    epsilon_sq: float | None
    zero_hits: bool = False
    infinite: bool = False


@dataclass(frozen=True)
class SlopeEstimate:
    slope: float
    ci_halfwidth: float
    eps_grid: tuple[float, ...]
    per_eps: tuple[ComplexityEstimate, ...]
    note: str = ""


@dataclass(frozen=True)
class CodimQuery:
    g: PwlFunction
    k: int
    eps_grid: tuple[float, ...] | None = None
    radius: float | None = None


@dataclass(frozen=True)
class OneChangeResult:
    chi_hat: ComplexityEstimate
    lower: float
    upper: float
    assumptions_ok: bool
    violated: tuple[str, ...]


# --------------------------------------------------------------------------
# Closed-form q for the linear model
# --------------------------------------------------------------------------


#: Cap of each loop in log_q_closed_form.
_Q_MAX_ITER = 10_000
#: How far below the largest mixture term the sum stops.
_Q_WINDOW_NATS = 40.0


def _log_pois(x: float, lam: float) -> float:
    """log(lam^x e^-lam / Gamma(x + 1)), x >= 0, lam > 0. From x = 16 on in
    Loader's saddle-point form: the plain one loses about ulp(lam)."""
    if x < 16.0:
        return x * math.log(lam) - lam - math.lgamma(x + 1.0)
    nn = 1.0 / (x * x)
    stirling = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - nn / 1188) * nn) * nn) * nn) / x
    if abs(x - lam) < 0.1 * (x + lam):  # bd0 by its series in v, |v| < 0.1
        v = (x - lam) / (x + lam)
        bd0, odd = (x - lam) * v, 2.0 * x * v
        for k in range(3, 41, 2):
            odd *= v * v
            bd0 += odd / k
    else:
        bd0 = x * math.log(x / lam) + lam - x
    return -stirling - bd0 - 0.5 * math.log(2.0 * math.pi * x)


def _log_gamma_p(a: float, z: float) -> float:
    """log P(a, z), the regularized lower incomplete gamma function: its
    series for z < a + 1, else log1p(-Q) with Q < 1/2 from its continued
    fraction (Lentz; there its denominators stay above b / 2, never 0)."""
    log_front = _log_pois(a, z)
    if z < a + 1.0:
        term = total = 1.0
        for n in range(1, _Q_MAX_ITER):
            term *= z / (a + n)
            total += term
            if term < total * 2.0**-53:
                return log_front + math.log(total)
    else:
        b = z + 1.0 - a
        c, inv_d = math.inf, 1.0 / b
        h = inv_d
        for n in range(1, _Q_MAX_ITER):
            b += 2.0
            inv_d = 1.0 / (n * (a - n) * inv_d + b)
            c = b + n * (a - n) / c
            h *= c * inv_d
            if abs(c * inv_d - 1.0) < 2.0**-53:
                return math.log1p(-a * h * math.exp(log_front))
    raise NumericalError(f"gamma P({a:g}, {z:g}) did not converge in {_Q_MAX_ITER} terms")


def log_q_closed_form(kappa: float, sigma_w: float, eps: float, d: int) -> float:
    """log q, q = P[ (1/2)||w - kappa e_0||^2 <= eps^2 ] for w ~ N(0, sigma_w^2 I_d).

    q is the noncentral chi-square CDF sum_j Pois(j; mu) P(d/2 + j, z), mu =
    kappa^2 / (2 sigma_w^2), z = eps^2 / sigma_w^2 (Ding 1992, AS 275), in
    log space: the log-concave term's peak (below j = mu) is bisected, and
    the sum walks both ways from it to _Q_WINDOW_NATS below it. The error is
    about 1e-15 max(1, |log q|) against scipy's ncx2.logcdf and 50-digit
    sums, chi of thousands of nats included. Domain: finite kappa >= 0 and
    sigma_w > 0, eps in (0, 1], d >= 1 (else ConfigError). NumericalError
    where mu + z >= 2^52 or a loop passes _Q_MAX_ITER (kappa / sigma_w in
    the hundreds, eps near kappa).
    """
    if not 0 <= kappa < math.inf:
        raise ConfigError(f"kappa must be finite and >= 0, got {kappa}")
    if not 0 < sigma_w < math.inf:
        raise ConfigError(f"sigma_w must be finite and > 0, got {sigma_w}")
    if not 0.0 < eps <= 1.0:
        raise ConfigError(f"eps must lie in (0, 1], got {eps}")
    if d < 1:
        raise ConfigError(f"d must be >= 1, got {d}")
    a, r, s = d / 2.0, kappa / sigma_w, eps / sigma_w
    mu, z = 0.5 * r * r, s * s
    if not mu + z < 2.0**52:
        raise NumericalError(f"q out of range at kappa/sigma_w={r:g}, eps/sigma_w={s:g}")
    if mu == 0.0:
        return _log_gamma_p(a, z)

    def term(j: int) -> float:
        return _log_pois(float(j), mu) + _log_gamma_p(a + j, z)

    lo, hi = 0, int(mu)
    while lo < hi:
        mid = (lo + hi) // 2
        if term(mid + 1) > term(mid):
            lo = mid + 1
        else:
            hi = mid
    peak, shifted = term(lo), [0.0]
    for step in (1, -1):
        j = lo + step
        while j >= 0 and (t := term(j) - peak) >= -_Q_WINDOW_NATS:
            if len(shifted) == _Q_MAX_ITER:
                raise NumericalError(f"q at mu={mu:g}, z={z:g} needs over {_Q_MAX_ITER} terms")
            shifted.append(t)
            j += step
    return peak + math.log(math.fsum(math.exp(t) for t in shifted))


# perfbench/tracing.py times the q layer by this name; it returns log q too.
q_closed_form = log_q_closed_form


def chi_from_q(
    kappa: float, sigma_w: float, eps_sq: float, d: int, perp_sq: float = 0.0
) -> ComplexityEstimate:
    """Closed-form sharp complexity for a linear target at distance kappa.

    A target component outside the model span shifts the event to
    (1/2)||w - w~||^2 <= eps^2 - perp_sq; a nonpositive shifted radius means
    the event is empty.
    """
    eff = eps_sq - perp_sq
    if eff <= 0.0:
        return _impossible(eps_sq)
    log_q = log_q_closed_form(kappa, sigma_w, math.sqrt(eff), d)
    return ComplexityEstimate(
        chi=-log_q,
        log_prob=log_q,
        std_err=0.0,
        n_samples=0,
        n_hits=0,
        epsilon_sq=eps_sq,
    )


# --------------------------------------------------------------------------
# Monte Carlo sharp complexity
# --------------------------------------------------------------------------


def _rule_of_three(n: int, eps_sq: float) -> ComplexityEstimate:
    return ComplexityEstimate(
        chi=math.log(n / 3.0),
        log_prob=math.log(3.0 / n),
        std_err=math.inf,
        n_samples=n,
        n_hits=0,
        epsilon_sq=eps_sq,
        zero_hits=True,
    )


def _impossible(eps_sq: float) -> ComplexityEstimate:
    return ComplexityEstimate(
        chi=math.inf,
        log_prob=-math.inf,
        std_err=0.0,
        n_samples=0,
        n_hits=0,
        epsilon_sq=eps_sq,
        infinite=True,
    )


def _naive_estimate(hits: int, n: int, eps_sq: float) -> ComplexityEstimate:
    """Hit fraction p = hits/n with delta-method std_err sqrt((1-p)/(p n));
    zero hits give the rule-of-three lower bound."""
    if hits == 0:
        return _rule_of_three(n, eps_sq)
    p = hits / n
    return ComplexityEstimate(
        chi=-math.log(p),
        log_prob=math.log(p),
        std_err=math.sqrt((1.0 - p) / (p * n)),
        n_samples=n,
        n_hits=hits,
        epsilon_sq=eps_sq,
    )


def _streams(rng: SeededRng, n: int, workers: int) -> list[tuple[np.random.Generator, int]]:
    """(generator, count) per worker: worker w draws its share of
    partition_counts(n, workers) from rng.stream(w). A budget below one draw
    or fewer than one worker is a configuration error, raised before any
    draw; workers > n leaves the surplus streams with a count of 0."""
    if n < 1:
        raise ConfigError(f"sample budget must be >= 1, got {n}")
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    return [
        (rng.stream(w).generator(), count)
        for w, count in enumerate(partition_counts(n, workers))
    ]


# One pool per process, made on first use with workers > 1 (again in a forked
# child, which inherits no threads), so no estimate starts and stops threads.
_POOL: tuple[int, object] | None = None
_POOL_LOCK = threading.Lock()


def _cpu_cap() -> int:
    """CPUs this process may run on: the pool's thread count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool():
    """The module's ThreadPoolExecutor, capped at _cpu_cap() threads."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None or _POOL[0] != os.getpid():
            from concurrent.futures import ThreadPoolExecutor

            # Freeing a mapped block raises glibc's mmap threshold to its size (cap 32 MiB); make
            # the last raise here, not in a race of pool threads that moved peak RSS by 4-5 MiB.
            np.empty(31 << 17)
            pool = ThreadPoolExecutor(max_workers=_cpu_cap(), thread_name_prefix="bayescomplex")
            _POOL = (os.getpid(), pool)
        return _POOL[1]


def _run_streams(rng: SeededRng, n: int, workers: int, fn) -> list:
    """fn(generator, count) once per stream of _streams(rng, n, workers),
    results in stream order. One stream runs inline; several run on the
    module's pool, so N streams use up to min(N, CPUs) threads. Each stream
    owns its generator, so the results depend on (rng, n, workers) only,
    never on the thread count or the scheduling."""
    streams = _streams(rng, n, workers)
    if len(streams) == 1:
        return [fn(*streams[0])]
    return list(_pool().map(lambda stream: fn(*stream), streams))


def _map_batches(rng: SeededRng, n: int, workers: int, rows: int, fn) -> list:
    """fn(generator, m) for every batch of at most ``rows`` draws of every
    stream. A stream's batches run in order on one thread, and the results
    come back flat in (stream, batch) order, so float reductions over them
    are the same for any thread count."""

    def stream(gen, count):
        return [fn(gen, min(rows, count - done)) for done in range(0, count, rows)]

    return [result for part in _run_streams(rng, n, workers, stream) for result in part]


def sharp_complexity_mc(
    family,
    target,
    eps_sq: float,
    n: int,
    rng: SeededRng,
    workers: int = 1,
) -> ComplexityEstimate:
    """Naive Monte Carlo estimate of chi#."""
    if eps_sq <= 0:
        raise ConfigError(f"eps_sq must be > 0, got {eps_sq}")
    prepared = family.prepare(target)

    def batch(gen, m):
        hit = family.within(prepared, family.sample_matrix(m, gen), eps_sq)
        return int(np.count_nonzero(hit))

    hits = sum(_map_batches(rng, n, workers, family.batch_rows, batch))
    return _naive_estimate(hits, n, eps_sq)


def sharp_complexity_is(
    family,
    target,
    eps_sq: float,
    n: int,
    rng: SeededRng,
    cloud_width: float = 3.0,
    workers: int = 1,
) -> ComplexityEstimate:
    """Importance-sampling estimate of chi#.

    The proposal is the defensive mixture 0.5 * prior + 0.5 * cloud, where
    the cloud is centered at a minimum-norm realization of the target with
    per-coordinate scale cloud_width * sqrt(eps_sq). Weights are bounded by
    2 on the prior's support, and samples outside the support get weight 0,
    so the estimate stays unbiased. Only hits carry a weight: the hit test
    is family.within, and the two densities are evaluated on hits alone.
    """
    if eps_sq <= 0:
        raise ConfigError(f"eps_sq must be > 0, got {eps_sq}")
    center = family.is_center(target)
    scale = cloud_width * math.sqrt(eps_sq)
    prepared = family.prepare(target)
    log_half = math.log(0.5)
    tile = family.tile_rows

    def hit_weights(thetas):
        # prior/mixture density ratio where the draw hits, else 0. The
        # densities run on hits only; every step is row-wise, so neither the
        # tiling nor the compaction changes a value.
        out = np.zeros(thetas.shape[0])
        for lo in range(0, thetas.shape[0], tile):
            part = thetas[lo : lo + tile]
            hit = family.within(prepared, part, eps_sq)
            hits = part[hit]
            logp = family.log_prior_density(hits)
            logc = family.cloud_log_density(hits, center, scale)
            out[lo : lo + tile][hit] = np.exp(logp - (np.logaddexp(logp, logc) + log_half))
        return out

    def batch(gen, m):
        # Each block is weighed (and freed) before the next is drawn; only
        # the 1-D weights are scattered back into draw order.
        from_prior = gen.random(m) < 0.5
        n_p = int(np.count_nonzero(from_prior))
        x = np.empty(m)
        if n_p:
            x[from_prior] = hit_weights(family.sample_matrix(n_p, gen))
        if m - n_p:
            x[~from_prior] = hit_weights(family.cloud_sample(m - n_p, center, scale, gen))
        return float(x.sum()), float((x * x).sum()), int(np.count_nonzero(x > 0.0))

    s1 = 0.0
    s2 = 0.0
    hits = 0
    for b1, b2, b_hits in _map_batches(rng, n, workers, family.batch_rows, batch):
        s1 += b1
        s2 += b2
        hits += b_hits
    if hits == 0 or s1 <= 0.0:
        return _rule_of_three(n, eps_sq)
    p = s1 / n
    var = max(s2 / n - p * p, 0.0)
    se_chi = math.sqrt(var / n) / p
    return ComplexityEstimate(
        chi=-math.log(p),
        log_prob=math.log(p),
        std_err=se_chi,
        n_samples=n,
        n_hits=hits,
        epsilon_sq=eps_sq,
    )


# --------------------------------------------------------------------------
# Slope fitting and limiting complexity
# --------------------------------------------------------------------------


def fit_limiting_slope(
    per_eps: Sequence[ComplexityEstimate],
    eps_grid: Sequence[float],
    note: str = "",
) -> SlopeEstimate:
    """Weighted least-squares slope of log_prob against ln(eps).

    Weights are 1/std_err^2 with a 1e-12 floor so exact (closed-form)
    points behave as near-hard constraints; the ci_halfwidth is 1.96 times
    the known-variance WLS standard error of the slope.
    """
    if len(per_eps) != len(eps_grid):
        raise ConfigError("per_eps and eps_grid length mismatch")
    if len(eps_grid) < 3:
        raise ConfigError("slope regression needs at least 3 grid points")
    for est, eps in zip(per_eps, eps_grid):
        if est.zero_hits or est.infinite:
            raise InsufficientSamplesError(eps, est.n_samples)
    x = np.log(np.asarray(eps_grid, dtype=float))
    y = np.array([e.log_prob for e in per_eps])
    se = np.array([max(e.std_err, 1e-12) for e in per_eps])
    w = 1.0 / (se * se)
    sw = w.sum()
    sx = (w * x).sum()
    sy = (w * y).sum()
    sxx = (w * x * x).sum()
    sxy = (w * x * y).sum()
    det = sw * sxx - sx * sx
    slope = (sw * sxy - sx * sy) / det
    ci = 1.96 * math.sqrt(sw / det)
    return SlopeEstimate(
        slope=float(slope),
        ci_halfwidth=float(ci),
        eps_grid=tuple(float(e) for e in eps_grid),
        per_eps=tuple(per_eps),
        note=note,
    )


def _check_eps_grid(eps_grid: Sequence[float]) -> tuple[float, ...]:
    grid = tuple(float(e) for e in eps_grid)
    if len(grid) < 3:
        raise ConfigError("eps_grid needs at least 3 points")
    if not all(math.isfinite(e) for e in grid):
        raise ConfigError("eps_grid values must be finite")
    if any(e <= 0 for e in grid):
        raise ConfigError("eps_grid values must be positive")
    if any(b >= a for a, b in zip(grid, grid[1:])):
        raise ConfigError("eps_grid must be strictly decreasing")
    return grid


def limiting_complexity(
    family,
    target,
    eps_grid: Sequence[float],
    n_per_eps: int,
    rng: SeededRng,
    cloud_width: float = 3.0,
    workers: int = 1,
) -> SlopeEstimate:
    """Finite-eps slope estimate of the limiting complexity, one
    importance-sampling run per grid point."""
    grid = _check_eps_grid(eps_grid)
    per_eps = []
    for i, eps in enumerate(grid):
        est = sharp_complexity_is(
            family,
            target,
            eps * eps,
            n_per_eps,
            rng.stream(100 + i),
            cloud_width=cloud_width,
            workers=workers,
        )
        if est.zero_hits:
            raise InsufficientSamplesError(eps, n_per_eps)
        per_eps.append(est)
    return fit_limiting_slope(per_eps, grid)


def limiting_complexity_closed_form(
    kappa: float,
    sigma_w: float,
    d: int,
    eps_grid: Sequence[float],
    perp_sq: float = 0.0,
) -> SlopeEstimate:
    """Closed-form analogue of limiting_complexity for the linear model."""
    grid = _check_eps_grid(eps_grid)
    per_eps = [chi_from_q(kappa, sigma_w, eps * eps, d, perp_sq) for eps in grid]
    return fit_limiting_slope(per_eps, grid)


# --------------------------------------------------------------------------
# Exponential / empirical / with-noise complexities
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
        log_prob=log_mean,
        std_err=se,
        n_samples=n,
        n_hits=n,
        epsilon_sq=None,
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
        resid = family.predict_batch(family.sample_matrix(m, gen), xs) - ys[None, :]
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
        return _impossible(eps_sq)
    inner = chi_sharp_fn(eps_sq - sigma_e_sq)
    return replace(inner, epsilon_sq=eps_sq)


# --------------------------------------------------------------------------
# Hyperbola distance and distance to the exact-representation set
# --------------------------------------------------------------------------


#: Iteration cap of the multiplier solve, past which it is declared failed.
#: Bracketed Newton took at most 16 steps on 0.6M test points (uniform,
#: exact and near ties p = +-q, p q / v near 1 and 4, |v| down to 1e-6).
_HYPERBOLA_MAX_ITER = 100
#: Relative step (or bracket width) at which the multiplier solve stops.
_HYPERBOLA_RTOL = 2.0**-46


def hyperbola_distance(p, q, v) -> np.ndarray | float:
    """Euclidean distance from points (p, q) to the curve {x y = v}.

    For v = 0 the curve degenerates to the coordinate axes and the distance
    is min(|p|, |q|). Otherwise the nearest point is the Lagrange point
    x = (p + mu q)/(1 - mu^2), y = (q + mu p)/(1 - mu^2) for the unique
    multiplier mu in (-1, 1) with x y = v (Eberly, Geometric Tools, distance
    from a point to a hyperbola). Writing mu = sigma (1 - delta), with
    sigma = +1 if p q < v and -1 otherwise, and a = p + sigma q, the offset
    delta is the unique zero in (0, 1] of

        f(delta) = sigma a^2 (1 - delta) + delta^2 (p q - v (2 - delta)^2),

    whose end values are f(0) = sigma a^2 and f(1) = p q - v. Each point is
    solved by bracketed, safeguarded Newton on delta, and then

        d^2 = (1 - delta)^2 [(a - sigma delta q)^2 + (a - delta p)^2]
              / (delta (2 - delta))^2.

    Solving for delta rather than mu keeps full precision near p = +-q. When
    a = 0, the zero is delta = 2 - sqrt(p q / v) if that lies in (0, 1];
    otherwise mu = sigma is the trust-region hard case (More & Sorensen
    1983): the nearest points are an off-diagonal pair and
    d^2 = p^2 + 2 sigma v. The result is accurate to a few units in the last
    place of max(|p|, |q|, sqrt|v|).

    Non-finite input raises ConfigError; a solve that has not converged
    after _HYPERBOLA_MAX_ITER steps raises NumericalError rather than
    returning a best guess.
    """
    p_b, q_b, v_b = np.broadcast_arrays(
        np.asarray(p, dtype=float), np.asarray(q, dtype=float), np.asarray(v, dtype=float)
    )
    if not (np.isfinite(p_b).all() and np.isfinite(q_b).all() and np.isfinite(v_b).all()):
        raise ConfigError("hyperbola_distance needs finite p, q and v")
    p_f, q_f, v_f = p_b.ravel(), q_b.ravel(), v_b.ravel()
    out = np.empty(p_f.size)
    chunk = 16384
    for lo in range(0, p_f.size, chunk):
        hi = min(p_f.size, lo + chunk)
        out[lo:hi] = _hyperbola_distance_chunk(p_f[lo:hi], q_f[lo:hi], v_f[lo:hi])
    if p_b.ndim == 0:
        return float(out[0])
    return out.reshape(p_b.shape)


def _hyperbola_distance_chunk(p, q, v) -> np.ndarray:
    dist = np.minimum(np.abs(p), np.abs(q))
    live = v != 0.0
    if not live.any():
        return dist
    p, q, v = p[live], q[live], v[live]
    # Divide by a power of two (exactly) so that max(|p|, |q|, sqrt|v|)
    # lies in [1, 2): no term of f can then overflow or underflow.
    size = np.maximum(np.maximum(np.abs(p), np.abs(q)), np.sqrt(np.abs(v)))
    scale = np.ldexp(0.5, np.frexp(size)[1])
    p, q, v = p / scale, q / scale, v / scale / scale
    pq = p * q
    sigma = np.where(pq < v, 1.0, -1.0)
    a = p + sigma * q
    delta = np.empty(p.size)
    # At this scale |a| < 2^-500 is zero to double precision (d moves by at
    # most |a| when q does), and a^2 would underflow in f.
    tie = np.abs(a) < 2.0**-500
    with np.errstate(divide="ignore", over="ignore"):  # v underflowed: hard case
        ratio = pq[tie] / v[tie]
    delta[tie] = 2.0 - np.sqrt(np.clip(ratio, 1.0, 4.0))
    hard = np.zeros(p.size, dtype=bool)
    hard[tie] = (ratio < 1.0) | (ratio >= 4.0)
    solve = ~tie
    delta[solve] = _multiplier_offset(
        np.abs(a[solve]), (sigma * (pq - 4.0 * v))[solve], (sigma * v)[solve]
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        a_over = np.where(tie, 0.0, a) / delta
        near_sq = ((1.0 - delta) / (2.0 - delta)) ** 2 * (
            (a_over - sigma * q) ** 2 + (a_over - p) ** 2
        )
    near_sq[hard] = (p * p + 2.0 * sigma * v)[hard]
    dist[live] = np.sqrt(near_sq) * scale
    return dist


def _multiplier_offset(a_abs, h0, sv) -> np.ndarray:
    """The zero in (0, 1] of g = sigma f = a^2 (1 - delta) + delta^2 h(delta),
    h = h0 + sv delta (4 - delta), with h0 = sigma (p q - 4 v), sv = sigma v
    and a != 0, so g(0) > 0 >= g(1).

    Newton steps are kept while they stay inside the bracket and at least
    halve (rtsafe, Numerical Recipes); otherwise the bracket is bisected,
    geometrically while it spans more than a factor 4. Only unconverged
    points are iterated.
    """
    a_sq = a_abs * a_abs
    # |h| <= |h0| + 3|sv| on [0, 1], so g > 0 below the zero of
    # a^2 (1 - delta) - delta^2 (|h0| + 3|sv|): a lower end for the bracket.
    lo = 2.0 * a_abs / (a_abs + np.sqrt(a_sq + 4.0 * (np.abs(h0) + 3.0 * np.abs(sv))))
    hi = np.ones(a_abs.size)
    # Start at the zero of the quadratic model a^2 (1 - delta) + h0 delta^2.
    x = 2.0 * a_abs / (a_abs + np.sqrt(a_sq + 4.0 * np.maximum(-h0, 0.0)))
    last = hi - lo
    out = np.empty(a_abs.size)
    todo = np.arange(a_abs.size)
    for _ in range(_HYPERBOLA_MAX_ITER):
        h = h0 + sv * x * (4.0 - x)
        g = a_sq * (1.0 - x) + x * x * h
        slope = -a_sq + 2.0 * x * h + x * x * sv * (4.0 - 2.0 * x)
        lo = np.where(g > 0.0, x, lo)
        hi = np.where(g < 0.0, x, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = g / slope
        nx = x - step
        small = np.abs(step) <= _HYPERBOLA_RTOL * x
        newton = (nx > lo) & (nx < hi) & (np.abs(step) <= 0.5 * last)
        bisect = np.where(hi > 4.0 * lo, np.sqrt(lo * hi), 0.5 * (lo + hi))
        nx = np.where(g == 0.0, x, np.where(newton | small, nx, bisect))
        last = np.where(newton, np.abs(step), hi - lo)
        done = small | (g == 0.0) | (hi - lo <= _HYPERBOLA_RTOL * hi)
        out[todo[done]] = nx[done]
        keep = ~done
        if not keep.any():
            return out
        todo, x, lo, hi, last = todo[keep], nx[keep], lo[keep], hi[keep], last[keep]
        a_sq, h0, sv = a_sq[keep], h0[keep], sv[keep]
    raise NumericalError(
        f"hyperbola multiplier solve did not converge for {todo.size} points "
        f"in {_HYPERBOLA_MAX_ITER} iterations"
    )


def _inactive_cost_sq(w1, w2, b1) -> np.ndarray:
    """(n, k) squared cost of making each node vanish on [0, 1]."""
    by_weight = np.minimum(np.abs(w1), np.abs(w2))
    by_bias = np.maximum(0.0, 1.0 - b1)
    return np.minimum(by_weight, by_bias) ** 2


def _assign(base, cost, inact, k, c) -> np.ndarray:
    """sqrt(base + the cheapest assignment) for the (n, k, c) per-node,
    per-knot squared costs: each of the c knots gets its own node, and for
    k = c + 1 the surplus node pays its (n, k) inactive cost.

    Every sum runs in one fixed order, and rounding is monotone
    (fl(x + y) >= x for y >= 0), so the sums, the min and the sqrt all keep
    order: a cost that is elementwise no larger gives a result no larger,
    in floating point. On the bias-only cost this is a lower bound on the
    computed distance, never above it by even one ulp."""
    best = np.full(base.shape[0], np.inf)
    for surplus in range(k) if k > c else (None,):
        active = [i for i in range(k) if i != surplus]
        for perm in itertools.permutations(range(c)):
            total = cost[:, active, perm].sum(axis=1)
            if surplus is not None:
                total = inact[:, surplus] + total
            best = np.minimum(best, total)
    return np.sqrt(base + best)


def _dist_batch(
    g: PwlFunction, thetas: np.ndarray, k: int, cutoff: float = math.inf
) -> np.ndarray:
    """Vectorized distance from parameter rows to the exact-representation
    set of g, for k = c or k = c + 1 (the latter is an upper bound).

    A node matched to the knot (t, v) costs (b1 - t)^2 plus the squared
    distance from its weights (w1, w2) to the hyperbola w1 w2 = v. The
    bias-only cost (b1 - t)^2 gives a lower bound (see _assign); rows whose
    bound exceeds ``cutoff`` come back as inf without a hyperbola solve, and
    every other row (a nan bound included) gets the same bits as with no
    cutoff."""
    c = len(g.knots)
    w1 = thetas[:, :k]
    w2 = thetas[:, k : 2 * k]
    b1 = thetas[:, 2 * k : 3 * k]
    base = (thetas[:, 3 * k] - g.bias) ** 2
    inact = _inactive_cost_sq(w1, w2, b1)
    if c == 0:
        return np.sqrt(base + inact.sum(axis=1))
    t, v = np.array(g.knots).T
    bias_sq = (b1[:, :, None] - t) ** 2
    live = np.flatnonzero(~(_assign(base, bias_sq, inact, k, c) > cutoff))
    hyp = hyperbola_distance(w1[live, :, None], w2[live, :, None], v)
    dist = np.full(thetas.shape[0], np.inf)
    dist[live] = _assign(base[live], bias_sq[live] + hyp**2, inact[live], k, c)
    return dist


def _check_oracle_width(k: int, c: int) -> None:
    if k < c:
        raise ConfigError(f"k={k} nodes cannot represent a target with c={c} knots")
    if k > c + 1:
        raise ConfigError(f"distance oracle supports k <= c + 1, got k={k}, c={c}")


def dist_to_representation_set(theta, g: PwlFunction) -> float:
    """Distance from a single parameter point to A_g = {theta : f_theta = g
    on [0, 1]}; exact for k = c, an upper bound for k = c + 1."""
    _check_oracle_width(theta.k, len(g.knots))
    return float(_dist_batch(g, theta.flat()[None, :], theta.k)[0])


# --------------------------------------------------------------------------
# Codimension estimation
# --------------------------------------------------------------------------


# Most candidates one codim batch draws, which bounds a batch's memory.
_CODIM_ROWS = 65536


def _codim_rows(gen, m: int, need: int, k: int, radius: float, b_hi: float) -> np.ndarray:
    """At most ``need`` rows [w1, w2, b1, b2] uniform on
    S = B_R ∩ {b1 ∈ [0, b_hi]^k}, from m candidate b1 draws.

    The marginal density of b1 on S is proportional to (R² − |b1|²)_+^{d/2},
    d = 2k + 1, the volume of its slice of the ball, and given b1 the other
    d coordinates (w1, w2, b2) are uniform in the d-ball of radius
    sqrt(R² − |b1|²). So a candidate b1 ~ U[0, b_hi]^k is kept with
    probability ((R² − |b1|²)_+ / R²)^{d/2}, and each of the first ``need``
    kept ones gets a Gaussian direction scaled to radius
    sqrt(R² − |b1|²) U^{1/d}."""
    d = 2 * k + 1
    r_sq = radius * radius
    # Column-major throughout: every step below works on contiguous rows of
    # k, d or m values, and the result is the transpose of a (3k+1, n) array.
    b1 = gen.uniform(0.0, b_hi, size=(k, m))
    room = r_sq - np.einsum("ij,ij->j", b1, b1)
    keep = gen.random(m) < (np.maximum(room, 0.0) / r_sq) ** (0.5 * d)
    keep = np.flatnonzero(keep)[:need]
    z = gen.standard_normal((d, keep.size))
    radial = gen.random(keep.size) ** (1.0 / d)
    scale = np.sqrt(room[keep] / np.einsum("ij,ij->j", z, z)) * radial
    rows = np.empty((3 * k + 1, keep.size))
    np.multiply(z[: 2 * k], scale, out=rows[: 2 * k])
    np.take(b1, keep, axis=1, out=rows[2 * k : 3 * k])
    np.multiply(z[2 * k], scale, out=rows[3 * k])
    return rows.T


def codim_estimate(
    query: CodimQuery,
    prior: NnPriorSpec,
    n: int,
    rng: SeededRng,
    workers: int = 1,
) -> SlopeEstimate:
    """Minkowski codimension of A_g inside B_R intersected with the prior
    support: WLS slope of ln vol-fraction{dist <= eps} against ln eps.

    The radius R is query.radius (finite and > 0) or, if None, three prior
    standard norms. The draws are uniform on S = B_R ∩ {b1 ∈ [0, b_hi]^k},
    b_hi = min(M, R), sampled directly (_codim_rows): b1 from its exact
    marginal, proportional to the volume (R² − |b1|²)_+^{(2k+1)/2} of its
    slice of the ball, then (w1, w2, b2) uniform in that slice, a
    (2k+1)-ball of radius sqrt(R² − |b1|²). Each stream sizes its batches
    to the rows it still needs at the acceptance seen so far, so a stream
    of a few rows draws a few candidates.

    Only draws whose bias-only lower bound (_assign) is within the largest
    eps, grid[0], get the hyperbola solve. The screen is
    exact: rounding is monotone, so a dropped draw's computed distance is at
    least its computed bound, above every eps of the grid, and every hit
    count is the one the unscreened oracle gives."""
    g = query.g
    k = query.k
    c = len(g.knots)
    _check_oracle_width(k, c)
    note = "upper-bound-based" if k > c else ""
    family = ShallowNetFamily(k, prior)
    if query.radius is None:
        radius = 3.0 * math.sqrt(family.expected_prior_norm_sq())
    elif math.isfinite(query.radius) and query.radius > 0:
        radius = float(query.radius)
    else:
        raise ConfigError(f"radius must be finite and > 0, got {query.radius}")
    if query.eps_grid is not None:
        grid = _check_eps_grid(query.eps_grid)
    elif c >= 2:
        grid = (0.5, 0.4, 0.3, 0.22, 0.15, 0.1)
    else:
        grid = DEFAULT_EPS_GRID
    b_hi = min(prior.M, radius)

    def stream_hits(gen, count):
        hits = np.zeros(len(grid), dtype=np.int64)
        drawn = accepted = 0
        while accepted < count:
            need = count - accepted
            # Candidates for `need` rows at the acceptance seen so far (one
            # added to both counts, so the first batch draws `need`).
            m = min(_CODIM_ROWS, -(-need * (drawn + 1) // (accepted + 1)))
            take = _codim_rows(gen, m, need, k, radius, b_hi)
            dist = _dist_batch(g, take, k, cutoff=grid[0])
            for j, eps in enumerate(grid):
                hits[j] += int(np.count_nonzero(dist <= eps))
            drawn += m
            accepted += take.shape[0]
        return hits

    hits = sum(_run_streams(rng, n, workers, stream_hits))
    per_eps = [_naive_estimate(int(h), n, eps * eps) for h, eps in zip(hits, grid)]
    return fit_limiting_slope(per_eps, grid, note=note)


# --------------------------------------------------------------------------
# One-slope-change bounds
# --------------------------------------------------------------------------


def one_change_bounds(
    a: float,
    b: float,
    t: float,
    k: int,
    spec: NnPriorSpec,
    eps: float,
    n: int,
    rng: SeededRng,
    cloud_width: float = 3.0,
    workers: int = 1,
) -> OneChangeResult:
    """Bounds and an IS estimate of chi# for the single-slope-change target
    g1(x) = b + a * max(0, x - t) at squared radius eps^2.

    Lower bound |a|/(3 sigma_w^2); upper bound
    2(|a|/sigma_w^2 + |b|/sigma_b^2) + 11 - 3 ln(eps). The bounds' validity
    assumptions (with all suppressed constants read as 1) are checked and
    reported, never enforced.
    """
    if not 0.0 < t < 1.0:
        raise ConfigError(f"knot t must lie in (0, 1), got {t}")
    g1 = PwlFunction(bias=b, knots=((t, a),))
    family = ShallowNetFamily(k, spec)
    chi_hat = sharp_complexity_is(
        family, g1, eps * eps, n, rng, cloud_width=cloud_width, workers=workers
    )
    lower = abs(a) / (3.0 * spec.sigma_w_sq)
    upper = 2.0 * (abs(a) / spec.sigma_w_sq + abs(b) / spec.sigma_b_sq) + 11.0 - 3.0 * math.log(eps)
    sigma_w = math.sqrt(spec.sigma_w_sq)
    checks = {
        "k <= M": k <= spec.M,
        "M <= 1/sigma_w_sq": spec.M <= 1.0 / spec.sigma_w_sq,
        "sigma_b_sq <= 1/sigma_w_sq": spec.sigma_b_sq <= 1.0 / spec.sigma_w_sq,
        "eps^(1/4) <= |a|": eps**0.25 <= abs(a),
        "|a| < 2": abs(a) < 2.0,
        "sigma_w_sq ln(k/sigma_w) <= |a|": spec.sigma_w_sq * math.log(k / sigma_w) <= abs(a),
        "eps^(1/4) <= |b|": eps**0.25 <= abs(b),
        "eps^(1/2) <= min(t, 1-t)": math.sqrt(eps) <= min(t, 1.0 - t),
    }
    violated = tuple(name for name, ok in checks.items() if not ok)
    return OneChangeResult(
        chi_hat=chi_hat,
        lower=lower,
        upper=upper,
        assumptions_ok=not violated,
        violated=violated,
    )
