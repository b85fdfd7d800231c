"""Complexity estimators and closed forms.

Implements the sharp complexity chi#(g, eps^2) = -ln P_theta[E_x[(g - f_theta)^2] <= eps^2]
via naive Monte Carlo and defensive importance sampling, the limiting
complexity (weighted log-log slope regression), the closed-form log q for
the linear model (a series in math: the module imports no scipy),
Minkowski codimension estimation for shallow-net representation sets, and
the one-slope-change bounds.

Conventions: natural logarithms throughout; eps arguments are radii and
eps_sq arguments are squared radii; every randomized estimate carries a
delta-method standard error.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from dataclasses import dataclass
from typing import Sequence

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

    ``chi`` is -ln of the event's probability for probability-based methods
    and the negative log of the relevant expectation for the exponential
    family of definitions. ``zero_hits`` marks rule-of-three lower bounds
    (chi = ln(n/3)) that must not enter slope regressions. chi = inf marks a
    structurally impossible event (probability zero).
    """

    chi: float
    std_err: float
    n_samples: int
    n_hits: int
    zero_hits: bool = False


@dataclass(frozen=True)
class SlopeEstimate:
    slope: float
    ci_halfwidth: float
    eps_grid: tuple[float, ...]
    per_eps: tuple[ComplexityEstimate, ...]
    note: str = ""


@dataclass(frozen=True)
class OneChangeResult:
    chi_hat: ComplexityEstimate
    lower: float
    upper: float
    violated: tuple[str, ...]


# --------------------------------------------------------------------------
# Closed-form q for the linear model
# --------------------------------------------------------------------------


#: Cap of each loop in log_q_closed_form.
_Q_MAX_ITER = 10_000
#: Cap of the gamma-function iterations summed over one log_q_closed_form
#: call (checked after each gamma function): 1.25 times the most a tested
#: point takes (599,365, at kappa = 1.5, sigma_w = 0.01, eps = 1, d = 1), so
#: a call past its reach fails in a fraction of a second instead of running
#: 10^4 walk terms of up to 10^4 iterations each.
_Q_MAX_GAMMA_TERMS = 750_000
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


def _log_gamma_p(a: float, z: float) -> tuple[float, int]:
    """(log P(a, z), the loop iterations it took), P the regularized lower
    incomplete gamma function: its series for z < a + 1, else log1p(-Q) with
    Q < 1/2 from its continued fraction (Lentz; there its denominators stay
    above b / 2, never 0)."""
    log_front = _log_pois(a, z)
    if z < a + 1.0:
        term = total = 1.0
        for n in range(1, _Q_MAX_ITER):
            term *= z / (a + n)
            total += term
            if term < total * 2.0**-53:
                return log_front + math.log(total), n
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
                return math.log1p(-a * h * math.exp(log_front)), n
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
    where mu + z >= 2^52, a loop passes _Q_MAX_ITER or the gamma functions
    together pass _Q_MAX_GAMMA_TERMS iterations (kappa / sigma_w in the
    hundreds, eps near kappa).
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
        return _log_gamma_p(a, z)[0]
    spent = 0

    def term(j: int) -> float:
        nonlocal spent
        log_p, n = _log_gamma_p(a + j, z)
        spent += n
        if spent > _Q_MAX_GAMMA_TERMS:
            raise NumericalError(
                f"q at mu={mu:g}, z={z:g} needs over {_Q_MAX_GAMMA_TERMS} gamma-function terms"
            )
        return _log_pois(float(j), mu) + log_p

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
        return _impossible()
    log_q = log_q_closed_form(kappa, sigma_w, math.sqrt(eff), d)
    return ComplexityEstimate(
        chi=-log_q,
        std_err=0.0,
        n_samples=0,
        n_hits=0,
    )


# --------------------------------------------------------------------------
# Monte Carlo sharp complexity
# --------------------------------------------------------------------------


def _rule_of_three(n: int) -> ComplexityEstimate:
    return ComplexityEstimate(
        chi=math.log(n / 3.0),
        std_err=math.inf,
        n_samples=n,
        n_hits=0,
        zero_hits=True,
    )


def _impossible() -> ComplexityEstimate:
    return ComplexityEstimate(
        chi=math.inf,
        std_err=0.0,
        n_samples=0,
        n_hits=0,
    )


def _naive_estimate(hits: int, n: int) -> ComplexityEstimate:
    """Hit fraction p = hits/n with delta-method std_err sqrt((1-p)/(p n));
    zero hits give the rule-of-three lower bound."""
    if hits == 0:
        return _rule_of_three(n)
    p = hits / n
    return ComplexityEstimate(
        chi=-math.log(p),
        std_err=math.sqrt((1.0 - p) / (p * n)),
        n_samples=n,
        n_hits=hits,
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


# Freeing a mapped block makes glibc's malloc raise its dynamic mmap threshold to
# the block's size (here 31 MiB) and its trim threshold to twice that (62 MiB).
# Batch temporaries below 31 MiB then come from the heap, whose pages are kept for
# the next batch, instead of being mapped, faulted in as zeroed pages and unmapped
# on every batch. Done at import, the raise is made once, single-threaded and
# before any batch is drawn, with or without a pool; made by racing pool threads,
# it moved peak RSS by 4-5 MiB. Other allocators ignore it: the untouched block
# costs one allocation and no page.
np.empty(31 << 17)

# One pool per process, made on first use with workers > 1 (again in a forked
# child, which inherits no threads): every stream of every estimate runs on its
# CPU-capped threads. The only threads an estimate starts and stops are
# limiting_complexity's waiters, which queue their grid points' streams here and
# do no sampling themselves. workers=1 never reaches it, so it starts no thread;
# the allocator raise above does not depend on it.
_POOL: tuple[int, object] | None = None
_POOL_LOCK = threading.Lock()


def _cpu_cap() -> int:
    """CPUs this process may run on: the pool's thread count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool():
    """The module's ThreadPoolExecutor, capped at _cpu_cap() threads. Its
    queue is shared: the streams of a slope fit's grid points, submitted
    side by side, wait in it together and run as threads come free. Its
    threads start with the mmap threshold already raised, at import."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None or _POOL[0] != os.getpid():
            from concurrent.futures import ThreadPoolExecutor

            pool = ThreadPoolExecutor(max_workers=_cpu_cap(), thread_name_prefix="bayescomplex")
            _POOL = (os.getpid(), pool)
        return _POOL[1]


def _run_streams(rng: SeededRng, n: int, workers: int, fn) -> list:
    """fn(generator, count) once per stream of _streams(rng, n, workers),
    results in stream order. One stream runs inline; several are queued on
    the module's pool, so N streams use up to min(N, CPUs) threads, and
    streams queued by other callers (a slope fit's other grid points) share
    those threads. Each stream owns its generator, so the results depend on
    (rng, n, workers) only, never on the thread count or the scheduling.
    Every stream has finished before the first failure, in stream order,
    is raised, so none outlives the call."""
    streams = _streams(rng, n, workers)
    if len(streams) == 1:
        return [fn(*streams[0])]
    from concurrent.futures import wait

    pool = _pool()
    futures = [pool.submit(fn, *stream) for stream in streams]
    wait(futures)
    return [future.result() for future in futures]


def _side_by_side(fn, n: int):
    """fn(0), ..., fn(n - 1), each called from its own waiting thread, so the
    pool streams they queue run together. Returns once every call has
    returned or raised; iterating the result yields their values in call
    order and raises the first failure where its value would be."""
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=n, thread_name_prefix="bayescomplex-wait") as waiters:
        futures = [waiters.submit(fn, i) for i in range(n)]
    return (future.result() for future in futures)


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
    """Naive Monte Carlo estimate of chi#: sharp_complexity_mc_grid's one-point case."""
    return sharp_complexity_mc_grid(family, target, (eps_sq,), n, rng, workers)[0]


def sharp_complexity_mc_grid(
    family,
    target,
    eps_sq_grid: Sequence[float],
    n: int,
    rng: SeededRng,
    workers: int = 1,
) -> list[ComplexityEstimate]:
    """Naive Monte Carlo estimates of chi# at every squared radius of a
    strictly decreasing grid, all from one set of n prior draws. The balls
    are nested, so each batch runs family.within at the largest radius and
    each smaller radius only on the previous radius's hits; the points are
    correlated, and each keeps its own binomial std_err."""
    grid = _check_eps_grid(eps_sq_grid, least=1)
    prepared = family.prepare(target)

    def batch(gen, m):
        thetas, counts = family.sample_matrix(m, gen), []
        for eps_sq in grid:
            thetas = thetas[family.within(prepared, thetas, eps_sq)]
            counts.append(thetas.shape[0])
        return counts

    counts = _map_batches(rng, n, workers, family.batch_rows, batch)
    return [_naive_estimate(sum(hits), n) for hits in zip(*counts)]


def sharp_complexity_is(
    family,
    target,
    eps_sq: float,
    n: int,
    rng: SeededRng,
    cloud_width: float = 3.0,
    workers: int = 1,
) -> ComplexityEstimate:
    """Importance-sampling estimate of chi# for the shallow family, the one
    family with the prior and cloud densities and the cloud this needs.

    The proposal is the defensive mixture 0.5 * prior + 0.5 * cloud, where
    the cloud is centered at a minimum-norm realization of the target with
    per-coordinate scale cloud_width * sqrt(eps_sq). Weights are bounded by
    2 on the prior's support, and samples outside the support get weight 0,
    so the estimate stays unbiased. Only hits carry a weight: each drawn
    block gets one family.within call (which tiles its own screen) and one
    pass of the two densities over that block's hits.
    """
    if eps_sq <= 0:
        raise ConfigError(f"eps_sq must be > 0, got {eps_sq}")
    center = family.is_center(target)
    scale = cloud_width * math.sqrt(eps_sq)
    prepared = family.prepare(target)
    log_half = math.log(0.5)

    def hit_weights(thetas):
        # prior/mixture density ratio where the draw hits, else 0. The
        # densities run on hits only; every step is row-wise, so the
        # compaction changes no value.
        out = np.zeros(thetas.shape[0])
        hit = family.within(prepared, thetas, eps_sq)
        hits = thetas[hit]
        logp = family.log_prior_density(hits)
        logc = family.cloud_log_density(hits, center, scale)
        out[hit] = np.exp(logp - (np.logaddexp(logp, logc) + log_half))
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
        return _rule_of_three(n)
    p = s1 / n
    var = max(s2 / n - p * p, 0.0)
    if var > 0.0:
        se_chi = math.sqrt(var / n) / p
    else:
        # The hits' squared weights underflowed to no variance at all; fall
        # back on the hit count's binomial relative error.
        se_chi = math.sqrt((1.0 - hits / n) / hits)
    return ComplexityEstimate(
        chi=-math.log(p),
        std_err=se_chi,
        n_samples=n,
        n_hits=hits,
    )


# --------------------------------------------------------------------------
# Slope fitting and limiting complexity
# --------------------------------------------------------------------------


def fit_limiting_slope(
    per_eps: Sequence[ComplexityEstimate],
    eps_grid: Sequence[float],
    note: str = "",
) -> SlopeEstimate:
    """Weighted least-squares slope of -chi against ln(eps).

    Weights are 1/std_err^2 with a 1e-12 floor so exact (closed-form)
    points behave as near-hard constraints; the ci_halfwidth is 1.96 times
    the known-variance WLS standard error of the slope.
    """
    if len(per_eps) != len(eps_grid):
        raise ConfigError("per_eps and eps_grid length mismatch")
    if len(eps_grid) < 3:
        raise ConfigError("slope regression needs at least 3 grid points")
    for est, eps in zip(per_eps, eps_grid):
        if est.zero_hits or est.chi == math.inf:
            raise InsufficientSamplesError(eps, est.n_samples)
    x = np.log(np.asarray(eps_grid, dtype=float))
    y = np.array([-e.chi for e in per_eps])
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


def _check_eps_grid(eps_grid: Sequence[float], least: int = 3) -> tuple[float, ...]:
    grid = tuple(float(e) for e in eps_grid)
    if len(grid) < least:
        raise ConfigError(f"eps_grid needs at least {least} points")
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
    importance-sampling run per grid point, drawn from rng.stream(100 + i).

    With workers > 1 the grid points run side by side: each point's
    streams queue on the module's pool together with the other points',
    so one point's streams fill the tail of another's. Each stream keeps
    its generator, batches and reduction order, so the estimate depends on
    (rng, workers) and the arguments only. Failures are raised in grid
    order, as at workers=1 (where the points run inline, one after
    another): the first point that raised or found no hit.
    """
    grid = _check_eps_grid(eps_grid)

    def point(i):
        return sharp_complexity_is(
            family,
            target,
            grid[i] * grid[i],
            n_per_eps,
            rng.stream(100 + i),
            cloud_width=cloud_width,
            workers=workers,
        )

    if workers > 1:
        estimates = _side_by_side(point, len(grid))
    else:
        estimates = map(point, range(len(grid)))
    per_eps = []
    for eps, est in zip(grid, estimates):
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
    """Closed-form analogue of limiting_complexity for the linear model. A
    grid point with eps^2 <= perp_sq has an empty event: a ConfigError."""
    grid = _check_eps_grid(eps_grid)
    for eps in grid:
        if eps * eps <= perp_sq:
            raise ConfigError(f"eps={eps:g} has eps^2 <= perp_sq={perp_sq:g}: its event is empty")
    per_eps = [chi_from_q(kappa, sigma_w, eps * eps, d, perp_sq) for eps in grid]
    return fit_limiting_slope(per_eps, grid)


# --------------------------------------------------------------------------
# Hyperbola distance and distance to the exact-representation set
# --------------------------------------------------------------------------


#: Iteration cap of the multiplier solve, past which it is declared failed.
#: After its warm start the solve took at most 20 steps on the 0.9M points
#: of tests/test_complexity_closed_forms.py's _stress_points (uniform, exact
#: and near ties p = +-q, p q / v near 1 and 4, |v| down to 1e-6), where
#: bracketed Newton from the quadratic model's zero took 25.
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
    solved by bracketed, safeguarded Halley steps on delta, and then

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

    The start is the zero of the quadratic model a^2 (1 - delta) + h delta^2
    at h = h0, taken twice more at h of the last start and clipped to the
    bracket. Halley steps are kept while they stay inside the bracket and
    at least halve (rtsafe, Numerical Recipes); otherwise the bracket is
    bisected, geometrically while it spans more than a factor 4. A step may
    land on the upper end, so a zero within rounding of hi = 1 is reached
    in one step, not by bisection. Only unconverged points are iterated.
    """
    a_sq = a_abs * a_abs
    # |h| <= |h0| + 3|sv| on [0, 1], so g > 0 below the zero of
    # a^2 (1 - delta) - delta^2 (|h0| + 3|sv|): a lower end for the bracket.
    lo = 2.0 * a_abs / (a_abs + np.sqrt(a_sq + 4.0 * (np.abs(h0) + 3.0 * np.abs(sv))))
    hi = np.ones(a_abs.size)
    x = 2.0 * a_abs / (a_abs + np.sqrt(a_sq + 4.0 * np.maximum(-h0, 0.0)))
    for _ in range(2):
        h = h0 + sv * x * (4.0 - x)
        x = np.clip(2.0 * a_abs / (a_abs + np.sqrt(a_sq + 4.0 * np.maximum(-h, 0.0))), lo, hi)
    last = hi - lo
    out = np.empty(a_abs.size)
    todo = np.arange(a_abs.size)
    for _ in range(_HYPERBOLA_MAX_ITER):
        dh = sv * (4.0 - 2.0 * x)
        h = h0 + sv * x * (4.0 - x)
        g = a_sq * (1.0 - x) + x * x * h
        slope = -a_sq + 2.0 * x * h + x * x * dh
        lo = np.where(g > 0.0, x, lo)
        hi = np.where(g < 0.0, x, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = g / slope
            # Halley's correction, with g'' / 2 = h + 2 x h' - x^2 sv.
            step = step / (1.0 - step * (h + 2.0 * x * dh - x * x * sv) / slope)
        nx = x - step
        small = np.abs(step) <= _HYPERBOLA_RTOL * x
        halley = (nx > lo) & (nx <= hi) & (np.abs(step) <= 0.5 * last)
        bisect = np.where(hi > 4.0 * lo, np.sqrt(lo * hi), 0.5 * (lo + hi))
        nx = np.where(g == 0.0, x, np.where(halley | small, nx, bisect))
        last = np.where(halley, np.abs(step), hi - lo)
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


def _far_from_hyperbola(p, q, v, r_sq) -> np.ndarray:
    """True where (p, q) lies farther than sqrt(r_sq) from {x y = v}; never
    where the computed d = hyperbola_distance(p, q, v) has fl(d^2) <= r_sq.

    If (x, y) on the curve is within r of (p, q), write dx = x - p and
    dy = y - q: then x y - p q = p dy + q dx + dx dy, and Cauchy-Schwarz and
    AM-GM give |p q - v| <= r N + r^2 / 2, N = sqrt(p^2 + q^2). A point is
    marked where |p q - v| exceeds that, at r^2 = max(r_sq, 0), by more
    than the margin 2^-38 (p^2 + q^2 + |v| + r^2).

    Rounding, with u = 2^-53 and S = max(|p|, |q|, sqrt|v|): fl(d^2) <= r^2
    gives d <= (1 + u) r, and d is within 2^-40 S of the true distance
    (hyperbola_distance is accurate to a few ulps of S). So the true
    distance is below r + u r + 2^-40 S, which raises the bound by at most
    (u r + 2^-40 S)(N + r) plus its square. The test's own roundings put
    |p q - v| off by at most 3.01 u S^2 and the right side low by at most
    6 u (r N + r^2 / 2). With N <= sqrt(2) S, all of it stays below
    2.2 * 2^-40 (S^2 + r^2), and the margin, p^2 + q^2 + |v| being at least
    S^2, is at least 3.99 * 2^-40 (S^2 + r^2). The 2^-960 added to |v|
    keeps the margin above the error, under 2^-1070, of results that
    underflow."""
    n_sq = p * p + q * q
    r_sq = np.maximum(r_sq, 0.0)
    margin = 2.0**-38 * (n_sq + (np.abs(v) + 2.0**-960) + r_sq)
    with np.errstate(invalid="ignore"):  # inf weights: nan, never marked
        return np.abs(p * q - v) > np.sqrt(r_sq) * np.sqrt(n_sq) + 0.5 * r_sq + margin


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
    distance from its weights (w1, w2) to the hyperbola w1 w2 = v. Rows
    whose computed distance exceeds ``cutoff`` = C may come back as inf
    without a hyperbola solve; every other row (a nan included) gets the
    same bits as with no cutoff. Two exact screens drop them: the bias-only
    cost (b1 - t)^2, a lower bound (see _assign), and then that cost with
    inf at each (node, knot) pair whose weights _far_from_hyperbola puts
    beyond the pair's budget C^2 - base - (b1 - t)^2. A pair in the cheapest
    assignment of a row that _assign puts within C has fl(d^2) at most that
    budget plus 4.01 u C^2, u = 2^-53 (d the computed hyperbola distance):
    rounding is monotone, so with the other costs at 0 the row's sum is no
    larger, and then only fl((b1 - t)^2 + fl(d^2)), fl(base + that) and the
    sqrt round, each within a factor 1 + u. The budget is computed from
    fl(C^2 (1 + 2^-48)), at least 29.9 u C^2 above C^2, and its two
    subtractions cost at most 2.01 u C^2: no pair of such a row is marked."""
    c = len(g.knots)
    w1 = thetas[:, :k]
    w2 = thetas[:, k : 2 * k]
    b1 = thetas[:, 2 * k : 3 * k]
    base = (thetas[:, 3 * k] - g.bias) ** 2
    if c == 0:
        return np.sqrt(base + _inactive_cost_sq(w1, w2, b1).sum(axis=1))
    # _assign reads inactive costs only at k = c + 1, for the surplus node.
    inact = _inactive_cost_sq(w1, w2, b1) if k > c else np.empty((thetas.shape[0], 0))
    t, v = np.array(g.knots).T
    bias_sq = (b1[:, :, None] - t) ** 2
    live = np.flatnonzero(~(_assign(base, bias_sq, inact, k, c) > cutoff))
    if cutoff < math.inf:
        room = cutoff * cutoff * (1.0 + 2.0**-48) - base[live, None, None] - bias_sq[live]
        far = _far_from_hyperbola(w1[live, :, None], w2[live, :, None], v, room)
        cost = np.where(far, np.inf, bias_sq[live])
        live = live[~(_assign(base[live], cost, inact[live], k, c) > cutoff)]
    hyp = hyperbola_distance(w1[live, :, None], w2[live, :, None], v)
    dist = np.full(thetas.shape[0], np.inf)
    dist[live] = _assign(base[live], bias_sq[live] + hyp**2, inact[live], k, c)
    return dist


def _check_oracle_width(k: int, c: int) -> None:
    if k < c:
        raise ConfigError(f"k={k} nodes cannot represent a target with c={c} knots")
    if k > c + 1:
        raise ConfigError(f"distance oracle supports k <= c + 1, got k={k}, c={c}")


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
    g: PwlFunction,
    k: int,
    prior: NnPriorSpec,
    n: int,
    rng: SeededRng,
    *,
    eps_grid: Sequence[float] | None = None,
    radius: float | None = None,
    workers: int = 1,
) -> SlopeEstimate:
    """Minkowski codimension of A_g inside B_R intersected with the prior
    support: WLS slope of ln vol-fraction{dist <= eps} against ln eps.

    The radius R is ``radius`` (finite and > 0) or, if None, three prior
    standard norms; the eps grid is ``eps_grid`` or, if None, a default
    for c knots. The draws are uniform on S = B_R ∩ {b1 ∈ [0, b_hi]^k},
    b_hi = min(M, R), sampled directly (_codim_rows): b1 from its exact
    marginal, proportional to the volume (R² − |b1|²)_+^{(2k+1)/2} of its
    slice of the ball, then (w1, w2, b2) uniform in that slice, a
    (2k+1)-ball of radius sqrt(R² − |b1|²). Each stream sizes its batches
    to the rows it still needs at the acceptance seen so far, so a stream
    of a few rows draws a few candidates.

    Only draws that both screens of _dist_batch keep at the largest eps,
    grid[0], get the hyperbola solve: the bias-only lower bound (_assign),
    and the weight screen, which rules out each node-knot pair whose
    weights are too far from the knot's hyperbola for what the rest of the
    bound leaves. Both screens are exact: a dropped draw's computed distance
    is above grid[0], so above every eps of the grid, and every hit count is
    the one the unscreened oracle gives."""
    c = len(g.knots)
    _check_oracle_width(k, c)
    note = "upper-bound-based" if k > c else ""
    family = ShallowNetFamily(k, prior)
    if radius is None:
        radius = 3.0 * math.sqrt(family.expected_prior_norm_sq())
    elif math.isfinite(radius) and radius > 0:
        radius = float(radius)
    else:
        raise ConfigError(f"radius must be finite and > 0, got {radius}")
    if eps_grid is not None:
        grid = _check_eps_grid(eps_grid)
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
    per_eps = [_naive_estimate(int(h), n) for h in hits]
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
    if not 0.0 < eps < math.inf:
        raise ConfigError(f"eps must be finite and > 0, got {eps}")
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
        violated=violated,
    )
