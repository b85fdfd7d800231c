"""Closed-form complexity machinery: the Gaussian ball probability q, its
scaling/monotonicity structure, slope fitting, bounds, and distance oracles."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from bayescomplex import complexity
from bayescomplex.complexity import (
    _check_oracle_width,
    _dist_batch,
    _far_from_hyperbola,
    chi_from_q,
    fit_limiting_slope,
    hyperbola_distance,
    limiting_complexity_closed_form,
    log_q_closed_form,
    one_change_bounds,
)
from bayescomplex.errors import ConfigError, InsufficientSamplesError, NumericalError
from bayescomplex.families import NnPriorSpec
from bayescomplex.models import ShallowNetParams, min_norm_realization
from bayescomplex.pwl import PwlFunction
from bayescomplex.rng import SeededRng
from paper_checks import (
    megaineq_gap,
    product_density_claimed,
    product_density_mc,
    sharp_with_noise,
)


def dist_to_representation_set(theta, g):
    """The codim oracle at one parameter point: exact for k = c, an upper
    bound for k = c + 1."""
    _check_oracle_width(theta.k, len(g.knots))
    return float(_dist_batch(g, theta.flat()[None, :], theta.k)[0])


def _q(kappa, sigma_w, eps, d):
    """q in linear space, for the assertions written against it."""
    return math.exp(log_q_closed_form(kappa, sigma_w, eps, d))


class TestQClosedForm:
    """q(kappa, sigma_w, eps, d) = P[(1/2)||w - kappa e_0||^2 <= eps^2],
    w ~ N(0, sigma_w^2 I_d)."""

    def test_matches_noncentral_chisquare(self):
        """||w - kappa e_0||^2 / sigma_w^2 is noncentral chi-square with d
        degrees of freedom and noncentrality kappa^2/sigma_w^2, so q has an
        independent oracle in the ncx2 CDF."""
        for kappa in (0.25, 1.0, 1.75):
            for sigma_w in (0.5, 1.0, 2.0):
                for eps in (0.05, 0.3, 1.0):
                    for d in (1, 2, 3, 5):
                        got = _q(kappa, sigma_w, eps, d)
                        want = stats.ncx2.cdf(
                            2.0 * eps**2 / sigma_w**2, df=d, nc=kappa**2 / sigma_w**2
                        )
                        assert got == pytest.approx(want, rel=1e-9, abs=1e-300), (
                            f"kappa={kappa} sigma_w={sigma_w} eps={eps} d={d}"
                        )

    def test_centered_case_is_chisquare(self):
        for d in (1, 3, 7):
            got = _q(0.0, 1.3, 0.4, d)
            want = stats.chi2.cdf(2.0 * 0.4**2 / 1.3**2, df=d)
            assert got == pytest.approx(want, rel=1e-9)

    def test_scaling_identity(self):
        """q(kappa, sigma_w, eps) = q(1, sigma_w/kappa, eps/kappa): the event
        is scale-invariant jointly in (kappa, sigma_w, eps)."""
        for kappa in (0.5, 1.0, 2.0):
            for sigma_w in (0.6, 1.1):
                for eps in (0.08, 0.25):
                    lhs = _q(kappa, sigma_w, eps, 3)
                    rhs = _q(1.0, sigma_w / kappa, eps / kappa, 3)
                    assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_scaled_pair_regression(self):
        ratio = _q(2.0, 0.5, 0.1, 3) / _q(1.0, 0.25, 0.05, 3)
        assert ratio == pytest.approx(1.0, rel=1e-10)

    def test_monotone_in_eps_and_kappa(self):
        qs = [_q(1.0, 1.0, e, 3) for e in (0.05, 0.1, 0.2, 0.4)]
        assert all(a < b for a, b in zip(qs, qs[1:]))
        qs = [_q(k, 1.0, 0.2, 3) for k in (0.0, 0.5, 1.0, 2.0)]
        assert all(a > b for a, b in zip(qs, qs[1:]))

    def test_sigma_w_monotone_only_above_peak(self):
        """q peaks near sigma_w = kappa/sqrt(d) and decreases beyond it; below
        the peak it increases, so the monotone claim needs the regime guard."""
        peak = 1.0 / math.sqrt(3.0)
        q_small = _q(1.0, 0.3, 0.1, 3)
        q_peak = _q(1.0, peak, 0.1, 3)
        q_large = _q(1.0, 1.2, 0.1, 3)
        assert q_peak > q_small
        assert q_peak > q_large

    def test_domain_validation(self):
        for kappa, sigma_w in ((-0.1, 1.0), (math.nan, 1.0), (math.inf, 1.0),
                               (1.0, 0.0), (1.0, math.nan), (1.0, math.inf)):
            with pytest.raises(ConfigError):
                log_q_closed_form(kappa, sigma_w, 0.1, 3)
        with pytest.raises(ConfigError):
            log_q_closed_form(1.0, 1.0, 0.0, 3)
        with pytest.raises(ConfigError):
            log_q_closed_form(1.0, 1.0, 1.2, 3)
        with pytest.raises(ConfigError):
            log_q_closed_form(1.0, 1.0, 0.1, 0)


def _mp_log_q(kappa, sigma_w, eps, d):
    """log q at 50 digits from the finite Poisson-mixture sum.

    P(a + 1, z) <= P(a, z) z / (a + 1), so from j on the terms shrink by at
    least r = mu z / ((j + 1)(a + j + 1)) each and the tail after term t is
    at most t r / (1 - r); the sum stops once that bound is 1e-40 of it.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        a, mu = mp.mpf(d) / 2, (mp.mpf(kappa) / sigma_w) ** 2 / 2
        z = (mp.mpf(eps) / sigma_w) ** 2
        total, j = mp.mpf(0), 0
        while True:
            t = mp.exp(j * mp.log(mu) - mu - mp.loggamma(j + 1)) * mp.gammainc(
                a + j, 0, z, regularized=True
            )
            total += t
            j += 1
            r = mu * z / (j * (a + j))
            if r < 0.5 and t * r / (1 - r) < total * mp.mpf(10) ** -40:
                return float(mp.log(total))


def _mp_log_q_odd(kappa, sigma_w, eps, d):
    """Exact log q for d = 1 and d = 3 from normal CDFs at 50 digits. At
    radius r = sqrt(2) eps and u = (r - kappa) / sigma_w, v = (r + kappa) /
    sigma_w, q = Phi(u) - Phi(-v), less (sigma_w / kappa)(phi(u) - phi(v))
    for d = 3."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        k, s, r = mp.mpf(kappa), mp.mpf(sigma_w), mp.sqrt(2) * eps
        u, v = (r - k) / s, (r + k) / s
        q = mp.ncdf(u) - mp.ncdf(-v)
        if d == 3:
            q -= s / k * (mp.npdf(u) - mp.npdf(v))
        return float(mp.log(q))


class TestLogQ:
    """log_q_closed_form against independent oracles, in every regime of
    its gamma function and its walk over mixture terms."""

    def test_matches_scipy_logcdf(self):
        """2 eps^2 / sigma_w^2 is the argument of the noncentral chi-square
        CDF (chi-square at kappa = 0). Above noncentrality 100, scipy's
        ncx2.cdf underflows to 0 from about chi = 140 on (logcdf -inf), so
        those points are left to the mpmath tests. Near q = 1, log q is tiny
        and both sides are good to a few 1e-17 absolute."""
        n = 0
        for d in (1, 2, 3, 5, 10, 30, 100):
            for kappa in (0.0, 0.25, 1.0, 2.5, 5.0, 10.0):
                for sigma_w in (0.3, 1.0, 2.0):
                    if (kappa / sigma_w) ** 2 > 100:
                        continue
                    for eps in (0.001, 0.01, 0.05, 0.2, 0.5, 1.0):
                        x = 2.0 * eps**2 / sigma_w**2
                        want = (stats.ncx2.logcdf(x, df=d, nc=(kappa / sigma_w) ** 2)
                                if kappa else stats.chi2.logcdf(x, df=d))
                        if want < -380:
                            continue
                        got = log_q_closed_form(kappa, sigma_w, eps, d)
                        assert got == pytest.approx(want, rel=1e-13, abs=1e-16), (
                            f"kappa={kappa} sigma_w={sigma_w} eps={eps} d={d}"
                        )
                        n += 1
        assert n > 450

    @pytest.mark.parametrize("kappa,sigma_w", [(30.0, 0.9), (40.0, 1.0), (60.0, 1.0)])
    def test_deep_tail_matches_mpmath(self, kappa, sigma_w):
        """chi of 500-2000 nats, where q underflows float64 (below about
        e^-745) and scipy's ncx2.logcdf returns -inf (already at kappa = 40,
        eps = 0.1, d = 3)."""
        for d in (1, 3, 10):
            for eps in (0.001, 0.1, 1.0):
                want = _mp_log_q(kappa, sigma_w, eps, d)
                assert 500 < -want < 2000
                got = log_q_closed_form(kappa, sigma_w, eps, d)
                assert got == pytest.approx(want, rel=1e-14), f"eps={eps} d={d}"

    @pytest.mark.parametrize("sigma_w", [0.01, 0.05])
    def test_large_z_finishes_and_matches(self, sigma_w):
        """eps = 1 puts z = eps^2 / sigma_w^2 at 10^4 and 400, with the
        largest mixture term near j = mu (up to 2 * 10^4): the continued
        fraction and the walk around that term keep this to thousands of
        terms. q spans 1 - 1e-16 (kappa = 1) to e^-1720 (kappa = 2)."""
        for kappa in (0.5, 1.0, 1.4, 1.5, 2.0):
            for d in (1, 3):
                want = _mp_log_q_odd(kappa, sigma_w, 1.0, d)
                got = log_q_closed_form(kappa, sigma_w, 1.0, d)
                assert got == pytest.approx(want, rel=1e-13, abs=1e-16), (
                    f"kappa={kappa} d={d}"
                )

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(complexity, "_Q_MAX_ITER", 1)
        for kappa, eps in ((0.0, 0.1), (1.0, 0.1), (1.0, 1.0)):
            with pytest.raises(NumericalError, match="did not converge"):
                log_q_closed_form(kappa, 1.0, eps, 3)

    def test_out_of_reach_raises(self):
        """mu = 5e5 with eps near kappa needs a walk past the cap, and
        kappa / sigma_w = 1e100 is past float resolution."""
        with pytest.raises(NumericalError, match="needs over"):
            log_q_closed_form(1.0, 0.001, 1.0, 3)
        with pytest.raises(NumericalError, match="out of range"):
            log_q_closed_form(1.0, 1e-100, 0.5, 3)

    @pytest.mark.parametrize("sigma_w", [1e-3, 6e-4])
    def test_past_reach_fails_fast(self, sigma_w):
        """eps near kappa / sqrt(2) with kappa / sigma_w of 1000-1700 puts
        the gamma functions near z = a + j at every walk term; the call's
        iteration budget stops it within half a second."""
        start = time.perf_counter()
        with pytest.raises(NumericalError, match="gamma-function terms"):
            log_q_closed_form(1.0, sigma_w, 0.7071, 3)
        assert time.perf_counter() - start < 0.5

    def test_gamma_budget_covers_every_tested_point(self, monkeypatch):
        """The tested point that takes the most gamma iterations (kappa 1.5,
        sigma_w 0.01, eps 1, d 1) fits the budget, and a budget one
        iteration short of it raises."""
        used = []
        gamma = complexity._log_gamma_p

        def counting(a, z):
            value, n = gamma(a, z)
            used.append(n)
            return value, n

        monkeypatch.setattr(complexity, "_log_gamma_p", counting)
        log_q_closed_form(1.5, 0.01, 1.0, 1)
        assert sum(used) <= complexity._Q_MAX_GAMMA_TERMS
        monkeypatch.setattr(complexity, "_Q_MAX_GAMMA_TERMS", sum(used) - 1)
        with pytest.raises(NumericalError, match="gamma-function terms"):
            log_q_closed_form(1.5, 0.01, 1.0, 1)


class TestChiFromQ:
    def test_negative_log_of_q(self):
        est = chi_from_q(1.0, 1.0, 0.01, 3)
        assert est.chi == pytest.approx(-math.log(_q(1.0, 1.0, 0.1, 3)))
        assert est.std_err == 0.0
        assert est.chi < math.inf

    def test_out_of_span_component_shifts_radius(self):
        est = chi_from_q(1.0, 1.0, 0.02, 3, perp_sq=0.01)
        base = chi_from_q(1.0, 1.0, 0.01, 3)
        assert est.chi == pytest.approx(base.chi)

    def test_holds_past_the_float_range_of_q(self):
        """q = e^-804.8 underflows float64; chi comes from log q directly."""
        assert chi_from_q(40.0, 1.0, 0.01, 3).chi == pytest.approx(804.798, abs=5e-4)

    def test_unreachable_radius_is_infinite(self):
        est = chi_from_q(1.0, 1.0, 0.01, 3, perp_sq=0.02)
        assert est.chi == math.inf


class TestSlopeFit:
    def test_recovers_exact_power_law(self):
        grid = (0.1, 0.05, 0.02, 0.01)
        per_eps = [chi_from_q(0.0, 1.0, e * e, 3) for e in grid]
        fit = fit_limiting_slope(per_eps, grid)
        # For kappa = 0 and small eps, ln q ~ d ln eps + const exactly up to
        # the next-order term; d = 3 within a fraction of a percent here.
        assert fit.slope == pytest.approx(3.0, rel=5e-3)
        assert fit.ci_halfwidth < 1e-6  # closed-form points are near-exact

    def test_closed_form_slope_matches_dimension(self):
        for d in (2, 3, 5):
            fit = limiting_complexity_closed_form(1.0, 1.0, d, (0.1, 0.01, 0.001))
            assert abs(fit.slope - d) / d < 0.05, f"d={d}: slope {fit.slope}"

    def test_grid_validation(self):
        with pytest.raises(ConfigError):
            limiting_complexity_closed_form(1.0, 1.0, 3, (0.1, 0.05))
        with pytest.raises(ConfigError):
            limiting_complexity_closed_form(1.0, 1.0, 3, (0.05, 0.1, 0.2))
        with pytest.raises(ConfigError):
            limiting_complexity_closed_form(1.0, 1.0, 3, (0.1, -0.05, 0.01))

    def test_unreachable_grid_point_is_a_config_error(self):
        """eps^2 <= perp_sq: the first such point is named, before any q."""
        with pytest.raises(ConfigError, match=r"eps=0\.2 has eps\^2 <= perp_sq=0\.05"):
            limiting_complexity_closed_form(1.0, 1.0, 3, (0.3, 0.2, 0.1), perp_sq=0.05)

    def test_infinite_point_raises_with_eps(self):
        grid = (0.3, 0.2, 0.1)
        per_eps = [chi_from_q(1.0, 1.0, e * e, 3, perp_sq=0.02) for e in grid]
        with pytest.raises(InsufficientSamplesError) as exc:
            fit_limiting_slope(per_eps, grid)
        assert "0.1" in str(exc.value)


class TestSharpWithNoise:
    def test_shifts_radius_by_noise_floor(self):
        fn = lambda e2: chi_from_q(1.0, 1.0, e2, 3)
        est = sharp_with_noise(fn, sigma_e_sq=0.003, eps_sq=0.01)
        assert est.chi == pytest.approx(chi_from_q(1.0, 1.0, 0.007, 3).chi)

    def test_noise_floor_saturation(self):
        fn = lambda e2: chi_from_q(1.0, 1.0, e2, 3)
        est = sharp_with_noise(fn, sigma_e_sq=0.01, eps_sq=0.01)
        assert est.chi == math.inf

    def test_negative_noise_rejected(self):
        with pytest.raises(ConfigError):
            sharp_with_noise(lambda e2: chi_from_q(1.0, 1.0, e2, 3), -0.1, 0.01)


class TestMegaIneq:
    def test_gap_nonnegative_on_random_instances(self):
        """E_X[ln E_Y e^-f] >= ln E_Y[e^-E_X f] for f >= 0; 1000 randomized
        finite instances, violations bounded by 1e-12."""
        gen = np.random.default_rng(42)
        worst = math.inf
        for _ in range(1000):
            nx = int(gen.integers(1, 6))
            ny = int(gen.integers(1, 6))
            px = gen.dirichlet(np.ones(nx))
            py = gen.dirichlet(np.ones(ny))
            f = gen.uniform(0.0, 5.0, size=(nx, ny))
            worst = min(worst, megaineq_gap(px, py, f))
        assert worst >= -1e-12, f"worst gap {worst}"

    def test_equality_when_f_constant_in_x(self):
        px = np.array([0.3, 0.7])
        py = np.array([0.5, 0.5])
        f = np.tile(np.array([[1.0, 2.0]]), (2, 1))
        assert megaineq_gap(px, py, f) == pytest.approx(0.0, abs=1e-14)

    def test_shape_check(self):
        with pytest.raises(ConfigError):
            megaineq_gap(np.array([1.0]), np.array([1.0]), np.zeros((2, 1)))


class TestHyperbolaDistance:
    def test_degenerate_level_zero(self):
        assert hyperbola_distance(2.0, 3.0, 0.0) == pytest.approx(2.0)
        assert hyperbola_distance(-0.5, 4.0, 0.0) == pytest.approx(0.5)

    def test_point_on_curve(self):
        assert hyperbola_distance(2.0, 2.0, 4.0) == pytest.approx(0.0, abs=1e-9)

    def test_origin_to_unit_hyperbola(self):
        # Closest point of {xy = 1} to the origin is (1, 1): distance sqrt(2).
        assert hyperbola_distance(0.0, 0.0, 1.0) == pytest.approx(math.sqrt(2.0), rel=1e-9)

    def test_matches_dense_grid_search(self):
        gen = np.random.default_rng(42)
        xgrid = np.concatenate([-np.geomspace(1e-6, 1e4, 100_000)[::-1],
                                np.geomspace(1e-6, 1e4, 100_000)])
        for _ in range(40):
            p = float(gen.uniform(-3, 3))
            q = float(gen.uniform(-3, 3))
            v = float(gen.uniform(-2, 2))
            if abs(v) < 1e-3:
                continue
            brute = float(np.min(np.hypot(xgrid - p, v / xgrid - q)))
            got = hyperbola_distance(p, q, v)
            assert got == pytest.approx(brute, rel=1e-3, abs=1e-6), f"(p,q,v)=({p},{q},{v})"

    def test_vectorized_matches_scalar(self):
        ps = np.array([0.0, 1.0, -2.0])
        qs = np.array([0.0, 1.0, 0.5])
        vs = np.array([1.0, 1.0, -0.7])
        vec = hyperbola_distance(ps, qs, vs)
        for i in range(3):
            assert vec[i] == pytest.approx(
                hyperbola_distance(float(ps[i]), float(qs[i]), float(vs[i]))
            )


def _hyperbola_reference(p, q, v):
    """Distance from (p, q) to {x y = v}, v != 0, one np.roots call per
    point: the minimum over the roots x of the stationarity quartic
    x^4 - p x^3 + q v x - v^2 of |(x, v/x) - (p, q)|. Every nonzero real
    part x gives a point (x, v/x) of the curve, so taking all of them keeps
    the real roots (near-double roots come back with tiny imaginary parts)
    and can only add candidates that are no nearer than the true one."""
    out = np.empty(len(p))
    for i, (pi, qi, vi) in enumerate(zip(p, q, v)):
        x = np.roots([1.0, -pi, 0.0, qi * vi, -vi * vi]).real
        x = x[x != 0.0]
        out[i] = np.min(np.hypot(x - pi, vi / x - qi))
    return out


def _stress_points():
    """(p, q, v), 910,007 points: uniform p, q in [-4, 4] at seven levels v
    down to |v| = 1e-6; exact ties p = +-q and near ties (relative offsets
    1e-16 to 1e-5) at those levels; p q / v near 1 and near 4, half of them
    at near ties; the origin; and uniform p, q, v in [-4, 4]."""
    gen = np.random.default_rng(16)
    levels = np.array([1.0, -0.8, 0.3, 1e-3, -1e-3, 1e-6, -1e-6])
    parts = []

    def add(p, q, v):
        parts.append([a.ravel() for a in np.broadcast_arrays(p, q, v)])

    def signs(shape):
        return gen.choice([-1.0, 1.0], shape)

    add(gen.uniform(-4, 4, 210_000), gen.uniform(-4, 4, 210_000), np.resize(levels, 210_000))
    t = gen.uniform(-4, 4, (20_000, 1))
    add(t, t, levels)
    add(t, -t, levels)
    off = 10.0 ** gen.uniform(-16, -5, (10_000, 1)) * signs((10_000, 1))
    t = gen.uniform(-4, 4, (10_000, 1))
    add(t, t * (1 + off), levels)
    add(t, -t * (1 + off), levels)
    for ratio in (1.0, 4.0):
        p = gen.uniform(-4, 4, 40_000)
        q = p * (1 + 10.0 ** gen.uniform(-16, -1, 40_000) * signs(40_000))
        q[::2] = gen.uniform(-4, 4, 20_000)
        rho = ratio * (1 + 10.0 ** gen.uniform(-16, -2, 40_000) * signs(40_000))
        add(p, q, p * q / rho)
    add(0.0, 0.0, levels)
    add(*gen.uniform(-4, 4, (3, 200_000)))
    return tuple(np.concatenate(column) for column in zip(*parts))


class TestHyperbolaDistanceProperty:
    """hyperbola_distance against the independent quartic-root reference."""

    @staticmethod
    def _check(p, q, v):
        p, q, v = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (p, q, v)))
        got = hyperbola_distance(p, q, v)
        ref = _hyperbola_reference(p.ravel(), q.ravel(), v.ravel())
        tol = np.maximum(1.0, ref)
        over = got - ref > 1e-12 * tol
        assert not over.any(), (
            f"{int(over.sum())} overestimates, worst at "
            f"(p, q, v) = {(p[over][0], q[over][0], v[over][0])}"
        )
        err = np.abs(got - ref) / tol
        worst = int(np.argmax(err))
        assert err[worst] <= 1e-10, (
            f"error {err[worst]:.3g} at (p, q, v) = {(p[worst], q[worst], v[worst])}"
        )

    def test_uniform_points(self):
        gen = np.random.default_rng(2024)
        n = 20_000
        v = np.resize([1.0, -0.8, 0.3], n)
        self._check(gen.uniform(-4, 4, n), gen.uniform(-4, 4, n), v)

    def test_small_levels(self):
        """|v| << p^2: the regime where a grid-seeded Newton overestimated
        by up to 4.5."""
        gen = np.random.default_rng(7)
        n = 4_000
        v = np.resize([1e-6, -1e-6, 1e-3, -1e-3], n)
        self._check(gen.uniform(-4, 4, n), gen.uniform(-4, 4, n), v)

    @pytest.mark.parametrize("v", [1.0, -0.8, 0.3, 1e-6, -1e-6])
    def test_exact_ties(self, v):
        """p = q and p = -q make a = p + sigma q vanish for one sign of v
        each: the interior root 2 - sqrt(pq/v) or the hard case."""
        t = np.random.default_rng(11).uniform(-4, 4, 500)
        self._check(t, t, v)
        self._check(t, -t, v)
        self._check(0.0, 0.0, v)

    def test_origin_hard_case_values(self):
        """From the origin the nearest points of {x y = v}, r = sqrt|v|, are
        (r, r) and (-r, -r) for v > 0 and (r, -r) and (-r, r) for v < 0:
        distance sqrt(2 |v|) for either sign."""
        got = hyperbola_distance(0.0, 0.0, np.array([2.0, -2.0, 1e-6, -1e-6]))
        np.testing.assert_allclose(got, np.sqrt(2.0 * np.array([2.0, 2.0, 1e-6, 1e-6])),
                                   rtol=1e-15)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_is_a_config_error(self, bad):
        for args in ((bad, 1.0, 1.0), (1.0, bad, 1.0), (1.0, 1.0, bad)):
            with pytest.raises(ConfigError):
                hyperbola_distance(*args)
        with pytest.raises(ConfigError):
            hyperbola_distance(np.array([0.5, bad]), 1.0, 1.0)

    def test_unconverged_solve_raises(self, monkeypatch):
        """The iteration cap raises NumericalError; no best guess is returned."""
        monkeypatch.setattr(complexity, "_HYPERBOLA_MAX_ITER", 1)
        with pytest.raises(NumericalError):
            hyperbola_distance(np.array([1.3, -2.1]), np.array([0.4, 0.7]), 1.0)

    def test_solve_rounds_on_the_stress_set(self, monkeypatch):
        """_HYPERBOLA_MAX_ITER's comment records 20 steps at most on these
        points; a solve that needs more than 22 raises NumericalError."""
        monkeypatch.setattr(complexity, "_HYPERBOLA_MAX_ITER", 22)
        p, q, v = _stress_points()
        assert p.size == 910_007
        assert np.isfinite(hyperbola_distance(p, q, v)).all()


@st.composite
def _curve_points(draw):
    """(p, q, v), p and q in [-4, 4]: q free, an exact tie q = +-p or a near
    one; v = +-10^x down to 1e-6, or p q / v near 1 or 4."""
    unit = st.floats(-4.0, 4.0)
    p = draw(unit)
    tie = draw(st.sampled_from(["none", "exact", "near"]))
    if tie == "none":
        q = draw(unit)
    else:
        q = draw(st.sampled_from([1.0, -1.0])) * p
        if tie == "near":
            q *= 1.0 + draw(st.floats(-1e-9, 1e-9))
    if draw(st.booleans()):
        v = draw(st.sampled_from([1.0, -1.0])) * 10.0 ** draw(st.floats(-6.0, 0.6))
    else:
        rho = draw(st.sampled_from([1.0, 4.0])) * (1.0 + draw(st.floats(-1e-9, 1e-9)))
        v = p * q / rho
    return p, q, v


class TestFarFromHyperbola:
    """The weight screen of _dist_batch marks a point only when its
    computed squared hyperbola distance exceeds the budget."""

    BUDGETS = (1.0, 1.0 + 2.0**-40, 1.0 - 2.0**-40)

    @given(_curve_points())
    @settings(max_examples=500, deadline=None)
    def test_never_marks_a_point_within_its_budget(self, point):
        p, q, v = (np.float64(a) for a in point)
        d_sq = hyperbola_distance(p, q, v) ** 2
        for r_sq in (d_sq * f for f in self.BUDGETS):
            assert not (_far_from_hyperbola(p, q, v, r_sq) and d_sq <= r_sq), (p, q, v, r_sq)

    def test_stress_points_at_their_own_distance(self):
        """No stress point is marked at a budget of its own squared
        distance, and nearly all are at a quarter of it."""
        p, q, v = _stress_points()
        d_sq = hyperbola_distance(p, q, v) ** 2
        for r_sq in (d_sq * f for f in self.BUDGETS):
            assert not (_far_from_hyperbola(p, q, v, r_sq) & (d_sq <= r_sq)).any()
        assert _far_from_hyperbola(p, q, v, 0.25 * d_sq).mean() > 0.95

    def test_negative_and_infinite_budgets(self):
        """A negative budget is a zero one: only points on the curve pass.
        An infinite one, or infinite weights, mark nothing."""
        far = _far_from_hyperbola(np.array([1.0, 2.0]), np.array([3.0, 2.0]), 3.0, -1.0)
        assert far.tolist() == [False, True]
        assert not _far_from_hyperbola(np.array([0.0, 5.0]), 0.0, 1.0, np.inf).any()
        assert not _far_from_hyperbola(np.array([np.inf, 1.0]), np.array([0.0, np.inf]), 1.0, 0.0).any()


class TestDistToRepresentationSet:
    def test_exact_realization_has_zero_distance(self):
        g = PwlFunction(bias=0.3, knots=((0.2, 1.5), (0.7, -0.8)))
        theta = min_norm_realization(g, k=2)
        assert dist_to_representation_set(theta, g) == pytest.approx(0.0, abs=1e-7)

    def test_pure_bias_offset(self):
        g = PwlFunction(bias=0.0, knots=((0.5, 1.0),))
        theta = min_norm_realization(g, k=1)
        shifted = ShallowNetParams(theta.w1, theta.w2, theta.b1, theta.b2 + 0.25)
        assert dist_to_representation_set(shifted, g) == pytest.approx(0.25, rel=1e-6)

    def test_single_node_decomposition(self):
        """For k = c = 1 the distance splits into bias, knot-location, and
        hyperbola components in quadrature."""
        g = PwlFunction(bias=0.1, knots=((0.4, 1.2),))
        theta = ShallowNetParams((0.9,), (1.1,), (0.55,), 0.3)
        want = math.sqrt(
            (0.3 - 0.1) ** 2
            + (0.55 - 0.4) ** 2
            + hyperbola_distance(0.9, 1.1, 1.2) ** 2
        )
        assert dist_to_representation_set(theta, g) == pytest.approx(want, rel=1e-9)

    def test_surplus_node_parked_inactive_is_free(self):
        g = PwlFunction(bias=0.3, knots=((0.2, 1.5),))
        theta = min_norm_realization(g, k=2)  # surplus node at b1 = 1.5
        assert dist_to_representation_set(theta, g) == pytest.approx(0.0, abs=1e-7)

    def test_constant_target_inactivation_cost(self):
        g = PwlFunction(bias=0.5)
        theta = ShallowNetParams((0.3,), (2.0,), (0.8,), 0.5)
        # Cheapest inactivation: zero w1 (cost 0.3) vs push b1 to 1 (cost 0.2).
        assert dist_to_representation_set(theta, g) == pytest.approx(0.2, rel=1e-12)

    def test_node_budget_validation(self):
        g = PwlFunction(bias=0.0, knots=((0.2, 1.0), (0.6, 1.0)))
        theta1 = ShallowNetParams((1.0,), (1.0,), (0.5,), 0.0)
        with pytest.raises(ConfigError):
            dist_to_representation_set(theta1, g)
        theta4 = ShallowNetParams((1.0,) * 4, (1.0,) * 4, (0.5,) * 4, 0.0)
        with pytest.raises(ConfigError):
            dist_to_representation_set(theta4, g)


class TestOneChangeBounds:
    def test_bound_arithmetic(self):
        spec = NnPriorSpec.default_for(8)
        res = one_change_bounds(
            1.8, 0.1, 0.5, 8, spec, eps=0.1, n=4000, rng=SeededRng(42)
        )
        assert res.lower == pytest.approx(1.8 / (3 * 0.125))
        want_upper = 2.0 * (1.8 / 0.125 + 0.1 / 1.0) + 11.0 - 3.0 * math.log(0.1)
        assert res.upper == pytest.approx(want_upper)

    def test_assumption_flags(self):
        spec = NnPriorSpec.default_for(8)
        # |b| = 0.1 < eps^(1/4) ~ 0.562: exactly one assumption fails.
        res = one_change_bounds(1.8, 0.1, 0.5, 8, spec, eps=0.1, n=4000, rng=SeededRng(42))
        assert res.violated == ("eps^(1/4) <= |b|",)
        # b = 0.6 satisfies everything.
        res = one_change_bounds(0.6, 0.6, 0.5, 8, spec, eps=0.1, n=4000, rng=SeededRng(42))
        assert res.violated == ()

    def test_knot_location_validation(self):
        spec = NnPriorSpec.default_for(8)
        with pytest.raises(ConfigError):
            one_change_bounds(0.6, 0.6, 1.0, 8, spec, eps=0.1, n=100, rng=SeededRng(42))


class TestProductDensity:
    def test_claimed_value_at_origin(self):
        assert product_density_claimed(0.0, 1.0) == pytest.approx(
            1.0 / math.sqrt(2.0 * math.pi), rel=1e-12
        )
        assert product_density_claimed(1.0, 1.0) == pytest.approx(
            math.exp(-1.0) / math.sqrt(2.0 * math.pi), rel=1e-12
        )

    def test_mc_diagnostic_exposes_discrepancy(self):
        """The true density of a product of two standard normals is
        K_0(|a|)/pi (modified Bessel); at a = 1 the claimed formula is ~10%
        too large and the kernel estimate should side with the Bessel value."""
        true_val = special.k0(1.0) / math.pi
        claimed = product_density_claimed(1.0, 1.0)
        mc, se = product_density_mc(1.0, 1.0, 400_000, SeededRng(42))
        assert mc == pytest.approx(true_val, rel=0.05)
        assert abs(mc - claimed) > 5 * se

    def test_validation(self):
        with pytest.raises(ConfigError):
            product_density_claimed(0.0, -1.0)
