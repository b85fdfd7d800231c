"""Tests for data generation, clipped losses, Gibbs posteriors (conjugate
and SGLD), and the PAC-Bayes bound assembly."""

import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg
from scipy.stats import ks_2samp, multivariate_normal, norm

from bayescomplex import cli
from bayescomplex.complexity import empirical_complexity_mc
from bayescomplex.errors import CheckFailure, ConfigError, NumericalError
from bayescomplex.families import (
    LinearFamily,
    LinearPriorSpec,
    LinearTarget,
    NnPriorSpec,
    ShallowNetFamily,
)
from bayescomplex.models import (
    BasisSpec,
    LinearFunction,
    ShallowNetParams,
    basis_matrix,
)
from bayescomplex.posterior import (
    Dataset,
    GaussianPosterior,
    LossEstimate,
    LossSpec,
    SgldConfig,
    batch_means_se,
    clipped_loss,
    conjugate_empirical_loss,
    conjugate_posterior_linear,
    conjugate_true_loss,
    divergence_upper_bound,
    empirical_loss_of_Q,
    expected_clipped_loss_gaussian,
    find_sigma_alg,
    generate_dataset,
    kl_gaussians,
    pac_bayes_rhs,
    run_sgld,
    theorem_bound,
    true_loss_of_Q,
)
from bayescomplex.pwl import UNIFORM_SYM, UNIFORM_UNIT, PwlFunction
from bayescomplex.rng import SeededRng


def _linear_setup(d: int, sigma_w_sq: float = 1.0):
    basis = BasisSpec(d=d)
    prior = LinearPriorSpec(sigma_w_sq)
    return basis, prior, LinearFamily(basis, prior)


class TestDataset:
    """ys = g(xs) + iid Gaussian noise, reproducible from the seed."""

    def test_noiseless_data_equals_target(self):
        basis, _, _ = _linear_setup(2)
        g = LinearFunction((0.9, -0.4), basis)
        S = generate_dataset(g, 50, 0.0, UNIFORM_SYM, SeededRng(3))
        np.testing.assert_array_equal(S.ys, np.asarray(g(S.xs)))

    def test_residual_variance_matches_noise_level(self):
        basis, _, _ = _linear_setup(1)
        g = LinearFunction((0.8,), basis)
        S = generate_dataset(g, 100_000, 0.09, UNIFORM_SYM, SeededRng(42))
        resid = S.ys - np.asarray(g(S.xs))
        assert abs(resid.var() - 0.09) <= 0.03 * 0.09

    def test_inputs_stay_inside_measure_support(self):
        basis, _, _ = _linear_setup(1)
        g = LinearFunction((0.8,), basis)
        S = generate_dataset(g, 10_000, 0.01, UNIFORM_SYM, SeededRng(0))
        assert S.xs.min() >= -1.0 and S.xs.max() <= 1.0

    def test_fixed_seed_reproduces_dataset(self):
        basis, _, _ = _linear_setup(2)
        g = LinearFunction((0.9, -0.4), basis)
        S1 = generate_dataset(g, 200, 0.04, UNIFORM_SYM, SeededRng(9))
        S2 = generate_dataset(g, 200, 0.04, UNIFORM_SYM, SeededRng(9))
        np.testing.assert_array_equal(S1.xs, S2.xs)
        np.testing.assert_array_equal(S1.ys, S2.ys)

    def test_validation(self):
        basis, _, _ = _linear_setup(1)
        g = LinearFunction((0.8,), basis)
        with pytest.raises(ConfigError):
            generate_dataset(g, 0, 0.01, UNIFORM_SYM, SeededRng(0))
        with pytest.raises(ConfigError):
            generate_dataset(g, 10, -0.01, UNIFORM_SYM, SeededRng(0))
        with pytest.raises(ConfigError):
            Dataset(xs=np.zeros(3), ys=np.zeros(4), sigma_e_sq=0.0)


class TestClippedLoss:
    """ell(h, z) = min((h(x) - y)^2, C) stays inside [0, C]."""

    def test_exact_prediction_gives_zero(self):
        assert clipped_loss(1.7, 1.7, LossSpec(clip_C=4.0)) == 0.0

    def test_clip_active(self):
        assert clipped_loss(4.0, 1.0, LossSpec(clip_C=4.0)) == 4.0

    def test_clip_inactive(self):
        assert clipped_loss(4.0, 1.0, LossSpec(clip_C=1e6)) == 9.0

    @given(
        pred=st.floats(-1e3, 1e3),
        y=st.floats(-1e3, 1e3),
        clip=st.floats(1e-3, 1e3),
    )
    @settings(max_examples=200, deadline=None)
    def test_bounded_between_zero_and_clip(self, pred, y, clip):
        val = float(clipped_loss(pred, y, LossSpec(clip_C=clip)))
        assert 0.0 <= val <= clip

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            LossSpec(clip_C=0.0)


def _clipped_loss_with_scipy_stats(mu, s_sq, C):
    """expected_clipped_loss_gaussian's formula through scipy.stats.norm, the
    reference the direct pdf/ndtr calls must reproduce bit for bit."""
    mu = np.asarray(mu, dtype=float)
    s = np.sqrt(np.asarray(s_sq, dtype=float))
    root = math.sqrt(C)
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha = np.where(s > 0, (-root - mu) / s, 0.0)
        beta = np.where(s > 0, (root - mu) / s, 0.0)
    phi_a, phi_b = norm.pdf(alpha), norm.pdf(beta)
    cdf_a, cdf_b = norm.cdf(alpha), norm.cdf(beta)
    mass = cdf_b - cdf_a
    second = (mu * mu + s * s) * mass + 2.0 * mu * s * (phi_a - phi_b) + s * s * (
        alpha * phi_a - beta * phi_b
    )
    out = second + C * (1.0 - mass)
    degenerate = s == 0.0
    if np.any(degenerate):
        out = np.where(degenerate, np.minimum(mu * mu, C), out)
    return out


class TestExpectedClippedLossGaussian:
    """Closed form of E[min(r^2, C)] for r ~ N(mu, s^2)."""

    MUS = (-1e3, -31.0, -2.0, -1e-9, 0.0, 0.4, 2.0, 7.5, 1e3)
    S_SQS = (0.0, 5e-324, 1e-300, 1e-12, 0.3, 1.0, 250.0, 1e300)

    @pytest.mark.parametrize("C", [1e-8, 4.0, 1e8])
    def test_bit_identical_to_scipy_stats(self, C):
        mu, s_sq = (a.ravel() for a in np.meshgrid(self.MUS, self.S_SQS))
        # scipy.stats squares alpha ~ 1e3 / sqrt(5e-324) ~ 4e164, which
        # overflows to inf (pdf exactly 0) with a RuntimeWarning; only the
        # reference runs under errstate.
        with np.errstate(over="ignore"):
            want = _clipped_loss_with_scipy_stats(mu, s_sq, C)
        got = expected_clipped_loss_gaussian(mu, s_sq, C)
        assert (type(got), got.dtype, got.shape) == (type(want), want.dtype, want.shape)
        np.testing.assert_array_equal(got, want)
        for m, v in zip(mu.tolist(), s_sq.tolist()):
            for args in ((m, v), (np.float64(m), np.array(v))):
                with np.errstate(over="ignore"):
                    want = _clipped_loss_with_scipy_stats(*args, C)
                got = expected_clipped_loss_gaussian(*args, C)
                assert (type(got), np.shape(got)) == (type(want), np.shape(want))
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("mu", [1e3, -1e3])
    def test_huge_standardized_bound_does_not_overflow(self, mu):
        """|alpha| = |mu| / s ~ 4e164 at s_sq = 5e-324: the pdf is exactly 0
        there and the run raises no RuntimeWarning (an error under this
        repo's pytest config)."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = expected_clipped_loss_gaussian(mu, 5e-324, 4.0)
        assert got == 4.0

    def test_degenerate_variance(self):
        assert expected_clipped_loss_gaussian(0.5, 0.0, 4.0) == 0.25
        assert expected_clipped_loss_gaussian(3.0, 0.0, 4.0) == 4.0

    def test_huge_clip_recovers_second_moment(self):
        val = float(expected_clipped_loss_gaussian(0.5, 0.8, 1e8))
        assert val == pytest.approx(0.5**2 + 0.8, rel=1e-9)

    def test_against_monte_carlo(self):
        gen = np.random.default_rng(5)
        r = gen.normal(0.5, math.sqrt(0.8), size=400_000)
        samples = np.minimum(r * r, 1.5)
        exact = float(expected_clipped_loss_gaussian(0.5, 0.8, 1.5))
        se = samples.std() / math.sqrt(samples.size)
        assert abs(exact - samples.mean()) <= 3.0 * se

    def test_vectorized(self):
        mus = np.array([0.0, 0.5, -2.0])
        s_sqs = np.array([0.1, 0.0, 2.0])
        out = expected_clipped_loss_gaussian(mus, s_sqs, 2.5)
        assert out.shape == (3,)
        for mu, s_sq, val in zip(mus, s_sqs, out):
            assert val == pytest.approx(
                float(expected_clipped_loss_gaussian(mu, s_sq, 2.5))
            )


class TestDesignMemo:
    """A Dataset builds its design once per basis; every result equals a
    fresh recomputation bit for bit."""

    @staticmethod
    def _bypass_memo(monkeypatch):
        def recompute(self, basis):
            phi = basis_matrix(basis, self.xs)
            return phi, phi.T @ phi, phi.T @ self.ys

        monkeypatch.setattr(Dataset, "_design", recompute)

    @pytest.mark.parametrize("seed", [11, 2027])
    @pytest.mark.parametrize("d", [1, 3, 5])
    def test_find_sigma_alg_matches_recomputed_design(self, d, seed, monkeypatch):
        basis, _, family = _linear_setup(d)
        g = LinearFunction((0.7,) + (-0.3,) * (d - 1), basis)

        def search():
            return find_sigma_alg(
                1.0, 0.04, lambda r: generate_dataset(g, 40, 0.04, UNIFORM_SYM, r),
                family, 1e-3, SeededRng(seed).stream(1), n_replicas=8,
            )

        memoized = search()
        self._bypass_memo(monkeypatch)
        assert search() == memoized

    @pytest.mark.parametrize("seed", [11, 2027])
    @pytest.mark.parametrize("d", [1, 3, 5])
    def test_pacbayes_matches_recomputed_design(self, d, seed, monkeypatch):
        args = cli.build_parser().parse_args([
            "pacbayes", f"d={d}", "N=30", "n_trials=4", "n_replicas=8", "--seed", str(seed),
        ])

        def report():
            rep = cli.cmd_pacbayes(cli.resolve_config(args))
            return rep.rows, rep.failures

        memoized = report()
        self._bypass_memo(monkeypatch)
        assert report() == memoized

    def test_reused_dataset_matches_fresh_one(self):
        """One dataset across basis sizes and temperatures, in an order that
        revisits each, gives what a new dataset gives every time."""
        gen = np.random.default_rng(4)
        xs, ys = gen.uniform(-1.0, 1.0, 30), gen.normal(size=30)
        S = Dataset(xs=xs, ys=ys, sigma_e_sq=0.04)
        spec = LossSpec()
        for d, sigma_y_sq in [(3, 0.1), (1, 0.1), (3, 2.0), (5, 0.1), (1, 2.0), (3, 0.1)]:
            basis, prior, _ = _linear_setup(d)
            fresh = Dataset(xs=xs, ys=ys, sigma_e_sq=0.04)
            post = conjugate_posterior_linear(S, prior, basis, sigma_y_sq)
            ref = conjugate_posterior_linear(fresh, prior, basis, sigma_y_sq)
            np.testing.assert_array_equal(post.mean, ref.mean)
            np.testing.assert_array_equal(post.covariance, ref.covariance)
            assert conjugate_empirical_loss(S, post, basis, spec) == (
                conjugate_empirical_loss(fresh, ref, basis, spec)
            )

    def test_arrays_are_read_only_copies(self):
        xs, ys = np.linspace(-1.0, 1.0, 5), np.zeros(5)
        S = Dataset(xs=xs, ys=ys, sigma_e_sq=0.0)
        for arr in (S.xs, S.ys):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.5
        xs[0], ys[0] = 0.5, 1.0
        assert (S.xs[0], S.ys[0]) == (-1.0, 0.0)


class TestConjugatePosterior:
    """Gaussian prior x Gaussian likelihood gives the closed-form posterior."""

    def test_no_data_returns_prior(self):
        basis, prior, _ = _linear_setup(3, sigma_w_sq=0.7)
        S = Dataset(xs=np.zeros(0), ys=np.zeros(0), sigma_e_sq=0.0)
        post = conjugate_posterior_linear(S, prior, basis, 0.5)
        np.testing.assert_array_equal(post.mean, np.zeros(3))
        np.testing.assert_array_equal(post.covariance, 0.7 * np.eye(3))

    def test_infinite_temperature_returns_prior(self):
        basis, prior, _ = _linear_setup(2)
        g = LinearFunction((0.9, -0.4), basis)
        S = generate_dataset(g, 100, 0.04, UNIFORM_SYM, SeededRng(1))
        post = conjugate_posterior_linear(S, prior, basis, 1e12)
        np.testing.assert_allclose(post.mean, np.zeros(2), atol=1e-6)
        np.testing.assert_allclose(post.covariance, np.eye(2), atol=1e-6)

    def test_single_sample_scalar_update(self):
        # d = 1: the only basis function is the constant 1/sqrt(2), so the
        # update is the textbook scalar conjugate formula.
        basis, prior, _ = _linear_setup(1, sigma_w_sq=2.0)
        S = Dataset(xs=np.array([0.3]), ys=np.array([1.1]), sigma_e_sq=0.04)
        sigma_y_sq = 0.25
        post = conjugate_posterior_linear(S, prior, basis, sigma_y_sq)
        phi = 1.0 / math.sqrt(2.0)
        precision = phi * phi / sigma_y_sq + 1.0 / 2.0
        var = 1.0 / precision
        mean = var * phi * 1.1 / sigma_y_sq
        assert float(post.mean[0]) == pytest.approx(mean, rel=1e-12)
        assert float(post.covariance[0, 0]) == pytest.approx(var, rel=1e-12)

    def test_matches_dense_inverse(self):
        basis, prior, _ = _linear_setup(4, sigma_w_sq=0.5)
        g = LinearFunction((0.2, -0.1, 0.4, 0.05), basis)
        S = generate_dataset(g, 30, 0.04, UNIFORM_SYM, SeededRng(8))
        sigma_y_sq = 0.1
        post = conjugate_posterior_linear(S, prior, basis, sigma_y_sq)
        phi = basis_matrix(basis, S.xs)
        precision = phi.T @ phi / sigma_y_sq + np.eye(4) / 0.5
        cov = np.linalg.inv(precision)
        mean = cov @ phi.T @ S.ys / sigma_y_sq
        np.testing.assert_allclose(post.covariance, cov, atol=1e-10)
        np.testing.assert_allclose(post.mean, mean, atol=1e-10)

    def test_validation(self):
        basis, prior, _ = _linear_setup(1)
        S = Dataset(xs=np.array([0.1]), ys=np.array([0.2]), sigma_e_sq=0.0)
        with pytest.raises(ConfigError):
            conjugate_posterior_linear(S, prior, basis, 0.0)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("d", [1, 3, 5, 8])
    def test_bits_match_scipy_cho_solve(self, d, seed):
        """The direct LAPACK calls give scipy.linalg.cho_factor/cho_solve's
        mean and covariance bit for bit, on random data (n < d included, so
        some grams are singular and only the prior makes the precision SPD)."""
        gen = np.random.default_rng(seed)
        n = int(gen.integers(1, 40))
        S = Dataset(xs=gen.uniform(-1.0, 1.0, n), ys=gen.normal(size=n), sigma_e_sq=0.04)
        sigma_y_sq, sigma_w_sq = 10.0 ** gen.uniform(-3.0, 1.0, size=2)
        basis, prior, _ = _linear_setup(d, sigma_w_sq=float(sigma_w_sq))
        post = conjugate_posterior_linear(S, prior, basis, float(sigma_y_sq))
        phi = basis_matrix(basis, S.xs)
        cho = linalg.cho_factor(phi.T @ phi / sigma_y_sq + np.eye(d) / sigma_w_sq)
        cov = linalg.cho_solve(cho, np.eye(d))
        np.testing.assert_array_equal(post.covariance, (cov + cov.T) / 2.0)
        np.testing.assert_array_equal(
            post.mean, linalg.cho_solve(cho, phi.T @ S.ys / sigma_y_sq)
        )

    def test_non_finite_design_raises(self):
        basis, prior, _ = _linear_setup(3)
        S = Dataset(xs=np.array([0.1, np.nan]), ys=np.zeros(2), sigma_e_sq=0.0)
        with pytest.raises(NumericalError, match="design matrix contains non-finite entries"):
            conjugate_posterior_linear(S, prior, basis, 0.5)

    def test_non_positive_definite_precision_raises(self):
        """Four copies of x = 1 give a rank-one gram of size ~1e3; its 1e-20
        ridge is lost to rounding, so the second pivot is not positive."""
        basis, prior, _ = _linear_setup(2, sigma_w_sq=1e20)
        S = Dataset(xs=np.ones(4), ys=np.ones(4), sigma_e_sq=0.0)
        with pytest.raises(
            NumericalError,
            match=r"posterior precision not positive definite \(LAPACK dpotrf info=2\)",
        ):
            conjugate_posterior_linear(S, prior, basis, 1e-3)


class TestGaussianPosterior:
    """Container invariants: symmetric positive-definite covariance."""

    def test_shape_mismatch(self):
        with pytest.raises(ConfigError):
            GaussianPosterior(np.zeros(2), np.eye(3))

    def test_asymmetric_covariance(self):
        cov = np.array([[1.0, 0.5], [0.1, 1.0]])
        with pytest.raises(NumericalError):
            GaussianPosterior(np.zeros(2), cov)

    def test_not_positive_definite(self):
        cov = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NumericalError):
            GaussianPosterior(np.zeros(2), cov)

    def test_sample_moments(self):
        cov = np.array([[1.0, 0.6], [0.6, 2.0]])
        post = GaussianPosterior(np.array([0.5, -1.0]), cov)
        draws = post.sample(200_000, np.random.default_rng(42))
        np.testing.assert_allclose(draws.mean(axis=0), post.mean, atol=0.02)
        np.testing.assert_allclose(np.cov(draws.T), cov, atol=0.03)


@pytest.fixture(scope="class")
def conjugate_chain():
    """One long SGLD chain on the d = 1 conjugate problem, shared by the
    stationarity tests."""
    rng = SeededRng(42)
    basis, prior, family = _linear_setup(1)
    g = LinearFunction((0.8,), basis)
    S = generate_dataset(g, 20, 0.04, UNIFORM_SYM, rng.stream(0))
    post = conjugate_posterior_linear(S, prior, basis, 0.04)
    cfg = SgldConfig(eta=3e-4, steps=205_000, burn_in=5_000, thin=20,
                     sigma_y_sq=0.04)
    draws = run_sgld(S, family, cfg, rng.stream(1))
    return S, family, post, draws


class TestSgld:
    """The Langevin chain is stationary for the Gibbs posterior."""

    def test_conjugate_mean_within_three_se(self, conjugate_chain):
        _, _, post, draws = conjugate_chain
        chain = draws[:, 0]
        se = batch_means_se(chain)
        assert abs(chain.mean() - float(post.mean[0])) <= 3.0 * se

    def test_conjugate_variance_within_ten_percent(self, conjugate_chain):
        _, _, post, draws = conjugate_chain
        ratio = draws[:, 0].var() / float(post.covariance[0, 0])
        assert abs(ratio - 1.0) <= 0.10, f"variance ratio {ratio}"

    def test_two_sample_stationarity_not_rejected(self, conjugate_chain):
        _, _, post, draws = conjugate_chain
        assert draws.shape[0] == 10_000
        exact = post.sample(10_000, SeededRng(42).stream(2).generator())
        _, p = ks_2samp(draws[:, 0], exact[:, 0])
        assert p > 0.01, f"KS p-value {p}"

    def test_noise_free_mode_reaches_map(self, conjugate_chain):
        S, family, post, _ = conjugate_chain
        cfg = SgldConfig(eta=0.05, steps=4_000, burn_in=3_999, thin=1,
                         sigma_y_sq=0.04)
        theta = run_sgld(S, family, cfg, SeededRng(42).stream(2),
                         inject_noise=False)[-1]
        # Gaussian posterior: the MAP (ridge solution) equals the mean.
        assert abs(float(theta[0]) - float(post.mean[0])) <= 1e-6

    def test_no_data_chain_samples_prior(self):
        _, _, family = _linear_setup(1)
        S = Dataset(xs=np.zeros(0), ys=np.zeros(0), sigma_e_sq=0.0)
        cfg = SgldConfig(eta=0.01, steps=105_000, burn_in=5_000, thin=10,
                         sigma_y_sq=1.0)
        draws = run_sgld(S, family, cfg, SeededRng(42).stream(3))
        chain = draws[:, 0]
        assert abs(chain.mean()) <= 3.0 * batch_means_se(chain)
        assert abs(chain.var() - 1.0) <= 0.10

    def test_shallow_family_respects_bias_support(self):
        prior = NnPriorSpec.default_for(2)
        family = ShallowNetFamily(2, prior)
        g = PwlFunction(0.0, ((0.4, 1.0),))
        S = generate_dataset(g, 30, 0.01, UNIFORM_UNIT, SeededRng(42).stream(3))
        cfg = SgldConfig(eta=1e-3, steps=3_000, burn_in=1_000, thin=5,
                         sigma_y_sq=0.1)
        draws = run_sgld(S, family, cfg, SeededRng(42).stream(4))
        assert np.all(np.isfinite(draws))
        for row in draws[::40]:
            params = ShallowNetParams.from_flat(row, 2)
            assert all(0.0 <= b <= prior.M for b in params.b1)

    def test_divergence_guard(self):
        basis, _, family = _linear_setup(1)
        g = LinearFunction((0.8,), basis)
        S = generate_dataset(g, 50, 0.04, UNIFORM_SYM, SeededRng(1))
        cfg = SgldConfig(eta=50.0, steps=2_000, burn_in=100, thin=1,
                         sigma_y_sq=1e-6)
        with pytest.raises(NumericalError, match="diverged"):
            run_sgld(S, family, cfg, SeededRng(5))

    @pytest.mark.parametrize("sigma_y_sq, sigma_w_sq", [(1e-320, 1.0), (0.04, 1e-320)])
    def test_overflowing_variance_names_both_variances(self, sigma_y_sq, sigma_w_sq):
        """A variance whose reciprocal overflows is a NumericalError naming
        both variances, raised before any step and with no RuntimeWarning."""
        basis, _, family = _linear_setup(1, sigma_w_sq)
        g = LinearFunction((0.8,), basis)
        S = generate_dataset(g, 50, 0.04, UNIFORM_SYM, SeededRng(1))
        cfg = SgldConfig(eta=1e-3, steps=200, burn_in=100, thin=1, sigma_y_sq=sigma_y_sq)
        message = (
            f"SGLD Hessian or drift not finite at sigma_y_sq={sigma_y_sq}, "
            f"sigma_w_sq={sigma_w_sq}"
        )
        with pytest.raises(NumericalError, match=f"^{re.escape(message)}$"):
            run_sgld(S, family, cfg, SeededRng(5))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SgldConfig(eta=0.0, steps=10, burn_in=1, thin=1, sigma_y_sq=1.0)
        with pytest.raises(ConfigError):
            SgldConfig(eta=0.1, steps=10, burn_in=10, thin=1, sigma_y_sq=1.0)
        with pytest.raises(ConfigError):
            SgldConfig(eta=0.1, steps=10, burn_in=1, thin=0, sigma_y_sq=1.0)
        with pytest.raises(ConfigError):
            SgldConfig(eta=0.1, steps=10, burn_in=1, thin=1, sigma_y_sq=0.0)


def _stepped_linear_sgld(S, family, cfg, rng, inject_noise=True, init=None):
    """Reference: the linear-family SGLD chain stepped one update at a time,
    with the per-step arithmetic run_sgld used before it solved the
    recursion in blocks."""
    gen = rng.generator()
    n = S.n
    n_eff = max(n, 1)
    if init is not None:
        theta = np.asarray(init, dtype=float).copy()
    else:
        theta = family.sample_matrix(1, gen)[0]
    design = family.design(S.xs) if n else None
    noise_scale = math.sqrt(2.0 * cfg.eta / n_eff)
    draws = []
    for step in range(cfg.steps):
        if n:
            grad = design.T @ (design @ theta - S.ys) / (n * cfg.sigma_y_sq)
        else:
            grad = np.zeros_like(theta)
        grad -= family.grad_log_prior(theta) / n_eff
        theta = theta - cfg.eta * grad
        if inject_noise:
            theta = theta + noise_scale * gen.standard_normal(theta.size)
        norm = float(np.linalg.norm(theta))
        if norm > 1e6 or not np.isfinite(norm):
            raise NumericalError(f"SGLD diverged at step {step}")
        if step >= cfg.burn_in and (step - cfg.burn_in) % cfg.thin == 0:
            draws.append(theta.copy())
    return np.array(draws)


class TestLinearSgldRecursion:
    """The linear family's block-solved chain equals the stepped chain."""

    # 20k steps span two full 8192-step blocks and a partial third; thin 7
    # puts kept steps on both sides of each block boundary.
    CFG = SgldConfig(eta=3e-4, steps=20_000, burn_in=3_000, thin=7, sigma_y_sq=0.04)

    @staticmethod
    def _problem(d, N):
        basis, _, family = _linear_setup(d)
        if N == 0:
            return Dataset(xs=np.zeros(0), ys=np.zeros(0), sigma_e_sq=0.0), family
        w = (0.8, -0.5, 0.3)[:d]
        g = LinearFunction(w, basis)
        return generate_dataset(g, N, 0.04, UNIFORM_SYM, SeededRng(11).stream(d)), family

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize(
        "N, inject_noise, with_init",
        [(20, True, False), (20, False, False), (20, True, True), (0, True, False)],
        ids=["noise", "noise_free", "init", "no_data"],
    )
    def test_matches_stepped_chain(self, d, N, inject_noise, with_init):
        S, family = self._problem(d, N)
        init = np.linspace(-2.0, 2.0, d) if with_init else None
        cfg = self.CFG if N else replace(self.CFG, eta=0.01)
        got = run_sgld(S, family, cfg, SeededRng(5), inject_noise=inject_noise, init=init)
        ref = _stepped_linear_sgld(S, family, cfg, SeededRng(5), inject_noise, init)
        assert got.shape == ref.shape == (2_429, d)
        assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))

    def test_divergence_step_matches_stepped_chain(self):
        # |1 - eta lambda| = 1.001: the norm grows slowly and crosses 1e6 after
        # the first block, so the guard must report a step in a later block.
        S, family = self._problem(1, 20)
        design = family.design(S.xs)
        lam = float(design[:, 0] @ design[:, 0]) / (20 * 0.04) + 1.0 / 20
        cfg = SgldConfig(eta=2.001 / lam, steps=30_000, burn_in=100, thin=1,
                         sigma_y_sq=0.04)
        init = np.array([1.0])
        with pytest.raises(NumericalError) as ref_err:
            _stepped_linear_sgld(S, family, cfg, SeededRng(3), init=init)
        with pytest.raises(NumericalError, match="diverged") as got_err:
            run_sgld(S, family, cfg, SeededRng(3), init=init)
        ref_step = int(re.search(r"at step (\d+)", str(ref_err.value)).group(1))
        got_step = int(re.search(r"at step (\d+)", str(got_err.value)).group(1))
        assert got_step == ref_step > 8192


class TestLosses:
    """Monte-Carlo and closed-form losses agree and stay inside [0, C]."""

    def test_single_draw_equals_direct_average(self):
        basis, _, family = _linear_setup(2)
        g = LinearFunction((0.9, -0.4), basis)
        S = generate_dataset(g, 40, 0.04, UNIFORM_SYM, SeededRng(2))
        w = np.array([[0.5, 0.1]])
        spec = LossSpec(clip_C=0.5)
        est = empirical_loss_of_Q(w, S, spec, family)
        phi = basis_matrix(basis, S.xs)
        direct = float(np.mean(np.minimum((phi @ w[0] - S.ys) ** 2, 0.5)))
        assert est.value == direct
        assert est.std_err == 0.0

    def test_concentrated_posterior_hits_noise_floor(self):
        basis, _, family = _linear_setup(2)
        g = LinearFunction((0.9, -0.4), basis)
        spec = LossSpec(clip_C=1.0)
        est = true_loss_of_Q(np.array([[0.9, -0.4]]), g, 0.01, UNIFORM_SYM,
                             spec, 100_000, SeededRng(11).stream(0), family)
        assert abs(est.value - 0.01) <= 3.0 * est.std_err

    def test_prior_loss_in_assumed_regime(self):
        # A unit Gaussian prior sits far from this target, so its true loss
        # clears the 2 sigma_e^2 threshold the main bound assumes.
        basis, _, family = _linear_setup(2)
        g = LinearFunction((0.9, -0.4), basis)
        gen = SeededRng(11).stream(1).generator()
        draws = gen.standard_normal((2_000, 2))
        est = true_loss_of_Q(draws, g, 0.01, UNIFORM_SYM, LossSpec(clip_C=4.0),
                             20_000, SeededRng(11).stream(2), family)
        assert est.value >= 2 * 0.01

    def test_losses_bounded_by_clip(self):
        basis, _, family = _linear_setup(2)
        g = LinearFunction((0.9, -0.4), basis)
        S = generate_dataset(g, 50, 0.04, UNIFORM_SYM, SeededRng(3))
        gen = SeededRng(3).stream(1).generator()
        draws = 3.0 * gen.standard_normal((500, 2))
        spec = LossSpec(clip_C=0.3)
        emp = empirical_loss_of_Q(draws, S, spec, family)
        true = true_loss_of_Q(draws, g, 0.04, UNIFORM_SYM, spec, 5_000,
                              SeededRng(3).stream(2), family)
        assert 0.0 <= emp.value <= 0.3
        assert 0.0 <= true.value <= 0.3

    def test_conjugate_empirical_loss_matches_mc(self):
        basis, prior, family = _linear_setup(1)
        g = LinearFunction((0.8,), basis)
        S = generate_dataset(g, 50, 0.04, UNIFORM_SYM, SeededRng(42).stream(1))
        post = conjugate_posterior_linear(S, prior, basis, 0.1)
        spec = LossSpec(clip_C=1.0)
        exact = conjugate_empirical_loss(S, post, basis, spec)
        draws = post.sample(200_000, SeededRng(42).stream(2).generator())
        mc = empirical_loss_of_Q(draws, S, spec, family)
        assert abs(exact - mc.value) <= 3.0 * mc.std_err

    def test_conjugate_true_loss_matches_mc(self):
        basis, prior, family = _linear_setup(2)
        w = (0.9, -0.4)
        g = LinearFunction(w, basis)
        S = generate_dataset(g, 60, 0.01, UNIFORM_SYM, SeededRng(13).stream(0))
        post = conjugate_posterior_linear(S, prior, basis, 0.05)
        spec = LossSpec(clip_C=1.0)
        exact = conjugate_true_loss(post, LinearTarget(w=w), basis, 0.01,
                                    UNIFORM_SYM, spec)
        draws = post.sample(20_000, SeededRng(13).stream(1).generator())
        mc = true_loss_of_Q(draws, g, 0.01, UNIFORM_SYM, spec, 20_000,
                            SeededRng(13).stream(2), family)
        assert abs(exact - mc.value) <= 3.0 * mc.std_err

    def test_validation(self):
        basis, prior, family = _linear_setup(1)
        g = LinearFunction((0.8,), basis)
        S = generate_dataset(g, 5, 0.0, UNIFORM_SYM, SeededRng(0))
        empty = np.zeros((0, 1))
        with pytest.raises(ConfigError):
            empirical_loss_of_Q(empty, S, LossSpec(), family)
        with pytest.raises(ConfigError):
            true_loss_of_Q(empty, g, 0.0, UNIFORM_SYM, LossSpec(), 100,
                           SeededRng(0), family)
        with pytest.raises(ConfigError):
            true_loss_of_Q(np.array([[0.8]]), g, 0.0, UNIFORM_SYM, LossSpec(),
                           1, SeededRng(0), family)
        with pytest.raises(ConfigError):
            conjugate_true_loss(
                conjugate_posterior_linear(S, prior, basis, 0.1),
                LinearTarget(w=(0.8,), perp_sq=0.1), basis, 0.0, UNIFORM_SYM,
                LossSpec(),
            )


class TestPacBayesPieces:
    """The bound's right-hand side, the Gaussian KL, and the divergence
    upper bound through the dataset-conditional complexity."""

    def test_rhs_with_zero_kl(self):
        assert pac_bayes_rhs(0.02, 0.0, 100, 4.0) == 0.02

    def test_rhs_substitution(self):
        val = pac_bayes_rhs(0.02, 10.0, 1000, 1.0)
        assert val == pytest.approx(0.02 + math.sqrt(10.0 / 2000.0), rel=1e-12)
        assert val == pytest.approx(0.0907107, abs=5e-8)

    def test_rhs_validation(self):
        with pytest.raises(ConfigError):
            pac_bayes_rhs(0.02, -1e-9, 100, 4.0)
        with pytest.raises(ConfigError):
            pac_bayes_rhs(0.02, 1.0, 0, 4.0)

    def test_kl_identical_gaussians(self):
        q = GaussianPosterior(np.array([0.3, -0.2]),
                              np.array([[1.0, 0.4], [0.4, 2.0]]))
        assert kl_gaussians(q, q) == pytest.approx(0.0, abs=1e-12)

    def test_kl_scalar_case(self):
        q = GaussianPosterior(np.array([1.0]), np.array([[1.0]]))
        p = GaussianPosterior(np.array([0.0]), np.array([[1.0]]))
        assert kl_gaussians(q, p) == pytest.approx(0.5, rel=1e-12)

    def test_kl_against_monte_carlo(self):
        gen = np.random.default_rng(42)
        a = gen.standard_normal((2, 2))
        q = GaussianPosterior(np.array([0.5, -0.3]), a @ a.T + 0.2 * np.eye(2))
        b = gen.standard_normal((2, 2))
        p = GaussianPosterior(np.array([-0.1, 0.8]), b @ b.T + 0.2 * np.eye(2))
        draws = q.sample(200_000, gen)
        log_ratio = (
            multivariate_normal.logpdf(draws, q.mean, q.covariance)
            - multivariate_normal.logpdf(draws, p.mean, p.covariance)
        )
        se = log_ratio.std() / math.sqrt(log_ratio.size)
        assert abs(kl_gaussians(q, p) - log_ratio.mean()) <= 3.0 * se

    @pytest.mark.parametrize("d", [1, 3, 5, 8])
    def test_kl_bits_match_scipy_cho_solve(self, d):
        gen = np.random.default_rng(d)
        a, b = gen.standard_normal((2, d, d))
        q = GaussianPosterior(gen.normal(size=d), a @ a.T + 0.2 * np.eye(d))
        p = GaussianPosterior(gen.normal(size=d), b @ b.T + 0.2 * np.eye(d))
        diff = p.mean - q.mean
        want = 0.5 * (
            float(np.trace(linalg.cho_solve((p._chol, True), q.covariance)))
            + float(diff @ linalg.cho_solve((p._chol, True), diff))
            - d
            + 2.0 * float(np.sum(np.log(np.diag(p._chol))))
            - 2.0 * float(np.sum(np.log(np.diag(q._chol))))
        )
        assert kl_gaussians(q, p) == want

    def test_kl_dimension_mismatch(self):
        q = GaussianPosterior(np.zeros(1), np.eye(1))
        p = GaussianPosterior(np.zeros(2), np.eye(2))
        with pytest.raises(ConfigError):
            kl_gaussians(q, p)

    def test_divergence_bound_dual_path(self):
        # For the conjugate posterior at matched temperature the bound holds
        # with equality up to MC error: check it clears kl - 3 SE on every
        # one of 20 dataset draws.
        rng = SeededRng(7)
        d, N, sigma_y_sq = 2, 6, 0.5
        basis, prior, family = _linear_setup(d)
        g = LinearFunction((0.9, -0.4), basis)
        prior_gauss = GaussianPosterior(np.zeros(d), np.eye(d))
        for trial in range(20):
            S = generate_dataset(g, N, 0.01, UNIFORM_SYM, rng.stream(100 + trial))
            post = conjugate_posterior_linear(S, prior, basis, sigma_y_sq)
            kl = kl_gaussians(post, prior_gauss)
            phi = basis_matrix(basis, S.xs)
            mu = phi @ post.mean - S.ys
            s_sq = np.einsum("ij,jk,ik->i", phi, post.covariance, phi)
            unclipped_ls = float(np.mean(mu * mu + s_sq))
            noise = S.ys - np.asarray(g(S.xs))
            est = empirical_complexity_mc(
                family, g, S.xs, noise, sigma_y_sq / N, 200_000,
                rng.stream(500 + trial),
            )
            bound = divergence_upper_bound(est, N, sigma_y_sq, unclipped_ls)
            assert bound >= kl - 3.0 * est.std_err, f"trial {trial}"
            assert abs(bound - kl) <= 3.0 * est.std_err + 1e-3, f"trial {trial}"

    def test_divergence_bound_floors_at_zero(self):
        est = empirical_complexity_mc(
            _linear_setup(1)[2],
            LinearFunction((0.8,), BasisSpec(d=1)),
            np.array([0.1, 0.2]), np.zeros(2), 10.0, 1_000, SeededRng(0),
        )
        assert divergence_upper_bound(est, 2, 10.0, 1e6) == 0.0

    def test_divergence_bound_validation(self):
        est = empirical_complexity_mc(
            _linear_setup(1)[2],
            LinearFunction((0.8,), BasisSpec(d=1)),
            np.array([0.1]), np.zeros(1), 1.0, 100, SeededRng(0),
        )
        with pytest.raises(ConfigError):
            divergence_upper_bound(est, 1, 0.0, 0.01)

    def test_bound_validity_over_trials(self):
        """mean L_D(Q) <= mean pac_bayes_rhs + 3 joint SE over 50 seeded
        conjugate trials (d = 3, N = 200, noise 0.01, C = 1)."""
        rng = SeededRng(42)
        d, N, sigma_e_sq, C = 3, 200, 0.01, 1.0
        basis, prior, family = _linear_setup(d)
        w = (0.8, -0.5, 0.3)
        g = LinearFunction(w, basis)
        target = LinearTarget(w=w)
        spec = LossSpec(clip_C=C)
        prior_gauss = GaussianPosterior(np.zeros(d), np.eye(d))
        lds, rhss = [], []
        for trial in range(50):
            S = generate_dataset(g, N, sigma_e_sq, UNIFORM_SYM,
                                 rng.stream(200 + trial))
            post = conjugate_posterior_linear(S, prior, basis, 0.04)
            L_S = conjugate_empirical_loss(S, post, basis, spec)
            L_D = conjugate_true_loss(post, target, basis, sigma_e_sq,
                                      UNIFORM_SYM, spec)
            lds.append(L_D)
            rhss.append(pac_bayes_rhs(L_S, kl_gaussians(post, prior_gauss), N, C))
        lds, rhss = np.array(lds), np.array(rhss)
        joint_se = math.hypot(lds.std() / math.sqrt(lds.size),
                              rhss.std() / math.sqrt(rhss.size))
        assert lds.mean() <= rhss.mean() + 3.0 * joint_se


class TestTheoremBound:
    """bound = sigma_e^2 + beta sigma_e^2 + (C/sqrt(2)) sqrt(chi/N)."""

    def test_substitution(self):
        val = theorem_bound(0.01, 1.0, 10.0, 1000, 1.0)
        expected = 0.02 + (1.0 / math.sqrt(2.0)) * math.sqrt(10.0 / 1000.0)
        assert val == pytest.approx(expected, rel=1e-12)
        assert val == pytest.approx(0.0907107, abs=5e-8)

    def test_validation(self):
        with pytest.raises(ConfigError):
            theorem_bound(0.01, 0.0, 10.0, 1000, 1.0)
        with pytest.raises(ConfigError):
            theorem_bound(0.01, 1.5, 10.0, 1000, 1.0)
        with pytest.raises(ConfigError):
            theorem_bound(0.01, 1.0, -1.0, 1000, 1.0)
        with pytest.raises(ConfigError):
            theorem_bound(0.01, 1.0, math.inf, 1000, 1.0)
        with pytest.raises(ConfigError):
            theorem_bound(0.01, 1.0, 10.0, 0, 1.0)


class TestFindSigmaAlg:
    """Bisection on ln sigma_y^2 for E[L_S(Q)] = (1 + beta) sigma_e^2."""

    def test_conjugate_search_hits_target(self):
        rng = SeededRng(21)
        basis, prior, family = _linear_setup(1)
        g = LinearFunction((0.7,), basis)

        def make(r):
            return generate_dataset(g, 40, 0.04, UNIFORM_SYM, r)

        spec = LossSpec(clip_C=4.0)
        sigma_alg_sq, achieved = find_sigma_alg(1.0, 0.04, make, family, 1e-3,
                                                rng.stream(1), loss_spec=spec,
                                                n_replicas=16)
        # Recompute the search objective on the same replica set.
        check_rng = SeededRng(21).stream(1)
        replicas = [make(check_rng.stream(i)) for i in range(16)]
        mean_loss = float(np.mean([
            conjugate_empirical_loss(
                S, conjugate_posterior_linear(S, prior, basis, sigma_alg_sq),
                basis, spec)
            for S in replicas
        ]))
        assert mean_loss == achieved
        assert abs(mean_loss - 2 * 0.04) <= 1e-3

    def test_bracket_failure_reports_endpoint_losses(self):
        basis, prior, family = _linear_setup(1)
        g = LinearFunction((0.7,), basis)

        def make(r):
            return generate_dataset(g, 40, 0.04, UNIFORM_SYM, r)

        with pytest.raises(CheckFailure, match="bracket"):
            find_sigma_alg(1.0, 0.04, make, family, 1e-3,
                           SeededRng(5).stream(1), loss_spec=LossSpec(),
                           n_replicas=4, bracket=(1e-6, 1e-4))

    def test_sgld_chains_never_reuse_a_replica_stream(self, monkeypatch):
        """With more than 1000 replicas, no SGLD chain draws from the stream
        that generated a replica's dataset."""
        dataset_ids, chain_ids = set(), set()

        def make(r):
            dataset_ids.add(r.stream_id)
            return generate_dataset(lambda x: 0.0 * x, 1, 0.04, UNIFORM_UNIT, r)

        def fake_sgld(S, family, cfg, rng, **kwargs):
            chain_ids.add(rng.stream_id)
            return np.zeros((1, family.dim))

        # A constant zero loss stays below the target at both bracket ends, so
        # the search stops after one pass per endpoint.
        monkeypatch.setattr("bayescomplex.posterior.run_sgld", fake_sgld)
        monkeypatch.setattr("bayescomplex.posterior.empirical_loss_of_Q",
                            lambda *args: LossEstimate(0.0, 0.0))
        family = ShallowNetFamily(1, NnPriorSpec.default_for(1))
        cfg = SgldConfig(eta=1e-3, steps=2, burn_in=1, thin=1, sigma_y_sq=1.0)
        with pytest.raises(CheckFailure, match="bracket"):
            find_sigma_alg(1.0, 0.04, make, family, 1e-3, SeededRng(5).stream(1),
                           sgld_cfg=cfg, n_replicas=1001)
        assert len(dataset_ids) == 1001 and len(chain_ids) == 1001
        assert dataset_ids.isdisjoint(chain_ids)

    def test_validation(self):
        basis, prior, family = _linear_setup(1)
        with pytest.raises(ConfigError):
            find_sigma_alg(0.0, 0.04, lambda r: None, family, 1e-3, SeededRng(0))
        with pytest.raises(ConfigError):
            find_sigma_alg(1.0, 0.04, lambda r: None, family, 0.0, SeededRng(0))

    def test_sgld_family_needs_sgld_cfg(self):
        """Only the conjugate linear family can search without SGLD chain
        settings; any other family is refused before a dataset is drawn."""
        drawn = []
        family = ShallowNetFamily(1, NnPriorSpec.default_for(1))
        with pytest.raises(ConfigError, match="sgld_cfg"):
            find_sigma_alg(1.0, 0.04, drawn.append, family, 1e-3, SeededRng(0))
        assert drawn == []


class TestBatchMeansSe:
    """Chain standard error via batch means."""

    def test_iid_chain_matches_naive_se(self):
        chain = np.random.default_rng(3).standard_normal(9_000)
        naive = chain.std() / math.sqrt(chain.size)
        assert batch_means_se(chain) == pytest.approx(naive, rel=0.25)

    def test_chain_too_short(self):
        with pytest.raises(ConfigError):
            batch_means_se(np.zeros(10), n_batches=30)
