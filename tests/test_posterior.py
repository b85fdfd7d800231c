"""Tests for data generation, clipped losses, Gibbs posteriors (conjugate
and SGLD), and the PAC-Bayes bound assembly."""

import math
import re
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg
from scipy.stats import ks_2samp, multivariate_normal, norm

from bayescomplex import cli, posterior
from bayescomplex.errors import CheckFailure, ConfigError, NumericalError
from bayescomplex.families import LinearFamily, LinearPriorSpec, LinearTarget
from bayescomplex.models import BasisSpec, basis_matrix
from bayescomplex.posterior import (
    Dataset,
    GaussianPosterior,
    LossSpec,
    SgldConfig,
    batch_means_se,
    conjugate_empirical_loss,
    conjugate_posterior_linear,
    conjugate_true_loss,
    expected_clipped_loss_gaussian,
    find_sigma_alg,
    generate_dataset,
    kl_gaussians,
    pac_bayes_rhs,
    run_sgld,
    theorem_bound,
)
from bayescomplex.rng import SeededRng
from paper_checks import (
    clipped_loss,
    divergence_upper_bound,
    empirical_complexity_mc,
    empirical_loss_of_Q,
    linear_model,
    sample_gaussian,
    true_loss_of_Q,
)


def _linear_setup(d: int, sigma_w_sq: float = 1.0):
    basis = BasisSpec(d=d)
    prior = LinearPriorSpec(sigma_w_sq)
    return basis, prior, LinearFamily(basis, prior)


class TestDataset:
    """ys = f_w(xs) + iid Gaussian noise, reproducible from the seed."""

    def test_noiseless_data_equals_target(self):
        basis, _, _ = _linear_setup(2)
        w = (0.9, -0.4)
        S = generate_dataset(w, basis, 50, 0.0, SeededRng(3))
        np.testing.assert_array_equal(S.ys, linear_model(w, basis)(S.xs))

    def test_residual_variance_matches_noise_level(self):
        basis, _, _ = _linear_setup(1)
        w = (0.8,)
        S = generate_dataset(w, basis, 100_000, 0.09, SeededRng(42))
        resid = S.ys - linear_model(w, basis)(S.xs)
        assert abs(resid.var() - 0.09) <= 0.03 * 0.09

    def test_inputs_stay_inside_measure_support(self):
        basis, _, _ = _linear_setup(1)
        w = (0.8,)
        S = generate_dataset(w, basis, 10_000, 0.01, SeededRng(0))
        assert S.xs.min() >= -1.0 and S.xs.max() <= 1.0

    def test_fixed_seed_reproduces_dataset(self):
        basis, _, _ = _linear_setup(2)
        w = (0.9, -0.4)
        S1 = generate_dataset(w, basis, 200, 0.04, SeededRng(9))
        S2 = generate_dataset(w, basis, 200, 0.04, SeededRng(9))
        np.testing.assert_array_equal(S1.xs, S2.xs)
        np.testing.assert_array_equal(S1.ys, S2.ys)

    def test_validation(self):
        basis, _, _ = _linear_setup(1)
        w = (0.8,)
        with pytest.raises(ConfigError):
            generate_dataset(w, basis, 0, 0.01, SeededRng(0))
        with pytest.raises(ConfigError):
            generate_dataset(w, basis, 10, -0.01, SeededRng(0))
        with pytest.raises(ConfigError, match="xs and ys must have matching shapes"):
            Dataset(xs=np.zeros(3), ys=np.zeros(4), basis=basis)

    @pytest.mark.parametrize(
        "x, error",
        [(1.0 + 1e-9, ConfigError), (-1.0 - 1e-9, ConfigError), (math.inf, ConfigError),
         (-math.inf, ConfigError), (math.nan, NumericalError)],
    )
    def test_input_outside_basis_interval_rejected(self, x, error):
        """The basis is orthonormal only under U[-1, 1]: a dataset with an
        input outside that interval, or a NaN input, is rejected when built."""
        with pytest.raises(error):
            Dataset(xs=np.array([0.0, x]), ys=np.zeros(2), basis=BasisSpec(3))

    def test_interval_endpoints_accepted(self):
        xs = np.array([-1.0, 1.0, 1.0 + 1e-13])
        S = Dataset(xs=xs, ys=np.zeros(3), basis=BasisSpec(3))
        np.testing.assert_array_equal(S.phi, basis_matrix(BasisSpec(3), xs))


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

    @pytest.mark.parametrize("clip", [-1.0, math.inf, math.nan])
    def test_spec_rejects_clip_that_is_not_finite_and_positive(self, clip):
        """An infinite clip makes the loss formula's C * (1 - mass) nan."""
        with pytest.raises(ConfigError, match="clip_C must be finite and > 0"):
            LossSpec(clip_C=clip)


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

    _EDGE_S_SQ = st.one_of(st.sampled_from([0.0, 5e-324]), st.floats(1e299, 1e301),
                           st.floats(0.0, 1e3))

    @given(
        pairs=st.lists(st.tuples(st.floats(-1e150, 1e150), _EDGE_S_SQ), min_size=1, max_size=12),
        C=st.floats(1e-3, 1e8),
    )
    @settings(max_examples=300, deadline=None)
    def test_edge_arrays_bit_identical_to_scipy_stats(self, pairs, C):
        """Arrays mixing zero, subnormal, moderate and ~1e300 variances with
        |mu| up to 1e150 send both truncation ends through the s == 0 and
        degenerate branches inside one call. Where |mu| / s overflows,
        both sides divide into inf and then multiply it by a zero pdf, so
        both warn and return nan there: this test pins only that the two
        agree, bit for bit, wherever that happens."""
        mu, s_sq = (np.array(col) for col in zip(*pairs))
        with np.errstate(over="ignore", invalid="ignore"):
            want = _clipped_loss_with_scipy_stats(mu, s_sq, C)
            got = expected_clipped_loss_gaussian(mu, s_sq, C)
        assert (type(got), got.dtype, got.shape) == (type(want), want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()

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

    @pytest.mark.parametrize("s_sq", [-1e-300, -0.5, math.nan, [0.1, -0.1], [0.1, math.nan]])
    def test_negative_or_nan_variance_raises(self, s_sq):
        with pytest.raises(NumericalError, match="negative or NaN variance"):
            expected_clipped_loss_gaussian(0.0, s_sq, 4.0)

    def test_not_positive_definite_posterior_loss_raises(self):
        """A posterior whose covariance is not positive definite gives some
        x a negative predictive variance; its loss is a NumericalError."""
        S = Dataset(xs=np.array([0.0, -0.5]), ys=np.zeros(2), basis=BasisSpec(d=2))
        post = GaussianPosterior(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(NumericalError, match="negative or NaN variance"):
            conjugate_empirical_loss([(S, post)], LossSpec(clip_C=4.0))

    def test_vectorized(self):
        mus = np.array([0.0, 0.5, -2.0])
        s_sqs = np.array([0.1, 0.0, 2.0])
        out = expected_clipped_loss_gaussian(mus, s_sqs, 2.5)
        assert out.shape == (3,)
        for mu, s_sq, val in zip(mus, s_sqs, out):
            assert val == pytest.approx(
                float(expected_clipped_loss_gaussian(mu, s_sq, 2.5))
            )


class TestDatasetDesign:
    """A Dataset builds its design once, for its own basis; every result
    equals one computed from a fresh design at each use, bit for bit."""

    @staticmethod
    def _recompute_design(monkeypatch):
        """Make phi, gram and rhs recompute from xs and ys at every read
        (the class-level properties shadow what __post_init__ stores)."""
        def phi(self):
            return basis_matrix(self.basis, self.xs)

        for name, fget in (("phi", phi), ("gram", lambda self: phi(self).T @ phi(self)),
                           ("rhs", lambda self: phi(self).T @ self.ys)):
            monkeypatch.setattr(Dataset, name, property(fget, lambda self, value: None),
                                raising=False)

    @pytest.mark.parametrize("seed", [11, 2027])
    @pytest.mark.parametrize("d", [1, 3, 5])
    def test_find_sigma_alg_matches_recomputed_design(self, d, seed, monkeypatch):
        basis, _, family = _linear_setup(d)
        w = (0.7,) + (-0.3,) * (d - 1)

        def search():
            return find_sigma_alg(
                1.0, 0.04, lambda r: generate_dataset(w, basis, 40, 0.04, r),
                family, 1e-3, SeededRng(seed).stream(1), loss_spec=LossSpec(clip_C=4.0),
                n_replicas=8,
            )

        stored = search()
        self._recompute_design(monkeypatch)
        assert search() == stored

    @pytest.mark.parametrize("seed", [11, 2027])
    @pytest.mark.parametrize("d", [1, 3, 5])
    def test_pacbayes_matches_recomputed_design(self, d, seed, monkeypatch):
        args = cli.build_parser().parse_args([
            "pacbayes", f"d={d}", "N=30", "n_trials=4", "n_replicas=8", "--seed", str(seed),
        ])

        def report():
            rep = cli.cmd_pacbayes(cli.resolve_config(args))
            return rep.rows, rep.failures

        stored = report()
        self._recompute_design(monkeypatch)
        assert report() == stored

    def test_reused_dataset_matches_fresh_one(self):
        """One dataset per basis size, across temperatures in an order that
        revisits each, gives what a new dataset gives every time."""
        gen = np.random.default_rng(4)
        xs, ys = gen.uniform(-1.0, 1.0, 30), gen.normal(size=30)
        spec = LossSpec(clip_C=4.0)
        for d in (3, 1, 5):
            basis, prior, _ = _linear_setup(d)
            S = Dataset(xs=xs, ys=ys, basis=basis)
            for sigma_y_sq in (0.1, 2.0, 0.1):
                fresh = Dataset(xs=xs, ys=ys, basis=basis)
                post = conjugate_posterior_linear(S, prior, sigma_y_sq)
                ref = conjugate_posterior_linear(fresh, prior, sigma_y_sq)
                np.testing.assert_array_equal(post.mean, ref.mean)
                np.testing.assert_array_equal(post.covariance, ref.covariance)
                assert conjugate_empirical_loss([(S, post)], spec) == (
                    conjugate_empirical_loss([(fresh, ref)], spec)
                )

    @pytest.mark.parametrize("seed", [3, 40])
    @pytest.mark.parametrize("d", [1, 3, 5])
    def test_generated_design_is_the_datasets_own(self, d, seed, monkeypatch):
        """generate_dataset hands the design it formed ys with to its
        dataset, evaluating the basis once: phi, gram and rhs equal a fresh
        dataset's bit for bit, are read-only down to any array they view,
        and share no memory with the caller's coefficients."""
        basis, _, _ = _linear_setup(d)
        w = np.linspace(0.7, -0.3, d)
        evaluations = []

        def counting_basis_matrix(*args):
            evaluations.append(args)
            return basis_matrix(*args)

        monkeypatch.setattr(posterior, "basis_matrix", counting_basis_matrix)
        S = generate_dataset(w, basis, 40, 0.04, SeededRng(seed))
        assert len(evaluations) == 1
        xs, ys = S.xs.copy(), S.ys.copy()
        fresh = Dataset(xs, ys, basis)
        assert len(evaluations) == 2
        for name in ("phi", "gram", "rhs"):
            got, want = getattr(S, name), getattr(fresh, name)
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()
            with pytest.raises(ValueError, match="read-only"):
                got[(0,) * got.ndim] = 0.5
            view = got
            while view is not None:
                assert not view.flags.writeable
                view = view.base
            assert not np.shares_memory(got, w)
            assert not (np.shares_memory(want, xs) or np.shares_memory(want, ys))

    def test_arrays_are_read_only_copies(self):
        xs, ys = np.linspace(-1.0, 1.0, 5), np.zeros(5)
        S = Dataset(xs=xs, ys=ys, basis=BasisSpec(3))
        for arr in (S.xs, S.ys, S.phi, S.gram, S.rhs):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.5
        xs[0], ys[0] = 0.5, 1.0
        assert (S.xs[0], S.ys[0]) == (-1.0, 0.0)
        np.testing.assert_array_equal(S.phi, basis_matrix(BasisSpec(3), np.linspace(-1.0, 1.0, 5)))


class TestConjugatePosterior:
    """Gaussian prior x Gaussian likelihood gives the closed-form posterior."""

    def test_no_data_returns_prior(self):
        basis, prior, _ = _linear_setup(3, sigma_w_sq=0.7)
        S = Dataset(xs=np.zeros(0), ys=np.zeros(0), basis=basis)
        post = conjugate_posterior_linear(S, prior, 0.5)
        np.testing.assert_array_equal(post.mean, np.zeros(3))
        np.testing.assert_array_equal(post.covariance, 0.7 * np.eye(3))

    def test_infinite_temperature_returns_prior(self):
        basis, prior, _ = _linear_setup(2)
        w = (0.9, -0.4)
        S = generate_dataset(w, basis, 100, 0.04, SeededRng(1))
        post = conjugate_posterior_linear(S, prior, 1e12)
        np.testing.assert_allclose(post.mean, np.zeros(2), atol=1e-6)
        np.testing.assert_allclose(post.covariance, np.eye(2), atol=1e-6)

    def test_single_sample_scalar_update(self):
        # d = 1: the only basis function is the constant 1/sqrt(2), so the
        # update is the textbook scalar conjugate formula.
        basis, prior, _ = _linear_setup(1, sigma_w_sq=2.0)
        S = Dataset(xs=np.array([0.3]), ys=np.array([1.1]), basis=basis)
        sigma_y_sq = 0.25
        post = conjugate_posterior_linear(S, prior, sigma_y_sq)
        phi = 1.0 / math.sqrt(2.0)
        precision = phi * phi / sigma_y_sq + 1.0 / 2.0
        var = 1.0 / precision
        mean = var * phi * 1.1 / sigma_y_sq
        assert float(post.mean[0]) == pytest.approx(mean, rel=1e-12)
        assert float(post.covariance[0, 0]) == pytest.approx(var, rel=1e-12)

    def test_matches_dense_inverse(self):
        basis, prior, _ = _linear_setup(4, sigma_w_sq=0.5)
        w = (0.2, -0.1, 0.4, 0.05)
        S = generate_dataset(w, basis, 30, 0.04, SeededRng(8))
        sigma_y_sq = 0.1
        post = conjugate_posterior_linear(S, prior, sigma_y_sq)
        phi = basis_matrix(basis, S.xs)
        precision = phi.T @ phi / sigma_y_sq + np.eye(4) / 0.5
        cov = np.linalg.inv(precision)
        mean = cov @ phi.T @ S.ys / sigma_y_sq
        np.testing.assert_allclose(post.covariance, cov, atol=1e-10)
        np.testing.assert_allclose(post.mean, mean, atol=1e-10)

    def test_validation(self):
        basis, prior, _ = _linear_setup(1)
        S = Dataset(xs=np.array([0.1]), ys=np.array([0.2]), basis=basis)
        with pytest.raises(ConfigError):
            conjugate_posterior_linear(S, prior, 0.0)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("d", [1, 3, 5, 8])
    def test_bits_match_scipy_cho_solve(self, d, seed):
        """The direct LAPACK calls give scipy.linalg.cho_factor/cho_solve's
        mean and covariance bit for bit, on random data (n < d included, so
        some grams are singular and only the prior makes the precision SPD)."""
        gen = np.random.default_rng(seed)
        n = int(gen.integers(1, 40))
        xs, ys = gen.uniform(-1.0, 1.0, n), gen.normal(size=n)
        sigma_y_sq, sigma_w_sq = 10.0 ** gen.uniform(-3.0, 1.0, size=2)
        basis, prior, _ = _linear_setup(d, sigma_w_sq=float(sigma_w_sq))
        S = Dataset(xs=xs, ys=ys, basis=basis)
        post = conjugate_posterior_linear(S, prior, float(sigma_y_sq))
        phi = basis_matrix(basis, S.xs)
        cho = linalg.cho_factor(phi.T @ phi / sigma_y_sq + np.eye(d) / sigma_w_sq)
        cov = linalg.cho_solve(cho, np.eye(d))
        np.testing.assert_array_equal(post.covariance, (cov + cov.T) / 2.0)
        np.testing.assert_array_equal(
            post.mean, linalg.cho_solve(cho, phi.T @ S.ys / sigma_y_sq)
        )

    def test_non_finite_design_raises(self):
        with pytest.raises(NumericalError, match="design matrix contains non-finite entries"):
            Dataset(xs=np.array([0.1, np.nan]), ys=np.zeros(2), basis=BasisSpec(3))

    def test_non_positive_definite_precision_raises(self):
        """Four copies of x = 1 give a rank-one gram of size ~1e3; its 1e-20
        ridge is lost to rounding, so the second pivot is not positive."""
        basis, prior, _ = _linear_setup(2, sigma_w_sq=1e20)
        S = Dataset(xs=np.ones(4), ys=np.ones(4), basis=basis)
        with pytest.raises(
            NumericalError,
            match=r"posterior precision not positive definite \(LAPACK dpotrf info=2\)",
        ):
            conjugate_posterior_linear(S, prior, 1e-3)


class TestGaussianPosterior:
    """Container invariants: matching shapes and a symmetric covariance."""

    def test_shape_mismatch(self):
        with pytest.raises(ConfigError):
            GaussianPosterior(np.zeros(2), np.eye(3))

    def test_asymmetric_covariance(self):
        cov = np.array([[1.0, 0.5], [0.1, 1.0]])
        with pytest.raises(NumericalError):
            GaussianPosterior(np.zeros(2), cov)

    def test_sample_moments(self):
        cov = np.array([[1.0, 0.6], [0.6, 2.0]])
        post = GaussianPosterior(np.array([0.5, -1.0]), cov)
        draws = sample_gaussian(post, 200_000, np.random.default_rng(42))
        np.testing.assert_allclose(draws.mean(axis=0), post.mean, atol=0.02)
        np.testing.assert_allclose(np.cov(draws.T), cov, atol=0.03)


@pytest.fixture(scope="class")
def conjugate_chain():
    """One long SGLD chain on the d = 1 conjugate problem, shared by the
    stationarity tests."""
    rng = SeededRng(42)
    basis, prior, family = _linear_setup(1)
    w = (0.8,)
    S = generate_dataset(w, basis, 20, 0.04, rng.stream(0))
    post = conjugate_posterior_linear(S, prior, 0.04)
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
        exact = sample_gaussian(post, 10_000, SeededRng(42).stream(2).generator())
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
        basis, _, family = _linear_setup(1)
        S = Dataset(xs=np.zeros(0), ys=np.zeros(0), basis=basis)
        cfg = SgldConfig(eta=0.01, steps=105_000, burn_in=5_000, thin=10,
                         sigma_y_sq=1.0)
        draws = run_sgld(S, family, cfg, SeededRng(42).stream(3))
        chain = draws[:, 0]
        assert abs(chain.mean()) <= 3.0 * batch_means_se(chain)
        assert abs(chain.var() - 1.0) <= 0.10

    def test_divergence_guard(self):
        basis, _, family = _linear_setup(1)
        w = (0.8,)
        S = generate_dataset(w, basis, 50, 0.04, SeededRng(1))
        cfg = SgldConfig(eta=50.0, steps=2_000, burn_in=100, thin=1,
                         sigma_y_sq=1e-6)
        with pytest.raises(NumericalError, match="diverged"):
            run_sgld(S, family, cfg, SeededRng(5))

    @pytest.mark.parametrize("sigma_y_sq, sigma_w_sq", [(1e-320, 1.0), (0.04, 1e-320)])
    def test_overflowing_variance_names_both_variances(self, sigma_y_sq, sigma_w_sq):
        """A variance whose reciprocal overflows is a NumericalError naming
        both variances, raised before any step and with no RuntimeWarning."""
        basis, _, family = _linear_setup(1, sigma_w_sq)
        w = (0.8,)
        S = generate_dataset(w, basis, 50, 0.04, SeededRng(1))
        cfg = SgldConfig(eta=1e-3, steps=200, burn_in=100, thin=1, sigma_y_sq=sigma_y_sq)
        message = (
            f"SGLD Hessian or drift not finite at sigma_y_sq={sigma_y_sq}, "
            f"sigma_w_sq={sigma_w_sq}"
        )
        with pytest.raises(NumericalError, match=f"^{re.escape(message)}$"):
            run_sgld(S, family, cfg, SeededRng(5))

    def test_dataset_of_another_basis_rejected(self):
        _, _, family = _linear_setup(3)
        S = generate_dataset((0.8, 0.1), BasisSpec(2), 20, 0.04, SeededRng(0))
        cfg = SgldConfig(eta=1e-3, steps=200, burn_in=100, thin=1, sigma_y_sq=0.04)
        with pytest.raises(ConfigError, match=r"^dataset drawn for BasisSpec\(d=2\), "
                                              r"family has BasisSpec\(d=3\)$"):
            run_sgld(S, family, cfg, SeededRng(1))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SgldConfig(eta=0.0, steps=10, burn_in=1, thin=1, sigma_y_sq=1.0)
        with pytest.raises(ConfigError):
            SgldConfig(eta=0.1, steps=10, burn_in=10, thin=1, sigma_y_sq=1.0)
        with pytest.raises(ConfigError):
            SgldConfig(eta=0.1, steps=10, burn_in=1, thin=0, sigma_y_sq=1.0)
        with pytest.raises(ConfigError):
            SgldConfig(eta=0.1, steps=10, burn_in=1, thin=1, sigma_y_sq=0.0)


def _stepped_linear_sgld(S, family, cfg, rng, inject_noise=True):
    """Reference: the linear-family SGLD chain stepped one update at a time,
    with the per-step arithmetic run_sgld used before it solved the
    recursion in blocks."""
    gen = rng.generator()
    n = S.n
    n_eff = max(n, 1)
    theta = family.sample_matrix(1, gen)[0]
    design = basis_matrix(family.basis, S.xs) if n else None
    noise_scale = math.sqrt(2.0 * cfg.eta / n_eff)
    draws = []
    for step in range(cfg.steps):
        if n:
            grad = design.T @ (design @ theta - S.ys) / (n * cfg.sigma_y_sq)
        else:
            grad = np.zeros_like(theta)
        grad += theta / (family.prior.sigma_w_sq * n_eff)
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
            return Dataset(xs=np.zeros(0), ys=np.zeros(0), basis=basis), family
        w = (0.8, -0.5, 0.3)[:d]
        return generate_dataset(w, basis, N, 0.04, SeededRng(11).stream(d)), family

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize(
        "N, inject_noise",
        [(20, True), (20, False), (1, True), (0, True)],
        ids=["noise", "noise_free", "one_point", "no_data"],
    )
    def test_matches_stepped_chain(self, d, N, inject_noise):
        S, family = self._problem(d, N)
        cfg = self.CFG if N else replace(self.CFG, eta=0.01)
        got = run_sgld(S, family, cfg, SeededRng(5), inject_noise=inject_noise)
        ref = _stepped_linear_sgld(S, family, cfg, SeededRng(5), inject_noise)
        assert got.shape == ref.shape == (2_429, d)
        assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))

    def test_divergence_step_matches_stepped_chain(self):
        # |1 - eta lambda| = 1.001: the norm grows slowly and crosses 1e6 after
        # the first block, so the guard must report a step in a later block.
        S, family = self._problem(1, 20)
        design = basis_matrix(family.basis, S.xs)
        lam = float(design[:, 0] @ design[:, 0]) / (20 * 0.04) + 1.0 / 20
        cfg = SgldConfig(eta=2.001 / lam, steps=30_000, burn_in=100, thin=1,
                         sigma_y_sq=0.04)
        with pytest.raises(NumericalError) as ref_err:
            _stepped_linear_sgld(S, family, cfg, SeededRng(3))
        with pytest.raises(NumericalError, match="diverged") as got_err:
            run_sgld(S, family, cfg, SeededRng(3))
        ref_step = int(re.search(r"at step (\d+)", str(ref_err.value)).group(1))
        got_step = int(re.search(r"at step (\d+)", str(got_err.value)).group(1))
        assert got_step == ref_step > 8192


class TestLosses:
    """Monte-Carlo and closed-form losses agree and stay inside [0, C]."""

    def test_single_draw_equals_direct_average(self):
        basis, _, family = _linear_setup(2)
        S = generate_dataset((0.9, -0.4), basis, 40, 0.04, SeededRng(2))
        w = np.array([[0.5, 0.1]])
        spec = LossSpec(clip_C=0.5)
        est = empirical_loss_of_Q(w, S, spec, family)
        phi = basis_matrix(basis, S.xs)
        direct = float(np.mean(np.minimum((phi @ w[0] - S.ys) ** 2, 0.5)))
        assert est.value == direct
        assert est.std_err == 0.0

    def test_concentrated_posterior_hits_noise_floor(self):
        basis, _, family = _linear_setup(2)
        w = (0.9, -0.4)
        spec = LossSpec(clip_C=1.0)
        est = true_loss_of_Q(np.array([[0.9, -0.4]]), w, 0.01, spec,
                             100_000, SeededRng(11).stream(0), family)
        assert abs(est.value - 0.01) <= 3.0 * est.std_err

    def test_prior_loss_in_assumed_regime(self):
        # A unit Gaussian prior sits far from this target, so its true loss
        # clears the 2 sigma_e^2 threshold the main bound assumes.
        basis, _, family = _linear_setup(2)
        w = (0.9, -0.4)
        gen = SeededRng(11).stream(1).generator()
        draws = gen.standard_normal((2_000, 2))
        est = true_loss_of_Q(draws, w, 0.01, LossSpec(clip_C=4.0),
                             20_000, SeededRng(11).stream(2), family)
        assert est.value >= 2 * 0.01

    def test_losses_bounded_by_clip(self):
        basis, _, family = _linear_setup(2)
        w = (0.9, -0.4)
        S = generate_dataset(w, basis, 50, 0.04, SeededRng(3))
        gen = SeededRng(3).stream(1).generator()
        draws = 3.0 * gen.standard_normal((500, 2))
        spec = LossSpec(clip_C=0.3)
        emp = empirical_loss_of_Q(draws, S, spec, family)
        true = true_loss_of_Q(draws, w, 0.04, spec, 5_000,
                              SeededRng(3).stream(2), family)
        assert 0.0 <= emp.value <= 0.3
        assert 0.0 <= true.value <= 0.3

    def test_conjugate_empirical_loss_matches_mc(self):
        basis, prior, family = _linear_setup(1)
        w = (0.8,)
        S = generate_dataset(w, basis, 50, 0.04, SeededRng(42).stream(1))
        post = conjugate_posterior_linear(S, prior, 0.1)
        spec = LossSpec(clip_C=1.0)
        [exact] = conjugate_empirical_loss([(S, post)], spec)
        draws = sample_gaussian(post, 200_000, SeededRng(42).stream(2).generator())
        mc = empirical_loss_of_Q(draws, S, spec, family)
        assert abs(exact - mc.value) <= 3.0 * mc.std_err

    def test_conjugate_true_loss_matches_mc(self):
        basis, prior, family = _linear_setup(2)
        w = (0.9, -0.4)
        S = generate_dataset(w, basis, 60, 0.01, SeededRng(13).stream(0))
        post = conjugate_posterior_linear(S, prior, 0.05)
        spec = LossSpec(clip_C=1.0)
        [exact] = conjugate_true_loss([post], LinearTarget(w=w), basis, 0.01, spec)
        draws = sample_gaussian(post, 20_000, SeededRng(13).stream(1).generator())
        mc = true_loss_of_Q(draws, w, 0.01, spec, 20_000,
                            SeededRng(13).stream(2), family)
        assert abs(exact - mc.value) <= 3.0 * mc.std_err

    def test_validation(self):
        basis, prior, family = _linear_setup(1)
        w = (0.8,)
        S = generate_dataset(w, basis, 5, 0.0, SeededRng(0))
        empty = np.zeros((0, 1))
        with pytest.raises(ConfigError):
            empirical_loss_of_Q(empty, S, LossSpec(clip_C=4.0), family)
        with pytest.raises(ConfigError):
            true_loss_of_Q(empty, w, 0.0, LossSpec(clip_C=4.0), 100,
                           SeededRng(0), family)
        with pytest.raises(ConfigError):
            true_loss_of_Q(np.array([[0.8]]), w, 0.0, LossSpec(clip_C=4.0),
                           1, SeededRng(0), family)
        with pytest.raises(ConfigError):
            conjugate_true_loss(
                [conjugate_posterior_linear(S, prior, 0.1)],
                LinearTarget(w=(0.8,), perp_sq=0.1), basis, 0.0, LossSpec(clip_C=4.0),
            )


class TestBatchedLosses:
    """conjugate_empirical_loss and conjugate_true_loss weigh a whole batch
    in one clipped-loss call; every item's loss equals its one-item call bit
    for bit, and that call equals the loss formula applied to the item alone."""

    SPEC = LossSpec(clip_C=0.02)  # about twice the noise variance, so some terms clip

    @staticmethod
    def _batch(d: int, seed: int):
        basis, prior, _ = _linear_setup(d)
        rng = SeededRng(seed)
        w = tuple(rng.stream(0).generator().normal(0.0, 1.0, size=d).tolist())
        sizes = (1, 33, 200, 33, 1, 200)
        temps = (0.05, 0.5, 0.01, 2.0, 0.2, 0.05)
        datasets = [generate_dataset(w, basis, N, 0.01, rng.stream(1 + i))
                    for i, N in enumerate(sizes)]
        posts = [conjugate_posterior_linear(S, prior, t) for S, t in zip(datasets, temps)]
        # A point mass (zero covariance) puts s_sq = 0 at every point of its
        # slice, so the degenerate branch runs inside the batch.
        posts[3] = SimpleNamespace(mean=posts[3].mean, covariance=np.zeros((d, d)))
        return basis, LinearTarget(w=w), datasets, posts

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("d", [1, 3, 5])
    def test_empirical_items_equal_one_item_calls(self, d, seed):
        basis, _, datasets, posts = self._batch(d, seed)
        C = self.SPEC.clip_C
        batched = conjugate_empirical_loss(list(zip(datasets, posts)), self.SPEC)
        for S, post, loss in zip(datasets, posts, batched):
            assert conjugate_empirical_loss([(S, post)], self.SPEC) == [loss]
            phi = basis_matrix(basis, S.xs)
            mu = phi @ post.mean - S.ys
            s_sq = np.einsum("ij,jk,ik->i", phi, post.covariance, phi)
            assert loss == float(expected_clipped_loss_gaussian(mu, s_sq, C).mean())
        mu = basis_matrix(basis, datasets[3].xs) @ posts[3].mean - datasets[3].ys
        assert batched[3] == float(np.minimum(mu * mu, C).mean())

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("d", [1, 3, 5])
    def test_true_items_equal_one_item_calls(self, d, seed):
        basis, target, _, posts = self._batch(d, seed)
        C = self.SPEC.clip_C
        # On [-1, 1] the quadrature points are the Gauss-Legendre nodes.
        nodes, weights = np.polynomial.legendre.leggauss(200)
        phi = basis_matrix(basis, nodes)
        for sigma_e_sq in (0.0, 0.01):
            batched = conjugate_true_loss(posts, target, basis, sigma_e_sq, self.SPEC)
            assert len(batched) == len(posts)
            for post, loss in zip(posts, batched):
                assert conjugate_true_loss(
                    [post], target, basis, sigma_e_sq, self.SPEC) == [loss]
                mu = phi @ (post.mean - np.asarray(target.w))
                s_sq = np.einsum("ij,jk,ik->i", phi, post.covariance, phi) + sigma_e_sq
                vals = expected_clipped_loss_gaussian(mu, s_sq, C)
                assert loss == float(np.sum(weights * vals) / 2.0)
            if sigma_e_sq == 0.0:  # the point mass's s_sq is 0 at every node
                mu = phi @ (posts[3].mean - np.asarray(target.w))
                assert batched[3] == float(np.sum(weights * np.minimum(mu * mu, C)) / 2.0)


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
        draws = sample_gaussian(q, 200_000, gen)
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
        chol_p, chol_q = np.linalg.cholesky(p.covariance), np.linalg.cholesky(q.covariance)
        want = 0.5 * (
            float(np.trace(linalg.cho_solve((chol_p, True), q.covariance)))
            + float(diff @ linalg.cho_solve((chol_p, True), diff))
            - d
            + 2.0 * float(np.sum(np.log(np.diag(chol_p))))
            - 2.0 * float(np.sum(np.log(np.diag(chol_q))))
        )
        assert kl_gaussians(q, p) == want

    def test_kl_not_positive_definite(self):
        """The KL factors both covariances; either one that is symmetric but
        not positive definite is a NumericalError."""
        bad = GaussianPosterior(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))
        good = GaussianPosterior(np.zeros(2), np.eye(2))
        for q, p in ((bad, good), (good, bad)):
            with pytest.raises(NumericalError, match="not positive definite"):
                kl_gaussians(q, p)

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
        w = (0.9, -0.4)
        prior_gauss = GaussianPosterior(np.zeros(d), np.eye(d))
        for trial in range(20):
            S = generate_dataset(w, basis, N, 0.01, rng.stream(100 + trial))
            post = conjugate_posterior_linear(S, prior, sigma_y_sq)
            kl = kl_gaussians(post, prior_gauss)
            phi = basis_matrix(basis, S.xs)
            mu = phi @ post.mean - S.ys
            s_sq = np.einsum("ij,jk,ik->i", phi, post.covariance, phi)
            unclipped_ls = float(np.mean(mu * mu + s_sq))
            noise = S.ys - linear_model(w, basis)(S.xs)
            est = empirical_complexity_mc(
                family, linear_model(w, basis), S.xs, noise, sigma_y_sq / N, 200_000,
                rng.stream(500 + trial),
            )
            bound = divergence_upper_bound(est, N, sigma_y_sq, unclipped_ls)
            assert bound >= kl - 3.0 * est.std_err, f"trial {trial}"
            assert abs(bound - kl) <= 3.0 * est.std_err + 1e-3, f"trial {trial}"

    def test_divergence_bound_floors_at_zero(self):
        est = empirical_complexity_mc(
            _linear_setup(1)[2],
            linear_model((0.8,), BasisSpec(d=1)),
            np.array([0.1, 0.2]), np.zeros(2), 10.0, 1_000, SeededRng(0),
        )
        assert divergence_upper_bound(est, 2, 10.0, 1e6) == 0.0

    def test_divergence_bound_validation(self):
        est = empirical_complexity_mc(
            _linear_setup(1)[2],
            linear_model((0.8,), BasisSpec(d=1)),
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
        target = LinearTarget(w=w)
        spec = LossSpec(clip_C=C)
        prior_gauss = GaussianPosterior(np.zeros(d), np.eye(d))
        lds, rhss = [], []
        for trial in range(50):
            S = generate_dataset(w, basis, N, sigma_e_sq, rng.stream(200 + trial))
            post = conjugate_posterior_linear(S, prior, 0.04)
            [L_S] = conjugate_empirical_loss([(S, post)], spec)
            [L_D] = conjugate_true_loss([post], target, basis, sigma_e_sq, spec)
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
        w = (0.7,)

        def make(r):
            return generate_dataset(w, basis, 40, 0.04, r)

        spec = LossSpec(clip_C=4.0)
        sigma_alg_sq, achieved = find_sigma_alg(1.0, 0.04, make, family, 1e-3,
                                                rng.stream(1), loss_spec=spec,
                                                n_replicas=16)
        # Recompute the search objective on the same replica set.
        check_rng = SeededRng(21).stream(1)
        replicas = [make(check_rng.stream(i)) for i in range(16)]
        mean_loss = float(np.mean(conjugate_empirical_loss(
            [(S, conjugate_posterior_linear(S, prior, sigma_alg_sq))
             for S in replicas],
            spec)))
        assert mean_loss == achieved
        assert abs(mean_loss - 2 * 0.04) <= 1e-3

    def test_bracket_failure_reports_endpoint_losses(self):
        basis, prior, family = _linear_setup(1)
        w = (0.7,)

        def make(r):
            return generate_dataset(w, basis, 40, 0.04, r)

        # (1 + beta) sigma_e_sq = 5 is above clip_C = 4, which no clipped
        # loss reaches, so the bracket's upper end falls short of it.
        with pytest.raises(CheckFailure, match="bracket failure: .* target = 5$"):
            find_sigma_alg(1.0, 2.5, make, family, 1e-3,
                           SeededRng(5).stream(1), loss_spec=LossSpec(clip_C=4.0),
                           n_replicas=4)

    def test_validation(self):
        basis, prior, family = _linear_setup(1)
        with pytest.raises(ConfigError):
            find_sigma_alg(0.0, 0.04, lambda r: None, family, 1e-3, SeededRng(0),
                           loss_spec=LossSpec(clip_C=4.0))
        with pytest.raises(ConfigError):
            find_sigma_alg(1.0, 0.04, lambda r: None, family, 0.0, SeededRng(0),
                           loss_spec=LossSpec(clip_C=4.0))

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
    def test_tol_that_is_not_finite_is_rejected(self, tol):
        """A nan tol never stops the search; an infinite one stops it at the
        first midpoint, whatever its loss. Both are rejected before any
        replica is drawn."""
        _, _, family = _linear_setup(1)

        def make(r):
            raise AssertionError("replica drawn before checking tol")

        with pytest.raises(ConfigError, match="tol must be finite and > 0"):
            find_sigma_alg(1.0, 0.04, make, family, tol, SeededRng(0),
                           loss_spec=LossSpec(clip_C=4.0))

    @staticmethod
    def _count_search_calls(monkeypatch):
        """Record each conjugate_empirical_loss call's batch and each
        conjugate_posterior_linear call's temperature, inside posterior."""
        batches, temps = [], []
        loss, post = posterior.conjugate_empirical_loss, posterior.conjugate_posterior_linear

        def counting_loss(batch, spec):
            batches.append([S for S, _ in batch])
            return loss(batch, spec)

        def counting_post(S, prior, sigma_y_sq):
            temps.append(sigma_y_sq)
            return post(S, prior, sigma_y_sq)

        monkeypatch.setattr(posterior, "conjugate_empirical_loss", counting_loss)
        monkeypatch.setattr(posterior, "conjugate_posterior_linear", counting_post)
        return batches, temps

    @pytest.mark.parametrize("n_replicas", [1, 3, 8])
    def test_one_one_item_call_per_replica_per_evaluation(self, n_replicas, monkeypatch):
        """perfbench reads the search's objective evaluations as its
        conjugate_empirical_loss calls over n_replicas (CI gates that count
        at >= 2): each evaluation makes one call per replica, in replica
        order, with a one-item batch at the evaluation's temperature."""
        basis, _, family = _linear_setup(2)
        batches, temps = self._count_search_calls(monkeypatch)
        replicas = []

        def make(r):
            replicas.append(generate_dataset((0.7, -0.3), basis, 40, 0.04, r))
            return replicas[-1]

        sigma_alg_sq, _ = find_sigma_alg(1.0, 0.04, make, family, 1e-3, SeededRng(3).stream(1),
                                         loss_spec=LossSpec(clip_C=4.0), n_replicas=n_replicas)
        assert len(replicas) == n_replicas
        evaluations, rest = divmod(len(batches), n_replicas)
        assert rest == 0 and evaluations >= 3
        assert all(len(batch) == 1 for batch in batches)
        assert all(batch[0] is S for batch, S in zip(batches, replicas * evaluations))
        assert len(temps) == len(batches)
        per_eval = [temps[i:i + n_replicas] for i in range(0, len(temps), n_replicas)]
        assert all(chunk == chunk[:1] * n_replicas for chunk in per_eval)
        assert [chunk[0] for chunk in per_eval[:2]] == [1e-6, 1e6]
        assert per_eval[-1][0] == sigma_alg_sq

    @pytest.mark.parametrize("seed, evaluations", [(1, 8), (42, 8)])
    def test_pacbayes_benchmark_op_evaluation_count(self, seed, evaluations, monkeypatch):
        """The benchmark's pacbayes op (n_trials=50, n_replicas=32) makes this
        many objective evaluations at these seeds."""
        batches, _ = self._count_search_calls(monkeypatch)
        args = cli.build_parser().parse_args([
            "pacbayes", "n_trials=50", "n_replicas=32", "--seed", str(seed),
        ])
        cli.cmd_pacbayes(cli.resolve_config(args))
        assert len(batches) == 32 * evaluations
        assert all(len(batch) == 1 for batch in batches)

class TestBatchMeansSe:
    """Chain standard error via batch means."""

    def test_iid_chain_matches_naive_se(self):
        chain = np.random.default_rng(3).standard_normal(9_000)
        naive = chain.std() / math.sqrt(chain.size)
        assert batch_means_se(chain) == pytest.approx(naive, rel=0.25)

    def test_chain_too_short(self):
        with pytest.raises(ConfigError):
            batch_means_se(np.zeros(10))
