"""Model families: orthonormal linear basis, shallow product-parametrized
ReLU nets, and the deep periodic construction."""

import numpy as np
import pytest

from bayescomplex.errors import ConfigError
from bayescomplex.families import LinearFamily, LinearPriorSpec, LinearTarget
from bayescomplex.models import (
    BasisSpec,
    ShallowNetParams,
    basis_matrix,
    build_periodic_deep_net,
    interior_knot_count,
    min_norm_realization,
    shallow_to_pwl,
)
from bayescomplex.posterior import generate_dataset
from bayescomplex.pwl import PwlFunction, canonical_equal, periodize
from bayescomplex.rng import SeededRng
from paper_checks import params_from_flat, shallow_forward, variational_complexity


class TestBasis:
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 12])
    def test_gram_matrix_is_identity(self, d):
        """int_{-1}^{1} b_i b_j dx = delta_ij, checked with exact quadrature."""
        nodes, weights = np.polynomial.legendre.leggauss(d + 2)
        B = basis_matrix(BasisSpec(d), nodes)
        gram = (B * weights[:, None]).T @ B
        np.testing.assert_allclose(gram, np.eye(d), atol=1e-10)

    def test_first_two_elements(self):
        B = basis_matrix(BasisSpec(2), np.array([-1.0, 0.0, 0.5]))
        np.testing.assert_allclose(B[:, 0], np.full(3, 1.0 / np.sqrt(2.0)))
        np.testing.assert_allclose(B[:, 1], np.sqrt(1.5) * np.array([-1.0, 0.0, 0.5]))

    def test_domain_check(self):
        with pytest.raises(ConfigError):
            basis_matrix(BasisSpec(3), np.array([1.2]))

    def test_distance_identity_matches_quadrature(self):
        """0.5 ||dw||^2 equals the mean squared gap under uniform inputs."""
        rng = np.random.default_rng(42)
        basis = BasisSpec(4)
        w, v = rng.normal(size=4), rng.normal(size=4)
        nodes, weights = np.polynomial.legendre.leggauss(12)
        gap = basis_matrix(basis, nodes) @ (w - v)
        quad = 0.5 * float(weights @ gap**2)  # density 1/2 on [-1, 1]
        family = LinearFamily(basis, LinearPriorSpec(1.0))
        dist = family.dist_sq(LinearTarget(tuple(v)), w[None, :])
        assert float(dist[0]) == pytest.approx(quad, rel=1e-12)

    def test_dimension_mismatch(self):
        # Raised before anything is drawn from the stream.
        for w in [(1.0,), (1.0, 2.0, 3.0)]:
            with pytest.raises(ConfigError, match="coefficient length does not match basis size"):
                generate_dataset(w, BasisSpec(2), 10, 0.01, SeededRng(0))


class TestShallowNet:
    def test_forward_matches_pwl_conversion(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            k = int(rng.integers(1, 6))
            theta = ShallowNetParams(
                tuple(rng.normal(size=k)),
                tuple(rng.normal(size=k)),
                tuple(rng.uniform(-0.5, 1.5, size=k)),
                float(rng.normal()),
            )
            f = shallow_to_pwl(theta)
            xs = np.linspace(0.0, 1.0, 101)
            np.testing.assert_allclose(f(xs), shallow_forward(theta, xs), atol=1e-12)

    def test_inactive_and_folded_nodes(self):
        theta = ShallowNetParams(
            w1=(2.0, 1.0, 3.0),
            w2=(1.5, 0.0, 1.0),
            b1=(-0.5, 0.3, 1.2),
            b2=0.25,
        )
        f = shallow_to_pwl(theta)
        # Node 0 (b=-0.5) folds: bias += 3*0.5, knot at 0 with slope 3.
        # Node 1 has zero effective weight; node 2 never activates on [0, 1].
        assert f.bias == pytest.approx(0.25 + 1.5)
        assert f.knots == ((0.0, 3.0),)

    def test_flat_roundtrip(self):
        theta = ShallowNetParams((1.0, -2.0), (0.5, 3.0), (0.1, 0.8), -0.7)
        again = params_from_flat(theta.flat(), k=2)
        assert again == theta
        with pytest.raises(ConfigError):
            params_from_flat(theta.flat(), k=3)

    def test_min_norm_roundtrip_and_cost(self):
        g = PwlFunction(bias=0.4, knots=((0.1, 2.0), (0.6, -1.5)))
        theta = min_norm_realization(g, k=4)
        assert canonical_equal(shallow_to_pwl(theta), g)
        w1 = np.asarray(theta.w1)
        w2 = np.asarray(theta.w2)
        cost = 0.5 * (w1 @ w1 + w2 @ w2)
        assert cost == pytest.approx(variational_complexity(g), rel=1e-14)

    def test_min_norm_budget_check(self):
        g = PwlFunction(bias=0.0, knots=((0.1, 1.0), (0.2, 1.0), (0.3, 1.0)))
        with pytest.raises(ConfigError):
            min_norm_realization(g, k=2)


class TestPeriodicDeepNet:
    def _tent(self):
        return PwlFunction(bias=0.0, knots=((0.0, 2.0), (0.5, -4.0)))

    @pytest.mark.parametrize("l", [1, 3, 8])
    def test_forward_equals_tiling(self, l):
        g0 = self._tent()
        net, _ = build_periodic_deep_net(g0, l)
        tiled = periodize(g0, l)
        xs = np.linspace(0.0, float(l), 2001)
        assert float(np.max(np.abs(net.forward(xs) - tiled(xs)))) < 1e-9

    def test_parameter_count_beats_shallow(self):
        g0 = self._tent()
        l = 8
        net, count = build_periodic_deep_net(g0, l)
        m = interior_knot_count(g0)
        assert count == 36
        assert count <= 4 * l + 2 * m + 6
        # A shallow net replicating all knots of the tiling needs one node per
        # knot: 2 per period plus seams, i.e. 2(l(m+2)) + 1 scalars with m=1.
        assert count < 2 * (l * (m + 2)) + 1

    def test_nonconstant_symmetric_profile_with_interior_knots(self):
        # Trapezoid: rises on [0, 1/4], flat to 3/4, falls to 1. Symmetric.
        g0 = PwlFunction(bias=0.0, knots=((0.0, 4.0), (0.25, -4.0), (0.75, -4.0)))
        net, count = build_periodic_deep_net(g0, 2)
        tiled = periodize(g0, 2)
        xs = np.linspace(0.0, 2.0, 1501)
        assert float(np.max(np.abs(net.forward(xs) - tiled(xs)))) < 1e-9
        assert count == 2 * (2 * 2) + 2 * 2 + 2  # n1 = 2l, n2 = 2 profile ramps

    def test_constant_profile(self):
        g0 = PwlFunction(bias=1.25)
        net, _ = build_periodic_deep_net(g0, 2)
        xs = np.linspace(0.0, 2.0, 101)
        np.testing.assert_allclose(net.forward(xs), np.full(101, 1.25), atol=1e-12)

    def test_rejects_asymmetric_profile(self):
        g0 = PwlFunction(bias=0.0, knots=((0.0, 3.0), (1.0 / 3.0, -4.5)))
        # Continuous tiling (g0(0)=g0(1)=0) but not reflection-symmetric.
        assert abs(g0(1.0) - g0(0.0)) < 1e-12
        with pytest.raises(ConfigError):
            build_periodic_deep_net(g0, 2)

    def test_rejects_discontinuous_tiling(self):
        g0 = PwlFunction(bias=0.0, knots=((0.0, 1.0),))
        with pytest.raises(ConfigError):
            build_periodic_deep_net(g0, 2)

    def test_rejects_bad_period_count(self):
        with pytest.raises(ConfigError):
            build_periodic_deep_net(self._tent(), 0)
