"""Exact piecewise-linear algebra: evaluation, canonical form, L2 geometry,
and periodic tiling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bayescomplex.errors import ConfigError
from bayescomplex.pwl import (
    CANONICAL_TOL,
    PwlFunction,
    canonical_equal,
    canonicalize,
    l2_norm_sq,
    periodize,
)
from paper_checks import UNIFORM_UNIT, L2Measure, l2_distance_sq, variational_complexity


def _quad_oracle(fn, lo, hi, n=200_001):
    """High-resolution trapezoid integral of fn^2; adequate oracle for smooth
    piecewise-quadratic integrands at ~1e-10 accuracy."""
    xs = np.linspace(lo, hi, n)
    return float(np.trapezoid(fn(xs) ** 2, xs))


class TestEvaluation:
    def test_single_ramp_values(self):
        f = PwlFunction(bias=0.0, knots=((0.25, 2.0),))
        assert f(0.0) == 0.0
        assert f(0.25) == 0.0
        assert f(0.75) == pytest.approx(1.0)
        np.testing.assert_allclose(f(np.array([0.0, 0.5, 1.0])), [0.0, 0.5, 1.5])

    def test_bias_only(self):
        f = PwlFunction(bias=-1.5)
        assert f(0.3) == -1.5
        assert f.knots == ()

    def test_vector_matches_scalar(self):
        rng = np.random.default_rng(42)
        f = PwlFunction(bias=0.2, knots=((0.1, 1.0), (0.4, -2.5), (0.9, 0.7)))
        xs = rng.uniform(0.0, 1.0, size=50)
        vec = f(xs)
        for x, v in zip(xs, vec):
            assert f(float(x)) == pytest.approx(v, abs=0.0)

    def test_domain_check(self):
        f = PwlFunction(bias=0.0, knots=((0.5, 1.0),))
        with pytest.raises(ConfigError):
            f(1.5)
        with pytest.raises(ConfigError):
            f(np.array([0.2, -0.3]))

    def test_validation_rejects_bad_knots(self):
        with pytest.raises(ConfigError):
            PwlFunction(bias=0.0, knots=((0.5, 0.0),))  # zero slope change
        with pytest.raises(ConfigError):
            PwlFunction(bias=0.0, knots=((0.6, 1.0), (0.4, 1.0)))  # unsorted
        with pytest.raises(ConfigError):
            PwlFunction(bias=0.0, knots=((1.0, 1.0),))  # at right endpoint


class TestCanonicalize:
    def test_merges_and_sorts(self):
        f = canonicalize([(0.5, 1.0), (0.2, 2.0), (0.5, -0.25)], bias=1.0)
        assert f.knots == ((0.2, 2.0), (0.5, 0.75))
        assert f.bias == 1.0

    def test_drops_exact_cancellation(self):
        f = canonicalize([(0.3, 1.0), (0.3, -1.0)], bias=0.0)
        assert f.knots == ()

    def test_idempotent(self):
        f = canonicalize([(0.7, -1.0), (0.1, 0.5)], bias=0.3)
        g = canonicalize(list(f.knots), f.bias)
        assert f == g

    @given(
        st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.75]),
                st.integers(min_value=-3, max_value=3).map(float),
            ),
            max_size=8,
        ),
        st.floats(min_value=-2.0, max_value=2.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_canonical_form_preserves_values(self, raw, bias):
        f = canonicalize(raw, bias)
        xs = np.linspace(0.0, 1.0, 23)
        direct = bias + sum(v * np.maximum(0.0, xs - t) for t, v in raw)
        if not raw:
            direct = np.full_like(xs, bias)
        np.testing.assert_allclose(f(xs), direct, atol=1e-12)


class TestCanonicalEqual:
    def test_same_function_different_description(self):
        f = canonicalize([(0.4, 1.0), (0.4, 1.0)], bias=0.0)
        g = PwlFunction(bias=0.0, knots=((0.4, 2.0),))
        assert canonical_equal(f, g)

    def test_detects_difference_beyond_tol(self):
        f = PwlFunction(bias=0.0, knots=((0.4, 1.0),))
        g = PwlFunction(bias=1e-9, knots=((0.4, 1.0),))
        assert not canonical_equal(f, g)
        # The bound is CANONICAL_TOL itself, inclusive.
        assert canonical_equal(PwlFunction(bias=0.0), PwlFunction(bias=CANONICAL_TOL))

    def test_tolerance_default_is_canonical(self):
        f = PwlFunction(bias=0.0)
        g = PwlFunction(bias=CANONICAL_TOL / 2)
        assert canonical_equal(f, g)


class TestL2Geometry:
    def test_unit_ramp_norm_is_one_third(self):
        f = PwlFunction(bias=0.0, knots=((0.0, 1.0),))
        assert l2_norm_sq(f) == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_shifted_ramp_norm(self):
        b = 0.35
        f = PwlFunction(bias=0.0, knots=((b, 1.0),))
        assert l2_norm_sq(f) == pytest.approx((1.0 - b) ** 3 / 3.0, rel=1e-14)

    def test_centered_line_norm(self):
        # f(x) = x - 1/2 on [0, 1]: integral of f^2 is 1/12.
        f = PwlFunction(bias=-0.5, knots=((0.0, 1.0),))
        assert l2_norm_sq(f) == pytest.approx(1.0 / 12.0, rel=1e-14)

    def test_distance_matches_quadrature(self):
        f = PwlFunction(bias=0.1, knots=((0.2, 1.5), (0.6, -2.0)))
        g = PwlFunction(bias=-0.3, knots=((0.5, 0.7),))
        exact = l2_distance_sq(f, g, UNIFORM_UNIT)
        approx = _quad_oracle(lambda x: f(x) - g(x), 0.0, 1.0)
        assert exact == pytest.approx(approx, rel=1e-9)

    def test_distance_uniform_sym_density(self):
        f = PwlFunction(bias=1.0, knots=(), domain_lo=-1.0, domain_hi=1.0)
        g = PwlFunction(bias=0.0, knots=(), domain_lo=-1.0, domain_hi=1.0)
        # E over U([-1,1]) of 1^2 = 1 (density 1/2 times length-2 integral).
        assert l2_distance_sq(f, g, L2Measure(-1.0, 1.0)) == pytest.approx(1.0)

    def test_distance_zero_iff_equal(self):
        f = PwlFunction(bias=0.25, knots=((0.3, 1.0),))
        assert l2_distance_sq(f, f, UNIFORM_UNIT) == 0.0

    def test_domain_mismatch_rejected(self):
        f = PwlFunction(bias=0.0, knots=((0.3, 1.0),))
        g = PwlFunction(bias=0.0, knots=(), domain_lo=-1.0, domain_hi=1.0)
        with pytest.raises(ConfigError):
            l2_distance_sq(f, g, UNIFORM_UNIT)

    def test_measure_is_its_interval(self):
        assert (UNIFORM_UNIT.lo, UNIFORM_UNIT.hi) == (0.0, 1.0)
        f = PwlFunction(bias=1.0, knots=(), domain_lo=0.0, domain_hi=4.0)
        g = PwlFunction(bias=0.0, knots=(), domain_lo=0.0, domain_hi=4.0)
        assert l2_distance_sq(f, g, L2Measure(0.0, 4.0)) == 1.0

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=0.99),
                st.floats(min_value=-2.0, max_value=2.0).filter(lambda v: abs(v) > 1e-6),
            ),
            max_size=5,
        ),
        st.floats(min_value=-1.0, max_value=1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_norm_matches_quadrature(self, raw, bias):
        f = canonicalize(raw, bias)
        exact = l2_norm_sq(f)
        approx = _quad_oracle(f, 0.0, 1.0, n=20_001)
        assert exact == pytest.approx(approx, rel=1e-6, abs=1e-9)


class TestVariationalComplexity:
    def test_sum_of_absolute_slope_changes(self):
        g = PwlFunction(bias=0.7, knots=((0.0, 2.0), (0.5, -4.0)))
        assert variational_complexity(g) == pytest.approx(6.0)

    def test_constant_has_zero(self):
        assert variational_complexity(PwlFunction(bias=3.0)) == 0.0

    def test_canonicalization_never_increases(self):
        raw = [(0.2, 1.0), (0.2, -0.5), (0.8, 2.0)]
        f = canonicalize(raw, 0.0)
        assert variational_complexity(f) <= sum(abs(v) for _, v in raw) + 1e-15


class TestPeriodize:
    def test_tent_two_periods_values(self):
        tent = PwlFunction(bias=0.0, knots=((0.0, 2.0), (0.5, -4.0)))
        tiled = periodize(tent, 2)
        assert tiled.domain_hi == 2.0
        xs = np.linspace(0.0, 2.0, 101)
        expected = tent(np.mod(xs, 1.0))  # x=2 wraps to 0; tent(0)=tent(1)
        np.testing.assert_allclose(tiled(xs), expected, atol=1e-12)

    def test_seam_knot_restores_start_slope(self):
        tent = PwlFunction(bias=0.0, knots=((0.0, 2.0), (0.5, -4.0)))
        tiled = periodize(tent, 3)
        # End slope of each period is -2; restart needs jump +4 at seams.
        seams = {t: v for t, v in tiled.knots if t in (1.0, 2.0)}
        assert seams == {1.0: 4.0, 2.0: 4.0}

    def test_discontinuous_profile_rejected(self):
        ramp = PwlFunction(bias=0.0, knots=((0.0, 1.0),))  # g(1)=1 != g(0)=0
        with pytest.raises(ConfigError):
            periodize(ramp, 2)

    def test_single_period_is_identity_on_values(self):
        tent = PwlFunction(bias=0.5, knots=((0.0, 1.0), (0.5, -2.0)))
        tiled = periodize(tent, 1)
        xs = np.linspace(0.0, 1.0, 57)
        np.testing.assert_allclose(tiled(xs), tent(xs), atol=1e-12)

    def test_invalid_period_count(self):
        tent = PwlFunction(bias=0.0, knots=((0.0, 2.0), (0.5, -4.0)))
        with pytest.raises(ConfigError):
            periodize(tent, 0)
