"""Constructive projections onto exact representations: exactness, movement
bounds, phase accounting, and the scalar inequalities behind them."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bayescomplex.cli import _random_admissible_theta
from bayescomplex.errors import ConfigError, SmallnessError
from bayescomplex.models import ShallowNetParams, min_norm_realization, shallow_to_pwl
from bayescomplex.projection import (
    _zero_project_core,
    movement_between,
    project_to_target,
    project_to_zero,
    project_to_zero_with_bias,
)
from bayescomplex.pwl import PwlFunction, canonical_equal, l2_norm_sq
from paper_checks import l2_slope_lower_bound, params_from_flat, prefix_sum_bound

ZERO_FN = PwlFunction(bias=0.0)


def _net(u, b, b2=0.0):
    """Build params with w1 = 1 so the effective weights are exactly u."""
    ones = (1.0,) * len(u)
    return ShallowNetParams(ones, tuple(float(x) for x in u), tuple(float(x) for x in b), b2)


class TestScalarInequalities:
    def test_prefix_sums_dominate_eighth(self):
        gen = np.random.default_rng(42)
        for _ in range(1000):
            x = gen.normal(0.0, gen.uniform(0.1, 10.0), size=int(gen.integers(1, 20)))
            lhs, rhs = prefix_sum_bound(x)
            assert lhs >= rhs - 1e-12 * max(1.0, abs(lhs)), f"x={x}"

    @given(st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=30))
    @settings(max_examples=300, deadline=None)
    def test_prefix_sum_property(self, xs):
        lhs, rhs = prefix_sum_bound(xs)
        assert lhs >= rhs - 1e-9 * max(1.0, rhs)

    def test_prefix_sum_single_element(self):
        lhs, rhs = prefix_sum_bound([3.0])
        assert lhs == 9.0 and rhs == 9.0 / 8.0

    def test_l2_lower_bound_random(self):
        gen = np.random.default_rng(42)
        for _ in range(1000):
            k = int(gen.integers(1, 8))
            u = gen.normal(0.0, 2.0, size=k)
            b = gen.uniform(0.0, 1.0, size=k)
            lhs, rhs = l2_slope_lower_bound(u, b)
            assert lhs >= rhs - 1e-12 * max(1.0, abs(lhs)), f"u={u} b={b}"

    def test_l2_lower_bound_single_ramp(self):
        lhs, rhs = l2_slope_lower_bound([1.0], [0.0])
        assert lhs == pytest.approx(1.0 / 3.0)
        assert rhs == pytest.approx(1.0 / 12.0)

    def test_l2_lower_bound_bias_domain(self):
        with pytest.raises(ConfigError):
            l2_slope_lower_bound([1.0], [1.0])
        with pytest.raises(ConfigError):
            l2_slope_lower_bound([1.0], [-0.1])


class TestMovementBetween:
    def test_effective_weight_coordinates(self):
        a = ShallowNetParams((2.0,), (0.5,), (0.3,), 0.1)  # u = 1.0
        b = ShallowNetParams((1.0,), (1.5,), (0.4,), 0.0)  # u = 1.5
        want = 0.5**2 + 0.1**2 + 0.1**2
        assert movement_between(a, b) == pytest.approx(want, rel=1e-12)


class TestProjectToZero:
    def test_zero_input_is_fixed_point(self):
        theta = _net([0.0, 0.0], [0.3, 1.5])
        res = project_to_zero(theta)
        assert res.movement_sq == 0.0
        assert res.theta_star.b1 == theta.b1

    def test_single_small_node(self):
        delta = 1e-3
        theta = _net([delta], [0.0])
        res = project_to_zero(theta)
        f_star = shallow_to_pwl(res.theta_star)
        assert f_star.knots == () and f_star.bias == 0.0
        assert res.movement_sq == pytest.approx(delta**2)
        assert res.bound == pytest.approx(96.0 * (delta**2 / 3.0) ** 0.4)
        assert res.movement_sq <= res.bound

    def test_two_node_collapse(self):
        w, gap = 0.02, 0.005  # gap < |W| triggers a phase-1 collapse
        theta = _net([w, -w], [0.4, 0.4 + gap])
        res = project_to_zero(theta)
        f_star = shallow_to_pwl(res.theta_star)
        assert f_star.knots == () and f_star.bias == 0.0
        assert res.movement_sq == pytest.approx(gap**2)
        assert res.phases.bias_moves == ((0, 0.4, 0.4 + gap),)
        assert res.phases.weight_changes == ()

    def test_requires_zero_output_bias(self):
        with pytest.raises(ConfigError):
            project_to_zero(_net([1e-3], [0.5], b2=0.1))

    def test_requires_nonnegative_biases(self):
        with pytest.raises(ConfigError):
            project_to_zero(_net([1e-3], [-0.2]))

    def test_smallness_guard(self):
        theta = _net([1.0], [0.0])  # ||f||^2 = 1/3 >> 1/(12*2^5)
        with pytest.raises(SmallnessError) as exc:
            project_to_zero(theta)
        assert str(exc.value).endswith(
            f"squared norm {1.0 / 3.0:.6g} exceeds smallness threshold "
            f"{1.0 / (12.0 * 2**5):.6g}"
        )

    def test_randomized_exactness_bound_and_accounting(self):
        """200 admissible inputs: the result represents zero bit-exactly, the
        movement bound holds, and the phase trace reconstructs theta_star."""
        gen = np.random.default_rng(42)
        for trial in range(200):
            k = int(gen.integers(1, 7))
            theta = _random_admissible_theta(k, float(gen.uniform(0.1, 0.9)), gen)
            res = project_to_zero(theta)
            f_star = shallow_to_pwl(res.theta_star)
            assert f_star.knots == () and f_star.bias == 0.0, f"trial {trial}"
            assert res.movement_sq <= res.bound, f"trial {trial}"
            assert movement_between(theta, res.theta_star) == res.movement_sq
            # Replay the recorded phases onto the inputs.
            u = np.asarray(theta.w1) * np.asarray(theta.w2)
            b = np.asarray(theta.b1, dtype=float)
            for i, old, new in res.phases.bias_moves:
                assert b[i] == old
                b[i] = new
            for i, old, new in res.phases.weight_changes:
                assert u[i] == old
                u[i] = new
            assert np.array_equal(u, res.theta_star.effective_weights())
            assert np.array_equal(b, np.asarray(res.theta_star.b1))


class TestProjectToZeroWithBias:
    def test_zero_bias_delegates(self):
        gen = np.random.default_rng(42)
        theta = _random_admissible_theta(3, 0.2, gen)
        base = project_to_zero(theta)
        res = project_to_zero_with_bias(theta, R=1.0, guard_scale=1.0)
        assert res.theta_star == base.theta_star
        assert res.movement_sq == base.movement_sq

    def test_case_one_small_output_bias(self):
        theta = _net([1e-3, -5e-4], [0.2, 0.6], b2=1e-4)
        res = project_to_zero_with_bias(theta, R=1.0)
        assert res.theta_star.b2 == 0.0  # case 1 zeroes b2
        f_star = shallow_to_pwl(res.theta_star)
        assert canonical_equal(f_star, ZERO_FN)
        norm = math.sqrt(l2_norm_sq(shallow_to_pwl(theta)))
        inner = _net(theta.w1, theta.b1)
        inner = ShallowNetParams(theta.w1, theta.w2, theta.b1, 0.0)
        zero_bound = project_to_zero(inner).bound
        assert res.movement_sq <= 4.0 * norm + zero_bound

    def test_case_two_large_output_bias(self):
        # f starts at b2 = 0.2, plunges through a steep early cluster, then
        # stays at 0.01: the projection must shift the cluster and retarget.
        theta = _net([-1900.0, 1900.0], [1e-4, 2e-4], b2=0.2)
        res = project_to_zero_with_bias(theta, R=1.0, guard_scale=1.0)
        f_star = shallow_to_pwl(res.theta_star)
        assert canonical_equal(f_star, ZERO_FN)
        assert res.theta_star.b2 == 0.2  # case 2 keeps b2, reshapes the net
        assert (1, 2e-4, 0.0) in res.phases.bias_moves  # and retargets a node to 0

    def test_mirror_case_negative_bias(self):
        theta = _net([1900.0, -1900.0], [1e-4, 2e-4], b2=-0.2)
        res = project_to_zero_with_bias(theta, R=1.0, guard_scale=1.0)
        # Case 2 on -f, mirrored back: b2 keeps its sign, node 1 moves to 0.
        assert res.theta_star.b2 == -0.2
        assert (1, 2e-4, 0.0) in res.phases.bias_moves
        assert canonical_equal(shallow_to_pwl(res.theta_star), ZERO_FN)

    def test_movement_slope_in_function_norm(self):
        """Scaled copies of one configuration: ln movement^2 against
        ln ||f||^2 decays with slope at least 2/5 - 0.05."""
        gen = np.random.default_rng(42)
        u0 = gen.standard_normal(3)
        b0 = gen.uniform(0.0, 1.0, size=3)
        b2_0 = 0.3
        base = ShallowNetParams((1.0,) * 3, tuple(u0), tuple(b0), b2_0)
        base_norm = l2_norm_sq(shallow_to_pwl(base))
        xs, ys = [], []
        # Keep ||f||^2 <= 1e-5: zeroing b2 inside the case-1 delegation can
        # enlarge the residual norm, which must still clear the zero guard.
        for target_norm_sq in (1e-5, 1e-6, 1e-7, 1e-8, 1e-9):
            s = math.sqrt(target_norm_sq / base_norm)
            theta = _net(u0 * s, b0, b2=b2_0 * s)
            norm_sq = l2_norm_sq(shallow_to_pwl(theta))
            res = project_to_zero_with_bias(theta, R=1.0, guard_scale=1.0)
            assert canonical_equal(shallow_to_pwl(res.theta_star), ZERO_FN)
            xs.append(math.log(norm_sq))
            ys.append(math.log(res.movement_sq))
        slope = float(np.polyfit(xs, ys, 1)[0])
        assert slope >= 0.4 - 0.05, f"slope {slope}"

    def test_guards(self):
        with pytest.raises(ConfigError):
            project_to_zero_with_bias(_net([1e-3], [0.5]), R=0.0)
        with pytest.raises(ConfigError):
            project_to_zero_with_bias(_net([1e-3], [-0.5]), R=1.0)
        with pytest.raises(SmallnessError):
            project_to_zero_with_bias(_net([1.0], [0.0]), R=1.0)


class TestProjectToTarget:
    G1 = PwlFunction(bias=0.25, knots=((0.4, 0.8),))

    def test_exact_representation_is_fixed(self):
        # Hand-built so the effective weight is the float 0.8 exactly; the
        # factored form sqrt(0.8)*sqrt(0.8) lands one ulp off.
        theta = _net([0.8, 0.0], [0.4, 0.9], b2=0.25)
        res = project_to_target(theta, self.G1, R=2.0)
        assert res.movement_sq == 0.0
        assert canonical_equal(shallow_to_pwl(res.theta_star), self.G1)

    def test_min_norm_start_moves_at_most_rounding(self):
        theta = min_norm_realization(self.G1, k=2)
        res = project_to_target(theta, self.G1, R=2.0)
        assert res.movement_sq <= 1e-30
        assert canonical_equal(shallow_to_pwl(res.theta_star), self.G1)

    def test_perturbed_recovery_and_decay_slope(self):
        gen = np.random.default_rng(42)
        na = float(gen.standard_normal())
        nc = float(gen.standard_normal())
        nd = float(gen.standard_normal())
        ne = float(gen.standard_normal())
        xs, ys = [], []
        for delta in (1e-3, 3e-4, 1e-4, 3e-5, 1e-5):
            theta = _net(
                [0.8 + delta * na, delta * nc],
                [0.4 + delta * nd, 0.9],
                b2=0.25 + delta * ne,
            )
            res = project_to_target(theta, self.G1, R=2.0, guard_scale=1.0)
            f_star = shallow_to_pwl(res.theta_star)
            assert canonical_equal(f_star, self.G1), f"delta={delta}"
            gap = l2_norm_sq(shallow_to_pwl(_net(
                [0.8 + delta * na, delta * nc, -0.8],
                [0.4 + delta * nd, 0.9, 0.4],
                b2=delta * ne,
            )))
            xs.append(math.log(gap))
            ys.append(math.log(res.movement_sq))
        slope = float(np.polyfit(xs, ys, 1)[0])
        assert slope >= 0.4 - 0.05, f"slope {slope}"

    def test_two_knot_target_via_local_optimization(self):
        """A prior-style draw optimized onto the representation set (distance
        <= 1e-6) projects to an exact representation."""
        from scipy import optimize

        g = PwlFunction(bias=0.1, knots=((0.3, 0.9), (0.7, -0.6)))
        start = min_norm_realization(g, k=3).flat()
        start += np.random.default_rng(42).normal(0.0, 1e-3, size=start.size)

        def objective(vec):
            th = params_from_flat(vec, k=3)
            if any(x < 0.0 for x in th.b1):
                return 1.0
            diff_net = ShallowNetParams(
                th.w1 + (1.0, 1.0),
                th.w2 + (-0.9, 0.6),
                th.b1 + (0.3, 0.7),
                th.b2 - 0.1,
            )
            return l2_norm_sq(shallow_to_pwl(diff_net))

        opt = optimize.minimize(objective, start, method="Nelder-Mead",
                                options={"xatol": 1e-12, "fatol": 1e-24, "maxiter": 20000})
        assert opt.fun <= 1e-10, f"optimizer stalled at {opt.fun}"
        theta = params_from_flat(opt.x, k=3)
        res = project_to_target(theta, g, R=2.0, guard_scale=1.0)
        assert canonical_equal(shallow_to_pwl(res.theta_star), g)
        assert res.movement_sq <= res.bound

    def test_budget_and_bias_validation(self):
        g2 = PwlFunction(bias=0.0, knots=((0.3, 1.0), (0.7, 1.0)))
        with pytest.raises(ConfigError):
            project_to_target(_net([1e-3], [0.5]), g2, R=1.0)
        with pytest.raises(ConfigError):
            project_to_target(_net([1e-3, 1e-3], [-0.1, 0.5]), g2, R=1.0)

    def test_pinned_nodes_record_assignment(self):
        theta = min_norm_realization(self.G1, k=2)
        res = project_to_target(theta, self.G1, R=2.0)
        assert [i for i, b in enumerate(res.theta_star.b1) if b == 0.4] == [0]


def _replayed(theta, res):
    """theta's (u, b) with res.phases applied: bias moves, then weight changes."""
    u, b = list(theta.effective_weights()), list(theta.b1)
    for i, old, new in res.phases.bias_moves:
        b[i] = new
    for i, old, new in res.phases.weight_changes:
        u[i] = new
    return u, b


class TestEdgeInputs:
    """Tied biases, biases of exactly 0 and >= 1, and zero effective weights,
    through every projection: the result represents its target exactly, its
    recorded phases replay onto the input exactly, and pinned nodes keep
    their places."""

    def _assert_exact(self, theta, res, exact=True):
        """f_star is the zero function (exactly, or to CANONICAL_TOL) and
        res.phases replays exactly."""
        f_star = shallow_to_pwl(res.theta_star)
        if exact:
            assert f_star.knots == () and f_star.bias == 0.0
        else:
            assert canonical_equal(f_star, ZERO_FN)
        u, b = _replayed(theta, res)
        assert u == list(res.theta_star.effective_weights())
        assert b == list(res.theta_star.b1)

    def test_project_to_zero(self):
        gen = np.random.default_rng(7)
        pool = (0.0, 0.0, 0.25, 0.5, 0.5, 0.5, 1.0, 1.5)
        for trial in range(300):
            k = int(gen.integers(1, 8))
            b = [pool[j] if gen.random() < 0.7 else gen.uniform() for j in gen.integers(0, 8, k)]
            u = gen.standard_normal(k)
            u[gen.random(k) < 0.25] = 0.0
            norm_sq = l2_norm_sq(shallow_to_pwl(_net(u, b)))
            if norm_sq > 0.0:
                threshold = 1.0 / (12.0 * (k + 1) ** 5)
                u = u * math.sqrt(gen.uniform(0.1, 0.9) * threshold / norm_sq)
            theta = _net(u, b)
            res = project_to_zero(theta)
            self._assert_exact(theta, res)
            assert res.movement_sq <= res.bound or norm_sq == 0.0, f"trial {trial}"

    @pytest.mark.parametrize("u,b,b2,case", [
        # Case 1: ties at 0.6, a bias of 0, a zero weight and an inactive node.
        ([1e-3, -5e-4, 0.0, 7.0, -2e-4], [0.0, 0.6, 0.6, 1.0, 0.6], 1e-4, "case-1"),
        # Case 2, pinned bias-0 node: a tied pair at 0 in the shifted cluster.
        ([-950.0, -950.0, 1900.0, 0.0, 3.0], [0.0, 0.0, 1e-4, 0.5, 1.5], 0.2, "case-2"),
        # Mirrored case 2: a tied pair at 1e-4 and a zero weight.
        ([1000.0, 900.0, -1900.0, 0.0], [1e-4, 1e-4, 2e-4, 0.3], -0.2, "mirrored"),
    ])
    def test_project_to_zero_with_bias(self, u, b, b2, case):
        theta = _net(u, b, b2)
        res = project_to_zero_with_bias(theta, R=1.0, guard_scale=1.0)
        if case == "case-1":
            assert res.theta_star.b2 == 0.0
        else:
            # Case 2 (mirrored or not) keeps b2 and moves a node's bias to 0.
            assert res.theta_star.b2 == b2
            assert any(new == 0.0 != old for _, old, new in res.phases.bias_moves)
        # Case 2 shifts a cluster to negative biases, which shallow_to_pwl
        # folds into the output bias with one rounding each.
        self._assert_exact(theta, res, exact=case == "case-1")

    def test_case_two_retargets_the_whole_tie_right_of_x1(self):
        """Two nodes tied at the first bias right of x1 both move to 0, so
        the net projects as the two-node net that merges them does; moving
        only one of them left a delegate of squared norm 0.0324."""
        tied = _net([-1900.0, 1000.0, 900.0], [1e-4, 2e-4, 2e-4], 0.2)
        merged = _net([-1900.0, 1900.0], [1e-4, 2e-4], 0.2)
        res = project_to_zero_with_bias(tied, R=1.0, guard_scale=1.0)
        ref = project_to_zero_with_bias(merged, R=1.0, guard_scale=1.0)
        self._assert_exact(tied, res, exact=False)
        assert {(1, 2e-4, 0.0), (2, 2e-4, 0.0)} <= set(res.phases.bias_moves)
        star, ref_star = res.theta_star, ref.theta_star
        assert star.b1 == ref_star.b1 + ref_star.b1[1:]
        assert star.w2 == tied.w2 and star.b2 == ref_star.b2
        # The second tied node adds its own move, 2e-4 -> 0, to the movement.
        assert math.isclose(res.movement_sq, ref.movement_sq + 2e-4**2, rel_tol=1e-12)
        assert math.isclose(ref.movement_sq, 8.2133e-8, rel_tol=1e-4)

    @pytest.mark.parametrize("u,b,b2", [
        ([0.5, 0.5, 0.3 + 1e-6, 0.0, 2.0], [0.0, 0.4, 0.4, 0.7, 1.2], 0.25),
        ([0.5 + 1e-6, 0.8 - 1e-6, 0.0, 1e-6, 2.0], [0.0, 0.4 + 1e-6, 0.4, 0.4 + 2e-6, 1.0],
         0.25 + 1e-7),
    ])
    def test_project_to_target_with_frozen_knots(self, u, b, b2):
        g = PwlFunction(bias=0.25, knots=((0.0, 0.5), (0.4, 0.8)))
        theta = _net(u, b, b2)
        res = project_to_target(theta, g, R=2.0, guard_scale=1.0)
        f_star = shallow_to_pwl(res.theta_star)
        assert (f_star.knots, f_star.bias) == (g.knots, g.bias)
        # The knot at 0 is the frozen node the first cluster collapses onto.
        assert [i for i, x in enumerate(res.theta_star.b1) if x == 0.0] == [0]
        u_r, b_r = _replayed(theta, res)
        assert u_r == list(res.theta_star.effective_weights())
        assert b_r == list(res.theta_star.b1)

    def test_core_leaves_pinned_nodes_in_place(self):
        """The designated bias-0 node keeps its bias and frozen nodes keep
        both coordinates, also when a frozen node follows the one chosen to
        cancel its group."""
        u = np.array([2e-4, -1e-4, -1e-4, 3e-4, 0.0, -3e-4, 5e-5])
        b = np.array([0.0, 0.0, 0.3, 0.3, 0.5, 1.2, 0.3])
        frozen = frozenset({3, 5})
        u_new, b_new, moves, changes, _ = _zero_project_core(
            u, b, pin_zero=0, frozen=frozen, context="test")
        assert b_new[0] == 0.0
        for i in frozen:
            assert (u_new[i], b_new[i]) == (u[i], b[i])
        assert all(i not in frozen for i, _, _ in [*moves, *changes])
        f_star = shallow_to_pwl(_net(list(u_new), list(b_new)))
        assert f_star.knots == () and f_star.bias == 0.0
