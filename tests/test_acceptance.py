"""Acceptance suite: twelve end-to-end criteria, one test and one printed
pass/fail line each.

Every test measures its own wall time against the stated budget and prints
``criterion NN [name]: PASS/FAIL (details)`` so a ``pytest -v -s`` run yields
a one-line verdict per criterion.
"""

import math
import time

import numpy as np

from bayescomplex.cli import _random_admissible_theta
from bayescomplex.complexity import (
    CodimQuery,
    chi_from_q,
    codim_estimate,
    exponential_complexity_mc,
    limiting_complexity,
    limiting_complexity_closed_form,
    log_q_closed_form,
    one_change_bounds,
    sharp_complexity_mc,
    sharp_with_noise,
)
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
    build_periodic_deep_net,
    interior_knot_count,
    shallow_to_pwl,
)
from bayescomplex.posterior import (
    LossSpec,
    SgldConfig,
    batch_means_se,
    conjugate_empirical_loss,
    conjugate_posterior_linear,
    conjugate_true_loss,
    find_sigma_alg,
    generate_dataset,
    run_sgld,
    theorem_bound,
)
from bayescomplex.projection import (
    project_to_target,
    project_to_zero,
    project_to_zero_with_bias,
)
from bayescomplex.pwl import UNIFORM_SYM, PwlFunction, canonical_equal, l2_norm_sq
from bayescomplex.rng import SeededRng
from paper_checks import l2_slope_lower_bound, megaineq_gap, prefix_sum_bound

EPS_GRID_LOG = (1e-1, 10**-1.5, 1e-2, 10**-2.5, 1e-3)


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})")


def _within_budget(t0: float, budget_s: float) -> tuple[float, bool]:
    elapsed = time.perf_counter() - t0
    return elapsed, elapsed < budget_s


def test_criterion_01_linear_limiting_slope_equals_dimension():
    """Closed-form slope of ln q against ln eps recovers d within 10%."""
    t0 = time.perf_counter()
    results = []
    for d in (2, 3, 5):
        fit = limiting_complexity_closed_form(1.0, 1.0, d, EPS_GRID_LOG)
        results.append((d, fit.slope, abs(fit.slope - d) <= 0.10 * d))
    elapsed, in_time = _within_budget(t0, 1.0)
    ok = all(r[2] for r in results) and in_time
    detail = ", ".join(f"d={d}: {s:.4f}" for d, s, _ in results)
    _report(1, "linear limiting slope = d", ok, f"{detail}; {elapsed:.2f}s")
    assert ok, detail


def test_criterion_02_q_scaling_and_monotonicity():
    """Scaling identity to 1e-9 relative and all three monotonicities on a
    125-point grid."""
    t0 = time.perf_counter()
    d = 3
    kappas = np.linspace(0.5, 1.5, 5)
    sigmas = np.linspace(1.0, 2.4, 5)  # above the sigma_w peak for kappa <= 1.5
    epss = np.linspace(0.05, 0.3, 5)
    worst_rel = 0.0
    grid = np.empty((5, 5, 5))
    for i, kappa in enumerate(kappas):
        for j, sw in enumerate(sigmas):
            for m, eps in enumerate(epss):
                val = math.exp(log_q_closed_form(kappa, sw, eps, d))
                scaled = math.exp(log_q_closed_form(kappa / sw, 1.0, eps / sw, d))
                worst_rel = max(worst_rel, abs(val - scaled) / val)
                grid[i, j, m] = val
    mono_eps = bool(np.all(np.diff(grid, axis=2) > 0))
    mono_kappa = bool(np.all(np.diff(grid, axis=0) < 0))
    mono_sigma = bool(np.all(np.diff(grid, axis=1) < 0))
    elapsed, in_time = _within_budget(t0, 5.0)
    ok = worst_rel <= 1e-9 and mono_eps and mono_kappa and mono_sigma and in_time
    detail = (
        f"scaling rel {worst_rel:.2e}, mono eps/kappa/sigma "
        f"{mono_eps}/{mono_kappa}/{mono_sigma}; {elapsed:.2f}s"
    )
    _report(2, "q-function properties", ok, detail)
    assert ok, detail


def test_criterion_03_mc_matches_closed_form():
    """sharp_complexity_mc with 1e7 draws lands within 3 SE of -ln q."""
    t0 = time.perf_counter()
    family = LinearFamily(BasisSpec(d=3), LinearPriorSpec(1.0))
    target = LinearTarget((1.0, 0.0, 0.0))
    est = sharp_complexity_mc(family, target, 0.09, 10_000_000, SeededRng(42))
    exact = chi_from_q(1.0, 1.0, 0.09, 3).chi
    gap = abs(est.chi - exact)
    elapsed, in_time = _within_budget(t0, 60.0)
    ok = gap <= 3.0 * est.std_err and in_time
    detail = f"mc {est.chi:.5f} vs exact {exact:.5f}, 3se {3*est.std_err:.5f}; {elapsed:.1f}s"
    _report(3, "MC vs closed form", ok, detail)
    assert ok, detail


def test_criterion_04_nn_limiting_slope_sandwich():
    """Importance-sampled slope for a one-knot target with k = 1 lies in
    [(2c+1)/5 - CI, (2c+1) + CI]; the point estimate is reported."""
    t0 = time.perf_counter()
    g = PwlFunction(0.0, ((0.35, 1.0),))
    family = ShallowNetFamily(1, NnPriorSpec.default_for(1))
    fit = limiting_complexity(
        family, g, (0.2, 0.14, 0.1, 0.07, 0.05), 400_000, SeededRng(42)
    )
    lower, upper = 3.0 / 5.0, 3.0
    ok_band = lower - fit.ci_halfwidth <= fit.slope <= upper + fit.ci_halfwidth
    elapsed, in_time = _within_budget(t0, 600.0)
    ok = ok_band and in_time
    detail = (
        f"point estimate {fit.slope:.4f} +- {fit.ci_halfwidth:.4f}, "
        f"band [{lower:.2f}, {upper:.2f}]; {elapsed:.1f}s"
    )
    _report(4, "NN limiting-slope sandwich", ok, detail)
    assert ok, detail


def test_criterion_05_codimension_counts_constraints():
    """Distance-oracle volume regression: c = 1 -> 3 +- 0.5 and
    c = 2 -> 5 +- 0.7."""
    t0 = time.perf_counter()
    g1 = PwlFunction(0.0, ((0.35, 1.0),))
    fit1 = codim_estimate(
        CodimQuery(g=g1, k=1), NnPriorSpec.default_for(1), 1_000_000, SeededRng(42)
    )
    g2 = PwlFunction(0.0, ((0.3, 1.0), (0.7, -0.8)))
    fit2 = codim_estimate(
        CodimQuery(g=g2, k=2, eps_grid=(0.5, 0.4, 0.3, 0.22, 0.15), radius=4.0),
        NnPriorSpec.default_for(2),
        2_000_000,
        SeededRng(42),
    )
    ok1 = abs(fit1.slope - 3.0) <= 0.5
    ok2 = abs(fit2.slope - 5.0) <= 0.7
    elapsed, in_time = _within_budget(t0, 600.0)
    ok = ok1 and ok2 and in_time
    detail = f"c=1: {fit1.slope:.3f}, c=2: {fit2.slope:.3f}; {elapsed:.0f}s"
    _report(5, "codimension = 2c+1", ok, detail)
    assert ok, detail


def test_criterion_06_projection_exactness_bound_and_slopes():
    """200 randomized admissible parameters project to an exact zero with
    movement^2 <= 96 k^{13/5} ||f||^{4/5}; the biased and targeted variants
    decay with slope >= 2/5 - 0.05."""
    t0 = time.perf_counter()
    gen = np.random.default_rng(42)
    exact_all, bound_all = True, True
    for _ in range(200):
        k = int(gen.integers(1, 7))
        theta = _random_admissible_theta(k, float(gen.uniform(0.1, 0.9)), gen)
        norm_sq = l2_norm_sq(shallow_to_pwl(theta))
        res = project_to_zero(theta)
        f_star = shallow_to_pwl(res.theta_star)
        exact_all &= f_star.knots == () and f_star.bias == 0.0
        bound_all &= res.movement_sq <= 96.0 * k ** 2.6 * norm_sq ** 0.4
    # Biased-output slope: scaled copies of one configuration.
    u0 = gen.standard_normal(3)
    b0 = gen.uniform(0.0, 1.0, size=3)
    base = ShallowNetParams((1.0,) * 3, tuple(u0), tuple(b0), 0.3)
    base_norm = l2_norm_sq(shallow_to_pwl(base))
    xs, ys = [], []
    for target_norm_sq in (1e-5, 1e-6, 1e-7, 1e-8, 1e-9):
        s = math.sqrt(target_norm_sq / base_norm)
        theta = ShallowNetParams(
            (1.0,) * 3, tuple(u0 * s), tuple(b0), 0.3 * s
        )
        res = project_to_zero_with_bias(theta, R=1.0, guard_scale=1.0)
        xs.append(math.log(l2_norm_sq(shallow_to_pwl(theta))))
        ys.append(math.log(res.movement_sq))
    slope_bias = float(np.polyfit(xs, ys, 1)[0])
    # Target-projection slope: perturbations of an exact representation.
    g = PwlFunction(0.25, ((0.4, 0.8),))
    noise = gen.standard_normal(4)
    xs, ys = [], []
    for delta in (1e-3, 3e-4, 1e-4, 3e-5, 1e-5):
        theta = ShallowNetParams(
            (1.0, 1.0),
            (0.8 + delta * noise[0], delta * noise[1]),
            (0.4 + delta * noise[2], 0.9),
            0.25 + delta * noise[3],
        )
        res = project_to_target(theta, g, R=2.0, guard_scale=1.0)
        diff = ShallowNetParams(
            theta.w1 + (1.0,),
            theta.w2 + (-0.8,),
            theta.b1 + (0.4,),
            theta.b2 - 0.25,
        )
        xs.append(math.log(l2_norm_sq(shallow_to_pwl(diff))))
        ys.append(math.log(res.movement_sq))
        assert canonical_equal(shallow_to_pwl(res.theta_star), g, tol=1e-12)
    slope_target = float(np.polyfit(xs, ys, 1)[0])
    elapsed, in_time = _within_budget(t0, 30.0)
    ok = (
        exact_all and bound_all
        and slope_bias >= 0.4 - 0.05
        and slope_target >= 0.4 - 0.05
        and in_time
    )
    detail = (
        f"exact {exact_all}, bound {bound_all}, slopes bias {slope_bias:.3f} / "
        f"target {slope_target:.3f}; {elapsed:.1f}s"
    )
    _report(6, "projection exactness + movement bound", ok, detail)
    assert ok, detail


def test_criterion_07_inequality_lemmas():
    """Prefix-sum (1/8), L2 lower bound (1/12), and the exchange inequality:
    1e3 random instances each with violations <= 1e-12."""
    t0 = time.perf_counter()
    gen = np.random.default_rng(42)
    worst_prefix = math.inf
    for _ in range(1000):
        x = gen.standard_normal(int(gen.integers(1, 12))) * 10 ** gen.uniform(-2, 2)
        lhs, rhs = prefix_sum_bound(x)
        scale = max(1.0, abs(lhs), abs(rhs))
        worst_prefix = min(worst_prefix, (lhs - rhs) / scale)
    worst_l2 = math.inf
    for _ in range(1000):
        k = int(gen.integers(1, 8))
        u = gen.standard_normal(k) * 10 ** gen.uniform(-2, 1)
        b = gen.uniform(0.0, 1.0, size=k)
        lhs, rhs = l2_slope_lower_bound(u, b)
        scale = max(1.0, abs(lhs), abs(rhs))
        worst_l2 = min(worst_l2, (lhs - rhs) / scale)
    worst_mega = math.inf
    for _ in range(1000):
        nx, ny = int(gen.integers(2, 6)), int(gen.integers(2, 6))
        px = gen.dirichlet(np.ones(nx))
        py = gen.dirichlet(np.ones(ny))
        f = gen.uniform(0.0, 4.0, size=(nx, ny))
        worst_mega = min(worst_mega, megaineq_gap(px, py, f))
    elapsed, in_time = _within_budget(t0, 5.0)
    ok = (
        worst_prefix >= -1e-12 and worst_l2 >= -1e-12 and worst_mega >= -1e-12
        and in_time
    )
    detail = (
        f"worst prefix {worst_prefix:.2e}, l2 {worst_l2:.2e}, "
        f"exchange {worst_mega:.2e}; {elapsed:.1f}s"
    )
    _report(7, "inequality lemmas", ok, detail)
    assert ok, detail


def test_criterion_08_complexity_chain():
    """Noise identity exact on shared draws; true-vs-sharp inequality on 10
    random configurations; noisy-sharp dual path within 3 joint SE."""
    t0 = time.perf_counter()
    family = LinearFamily(BasisSpec(d=3), LinearPriorSpec(1.0))
    target = LinearTarget((1.0, 0.0, 0.0))
    plain = exponential_complexity_mc(family, target, 0.2, 100_000, SeededRng(9))
    noisy = exponential_complexity_mc(
        family, target, 0.2, 100_000, SeededRng(9), sigma_e_sq=0.03
    )
    identity_gap = abs((noisy.chi - plain.chi) - 0.03 / (2.0 * 0.2))
    identity_ok = identity_gap <= 1e-12

    gen = np.random.default_rng(42)
    chain_ok = True
    for trial in range(10):
        d = int(gen.integers(2, 4))
        kappa = float(gen.uniform(0.0, 1.0))
        sigma_y_sq = float(gen.uniform(0.05, 0.5))
        sigma_e_sq = float(gen.uniform(0.0, 0.02))
        eps_sq = float(gen.uniform(0.35, 0.65)) ** 2
        fam = LinearFamily(BasisSpec(d=d), LinearPriorSpec(1.0))
        w = np.zeros(d)
        w[0] = kappa
        tgt = LinearTarget(tuple(w))
        seed = SeededRng(2000 + trial)
        chi_n = exponential_complexity_mc(
            fam, tgt, sigma_y_sq, 100_000, seed, sigma_e_sq=sigma_e_sq
        )
        sharp = sharp_with_noise(
            lambda e2: sharp_complexity_mc(fam, tgt, e2, 100_000, seed),
            sigma_e_sq,
            eps_sq,
        )
        joint = math.hypot(chi_n.std_err, sharp.std_err)
        bound = sharp.chi + eps_sq / (2.0 * sigma_y_sq)
        chain_ok &= (not sharp.infinite) and chi_n.chi <= bound + 3.0 * joint

    mc_path = sharp_with_noise(
        lambda e2: sharp_complexity_mc(family, target, e2, 300_000, SeededRng(5)),
        0.02,
        0.11,
    )
    exact_path = sharp_with_noise(
        lambda e2: chi_from_q(1.0, 1.0, e2, 3), 0.02, 0.11
    )
    dual_gap = abs(mc_path.chi - exact_path.chi)
    dual_ok = dual_gap <= 3.0 * math.hypot(mc_path.std_err, exact_path.std_err)

    elapsed, in_time = _within_budget(t0, 300.0)
    ok = identity_ok and chain_ok and dual_ok and in_time
    detail = (
        f"identity gap {identity_gap:.1e}, chain 10/10 {chain_ok}, "
        f"dual gap {dual_gap:.4f}; {elapsed:.1f}s"
    )
    _report(8, "complexity chain", ok, detail)
    assert ok, detail


def test_criterion_09_one_change_bounds():
    """Estimated complexity of the one-slope-change target with k = 8 lies
    between the closed-form bounds within 3 SE."""
    t0 = time.perf_counter()
    prior = NnPriorSpec(sigma_w_sq=0.125, M=8.0, sigma_b_sq=1.0)
    res = one_change_bounds(
        0.6, 0.6, 0.5, 8, prior, 0.1, n=200_000, rng=SeededRng(42)
    )
    est = res.chi_hat
    within = (
        res.lower - 3.0 * est.std_err <= est.chi <= res.upper + 3.0 * est.std_err
    )
    elapsed, in_time = _within_budget(t0, 600.0)
    ok = res.assumptions_ok and not est.zero_hits and within and in_time
    detail = (
        f"chi {est.chi:.3f} in [{res.lower:.3f}, {res.upper:.3f}] "
        f"within 3se {3*est.std_err:.3f}; {elapsed:.1f}s"
    )
    _report(9, "one-change bounds", ok, detail)
    assert ok, detail


def test_criterion_10_sgld_correctness():
    """Conjugate-case SGLD moments within 3 SE (variance within 10%) and MAP
    recovery at zero injected noise to 1e-6."""
    t0 = time.perf_counter()
    rng = SeededRng(42)
    basis = BasisSpec(d=1)
    prior = LinearPriorSpec(1.0)
    family = LinearFamily(basis, prior)
    g = LinearFunction((0.8,), basis)
    S = generate_dataset(g, 20, 0.04, UNIFORM_SYM, rng.stream(0))
    post = conjugate_posterior_linear(S, prior, basis, 0.04)
    cfg = SgldConfig(eta=3e-4, steps=205_000, burn_in=5_000, thin=20,
                     sigma_y_sq=0.04)
    draws = run_sgld(S, family, cfg, rng.stream(1))
    chain = draws[:, 0]
    se = batch_means_se(chain)
    mean_gap = abs(chain.mean() - float(post.mean[0]))
    var_ratio = chain.var() / float(post.covariance[0, 0])
    map_cfg = SgldConfig(eta=0.05, steps=4_000, burn_in=3_999, thin=1,
                         sigma_y_sq=0.04)
    theta = run_sgld(S, family, map_cfg, rng.stream(2), inject_noise=False)[-1]
    map_err = abs(float(theta[0]) - float(post.mean[0]))
    elapsed, in_time = _within_budget(t0, 120.0)
    ok = (
        mean_gap <= 3.0 * se and abs(var_ratio - 1.0) <= 0.10
        and map_err <= 1e-6 and in_time
    )
    detail = (
        f"mean gap {mean_gap:.5f} (3se {3*se:.5f}), var ratio {var_ratio:.3f}, "
        f"MAP err {map_err:.1e}; {elapsed:.1f}s"
    )
    _report(10, "SGLD correctness", ok, detail)
    assert ok, detail


def test_criterion_11_pac_bayes_validity():
    """50-trial conjugate experiment (d = 3, N = 200, noise 0.01, C = 4,
    beta = 1): mean true loss under the calibrated posterior stays below the
    closed-form bound, and the temperature search hits its target."""
    t0 = time.perf_counter()
    rng = SeededRng(42)
    d, N, sigma_e_sq, C, beta = 3, 200, 0.01, 4.0, 1.0
    basis = BasisSpec(d=d)
    prior = LinearPriorSpec(1.0)
    family = LinearFamily(basis, prior)
    w = family.sample_matrix(1, rng.stream(0).generator())[0]
    target = LinearTarget(w=tuple(w))
    g = LinearFunction(tuple(w), basis)
    spec = LossSpec(clip_C=C)

    def make_dataset(r):
        return generate_dataset(g, N, sigma_e_sq, UNIFORM_SYM, r)

    sigma_alg_sq, achieved = find_sigma_alg(
        beta, sigma_e_sq, make_dataset, family, 1e-3, rng.stream(1),
        loss_spec=spec, n_replicas=32,
    )
    check_rng = SeededRng(42).stream(1)
    replicas = [make_dataset(check_rng.stream(i)) for i in range(32)]
    search_ls = float(np.mean([
        conjugate_empirical_loss(
            S, conjugate_posterior_linear(S, prior, basis, sigma_alg_sq),
            basis, spec)
        for S in replicas
    ]))
    assert search_ls == achieved
    search_ok = abs(search_ls - 2.0 * sigma_e_sq) <= 1e-3

    chi_sharp = chi_from_q(target.kappa, 1.0, beta * sigma_e_sq, d).chi
    bound = theorem_bound(sigma_e_sq, beta, chi_sharp, N, C)
    lds = []
    for trial in range(50):
        S = generate_dataset(g, N, sigma_e_sq, UNIFORM_SYM, rng.stream(200 + trial))
        post = conjugate_posterior_linear(S, prior, basis, sigma_alg_sq)
        lds.append(conjugate_true_loss(post, target, basis, sigma_e_sq,
                                       UNIFORM_SYM, spec))
    lds = np.array(lds)
    se_ld = float(lds.std() / math.sqrt(lds.size))
    bound_ok = lds.mean() <= bound + 3.0 * se_ld
    elapsed, in_time = _within_budget(t0, 600.0)
    ok = search_ok and bound_ok and in_time
    detail = (
        f"mean L_D {lds.mean():.5f} <= bound {bound:.5f}, "
        f"|L_S - 2 sigma_e^2| = {abs(search_ls - 0.02):.2e}; {elapsed:.1f}s"
    )
    _report(11, "PAC-Bayes validity", ok, detail)
    assert ok, detail


def test_criterion_12_periodic_separation():
    """Deep tiling of the tent reproduces periodize to 1e-9 with at most
    4l + 2m + 6 = 40 constrained parameters, strictly below the shallow 49."""
    t0 = time.perf_counter()
    from bayescomplex.pwl import periodize

    tent = PwlFunction(0.0, ((0.0, 2.0), (0.5, -4.0)))
    l = 8
    net, deep_count = build_periodic_deep_net(tent, l)
    tiled = periodize(tent, l)
    xs = np.linspace(0.0, float(l), 10_000)
    sup_err = float(np.max(np.abs(net.forward(xs) - tiled(xs))))
    m = interior_knot_count(tent)
    deep_bound = 4 * l + 2 * m + 6
    shallow_count = 2 * (l * (m + 2)) + 1
    elapsed, in_time = _within_budget(t0, 1.0)
    ok = (
        sup_err < 1e-9 and deep_count <= deep_bound < shallow_count and in_time
    )
    detail = (
        f"sup err {sup_err:.2e}, counts {deep_count} <= {deep_bound} < "
        f"{shallow_count}; {elapsed:.2f}s"
    )
    _report(12, "periodic separation", ok, detail)
    assert ok, detail
