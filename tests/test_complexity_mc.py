"""Monte Carlo complexity estimators: naive/importance-sampling agreement,
the exponential/empirical complexity chain, and codimension regression."""

import math
import sys
import threading

import numpy as np
import pytest
from scipy.stats import ks_2samp

from bayescomplex import complexity
from bayescomplex.complexity import (
    CodimQuery,
    _dist_batch,
    _map_batches,
    _run_streams,
    chi_from_q,
    codim_estimate,
    empirical_complexity_mc,
    exponential_complexity_mc,
    fit_limiting_slope,
    hyperbola_distance,
    limiting_complexity,
    limiting_complexity_closed_form,
    sharp_complexity_is,
    sharp_complexity_mc,
    sharp_with_noise,
)
from bayescomplex.errors import ConfigError, InsufficientSamplesError
from bayescomplex.families import (
    LinearFamily,
    LinearPriorSpec,
    LinearTarget,
    NnPriorSpec,
    ShallowNetFamily,
)
from bayescomplex.models import BasisSpec, LinearFunction
from bayescomplex.pwl import PwlFunction
from bayescomplex.rng import SeededRng, partition_counts


def _linear(d, sigma_w_sq=1.0):
    return LinearFamily(BasisSpec(d), LinearPriorSpec(sigma_w_sq))


def _joint_se(a, b):
    return math.hypot(a.std_err, b.std_err)


class TestSharpAgainstClosedForm:
    def test_naive_mc_matches_q(self):
        family = _linear(3)
        target = LinearTarget((1.0, 0.0, 0.0))
        exact = chi_from_q(1.0, 1.0, 0.09, 3)
        est = sharp_complexity_mc(family, target, 0.09, 200_000, SeededRng(42))
        assert est.n_hits >= 100
        assert abs(est.chi - exact.chi) <= 3 * est.std_err

    def test_importance_sampling_matches_q(self):
        family = _linear(3)
        target = LinearTarget((1.0, 0.0, 0.0))
        exact = chi_from_q(1.0, 1.0, 0.09, 3)
        est = sharp_complexity_is(family, target, 0.09, 100_000, SeededRng(42))
        assert est.n_hits >= 100
        assert abs(est.chi - exact.chi) <= 3 * est.std_err

    def test_workers_change_partition_not_meaning(self):
        family = _linear(2)
        target = LinearTarget((0.5, 0.5))
        a = sharp_complexity_mc(family, target, 0.16, 50_000, SeededRng(3), workers=1)
        b = sharp_complexity_mc(family, target, 0.16, 50_000, SeededRng(3), workers=4)
        assert abs(a.chi - b.chi) <= 3 * _joint_se(a, b)

    def test_eps_sq_validation(self):
        family = _linear(2)
        with pytest.raises(ConfigError):
            sharp_complexity_mc(family, LinearTarget((1.0, 0.0)), 0.0, 10, SeededRng(1))
        with pytest.raises(ConfigError):
            sharp_complexity_is(family, LinearTarget((1.0, 0.0)), -0.1, 10, SeededRng(1))


# The five estimators that draw in sampling streams, as fn(n, rng, workers).
# k = 32 batches at 4096 rows, so budgets of a few 10^4 give every stream
# several batches; the codim grid is coarse enough to hit at n = 40.
_K32 = ShallowNetFamily(32, NnPriorSpec.default_for(32))
_ONE_KNOT = PwlFunction(bias=0.0, knots=((0.35, 1.0),))
_XS = np.linspace(0.05, 0.95, 7)
STREAM_ESTIMATORS = {
    "sharp_complexity_is": lambda n, rng, workers: sharp_complexity_is(
        _K32, _ONE_KNOT, 0.04, n, rng, workers=workers
    ),
    "sharp_complexity_mc": lambda n, rng, workers: sharp_complexity_mc(
        _K32, _ONE_KNOT, 0.09, n, rng, workers=workers
    ),
    "exponential_complexity_mc": lambda n, rng, workers: exponential_complexity_mc(
        _K32, _ONE_KNOT, 0.05, n, rng, sigma_e_sq=0.01, workers=workers
    ),
    "empirical_complexity_mc": lambda n, rng, workers: empirical_complexity_mc(
        _K32, _ONE_KNOT, _XS, np.full(_XS.size, 0.01), 0.02, n, rng, workers=workers
    ),
    "codim_estimate": lambda n, rng, workers: codim_estimate(
        CodimQuery(_ONE_KNOT, k=1, eps_grid=(3.0, 2.0, 1.4)),
        NnPriorSpec.default_for(1),
        n,
        rng,
        workers=workers,
    ),
}


def _sequential(monkeypatch, run, *args):
    """run(*args) with every stream in the calling thread, in stream order:
    the pool's map becomes the builtin map."""
    with monkeypatch.context() as m:
        m.setattr(complexity._pool(), "map", map)
        return run(*args)


class TestBatches:
    def test_each_worker_stream_is_split_into_chunks(self):
        """Worker w's share of partition_counts comes from rng.stream(w), in
        chunks of at most ``rows`` drawn from one generator, returned in
        (stream, batch) order."""
        batches = _map_batches(SeededRng(3), 10, 3, 2, lambda gen, m: (gen, m))
        assert [m for _, m in batches] == [2, 2, 2, 1, 2, 1]
        gens = [gen for gen, _ in batches]
        assert gens[0] is gens[1] and gens[2] is gens[3] and gens[4] is gens[5]
        assert len({id(gen) for gen in gens}) == 3
        for w, gen in enumerate(gens[::2]):
            expected = SeededRng(3).stream(w).generator().normal(size=3)
            np.testing.assert_array_equal(gen.normal(size=3), expected)


class TestStreamEngine:
    """Streams on the thread pool give exactly the sequential results."""

    @pytest.mark.parametrize("workers", [2, 5])
    @pytest.mark.parametrize("name", list(STREAM_ESTIMATORS))
    def test_threaded_equals_sequential_reference(self, name, workers, monkeypatch):
        run = STREAM_ESTIMATORS[name]
        reference = _sequential(monkeypatch, run, 20_000, SeededRng(11), workers)
        assert run(20_000, SeededRng(11), workers) == reference

    def test_one_worker_runs_inline(self, monkeypatch):
        def no_pool():
            raise AssertionError("workers=1 must not touch the pool")

        def record(gen, count):
            seen.add(threading.get_ident())
            return count

        monkeypatch.setattr(complexity, "_pool", no_pool)
        seen = set()
        assert _run_streams(SeededRng(1), 7, 1, record) == [7]
        assert seen == {threading.get_ident()}

    def test_many_streams_stay_on_the_cpu_cap(self):
        """64 streams run on at most one thread per usable CPU, never on the
        caller's thread, and return in stream order; a short switch interval
        shakes the interleaving."""
        seen = set()

        def record(gen, count):
            seen.add(threading.get_ident())
            return count, float(gen.random())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = _run_streams(SeededRng(4), 100, 64, record)
        finally:
            sys.setswitchinterval(interval)
        assert [count for count, _ in results] == partition_counts(100, 64)
        assert [u for _, u in results] == [
            SeededRng(4).stream(w).generator().random() for w in range(64)
        ]
        assert 1 <= len(seen) <= complexity._cpu_cap()
        assert threading.get_ident() not in seen

    @pytest.mark.parametrize("name", list(STREAM_ESTIMATORS))
    def test_more_workers_than_draws(self, name, monkeypatch):
        """workers > n leaves surplus streams empty: the estimate covers
        exactly n draws, threaded or not."""
        run = STREAM_ESTIMATORS[name]
        est = run(40, SeededRng(5), 64)
        assert est == _sequential(monkeypatch, run, 40, SeededRng(5), 64)
        first = est.per_eps[0] if name == "codim_estimate" else est
        assert first.n_samples == 40


class TestImportanceWeightTiles:
    """The IS weight pass is row-wise: any tile size gives the same bytes."""

    @pytest.mark.parametrize("family,target", [
        (ShallowNetFamily(4, NnPriorSpec.default_for(4)), _ONE_KNOT),
        (_linear(3), LinearTarget((1.0, 0.0, 0.0))),
    ])
    def test_tile_size_does_not_change_the_estimate(self, family, target):
        default = sharp_complexity_is(family, target, 0.09, 5_000, SeededRng(8), workers=2)
        family.tile_rows = 7
        assert sharp_complexity_is(family, target, 0.09, 5_000, SeededRng(8), workers=2) == default


def _weigh_every_row(family, target, eps_sq, n, rng, workers, cloud_width=3.0):
    """sharp_complexity_is as it was before the hit screen: both densities
    and dist_sq on every row, the weight masked by the hit afterwards."""
    center = family.is_center(target)
    scale = cloud_width * math.sqrt(eps_sq)
    prepared = family.prepare(target)
    tile = family.tile_rows

    def hit_weights(thetas):
        out = np.empty(thetas.shape[0])
        for lo in range(0, thetas.shape[0], tile):
            part = thetas[lo : lo + tile]
            logp = family.log_prior_density(part)
            logc = family.cloud_log_density(part, center, scale)
            weight = np.exp(logp - (np.logaddexp(logp, logc) + math.log(0.5)))
            hit = family.dist_sq(prepared, part) <= eps_sq
            out[lo : lo + tile] = np.where(hit, weight, 0.0)
        return out

    def batch(gen, m):
        from_prior = gen.random(m) < 0.5
        n_p = int(np.count_nonzero(from_prior))
        x = np.empty(m)
        if n_p:
            x[from_prior] = hit_weights(family.sample_matrix(n_p, gen))
        if m - n_p:
            x[~from_prior] = hit_weights(family.cloud_sample(m - n_p, center, scale, gen))
        return float(x.sum()), float((x * x).sum()), int(np.count_nonzero(x > 0.0))

    s1 = s2 = 0.0
    hits = 0
    for b1, b2, b_hits in _map_batches(rng, n, workers, family.batch_rows, batch):
        s1 += b1
        s2 += b2
        hits += b_hits
    p = s1 / n
    return complexity.ComplexityEstimate(
        chi=-math.log(p),
        log_prob=math.log(p),
        std_err=math.sqrt(max(s2 / n - p * p, 0.0) / n) / p,
        n_samples=n,
        n_hits=hits,
        epsilon_sq=eps_sq,
    )


class TestImportanceHitScreen:
    """The weight pass screens rows with family.within and weighs hits only;
    the estimate keeps every bit of the weigh-every-row arithmetic."""

    CASES = {
        "shallow_k4": (ShallowNetFamily(4, NnPriorSpec.default_for(4)), _ONE_KNOT, 0.0025),
        "shallow_k32": (_K32, _ONE_KNOT, 0.04),
        "linear_d3": (_linear(3), LinearTarget((1.0, 0.0, 0.0)), 0.09),
    }

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_equals_weighing_every_row(self, case, workers):
        family, target, eps_sq = self.CASES[case]
        est = sharp_complexity_is(family, target, eps_sq, 20_000, SeededRng(21), workers=workers)
        assert est.n_hits > 0
        assert est == _weigh_every_row(family, target, eps_sq, 20_000, SeededRng(21), workers)

    def test_distances_and_densities_run_on_few_rows(self, monkeypatch):
        """k = 4, eps = 0.05: dist_sq sees under a quarter of the draws, and
        the densities see exactly the hits, the zero-weight ones (cloud
        draws outside the prior's support) included."""
        family = ShallowNetFamily(4, NnPriorSpec.default_for(4))
        rows = {}
        log_priors = []

        def count(name, arg):
            method = getattr(family, name)

            def counted(*args):
                rows[name] = rows.get(name, 0) + args[arg].shape[0]
                return method(*args)

            monkeypatch.setattr(family, name, counted)

        def log_prior_density(thetas, method=family.log_prior_density):
            log_priors.append(method(thetas))
            return log_priors[-1]

        count("dist_sq", 1)
        count("cloud_log_density", 0)
        monkeypatch.setattr(family, "log_prior_density", log_prior_density)
        n = 20_000
        est = sharp_complexity_is(family, _ONE_KNOT, 0.05**2, n, SeededRng(13))
        log_prior = np.concatenate(log_priors)
        zero_weight_hits = int(np.count_nonzero(log_prior == -np.inf))
        assert est.n_hits > 0
        assert rows["dist_sq"] < 0.25 * n
        assert log_prior.size == est.n_hits + zero_weight_hits
        assert rows["cloud_log_density"] == log_prior.size


class TestSampleBudget:
    """A budget below one draw, or fewer than one worker, is a ConfigError,
    raised before any draw."""

    @pytest.mark.parametrize("n", [0, -1])
    def test_every_estimator_rejects_an_empty_budget(self, n):
        for run in STREAM_ESTIMATORS.values():
            with pytest.raises(ConfigError, match="sample budget"):
                run(n, SeededRng(1), 1)

    @pytest.mark.parametrize("workers", [0, -2])
    def test_every_estimator_rejects_fewer_than_one_worker(self, workers):
        for run in STREAM_ESTIMATORS.values():
            with pytest.raises(ConfigError, match="workers must be >= 1"):
                run(100, SeededRng(1), workers)


class TestEstimatorConsistencyBattery:
    """Naive MC and importance sampling agree within 3 joint standard errors
    whenever both record at least 100 hits, over 20 randomized triples."""

    def test_twenty_triples(self):
        gen = np.random.default_rng(42)
        checked = 0
        for trial in range(20):
            rng = SeededRng(1000 + trial)
            if trial % 2 == 0:
                d = int(gen.integers(2, 5))
                kappa = float(gen.uniform(0.0, 1.2))
                eps_sq = float(gen.uniform(0.3, 0.6)) ** 2
                family = _linear(d)
                w = np.zeros(d)
                w[0] = kappa
                target = LinearTarget(tuple(w))
            else:
                k = int(gen.integers(1, 3))
                eps_sq = float(gen.uniform(0.3, 0.5)) ** 2
                t = float(gen.uniform(0.2, 0.8))
                v = float(gen.uniform(-1.0, 1.0))
                knots = ((t, v),) if abs(v) > 1e-3 else ()
                family = ShallowNetFamily(k, NnPriorSpec.default_for(k))
                target = PwlFunction(bias=float(gen.uniform(-0.3, 0.3)), knots=knots)
            mc = sharp_complexity_mc(family, target, eps_sq, 60_000, rng.stream(0))
            is_ = sharp_complexity_is(family, target, eps_sq, 40_000, rng.stream(1))
            assert mc.n_hits >= 100 and is_.n_hits >= 100, f"trial {trial} starved"
            gap = abs(mc.chi - is_.chi)
            assert gap <= 3 * _joint_se(mc, is_), (
                f"trial {trial}: mc={mc.chi:.4f} is={is_.chi:.4f} "
                f"gap={gap:.4f} > 3*{_joint_se(mc, is_):.4f}"
            )
            checked += 1
        assert checked == 20


class TestZeroHits:
    def test_rule_of_three_estimate(self):
        family = _linear(3)
        est = sharp_complexity_mc(
            family, LinearTarget((1.0, 0.0, 0.0)), 1e-8, 1000, SeededRng(42)
        )
        assert est.zero_hits
        assert est.chi == pytest.approx(math.log(1000 / 3.0))
        assert est.std_err == math.inf

    def test_flagged_point_rejected_by_slope_fit(self):
        family = _linear(3)
        est = sharp_complexity_mc(
            family, LinearTarget((1.0, 0.0, 0.0)), 1e-8, 1000, SeededRng(42)
        )
        good = chi_from_q(1.0, 1.0, 0.04, 3)
        with pytest.raises(InsufficientSamplesError):
            fit_limiting_slope([good, good, est], (0.3, 0.2, 1e-4))

    def test_limiting_complexity_raises_when_starved(self):
        # perp_sq exceeds the smallest grid radius squared, so that point's
        # event is empty and the estimator must flag it.
        family = _linear(2)
        target = LinearTarget((0.5, 0.0), perp_sq=0.05)
        with pytest.raises(InsufficientSamplesError) as exc:
            limiting_complexity(family, target, (0.4, 0.3, 0.1), 2000, SeededRng(42))
        assert "0.1" in str(exc.value)


class TestLimitingComplexityLinear:
    def test_is_slope_matches_closed_form_on_same_grid(self):
        grid = (0.3, 0.2, 0.14)
        family = _linear(2)
        target = LinearTarget((1.0, 0.0))
        fit = limiting_complexity(family, target, grid, 60_000, SeededRng(42))
        exact = limiting_complexity_closed_form(1.0, 1.0, 2, grid)
        assert abs(fit.slope - exact.slope) <= 3.0 / 1.96 * fit.ci_halfwidth + 1e-9


class TestExponentialComplexity:
    def test_vanishing_penalty_limit(self):
        family = _linear(3)
        est = exponential_complexity_mc(
            family, LinearTarget((1.0, 0.0, 0.0)), 1e12, 20_000, SeededRng(42)
        )
        assert abs(est.chi) < 1e-9

    def test_gaussian_closed_form_oracle(self):
        """For the linear family, chi = -ln E[exp(-||w - w~||^2 beta)] with
        beta = 1/(4 sigma_y^2) factorizes into per-coordinate Gaussian
        integrals (1 + 2 beta s^2)^(-1/2) exp(-beta mu^2/(1 + 2 beta s^2))."""
        d, sigma_y_sq, s_sq = 3, 0.05, 1.0
        w_t = np.array([1.0, -0.5, 0.25])
        beta = 1.0 / (4.0 * sigma_y_sq)
        denom = 1.0 + 2.0 * beta * s_sq
        chi_exact = 0.5 * d * math.log(denom) + float(beta * (w_t @ w_t) / denom)
        family = _linear(d, s_sq)
        est = exponential_complexity_mc(
            family, LinearTarget(tuple(w_t)), sigma_y_sq, 400_000, SeededRng(42)
        )
        assert abs(est.chi - chi_exact) <= 3 * est.std_err

    def test_chain_identity_on_shared_draws(self):
        family = _linear(3)
        target = LinearTarget((0.8, 0.3, 0.0))
        sigma_y_sq, sigma_e_sq = 0.2, 0.07
        plain = exponential_complexity_mc(family, target, sigma_y_sq, 30_000, SeededRng(9))
        noisy = exponential_complexity_mc(
            family, target, sigma_y_sq, 30_000, SeededRng(9), sigma_e_sq=sigma_e_sq
        )
        assert noisy.chi - plain.chi == pytest.approx(
            sigma_e_sq / (2.0 * sigma_y_sq), abs=1e-12
        )

    def test_temperature_validation(self):
        with pytest.raises(ConfigError):
            exponential_complexity_mc(
                _linear(2), LinearTarget((1.0, 0.0)), 0.0, 10, SeededRng(1)
            )


class TestEmpiricalComplexity:
    def test_argument_validation(self):
        family = _linear(2)
        xs = np.array([0.1, 0.2])
        with pytest.raises(ConfigError):
            empirical_complexity_mc(family, lambda x: x, xs, np.zeros(3), 0.1, 10, SeededRng(1))
        with pytest.raises(ConfigError):
            empirical_complexity_mc(
                family, lambda x: x, np.array([]), np.array([]), 0.1, 10, SeededRng(1)
            )
        with pytest.raises(ConfigError):
            empirical_complexity_mc(family, lambda x: x, xs, np.zeros(2), 0.0, 10, SeededRng(1))

    def test_dataset_average_below_population_version(self):
        """mean_S chi^E(S) <= chi^N at matched temperature: averaging the
        dataset before the log-mean-exp can only increase the value."""
        d, n_pts, sigma_e_sq, temp = 2, 5, 0.01, 0.1
        family = _linear(d)
        w_t = (0.7, -0.4)
        target = LinearTarget(w_t)
        lin = LinearFunction(w_t, BasisSpec(d))
        root = SeededRng(42)
        chis = []
        for s in range(50):
            gen = root.stream(s).generator()
            xs = gen.uniform(-1.0, 1.0, size=n_pts)
            noise = gen.normal(0.0, math.sqrt(sigma_e_sq), size=n_pts)
            est = empirical_complexity_mc(
                family, lin, xs, noise, temp, 20_000, root.stream(500 + s)
            )
            chis.append(est.chi)
        mean_emp = float(np.mean(chis))
        se_emp = float(np.std(chis, ddof=1) / math.sqrt(len(chis)))
        pop = exponential_complexity_mc(
            family, target, temp, 200_000, root.stream(999), sigma_e_sq=sigma_e_sq
        )
        assert mean_emp <= pop.chi + 3 * math.hypot(se_emp, pop.std_err), (
            f"mean chi^E {mean_emp:.4f} vs chi^N {pop.chi:.4f}"
        )

    def test_more_draws_find_more_mass(self):
        """With a realizable target and low temperature the value is carried
        by rare draws near the representation set; small budgets miss that
        mass and overestimate, so the mean estimate decreases in n."""
        family = _linear(2)
        lin = LinearFunction((0.5, 0.5), BasisSpec(2))
        gen = SeededRng(7).generator()
        xs = gen.uniform(-1.0, 1.0, size=4)
        noise = np.zeros(4)
        small = np.array([
            empirical_complexity_mc(family, lin, xs, noise, 1e-4, 2_000, SeededRng(100 + i)).chi
            for i in range(40)
        ])
        large = np.array([
            empirical_complexity_mc(family, lin, xs, noise, 1e-4, 50_000, SeededRng(100 + i)).chi
            for i in range(40)
        ])
        gap = float(small.mean() - large.mean())
        se = math.hypot(small.std(ddof=1), large.std(ddof=1)) / math.sqrt(40)
        assert gap > 3 * se, f"gap {gap:.3f} vs 3 SE {3 * se:.3f}"


class TestTrueVersusSharp:
    def test_inequality_on_shared_draws(self):
        """chi^N <= chi#(eps^2 - sigma_e^2) + eps^2/(2 sigma_y^2): on shared
        parameter draws every hit contributes at least exp(-eps^2/(2s^2)) to
        the exponential average, so the inequality holds deterministically."""
        gen = np.random.default_rng(42)
        for trial in range(10):
            d = int(gen.integers(2, 4))
            kappa = float(gen.uniform(0.0, 1.0))
            sigma_y_sq = float(gen.uniform(0.05, 0.5))
            sigma_e_sq = float(gen.uniform(0.0, 0.02))
            eps_sq = float(gen.uniform(0.35, 0.65)) ** 2
            family = _linear(d)
            w = np.zeros(d)
            w[0] = kappa
            target = LinearTarget(tuple(w))
            seed = SeededRng(2000 + trial)
            chi_n = exponential_complexity_mc(
                family, target, sigma_y_sq, 100_000, seed, sigma_e_sq=sigma_e_sq
            )
            sharp = sharp_with_noise(
                lambda e2: sharp_complexity_mc(family, target, e2, 100_000, seed),
                sigma_e_sq,
                eps_sq,
            )
            assert not sharp.infinite and sharp.n_hits >= 100
            bound = sharp.chi + eps_sq / (2.0 * sigma_y_sq)
            assert chi_n.chi <= bound + 1e-12, f"trial {trial}"
            assert chi_n.chi <= bound + 3 * _joint_se(chi_n, sharp)


class TestSharpWithNoiseDualPath:
    def test_mc_path_agrees_with_closed_form_path(self):
        family = _linear(3)
        target = LinearTarget((1.0, 0.0, 0.0))
        sigma_e_sq, eps_sq = 0.02, 0.11
        mc_path = sharp_with_noise(
            lambda e2: sharp_complexity_mc(family, target, e2, 300_000, SeededRng(5)),
            sigma_e_sq,
            eps_sq,
        )
        exact_path = sharp_with_noise(
            lambda e2: chi_from_q(1.0, 1.0, e2, 3), sigma_e_sq, eps_sq
        )
        assert abs(mc_path.chi - exact_path.chi) <= 3 * mc_path.std_err
        assert mc_path.epsilon_sq == eps_sq

    def test_zero_noise_is_identity(self):
        family = _linear(2)
        target = LinearTarget((0.5, 0.0))
        direct = sharp_complexity_mc(family, target, 0.09, 50_000, SeededRng(8))
        shifted = sharp_with_noise(
            lambda e2: sharp_complexity_mc(family, target, e2, 50_000, SeededRng(8)),
            0.0,
            0.09,
        )
        assert shifted.chi == direct.chi


class TestRelationToLimitingSlope:
    def test_chi_over_slope_log_eps_approaches_one(self):
        """chi#(eps^2) / (d * ln(1/eps)) -> 1: within 15% already at
        eps^2 in {1e-2, 1e-3, 1e-4}, with the gap shrinking monotonically."""
        d = 3
        ratios = []
        for eps_sq in (1e-2, 1e-3, 1e-4):
            chi = chi_from_q(1.0, 1.0, eps_sq, d).chi
            ratios.append(chi / (-0.5 * d * math.log(eps_sq)))
        for r in ratios:
            assert abs(r - 1.0) <= 0.15, f"ratios {ratios}"
        gaps = [abs(r - 1.0) for r in ratios]
        assert gaps[0] >= gaps[1] >= gaps[2]


class TestCodim:
    def test_constant_target_codim_one(self):
        """For a constant target only the output bias is pinned: nodes are
        free to sit inactive (b1 > 1) at positive prior volume, so the
        neighborhood volume scales like eps^1."""
        g = PwlFunction(bias=0.2)
        prior = NnPriorSpec(sigma_w_sq=1.0, M=2.0, sigma_b_sq=1.0)
        fit = codim_estimate(CodimQuery(g, k=1), prior, 250_000, SeededRng(42))
        assert abs(fit.slope - 1.0) <= 0.3, f"slope {fit.slope}"

    def test_budget_validation_and_note(self):
        g1 = PwlFunction(bias=0.0, knots=((0.4, 1.0),))
        prior = NnPriorSpec.default_for(2)
        with pytest.raises(ConfigError):
            codim_estimate(CodimQuery(g1, k=0), prior, 100, SeededRng(1))
        with pytest.raises(ConfigError):
            codim_estimate(CodimQuery(g1, k=3), prior, 100, SeededRng(1))
        fit = codim_estimate(
            CodimQuery(PwlFunction(bias=0.1), k=1, eps_grid=(0.5, 0.4, 0.3)),
            NnPriorSpec(sigma_w_sq=1.0, M=2.0, sigma_b_sq=1.0),
            20_000,
            SeededRng(2),
        )
        assert fit.note == "upper-bound-based"

    def test_codimension_sandwiches_limiting_slope(self):
        """codim/(2k+3) <= limiting slope <= codim for the one-knot target
        with k = 1, up to the fitted confidence intervals."""
        g = PwlFunction(bias=0.0, knots=((0.35, 1.0),))
        prior = NnPriorSpec.default_for(1)
        family = ShallowNetFamily(1, prior)
        codim = codim_estimate(CodimQuery(g, k=1), prior, 300_000, SeededRng(42))
        slope = limiting_complexity(family, g, (0.2, 0.14, 0.1), 120_000, SeededRng(7))
        joint = codim.ci_halfwidth + slope.ci_halfwidth
        assert codim.slope / 5.0 - joint <= slope.slope <= codim.slope + joint, (
            f"codim {codim.slope:.3f}±{codim.ci_halfwidth:.3f}, "
            f"slope {slope.slope:.3f}±{slope.ci_halfwidth:.3f}"
        )

    @pytest.mark.parametrize("radius", [-1.0, 0.0, math.nan, math.inf, -math.inf])
    def test_radius_must_be_finite_and_positive(self, radius):
        """None means the default radius; anything else must be a usable
        radius, rejected before any draw."""
        g = PwlFunction(bias=0.0, knots=((0.35, 1.0),))
        with pytest.raises(ConfigError, match="radius must be finite and > 0"):
            codim_estimate(
                CodimQuery(g, k=1, radius=radius), NnPriorSpec.default_for(1), 100, SeededRng(1)
            )

    @pytest.mark.parametrize("grid", [(0.3, math.nan, 0.1), (math.inf, 0.2, 0.1)])
    def test_eps_grid_must_be_finite(self, grid):
        g = PwlFunction(bias=0.0, knots=((0.35, 1.0),))
        with pytest.raises(ConfigError, match="eps_grid values must be finite"):
            codim_estimate(
                CodimQuery(g, k=1, eps_grid=grid), NnPriorSpec.default_for(1), 100, SeededRng(1)
            )
        with pytest.raises(ConfigError, match="eps_grid values must be finite"):
            limiting_complexity_closed_form(1.0, 1.0, 3, grid)


_TWO_KNOT = PwlFunction(bias=0.0, knots=((0.3, 1.0), (0.7, -0.8)))


def _count_points(monkeypatch) -> list:
    """Record the size of every hyperbola_distance call the oracle makes."""
    points = []
    solve = complexity.hyperbola_distance

    def counted(p, q, v):
        points.append(np.size(p))
        return solve(p, q, v)

    monkeypatch.setattr(complexity, "hyperbola_distance", counted)
    return points


class TestCodimScreen:
    """codim_estimate solves the hyperbola only on rows whose bias-only
    lower bound is within grid[0]; its counts are those of the unscreened
    oracle, bit for bit."""

    # (target, k, prior, eps_grid, radius); k = 0 is no network, so c = 0
    # has only k = 1.
    CASES = {
        "c0_k1": (PwlFunction(bias=0.2), 1, NnPriorSpec(1.0, 2.0, 1.0), (0.5, 0.4, 0.3), None),
        "c1_k1": (_ONE_KNOT, 1, NnPriorSpec.default_for(1), (0.3, 0.2, 0.14), None),
        "c1_k2": (_ONE_KNOT, 2, NnPriorSpec.default_for(2), (0.3, 0.2, 0.14), None),
        "c2_k2": (_TWO_KNOT, 2, NnPriorSpec.default_for(2), (0.5, 0.4, 0.3), 4.0),
        "c2_k3": (_TWO_KNOT, 3, NnPriorSpec.default_for(3), (0.6, 0.5, 0.4), 4.0),
    }

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_hits_equal_the_unscreened_oracle(self, case, workers, monkeypatch):
        g, k, prior, grid, radius = self.CASES[case]
        query = CodimQuery(g, k=k, eps_grid=grid, radius=radius)
        fit = codim_estimate(query, prior, 40_000, SeededRng(5), workers=workers)
        # The reference solves every row: the oracle without the screen.
        full = complexity._dist_batch
        monkeypatch.setattr(
            complexity, "_dist_batch", lambda g, thetas, k, cutoff: full(g, thetas, k)
        )
        reference = codim_estimate(query, prior, 40_000, SeededRng(5), workers=workers)
        assert [e.n_hits for e in fit.per_eps] == [e.n_hits for e in reference.per_eps]
        assert fit == reference
        assert fit.per_eps[-1].n_hits > 0

    @pytest.mark.parametrize("surplus", [0, 1])
    @pytest.mark.parametrize(
        "g", [_ONE_KNOT, PwlFunction(0.0, ((0.3, 1.0), (0.7, 0.5)))], ids=["c1", "c2"]
    )
    def test_boundary_rows(self, g, surplus):
        """Rows on the set but for an output-bias offset have distance
        exactly |offset|: every hyperbola term is exactly 0 (w1 = 1,
        w2 = v), and a surplus node with zero weights is inactive at no
        cost. At offset eps the row is kept and hits; one ulp above, it is
        dropped."""
        c = len(g.knots)
        k = c + surplus
        eps = 0.3
        rows = np.zeros((2, 3 * k + 1))
        for i, (t, v) in enumerate(g.knots):
            assert hyperbola_distance(1.0, v, v) == 0.0
            rows[:, i], rows[:, k + i], rows[:, 2 * k + i] = 1.0, v, t
        rows[:, 3 * k] = [eps, np.nextafter(eps, 1.0)]
        unscreened = _dist_batch(g, rows, k)
        np.testing.assert_array_equal(unscreened, rows[:, 3 * k])
        screened = _dist_batch(g, rows, k, cutoff=eps)
        np.testing.assert_array_equal(screened, [eps, np.inf])
        assert list(screened <= eps) == list(unscreened <= eps) == [True, False]

    def test_no_survivors(self, monkeypatch):
        """A block whose every row is screened out returns all inf and asks
        hyperbola_distance about no point; the empty solve is well formed."""
        assert hyperbola_distance(np.empty(0), np.empty(0), np.empty(0)).shape == (0,)
        assert hyperbola_distance(np.empty((0, 2, 1)), np.empty((0, 2, 1)), 1.0).shape == (0, 2, 1)
        points = _count_points(monkeypatch)
        rows = np.zeros((5, 7))
        rows[:, 6] = 2.0  # output bias 2 away from the target's 0
        dist = _dist_batch(_TWO_KNOT, rows, 2, cutoff=1.0)
        np.testing.assert_array_equal(dist, np.full(5, np.inf))
        assert sum(points) == 0

    def test_solves_under_a_tenth_of_the_draws(self, monkeypatch):
        """The benchmark's codim_c1_k1 config: 120,000 draws, one node-knot
        point each. The bias-only bound rules out all but ~4% of them."""
        points = _count_points(monkeypatch)
        n = 120_000
        fit = codim_estimate(
            CodimQuery(_ONE_KNOT, k=1, eps_grid=(0.3, 0.2, 0.14, 0.1)),
            NnPriorSpec.default_for(1),
            n,
            SeededRng(42),
        )
        assert fit.per_eps[0].n_samples == n
        assert 0 < sum(points) < 0.1 * n


def _box_rows(gen, n, k, radius, b_hi):
    """codim_estimate's old sampler: uniform rows of the box
    [-R, R]^2k x [0, b_hi]^k x [-R, R], kept when inside B_R, in blocks of
    65,536 box rows; the first n kept rows."""
    parts, got = [], 0
    while got < n:
        box = np.empty((65536, 3 * k + 1))
        box[:, : 2 * k] = gen.uniform(-radius, radius, size=(65536, 2 * k))
        box[:, 2 * k : 3 * k] = gen.uniform(0.0, b_hi, size=(65536, k))
        box[:, 3 * k] = gen.uniform(-radius, radius, size=65536)
        parts.append(box[np.einsum("ij,ij->i", box, box) <= radius * radius])
        got += parts[-1].shape[0]
    return np.concatenate(parts)[:n]


def _direct_rows(gen, n, k, radius, b_hi):
    """n rows of complexity._codim_rows, 65,536 candidates at a time."""
    parts, got = [], 0
    while got < n:
        parts.append(complexity._codim_rows(gen, 65536, n - got, k, radius, b_hi))
        got += parts[-1].shape[0]
    return np.concatenate(parts)


def _default_radius(k):
    return 3.0 * math.sqrt(ShallowNetFamily(k, NnPriorSpec.default_for(k)).expected_prior_norm_sq())


class TestCodimSampler:
    """The direct sampler draws from the old box sampler's distribution:
    uniform on B_R intersected with {b1 in [0, b_hi]^k}, b_hi = min(M, R)."""

    N = 200_000
    # Two independent samples of 200k rows: the two-sample KS statistic
    # exceeds 0.01 with probability about 4e-9 when they share a law.
    KS_MAX = 0.01

    @pytest.mark.parametrize("radius", ["default", 4.0, 0.5])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_same_law_as_the_box_sampler(self, k, radius):
        radius = _default_radius(k) if radius == "default" else radius
        b_hi = min(NnPriorSpec.default_for(k).M, radius)
        direct = _direct_rows(np.random.default_rng(100 + k), self.N, k, radius, b_hi)
        box = _box_rows(np.random.default_rng(200 + k), self.N, k, radius, b_hi)
        assert direct.shape == box.shape == (self.N, 3 * k + 1)
        b1 = direct[:, 2 * k : 3 * k]
        assert b1.min() >= 0.0 and b1.max() <= b_hi
        # A radius of sqrt(room) U^(1/d) < sqrt(room) can still round up
        # by an ulp or two.
        norm_sq = np.einsum("ij,ij->i", direct, direct)
        assert norm_sq.max() <= radius * radius * (1.0 + 1e-14)
        columns = {"|theta|": lambda rows: np.sqrt(np.einsum("ij,ij->i", rows, rows)),
                   "b2": lambda rows: rows[:, 3 * k]}
        for i in range(k):
            columns[f"b1[{i}]"] = lambda rows, i=i: rows[:, 2 * k + i]
        for name, column in columns.items():
            stat = ks_2samp(column(direct), column(box)).statistic
            assert stat <= self.KS_MAX, f"{name}: KS {stat:.4f}"

    def test_exactly_need_rows_at_most(self):
        gen = np.random.default_rng(3)
        rows = complexity._codim_rows(gen, 1000, 7, 2, 4.0, 2.0)
        assert rows.shape == (7, 7)
        rows = complexity._codim_rows(gen, 1000, 0, 2, 4.0, 2.0)
        assert rows.shape == (0, 7)


class _CountingGenerator:
    """A stream generator that counts the random numbers of each kind it
    hands out. codim_estimate draws uniforms only for candidate b1 rows, k
    per candidate."""

    def __init__(self, gen):
        self.gen = gen
        self.numbers = {}

    def __getattr__(self, name):
        draw = getattr(self.gen, name)

        def counted(*args, **kwargs):
            out = draw(*args, **kwargs)
            self.numbers[name] = self.numbers.get(name, 0) + int(np.size(out))
            return out

        return counted


def _counting_streams(monkeypatch) -> list:
    """Wrap every stream generator codim_estimate gets in _CountingGenerator."""
    gens = []
    streams = complexity._streams

    def counted(rng, n, workers):
        out = [(_CountingGenerator(gen), count) for gen, count in streams(rng, n, workers)]
        gens.extend(gen for gen, _ in out)
        return out

    monkeypatch.setattr(complexity, "_streams", counted)
    return gens


def _count_rows(monkeypatch) -> list:
    """Record the row count of every block codim_estimate hands the oracle."""
    rows = []
    dist = complexity._dist_batch

    def counted(g, thetas, k, cutoff):
        rows.append(thetas.shape[0])
        return dist(g, thetas, k, cutoff)

    monkeypatch.setattr(complexity, "_dist_batch", counted)
    return rows


class TestCodimStreamSizing:
    """Each stream draws about as many candidates as it needs rows."""

    def test_many_small_streams_draw_few_candidates(self, monkeypatch):
        """workers=64, n = 40: the box sampler drew 64 x 65,536 box rows."""
        gens = _counting_streams(monkeypatch)
        fit = STREAM_ESTIMATORS["codim_estimate"](40, SeededRng(5), 64)
        assert fit.per_eps[0].n_samples == 40
        assert len(gens) == 64
        candidates = sum(gen.numbers.get("uniform", 0) for gen in gens)  # k = 1
        assert 40 <= candidates <= 120

    # The benchmark's codim_c1_k2 and codim_c2_k2 configs. The box sampler
    # drew 6.9 and 9.3 box rows (48 and 65 random numbers) per kept row.
    @pytest.mark.parametrize("g,grid,radius,n", [
        (_ONE_KNOT, (0.3, 0.2, 0.14), None, 80_000),
        (_TWO_KNOT, (0.5, 0.4, 0.3), 4.0, 60_000),
    ], ids=["codim_c1_k2", "codim_c2_k2"])
    def test_work_per_accepted_row(self, g, grid, radius, n, monkeypatch):
        gens = _counting_streams(monkeypatch)
        rows = _count_rows(monkeypatch)
        query = CodimQuery(g, k=2, eps_grid=grid, radius=radius)
        fit = codim_estimate(query, NnPriorSpec.default_for(2), n, SeededRng(42))
        assert fit.per_eps[0].n_samples == sum(rows) == n
        (gen,) = gens
        assert gen.numbers["uniform"] / 2 <= 2 * n
        assert sum(gen.numbers.values()) <= 12 * n


class TestCodimEdgeCases:
    """Sampler corners: each run finishes and hands the oracle exactly n rows."""

    @pytest.mark.parametrize("g,k,radius,grid", [
        # b_hi = R < M: room = R^2 - |b1|^2 is negative on part of the box.
        # The ball is about 1 from the set (w1 w2 = 1 needs |w| >= sqrt 2).
        (_ONE_KNOT, 2, 0.5, (2.0, 1.6, 1.3)),
        # k = 3, R = 4: about 16% of the candidates are kept.
        (_TWO_KNOT, 3, 4.0, (1.0, 0.8, 0.6)),
    ], ids=["b_hi_equals_radius", "k3_radius4"])
    @pytest.mark.parametrize("workers", [1, 3])
    def test_exactly_n_rows(self, g, k, radius, grid, workers, monkeypatch):
        rows = _count_rows(monkeypatch)
        query = CodimQuery(g, k=k, eps_grid=grid, radius=radius)
        fit = codim_estimate(query, NnPriorSpec.default_for(k), 30_001, SeededRng(9), workers)
        assert sum(rows) == 30_001
        assert all(e.n_samples == 30_001 for e in fit.per_eps)
