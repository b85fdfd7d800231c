"""Prior samplers, the shallow family's batch prior kernels, and the
deterministic stream tree."""

import math

import numpy as np
import pytest

from bayescomplex.errors import ConfigError
from bayescomplex.families import LinearFamily, LinearPriorSpec, NnPriorSpec, ShallowNetFamily
from bayescomplex.models import BasisSpec, ShallowNetParams
from bayescomplex.rng import SeededRng, partition_counts


class TestSeededRng:
    def test_same_key_same_draws(self):
        a = SeededRng(42).generator().normal(size=5)
        b = SeededRng(42).generator().normal(size=5)
        np.testing.assert_array_equal(a, b)

    def test_streams_are_distinct(self):
        root = SeededRng(42)
        draws = {
            tuple(root.stream(i).generator().normal(size=3).round(12)) for i in range(20)
        }
        assert len(draws) == 20

    def test_nested_streams_do_not_collide(self):
        root = SeededRng(7)
        ids = set()
        for i in range(10):
            child = root.stream(i)
            ids.add(child.stream_id)
            for j in range(10):
                ids.add(child.stream(j).stream_id)
        assert len(ids) == 110

    def test_stream_offset_bounds(self):
        with pytest.raises(ValueError):
            SeededRng(1).stream(-1)

    def test_partition_counts(self):
        assert partition_counts(10, 3) == [4, 3, 3]
        assert partition_counts(5, 1) == [5]
        assert sum(partition_counts(1_000_001, 7)) == 1_000_001
        with pytest.raises(ValueError):
            partition_counts(5, 0)


class TestNnPrior:
    def test_default_convention(self):
        spec = NnPriorSpec.default_for(4)
        assert spec.sigma_w_sq == pytest.approx(0.25)
        assert spec.M == 4.0
        assert spec.sigma_b_sq == 1.0

    def test_validation(self):
        for bad in ({"sigma_w_sq": 0.0}, {"sigma_w_sq": math.nan}, {"sigma_w_sq": math.inf},
                    {"sigma_b_sq": -1.0}, {"sigma_b_sq": math.nan}, {"sigma_b_sq": math.inf},
                    {"M": 0.5}, {"M": math.nan}, {"M": math.inf}):
            with pytest.raises(ConfigError):
                NnPriorSpec(**{"sigma_w_sq": 1.0, "M": 2.0, "sigma_b_sq": 1.0, **bad})

    def test_sample_moments(self):
        """Weights N(0, 1/k), hidden biases U([0, M]) with mean M/2 and
        variance M^2/12, output bias N(0, 1)."""
        k, n = 3, 2_000
        spec = NnPriorSpec.default_for(k)
        family = ShallowNetFamily(k, spec)
        w1, _, b1, b2 = family.split(family.sample_matrix(n, SeededRng(42).generator()))
        n_eff = w1.size
        assert abs(w1.mean()) < 4 * math.sqrt(spec.sigma_w_sq / n_eff)
        assert w1.var() == pytest.approx(spec.sigma_w_sq, rel=0.05)
        assert b1.mean() == pytest.approx(spec.M / 2, rel=0.02)
        assert b1.var() == pytest.approx(spec.M**2 / 12, rel=0.05)
        assert b2.var() == pytest.approx(1.0, rel=0.1)
        assert float(b1.min()) >= 0.0 and float(b1.max()) <= spec.M

    def test_log_density_closed_form(self):
        spec = NnPriorSpec(sigma_w_sq=0.5, M=2.0, sigma_b_sq=1.0)
        theta = ShallowNetParams((1.0,), (-0.5,), (0.3,), 0.2)
        expected = (
            -0.5 * (1.0 + 0.25) / 0.5
            - 2 * 0.5 * (math.log(2 * math.pi) + math.log(0.5))
            - math.log(2.0)
            - 0.5 * 0.04
            - 0.5 * math.log(2 * math.pi)
        )
        got = ShallowNetFamily(1, spec).log_prior_density(theta.flat()[None, :])
        assert got.shape == (1,)
        assert got[0] == pytest.approx(expected, rel=1e-12)

    def test_log_density_outside_support(self):
        spec = NnPriorSpec(sigma_w_sq=1.0, M=1.0, sigma_b_sq=1.0)
        above = ShallowNetParams((0.1,), (0.1,), (1.5,), 0.0).flat()
        below = ShallowNetParams((0.1,), (0.1,), (-0.2,), 0.0).flat()
        got = ShallowNetFamily(1, spec).log_prior_density(np.stack([above, below]))
        assert got.tolist() == [-math.inf, -math.inf]


class TestLinearPrior:
    def test_sample_covariance(self):
        family = LinearFamily(BasisSpec(3), LinearPriorSpec(sigma_w_sq=2.0))
        rows = np.array(
            [family.sample_matrix(1, SeededRng(42).stream(i).generator())[0]
             for i in range(30_000)]
        )
        np.testing.assert_allclose(rows.mean(axis=0), np.zeros(3), atol=0.05)
        np.testing.assert_allclose(np.cov(rows.T), 2.0 * np.eye(3), atol=0.08)

    def test_validation(self):
        for bad in (-1.0, 0.0, math.nan, math.inf):
            with pytest.raises(ConfigError):
                LinearPriorSpec(sigma_w_sq=bad)
        with pytest.raises(ConfigError):
            LinearFamily(BasisSpec(0), LinearPriorSpec(1.0))
