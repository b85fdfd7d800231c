"""
SGLD as a Gibbs-posterior sampler, checked against the conjugate answer
=======================================================================

Stochastic gradient Langevin dynamics targets the tempered posterior
proportional to exp(-N L_S(theta) / (2 sigma_y^2)) times the prior. On the
linear model that posterior is Gaussian with known mean and covariance, so
the chain's long-run moments can be checked exactly. Turning the injected
noise off collapses the same update into plain gradient descent on the MAP
objective.
"""

import numpy as np

from bayescomplex.families import LinearFamily, LinearPriorSpec
from bayescomplex.models import BasisSpec
from bayescomplex.posterior import (
    SgldConfig,
    batch_means_se,
    conjugate_posterior_linear,
    generate_dataset,
    run_sgld,
)
from bayescomplex.rng import SeededRng

rng = SeededRng(42)
basis = BasisSpec(d=1)
prior = LinearPriorSpec(1.0)
family = LinearFamily(basis, prior)
S = generate_dataset((0.8,), basis, 20, 0.04, rng.stream(0))

post = conjugate_posterior_linear(S, prior, 0.04)
print(f"conjugate posterior: mean {float(post.mean[0]):.5f}, "
      f"sd {float(post.covariance[0, 0])**0.5:.5f}")

cfg = SgldConfig(eta=3e-4, steps=105_000, burn_in=5_000, thin=20, sigma_y_sq=0.04)
chain = run_sgld(S, family, cfg, rng.stream(1))[:, 0]
se = batch_means_se(chain)
print(f"sgld chain ({chain.size} kept draws): mean {chain.mean():.5f} "
      f"+- {se:.5f}, sd {chain.std():.5f}")

map_cfg = SgldConfig(eta=0.05, steps=4_000, burn_in=3_999, thin=1, sigma_y_sq=0.04)
theta = run_sgld(S, family, map_cfg, rng.stream(2), inject_noise=False)[-1]
print(f"noise-free descent lands on the MAP: {float(theta[0]):.8f} "
      f"(posterior mean {float(post.mean[0]):.8f})")
