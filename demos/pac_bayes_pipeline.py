"""
PAC-Bayes generalization pipeline on the conjugate linear model
===============================================================

End-to-end use of the posterior machinery:

1. calibrate the algorithmic temperature sigma_alg^2 so the expected
   empirical loss of the Gibbs posterior matches (1 + beta) sigma_e^2;
2. run fresh trials, computing empirical loss, true loss, KL to the prior,
   and the per-trial PAC-Bayes right-hand side;
3. compare the mean true loss against the closed-form theorem bound driven
   by the target's sharp complexity chi#.

The linear model is conjugate, so every expectation here is exact (no SGLD
sampling error) and the whole pipeline runs in seconds.
"""

import math

import numpy as np

from bayescomplex.complexity import chi_from_q
from bayescomplex.families import LinearFamily, LinearPriorSpec, LinearTarget
from bayescomplex.models import BasisSpec
from bayescomplex.posterior import (
    GaussianPosterior,
    LossSpec,
    conjugate_empirical_loss,
    conjugate_posterior_linear,
    conjugate_true_loss,
    find_sigma_alg,
    generate_dataset,
    kl_gaussians,
    pac_bayes_rhs,
    theorem_bound,
)
from bayescomplex.rng import SeededRng

d, N, sigma_e_sq, beta, C = 3, 200, 0.01, 1.0, 4.0
rng = SeededRng(42)
basis = BasisSpec(d=d)
prior = LinearPriorSpec(1.0)
family = LinearFamily(basis, prior)
spec = LossSpec(clip_C=C)

w = family.sample_matrix(1, rng.stream(0).generator())[0]
target = LinearTarget(w=tuple(w))
print(f"target kappa = {target.kappa:.4f}, noise sigma_e^2 = {sigma_e_sq}")

# Step 1: calibrate the temperature.
sigma_alg_sq, search_ls = find_sigma_alg(
    beta, sigma_e_sq,
    lambda r: generate_dataset(w, basis, N, sigma_e_sq, r),
    family, 1e-3, rng.stream(1), loss_spec=spec, n_replicas=16,
)
print(f"calibrated sigma_alg^2 = {sigma_alg_sq:.5f} "
      f"(E[L_S] = {search_ls:.5f}, target {(1 + beta) * sigma_e_sq})")

# Step 2: fresh trials.
prior_gauss = GaussianPosterior(np.zeros(d), np.eye(d))
print("\ntrial   L_S       L_D       KL      pac rhs   holds")
datasets = [
    generate_dataset(w, basis, N, sigma_e_sq, rng.stream(100 + trial))
    for trial in range(8)
]
posts = [conjugate_posterior_linear(S, prior, sigma_alg_sq) for S in datasets]
# Both exact losses take a batch and return one loss per item.
lss = conjugate_empirical_loss(list(zip(datasets, posts)), spec)
lds = conjugate_true_loss(posts, target, basis, sigma_e_sq, spec)
for trial, (post, ls, ld) in enumerate(zip(posts, lss, lds)):
    kl = kl_gaussians(post, prior_gauss)
    rhs = pac_bayes_rhs(ls, kl, N, C)
    print(f"  {trial}   {ls:.5f}   {ld:.5f}   {kl:6.3f}   {rhs:.5f}   {ld <= rhs}")

# Step 3: the closed-form theorem bound.
chi_sharp = chi_from_q(target.kappa, 1.0, beta * sigma_e_sq, d).chi
bound = theorem_bound(sigma_e_sq, beta, chi_sharp, N, C)
mean_ld = float(np.mean(lds))
print(f"\nchi#(target, beta sigma_e^2) = {chi_sharp:.3f}")
print(f"mean L_D = {mean_ld:.5f} <= theorem bound {bound:.5f}: "
      f"{mean_ld <= bound}")
print(f"(noise floor 2 sigma_e^2 = {2 * sigma_e_sq}; the bound's slack is "
      f"~ C sqrt(chi#/N) / sqrt(2) = {C * math.sqrt(chi_sharp / N / 2):.3f})")
