"""Bayesian complexity measures for shallow ReLU networks and linear models.

The package computes sharp and limiting complexities of function targets
under Gaussian-prior models, Minkowski codimensions of representation sets,
constructive projections onto those sets with movement bounds, Gibbs
posteriors (conjugate and SGLD), and PAC-Bayes generalization bounds. A CLI
driver (``bayescomplex``) wraps each experiment family with reproducible CSV
output.

The package itself binds no names: import the submodule you need, e.g.
``from bayescomplex.complexity import codim_estimate``.
"""
