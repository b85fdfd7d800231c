"""Bayesian complexity measures for shallow ReLU networks and linear models.

The package computes sharp and limiting complexities of function targets
under Gaussian-prior models, Minkowski codimensions of representation sets,
constructive projections onto those sets with movement bounds, Gibbs
posteriors (conjugate and SGLD), and PAC-Bayes generalization bounds. A CLI
driver (``bayescomplex``) wraps each experiment family with reproducible CSV
output.
"""

import types

from .complexity import (
    DEFAULT_EPS_GRID,
    CodimQuery,
    ComplexityEstimate,
    OneChangeResult,
    SlopeEstimate,
    chi_from_q,
    codim_estimate,
    fit_limiting_slope,
    hyperbola_distance,
    limiting_complexity,
    limiting_complexity_closed_form,
    one_change_bounds,
    q_closed_form,
    sharp_complexity_is,
    sharp_complexity_mc,
)
from .errors import (
    BayescomplexError,
    CheckFailure,
    ConfigError,
    InsufficientSamplesError,
    NumericalError,
    SmallnessError,
)
from .families import (
    LinearFamily,
    LinearPriorSpec,
    LinearTarget,
    NnPriorSpec,
    PwlMoments,
    ShallowNetFamily,
)
from .models import (
    BasisSpec,
    DeepNetParams,
    LinearFunction,
    ShallowNetParams,
    basis_matrix,
    build_periodic_deep_net,
    min_norm_realization,
    shallow_to_pwl,
)
from .posterior import (
    Dataset,
    GaussianPosterior,
    LossEstimate,
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
from .projection import (
    ProjectionPhases,
    ProjectionResult,
    movement_between,
    project_to_target,
    project_to_zero,
)
from .pwl import (
    CANONICAL_TOL,
    UNIFORM_SYM,
    UNIFORM_UNIT,
    L2Measure,
    PwlFunction,
    canonical_equal,
    canonicalize,
    l2_norm_sq,
    periodize,
)
from .rng import SeededRng, partition_counts

__version__ = "0.1.0"

# The imports above are the one list of exported names; the submodules they
# bind as a side effect are not part of it.
__all__ = [
    name
    for name in dir()
    if not name.startswith("_") and not isinstance(globals()[name], types.ModuleType)
]
