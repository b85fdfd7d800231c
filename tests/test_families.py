"""The shallow family's exact distance kernel against an independent
reference: convert each parameter row to its piecewise-linear function and
integrate the squared difference segment by segment."""

import numpy as np
import pytest

from bayescomplex.families import PwlMoments, ShallowNetFamily
from bayescomplex.models import ShallowNetParams, shallow_to_pwl
from bayescomplex.priors import NnPriorSpec
from bayescomplex.pwl import UNIFORM_UNIT, PwlFunction, l2_distance_sq

TARGETS = {
    "0knots": PwlFunction(bias=0.3),
    "1knot": PwlFunction(bias=0.0, knots=((0.35, 1.0),)),
    "2knots": PwlFunction(bias=-0.2, knots=((0.3, 1.0), (0.7, -0.8))),
}

# Biases on the kernel's case boundaries, below the domain (cloud draws can
# land there) and above it.
SPECIAL_BIASES = (0.0, 0.5, 1.0, -0.4, -1e-3, 1.0 + 1e-9, 1.7)


def _family(k):
    return ShallowNetFamily(k, NnPriorSpec.default_for(k))


def _rows(k, rng):
    """Prior draws plus rows built from special and tied biases."""
    fam = _family(k)
    rows = [fam.sample_matrix(40, rng)]
    special = fam.sample_matrix(len(SPECIAL_BIASES) + 40, rng)
    b = special[:, 2 * k : 3 * k]
    b[:] = rng.uniform(-0.6, 1.6, size=b.shape)
    for i, s in enumerate(SPECIAL_BIASES):
        b[i, :] = s  # every node at the special value, so all of them tie
        b[len(SPECIAL_BIASES) + i, 0] = s
    if k > 1:
        tied = slice(len(SPECIAL_BIASES) + 8, None)
        b[tied, 1] = b[tied, 0]  # a tie next to untied nodes
        b[tied, -1] = b[tied, 0]
        # Equal and opposite weights on a tied pair cancel.
        special[tied, 1] = special[tied, 0]
        special[tied, k + 1] = -special[tied, k]
    rows.append(special)
    return np.concatenate(rows)


@pytest.mark.parametrize("name", sorted(TARGETS))
@pytest.mark.parametrize("k", [1, 2, 3, 8, 64])
def test_dist_sq_matches_pwl_reference(k, name):
    g = TARGETS[name]
    thetas = _rows(k, np.random.default_rng(1000 + k))
    got = _family(k).dist_sq(g, thetas)
    ref = np.array([
        l2_distance_sq(shallow_to_pwl(ShallowNetParams.from_flat(row, k)), g, UNIFORM_UNIT)
        for row in thetas
    ])
    err = np.abs(got - ref) / np.maximum(1.0, ref)
    assert err.max() <= 1e-12, f"worst row {int(err.argmax())}: {err.max():.3e}"


@pytest.mark.parametrize("k", [8, 64])
def test_dist_sq_independent_of_chunking(k):
    fam = _family(k)
    n = 2 * fam.tile_rows + 1
    thetas = _rows(k, np.random.default_rng(k))
    thetas = np.resize(thetas, (n, thetas.shape[1]))
    g = PwlMoments(TARGETS["2knots"])
    together = fam.dist_sq(g, thetas)
    one_by_one = np.array([fam.dist_sq(g, row[None, :])[0] for row in thetas])
    np.testing.assert_array_equal(together, one_by_one)
