"""The shallow family's exact distance kernel against an independent
reference: convert each parameter row to its piecewise-linear function and
integrate the squared difference segment by segment."""

import numpy as np
import pytest

from bayescomplex.families import (
    LinearFamily,
    LinearPriorSpec,
    LinearTarget,
    NnPriorSpec,
    PwlMoments,
    ShallowNetFamily,
)
from bayescomplex.models import BasisSpec, ShallowNetParams, shallow_to_pwl
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


# -- the exact hit test ----------------------------------------------------


def _affine_rows(k, g, rng, n=40):
    """Rows whose f - g is affine on [0, 1], where the screen's lower bound
    is tight: one node per target knot with u = v exactly, every other node
    outside (0, 1). Needs k >= the target's knot count."""
    fam = _family(k)
    rows = fam.sample_matrix(n, rng)
    b = rows[:, 2 * k : 3 * k]
    b[:] = np.where(rng.random(b.shape) < 0.5, rng.uniform(-0.7, 0.0, b.shape),
                    rng.uniform(1.0, 1.6, b.shape))
    for i, (t, v) in enumerate(g.knots):
        rows[:, i], rows[:, k + i], b[:, i] = 1.0, v, t
    return rows


def _row_sets(k, g, rng):
    fam = _family(k)
    # Too few nodes to realize g: the cloud sits around a prior draw instead.
    center = (fam.is_center(g) if len(g.knots) <= k
              else fam.sample_matrix(1, rng)[0])
    cloud = np.concatenate([fam.cloud_sample(40, center, s, rng) for s in (0.3, 0.03)])
    cancel = fam.sample_matrix(40, rng)
    cancel[:, :k] = 1e3
    cancel[:, k : 2 * k] = np.where(np.arange(k) % 2, -1e3, 1e3)
    if k > 1:
        cancel[:, 2 * k + 1] = cancel[:, 2 * k]  # nodes 0 and 1 cancel exactly
    sets = {
        "prior": fam.sample_matrix(80, rng),
        "cloud": cloud,
        "special_biases": _rows(k, rng),
        "cancelling_1e6": cancel,
    }
    if len(g.knots) <= k:
        sets["affine"] = _affine_rows(k, g, rng)
    return sets


@pytest.mark.parametrize("name", sorted(TARGETS))
@pytest.mark.parametrize("k", [1, 2, 3, 8, 64])
def test_within_is_exactly_the_thresholded_distance(k, name):
    """within(g, rows, e) == (dist_sq(g, rows) <= e) bit for bit, with e at
    a row's computed distance and one ulp below it."""
    fam, g = _family(k), TARGETS[name]
    rng = np.random.default_rng(2000 + k)
    for set_name, rows in _row_sets(k, g, rng).items():
        d = fam.dist_sq(g, rows)
        for i in rng.choice(rows.shape[0], size=12, replace=False):
            for e in (d[i], np.nextafter(d[i], -np.inf)):
                np.testing.assert_array_equal(
                    fam.within(g, rows, e), d <= e, err_msg=f"{set_name} row {i} e={e!r}"
                )


def test_linear_within_tiles_give_the_thresholded_distance():
    """LinearFamily.within tests hits tile by tile; with 7-row tiles (the
    last one short) its mask is dist_sq <= e bit for bit, e at a row's
    computed distance and one ulp below it."""
    fam = LinearFamily(BasisSpec(d=3), LinearPriorSpec(1.0))
    target = LinearTarget((1.0, 0.0, 0.0), perp_sq=0.01)
    rows = fam.sample_matrix(100, np.random.default_rng(7))
    d = fam.dist_sq(target, rows)
    fam.tile_rows = 7
    for e in (d[13], np.nextafter(d[13], -np.inf), np.median(d)):
        np.testing.assert_array_equal(fam.within(target, rows, e), d <= e)


@pytest.mark.parametrize("name", sorted(TARGETS))
@pytest.mark.parametrize("k", [1, 2, 3, 8, 64])
def test_lower_bound_is_valid_and_tight_when_the_difference_is_affine(k, name):
    fam, g = _family(k), PwlMoments(TARGETS[name])
    for set_name, rows in _row_sets(k, TARGETS[name], np.random.default_rng(k)).items():
        d = fam.dist_sq(g, rows)
        lb, margin = fam._lower_bound(g, rows)
        assert np.all(lb <= d + margin), set_name
        if set_name == "affine":
            np.testing.assert_allclose(lb, d, rtol=1e-9, atol=1e-12)


def test_within_keeps_a_row_whose_margin_overflows():
    """|u| = 1e160 on an inactive node: the margin's S^2 overflows, the
    row is kept (no warning) and its distance is exact."""
    fam = _family(2)
    g = TARGETS["1knot"]
    row = fam.sample_matrix(1, np.random.default_rng(0))
    row[0, [0, 2, 4]] = 1e160, 1.0, 5.0
    with np.errstate(over="ignore"):
        _, margin = fam._lower_bound(PwlMoments(g), row)
    assert margin[0] == np.inf
    d = fam.dist_sq(g, row)
    assert np.isfinite(d[0])
    assert fam.within(g, row, d[0])[0]
    assert not fam.within(g, row, np.nextafter(d[0], -np.inf))[0]


# -- target preparation ------------------------------------------------------


def test_prepare_passes_prepared_moments_through():
    fam = _family(4)
    moments = fam.prepare(TARGETS["2knots"])
    assert isinstance(moments, PwlMoments)
    assert fam.prepare(moments) is moments


@pytest.mark.parametrize("name", sorted(TARGETS))
@pytest.mark.parametrize("k", [1, 8])
def test_prepared_target_gives_the_same_bits(k, name):
    """dist_sq and within on g and on prepare(g) agree bit for bit."""
    fam, g = _family(k), TARGETS[name]
    rows = _rows(k, np.random.default_rng(3000 + k))
    prepared = fam.prepare(g)
    d = fam.dist_sq(g, rows)
    np.testing.assert_array_equal(fam.dist_sq(prepared, rows), d)
    e = float(np.median(d))
    np.testing.assert_array_equal(fam.within(prepared, rows, e), fam.within(g, rows, e))
