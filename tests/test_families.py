"""The shallow family's exact distance kernel against an independent
reference: convert each parameter row to its piecewise-linear function and
integrate the squared difference segment by segment."""

import json
import tracemalloc

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
from bayescomplex.models import BasisSpec, shallow_to_pwl
from bayescomplex.posterior import generate_dataset
from bayescomplex.pwl import PwlFunction
from bayescomplex.rng import SeededRng
from paper_checks import (
    UNIFORM_UNIT,
    cloud_draws_ref,
    dataset_draws_ref,
    l2_distance_sq,
    linear_draws_ref,
    lower_bound_ref,
    params_from_flat,
    prior_draws_ref,
)

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
        l2_distance_sq(shallow_to_pwl(params_from_flat(row, k)), g, UNIFORM_UNIT)
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


def test_linear_within_is_exactly_the_thresholded_distance():
    """LinearFamily.within's mask is dist_sq <= e bit for bit, e at a row's
    computed distance and one ulp below it."""
    fam = LinearFamily(BasisSpec(d=3), LinearPriorSpec(1.0))
    target = LinearTarget((1.0, 0.0, 0.0), perp_sq=0.01)
    rows = fam.sample_matrix(100, np.random.default_rng(7))
    d = fam.dist_sq(target, rows)
    for e in (d[13], np.nextafter(d[13], -np.inf), np.median(d)):
        np.testing.assert_array_equal(fam.within(target, rows, e), d <= e)


@pytest.mark.parametrize("name", sorted(TARGETS))
@pytest.mark.parametrize("k", [1, 2, 3, 8, 64])
def test_lower_bound_is_valid_and_tight_when_the_difference_is_affine(k, name):
    """Checked on C- and F-ordered rows: einsum may order the k-term sums
    differently on each, and the margin must cover either order."""
    fam, g = _family(k), PwlMoments(TARGETS[name])
    for set_name, rows in _row_sets(k, TARGETS[name], np.random.default_rng(k)).items():
        d = fam.dist_sq(g, rows)
        for layout in (np.ascontiguousarray, np.asfortranarray):
            lb, margin = fam._lower_bound(g, layout(rows))
            assert np.all(lb <= d + margin), (set_name, layout.__name__)
            if set_name == "affine":
                np.testing.assert_allclose(lb, d, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("name", sorted(TARGETS))
@pytest.mark.parametrize("k", [1, 2, 3, 8, 64])
def test_lower_bound_is_the_reference_bound_within_the_margin(k, name):
    """The factored screen's lb is paper_checks' T1/T2/T3 lb to within the
    margin, and its margin is the reference's, on every row set (biases
    below 0 and above 1, cancelling 1e6 weights), C- and F-ordered."""
    fam, g = _family(k), PwlMoments(TARGETS[name])
    for set_name, rows in _row_sets(k, TARGETS[name], np.random.default_rng(6000 + k)).items():
        for layout in (np.ascontiguousarray, np.asfortranarray):
            lb, margin = fam._lower_bound(g, layout(rows))
            lb_ref, margin_ref = lower_bound_ref(fam, g, layout(rows))
            np.testing.assert_array_equal(margin, margin_ref, err_msg=set_name)
            assert np.all(np.abs(lb - lb_ref) <= margin), (set_name, layout.__name__)


# Peak bytes tracemalloc counts in one screen call on a tile_rows-row
# F-ordered prior block, measured with the T1/T2/T3 formulation
# (paper_checks.lower_bound_ref, numpy 2.4): about 7.1-7.6 (rows, k) arrays
# at k >= 8, and 12 at k = 1, where the per-row vectors are as large.
SCREEN_PEAK_BYTES_T_FORMULATION = {1: 3_149_295, 8: 2_001_945, 64: 1_858_585}


@pytest.mark.parametrize("k", sorted(SCREEN_PEAK_BYTES_T_FORMULATION))
def test_screen_scratch_is_no_larger_than_the_t_formulations(k):
    fam, g = _family(k), PwlMoments(TARGETS["1knot"])
    rows = fam.sample_matrix(fam.tile_rows, np.random.default_rng(k))
    _, peak = _scratch_bytes(lambda: fam._lower_bound(g, rows))
    assert peak <= SCREEN_PEAK_BYTES_T_FORMULATION[k], peak


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


# -- block layout ------------------------------------------------------------


TILES = ("1", "7", "default", "above_block")


def _tiled_family(k, tile):
    """A family with the given tile_rows, and a block length that the tile
    splits unevenly (or, for "above_block", does not split)."""
    fam = _family(k)
    n = 2 * fam.tile_rows + 5 if tile == "default" else 300
    if tile != "default":
        fam.tile_rows = n + 1 if tile == "above_block" else int(tile)
    return fam, n


def _generator(seed):
    """The generator the package draws stream (seed, 0) from."""
    return SeededRng(seed).generator()


def _state(gen):
    """The bit generator's state, with its arrays as lists."""
    return json.dumps(gen.bit_generator.state, default=np.ndarray.tolist, sort_keys=True)


def _same_bits(got, want, err_msg):
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64), err_msg=err_msg)


@pytest.mark.parametrize("tile", TILES)
@pytest.mark.parametrize("k", [1, 2, 3, 8, 32, 64])
def test_draws_are_column_major_with_the_row_major_bits(k, tile):
    """sample_matrix and cloud_sample fill F-ordered blocks holding, bit for
    bit, what one numpy normal or uniform call per coordinate group gives
    (paper_checks' references), and leave the generator in the state those
    calls leave it in, however tile_rows splits the draws."""
    fam, n = _tiled_family(k, tile)
    center = fam.is_center(TARGETS["1knot"])
    cases = {
        "prior": (lambda gen: fam.sample_matrix(n, gen),
                  lambda gen: prior_draws_ref(fam, n, gen)),
        "cloud": (lambda gen: fam.cloud_sample(n, center, 0.2, gen),
                  lambda gen: cloud_draws_ref(fam, n, center, 0.2, gen)),
    }
    for name, (draw, reference) in cases.items():
        gen, ref_gen = _generator(4000 + k), _generator(4000 + k)
        drawn = draw(gen)
        assert drawn.flags.f_contiguous, name
        _same_bits(drawn, reference(ref_gen), name)
        assert _state(gen) == _state(ref_gen), name


class _FixedStream:
    """A stand-in for SeededRng whose generator the test keeps."""

    def __init__(self, gen):
        self.gen = gen

    def generator(self):
        return self.gen


def test_linear_draws_and_datasets_have_the_normal_and_uniform_calls_bits():
    """LinearFamily.sample_matrix and generate_dataset (with and without
    noise) give paper_checks' numpy-call values bit for bit and leave the
    generator where those calls leave it."""
    basis = BasisSpec(d=3)
    fam = LinearFamily(basis, LinearPriorSpec(0.7))
    gen, ref_gen = _generator(11), _generator(11)
    _same_bits(fam.sample_matrix(1000, gen), linear_draws_ref(fam, 1000, ref_gen), "prior")
    assert _state(gen) == _state(ref_gen)
    w = (0.8, -0.3, 0.1)
    for sigma_e_sq in (0.0, 0.04):
        gen, ref_gen = _generator(12), _generator(12)
        S = generate_dataset(w, basis, 500, sigma_e_sq, _FixedStream(gen))
        xs, ys = dataset_draws_ref(w, basis, 500, sigma_e_sq, ref_gen)
        _same_bits(S.xs, xs, f"xs, sigma_e_sq={sigma_e_sq}")
        _same_bits(S.ys, ys, f"ys, sigma_e_sq={sigma_e_sq}")
        assert _state(gen) == _state(ref_gen)


class _NegativeZeros:
    """A generator whose standard draws are all -0.0."""

    def standard_normal(self, size=None, out=None):
        out = np.empty(size) if out is None else out
        out[...] = -0.0
        return out

    random = standard_normal


def test_a_zero_shift_turns_negative_zeros_positive():
    """numpy's normal(0, s) is 0.0 + s * z, which is +0.0 at z = -0.0; the
    fill-path samplers add the zero shift too, so no drawn zero is -0.0."""
    gen = _NegativeZeros()
    shallow = _family(2).sample_matrix(5, gen)
    linear = LinearFamily(BasisSpec(d=2), LinearPriorSpec(1.0)).sample_matrix(5, gen)
    for name, drawn in (("shallow", shallow), ("linear", linear)):
        assert np.all(drawn == 0.0) and not np.signbit(drawn).any(), name


@pytest.mark.parametrize("tile", TILES)
@pytest.mark.parametrize("k", [1, 8, 32])
def test_within_is_the_thresholded_distance_at_every_tile_size(k, tile):
    """within == (dist_sq <= e) whatever tile_rows cuts the screen and the
    kept rows into, on the special-bias rows plus rows whose lower bound is
    nan (a nan weight, a nan output bias), repeated to the block length."""
    fam, n = _tiled_family(k, tile)
    g = PwlMoments(TARGETS["2knots"])
    rng = np.random.default_rng(7000 + k)
    rows = _rows(k, rng)
    rows = np.asfortranarray(np.resize(rows, (n, rows.shape[1])))
    rows[3, 0] = np.nan
    rows[17, 3 * k] = np.nan
    assert np.isnan(fam._lower_bound(g, rows[[3, 17]])[0]).all()
    d = _family(k).dist_sq(g, rows)
    finite = np.flatnonzero(np.isfinite(d))
    for i in rng.choice(finite, size=6, replace=False):
        for e in (d[i], np.nextafter(d[i], -np.inf), np.inf):
            np.testing.assert_array_equal(fam.within(g, rows, e), d <= e,
                                          err_msg=f"row {i} e={e!r}")


def _scratch_bytes(call):
    """(result, peak traced bytes allocated during call())."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.mark.parametrize("k", [8, 32])
def test_kernel_scratch_does_not_grow_with_the_block(k):
    """Less the returned block and the per-row masks and indices, the
    peak allocation inside sample_matrix, cloud_sample and within is no
    larger for a block of 64 tiles than for one of 4 (tracemalloc counts
    numpy's buffers exactly, where RSS depends on the allocator). The
    samplers' scratch is the same at both sizes. within's is not quite:
    its screen peaks with only the keep mask live, so on a small block the
    screen's peak sets it and less than all of the subtracted per-row
    bytes are there."""
    fam, g = _family(k), PwlMoments(TARGETS["1knot"])
    center = fam.is_center(TARGETS["1knot"])
    scratch = {}
    for tiles in (4, 64):
        n = tiles * fam.tile_rows
        gen = np.random.default_rng(8000 + k)
        block, peak = _scratch_bytes(lambda: fam.sample_matrix(n, gen))
        scratch["sample_matrix", tiles] = peak - block.nbytes
        cloud, peak = _scratch_bytes(lambda: fam.cloud_sample(n, center, 0.05, gen))
        scratch["cloud_sample", tiles] = peak - cloud.nbytes
        del cloud
        # eps_sq = inf keeps every row past the screen: two bool masks and
        # n kept-row indices.
        _, peak = _scratch_bytes(lambda: fam.within(g, block, np.inf))
        scratch["within", tiles] = peak - n * (2 + np.dtype(np.intp).itemsize)
        del block
    for name in ("sample_matrix", "cloud_sample", "within"):
        small, large = scratch[name, 4], scratch[name, 64]
        assert large <= 1.1 * small, (name, small, large)
        if name != "within":
            assert large >= 0.9 * small, (name, small, large)


@pytest.mark.parametrize("k", [1, 2, 8, 64])
def test_kernels_give_the_same_bits_in_every_layout(k):
    """dist_sq, within and both densities give one value per row whether
    the rows come F-ordered, C-ordered or as a strided row slice."""
    fam, g = _family(k), PwlMoments(TARGETS["1knot"])
    rng = np.random.default_rng(5000 + k)
    center = fam.is_center(TARGETS["1knot"])
    block = np.concatenate([fam.sample_matrix(200, rng),
                            fam.cloud_sample(200, center, 0.05, rng)])
    block = np.asfortranarray(block)
    e = float(np.quantile(fam.dist_sq(g, block), 0.3))
    kernels = {
        "dist_sq": lambda rows: fam.dist_sq(g, rows),
        "within": lambda rows: fam.within(g, rows, e),
        "log_prior_density": fam.log_prior_density,
        "cloud_log_density": lambda rows: fam.cloud_log_density(rows, center, 0.05),
    }
    for name, kernel in kernels.items():
        want = kernel(block)
        np.testing.assert_array_equal(kernel(np.ascontiguousarray(block)), want, err_msg=name)
        np.testing.assert_array_equal(kernel(block[1::3]), want[1::3], err_msg=name)


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
