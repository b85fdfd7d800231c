"""Hypothesis classes: the orthonormal basis of the linear model
(BasisSpec, basis_matrix), shallow ReLU networks in the product
parametrization (ShallowNetParams) and the deep periodic construction
(DeepNetParams). Priors over their parameters live with the batch kernels in
``families``.

The linear model f_w(x) = sum_i w_i b_i(x) uses Legendre polynomials
normalized against the plain (unweighted) inner product on [-1, 1]:

    b_0 = 1/sqrt(2),   b_n = sqrt((2n+1)/2) * P_n,

so that the expected squared distance under U([-1, 1]) between two models is
half the squared coefficient distance. The model is only ever evaluated as
basis_matrix(basis, xs) @ w, so it has no type of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .pwl import PwlFunction, canonicalize

# --------------------------------------------------------------------------
# Linear model with an orthonormal Legendre basis
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class BasisSpec:
    d: int

    def __post_init__(self):
        if self.d < 1:
            raise ConfigError("basis size must be >= 1")


def basis_matrix(basis: BasisSpec, xs) -> np.ndarray:
    """Evaluate the orthonormal basis at xs; shape (len(xs), d).

    Three-term recurrence (i+1) P_{i+1} = (2i+1) x P_i - i P_{i-1}, then each
    column is scaled by sqrt((2i+1)/2) so that int_{-1}^{1} b_i b_j dx = delta.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if (xs < -1.0 - 1e-12).any() or (xs > 1.0 + 1e-12).any():
        raise ConfigError("basis evaluation point outside [-1, 1]")
    d = basis.d
    P = np.empty((xs.size, d), dtype=float)
    P[:, 0] = 1.0
    if d > 1:
        P[:, 1] = xs
    for i in range(1, d - 1):
        P[:, i + 1] = ((2 * i + 1) * xs * P[:, i] - i * P[:, i - 1]) / (i + 1)
    norm = np.sqrt((2 * np.arange(d) + 1) / 2.0)
    return P * norm


# --------------------------------------------------------------------------
# Shallow ReLU network, product parametrization
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ShallowNetParams:
    """theta = (w1, w2, b1, b2): f(x) = sum_i w2_i w1_i [x - b1_i]_+ + b2."""

    w1: tuple[float, ...]
    w2: tuple[float, ...]
    b1: tuple[float, ...]
    b2: float

    def __post_init__(self):
        if not (len(self.w1) == len(self.w2) == len(self.b1)):
            raise ConfigError("w1, w2, b1 must have equal length")

    @property
    def k(self) -> int:
        return len(self.w1)

    def effective_weights(self) -> np.ndarray:
        return np.asarray(self.w1, dtype=float) * np.asarray(self.w2, dtype=float)

    def flat(self) -> np.ndarray:
        """Parameter vector in the layout [w1, w2, b1, b2]."""
        return np.concatenate([self.w1, self.w2, self.b1, [self.b2]])


def shallow_to_pwl(theta: ShallowNetParams) -> PwlFunction:
    """Exact conversion to a canonical piecewise-linear function on [0, 1].

    Nodes with b1 >= 1 never activate; nodes with b1 < 0 are affine on [0, 1]
    and fold into the bias plus a knot at 0.
    """
    bias = theta.b2
    raw = []
    for w1, w2, bi in zip(theta.w1, theta.w2, theta.b1):
        ui = float(w1) * float(w2)
        if ui == 0.0 or bi >= 1.0:
            continue
        if bi < 0.0:
            bias += ui * (-bi)
            raw.append((0.0, ui))
        else:
            raw.append((bi, ui))
    return canonicalize(raw, bias, 0.0, 1.0)


def min_norm_realization(g: PwlFunction, k: int) -> ShallowNetParams:
    """Minimum-weight-norm exact representation of g with k nodes.

    Knot i becomes a node with w1 = sqrt(|v|), w2 = sign(v) sqrt(|v|), so the
    weight-norm cost (||w1||^2 + ||w2||^2)/2 equals the variational
    complexity. Surplus nodes are parked inactive above the domain.
    """
    c = len(g.knots)
    if c > k:
        raise ConfigError(f"target has {c} knots but the budget is {k} nodes")
    w1, w2, b1 = [], [], []
    for t, v in g.knots:
        r = math.sqrt(abs(v))
        w1.append(r)
        w2.append(math.copysign(r, v))
        b1.append(t)
    for _ in range(k - c):
        w1.append(0.0)
        w2.append(0.0)
        b1.append(1.5)  # strictly above the active domain
    return ShallowNetParams(tuple(w1), tuple(w2), tuple(b1), g.bias)


# --------------------------------------------------------------------------
# Deep periodic construction
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class DeepNetParams:
    """Plain MLP with ReLU hidden layers and identity output."""

    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.weights) != len(self.biases):
            raise ConfigError("weights/biases layer count mismatch")
        dims = self.layer_dims
        if dims[0] != 1 or dims[-1] != 1:
            raise ConfigError("input and output must be scalar")

    @property
    def layer_dims(self) -> tuple[int, ...]:
        dims = [self.weights[0].shape[1]]
        for W in self.weights:
            if W.shape[1] != dims[-1]:
                raise ConfigError("layer shapes do not chain")
            dims.append(W.shape[0])
        return tuple(dims)

    def forward(self, x):
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        h = xs[:, None]
        last = len(self.weights) - 1
        for i, (W, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ W.T + b
            if i < last:
                h = np.maximum(0.0, h)
        out = h[:, 0]
        return out if np.ndim(x) else float(out[0])


def _is_reflection_symmetric(g0: PwlFunction) -> bool:
    # Check g0(t) == g0(1 - t) to 1e-10 at the union of knots and reflected knots.
    pts = np.unique(np.concatenate([g0.breakpoints(), 1.0 - g0.breakpoints()]))
    pts = np.clip(pts, 0.0, 1.0)
    return bool(np.max(np.abs(g0(pts) - g0(1.0 - pts))) <= 1e-10)


def interior_knot_count(g0: PwlFunction) -> int:
    """m in the periodic bound 4l + 2m + 6: the period profile's knots
    strictly inside (0, 1). A knot at 0 only sets the initial slope."""
    return sum(1 for t, _ in g0.knots if 0.0 < t < 1.0)


def build_periodic_deep_net(g0: PwlFunction, l: int) -> tuple[DeepNetParams, int]:
    """Tile a reflection-symmetric period profile with O(l + m) pinned parameters.

    Architecture: a first hidden layer builds the 2l-segment triangle map
    T: [0, l] -> [0, 1] (each unit cell rises 0 -> 1 -load-> falls back to 0), a
    second hidden layer applies the half-period profile gt(s) = g0(s/2) to
    T(x), and a linear readout sums the profile's ramps. The forward pass
    equals periodize(g0, l) exactly.

    Returns (net, constrained_parameter_count): the count covers two pinned
    scalars per hidden node (bias plus contribution weight) and two for the
    readout, which keeps it within 4l + 2m + 6 for a profile with m interior
    knots.
    """
    if abs(g0.domain_lo) > 1e-12 or abs(g0.domain_hi - 1.0) > 1e-12:
        raise ConfigError("profile must live on [0, 1]")
    if abs(g0(1.0) - g0(0.0)) > 1e-10:
        raise ConfigError("profile endpoints differ; tiling would be discontinuous")
    if not _is_reflection_symmetric(g0):
        raise ConfigError(
            "profile must satisfy g0(t) = g0(1-t); asymmetric targets are unsupported"
        )
    l = int(l)
    if l < 1:
        raise ConfigError("period count must be a positive integer")

    # Triangle map T on [0, l]: slope +2 on [j, j+1/2], -2 on [j+1/2, j+1].
    tri_locs = [0.5 * i for i in range(2 * l)]
    tri_slopes = [2.0] + [4.0 * (-1.0) ** i for i in range(1, 2 * l)]
    n1 = len(tri_locs)

    # Half-period profile gt(s) = g0(s/2) on [0, 1] as ramps gt = gt(0) + sum
    # gamma_j [s - tau_j]_+ ; the chain rule halves every slope change. Knots
    # at or beyond the fold (t >= 1/2) are reproduced by the reflection of the
    # triangle map and never enter the profile.
    prof = [(2.0 * t, v / 2.0) for t, v in g0.knots if t < 0.5]
    taus = [t for t, _ in prof]
    gammas = [v for _, v in prof]
    n2 = max(len(taus), 1)
    if not taus:
        taus, gammas = [0.0], [0.0]  # constant profile still needs one node

    # Layer 1: h1_i = [x - tri_locs_i]_+ .
    W1 = np.ones((n1, 1))
    c1 = -np.asarray(tri_locs)

    # Layer 2: every node reads T(x) = tri_slopes . h1, shifted by its tau.
    W2 = np.tile(np.asarray(tri_slopes), (n2, 1))
    c2 = -np.asarray(taus)

    # Readout: gt(0) + sum gamma_j h2_j .
    W3 = np.asarray(gammas)[None, :]
    c3 = np.asarray([g0(0.0)])

    net = DeepNetParams((W1, W2, W3), (c1, c2, c3))
    constrained = 2 * n1 + 2 * n2 + 2
    return net, constrained
