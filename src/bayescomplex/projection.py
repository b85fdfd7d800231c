"""Constructive projections onto exact shallow-net representations.

Three algorithms with certified movement: project parameters onto the set
representing the zero function (two-phase bias collapse + prefix-sum
zeroing), the same with a free output bias (case split on |b2| with an
exact ramp construction near 0), and projection onto an arbitrary
piecewise-linear target (augmented difference network with pinned target
nodes). Movement is measured in the (u, b1, b2) coordinates, where
u_i = w1_i * w2_i is a node's effective weight; weight changes are realized
on the factor with the smaller magnitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError, SmallnessError
from .models import ShallowNetParams
from .pwl import PwlFunction, _integral_sq

BiasMove = tuple[int, float, float]
WeightChange = tuple[int, float, float]


@dataclass(frozen=True)
class ProjectionPhases:
    bias_moves: tuple[BiasMove, ...]
    weight_changes: tuple[WeightChange, ...]


@dataclass(frozen=True)
class ProjectionResult:
    theta_star: ShallowNetParams
    movement_sq: float
    bound: float
    phases: ProjectionPhases


# --------------------------------------------------------------------------
# Node-array helpers
# --------------------------------------------------------------------------


def _eval_nodes(u: np.ndarray, b: np.ndarray, b2: float, x: np.ndarray) -> np.ndarray:
    return b2 + np.maximum(0.0, x[:, None] - b[None, :]) @ u


def _norm_sq_nodes(u: np.ndarray, b: np.ndarray, b2: float) -> float:
    """Exact integral of f^2 over [0, 1] for f(x) = b2 + sum u_i [x - b_i]_+
    with all biases >= 0."""
    pts = sorted({0.0, 1.0, *(x for x in b.tolist() if 0.0 < x < 1.0)})
    return _integral_sq(pts, _eval_nodes(u, b, b2, np.array(pts)).tolist())


def movement_between(theta: ShallowNetParams, theta_star: ShallowNetParams) -> float:
    """Squared distance in effective-weight coordinates (u, b1, b2)."""
    du = theta.effective_weights() - theta_star.effective_weights()
    db = np.asarray(theta.b1) - np.asarray(theta_star.b1)
    return float(du @ du + db @ db + (theta.b2 - theta_star.b2) ** 2)


def _realize_factors(w1, w2, u_new):
    """Realize new effective weights on (w1, w2), changing the smaller
    factor; a node whose factors are both zero gets +/- sqrt(|u|) split with
    the sign carried by w2. Returns two lists of floats."""
    w1 = [float(x) for x in w1]
    w2 = [float(x) for x in w2]
    for i, target in enumerate(map(float, u_new)):
        if w1[i] * w2[i] == target:
            continue
        if w1[i] == 0.0 and w2[i] == 0.0:
            root = math.sqrt(abs(target))
            w1[i] = root
            w2[i] = math.copysign(root, target) if target != 0.0 else 0.0
        elif abs(w2[i]) <= abs(w1[i]):
            w2[i] = target / w1[i]
        else:
            w1[i] = target / w2[i]
        if w1[i] * w2[i] != target:
            # Exact realization of the new effective weight beats preserving
            # the untouched factor by one rounding ulp.
            w1[i] = 1.0
            w2[i] = target
    return w1, w2


def _result(theta, u_new, b_new, b2_new, bound, phases) -> ProjectionResult:
    """Realize the new effective weights on theta's factors and measure the
    movement from theta to the projected parameters."""
    w1, w2 = _realize_factors(theta.w1, theta.w2, u_new)
    theta_star = ShallowNetParams(
        w1=tuple(w1), w2=tuple(w2), b1=tuple(map(float, b_new)), b2=float(b2_new)
    )
    return ProjectionResult(
        theta_star=theta_star,
        movement_sq=movement_between(theta, theta_star),
        bound=bound,
        phases=phases,
    )


# --------------------------------------------------------------------------
# Core two-phase zero projection (b2 = 0, biases >= 0)
# --------------------------------------------------------------------------


def _fold(values) -> float:
    """Left-to-right sum (builtin sum compensates floats from Python 3.12 on)."""
    acc = 0.0
    for v in values:
        acc += v
    return acc


def _zero_project_core(
    u: np.ndarray,
    b: np.ndarray,
    pin_zero: int | None,
    frozen: frozenset[int],
    context: str,
):
    """Return (u_new, b_new, bias_moves, weight_changes, norm_sq).

    Phase 1 collapses maximal runs of bias gaps shorter than the local
    prefix-sum slope; phase 2 zeroes the surviving prefix sums through one
    effective-weight change per bias group. Pinned locations (the designated
    bias-0 node and frozen nodes) act as collapse anchors and frozen nodes
    never change. Both phases run on lists of floats: on k nodes numpy's
    per-call cost outweighs its arithmetic."""
    b_old = b.tolist()
    if any(x < 0.0 for x in b_old):
        raise ConfigError("zero projection requires nonnegative biases")
    norm_sq = _norm_sq_nodes(u, b, 0.0)
    threshold = 1.0 / (12.0 * (u.size + 1) ** 5)
    if not norm_sq < threshold:
        raise SmallnessError(norm_sq, threshold, context)

    u_new = u.tolist()
    b_new = list(b_old)
    bias_moves: list[BiasMove] = []
    weight_changes: list[WeightChange] = []

    pinned_biases = {b_old[i] for i in frozen}
    if pin_zero is not None:
        pinned_biases.add(b_old[pin_zero])

    # Prefix sums W_j over the distinct bias locations in [0, 1), in bias order.
    active = [i for i, x in enumerate(b_old) if x < 1.0]
    w_pref: dict[float, float] = {}
    acc = 0.0
    for i in sorted(active, key=b_old.__getitem__):
        acc += u_new[i]
        w_pref[b_old[i]] = acc
    locs = list(w_pref)
    rights = locs[1:] + [1.0]
    in_sb = [r - loc < abs(w_pref[loc]) for loc, r in zip(locs, rights)]

    j = 0
    while j < len(locs):
        if not in_sb[j]:
            j += 1
            continue
        r = j
        while r + 1 < len(locs) and in_sb[r + 1]:
            r += 1
        span = locs[j:r + 1] + [rights[r]]
        anchors = sorted(set(span) & pinned_biases)
        if len(anchors) > 1:
            raise NumericalError(
                f"{context}: collapse run spans {len(anchors)} pinned bias locations"
            )
        dest = anchors[0] if anchors else span[-1]
        for i in active:
            if b_old[i] in span and b_old[i] != dest:
                bias_moves.append((i, b_old[i], dest))
                b_new[i] = dest
        j = r + 1

    # Phase 2 on post-collapse groups that still act on [0, 1): every group's
    # summed effective weight must vanish so the merged slope change is zero.
    active = [i for i, x in enumerate(b_new) if x < 1.0]
    for loc in sorted({b_new[i] for i in active}):
        members = [i for i in active if b_new[i] == loc]
        group_sum = _fold(u_new[i] for i in members)
        if group_sum == 0.0:
            continue
        if pin_zero is not None and pin_zero in members:
            chosen = pin_zero
        else:
            free = [i for i in members if i not in frozen]
            if not free:
                raise NumericalError(
                    f"{context}: bias group at {loc} holds only pinned nodes"
                )
            chosen = free[-1]
        old = u_new[chosen]
        if not any(i > chosen for i in members):
            # The chosen node closes the index-ordered fold, so negating
            # the fold of the earlier members cancels the group exactly.
            u_new[chosen] = -_fold(u_new[i] for i in members if i < chosen)
            group_sum = _fold(u_new[i] for i in members)
        else:
            # Pinned members follow the chosen node: absorb the residual
            # iteratively, finishing with single-ulp steps when it drops
            # below the chosen value's own resolution.
            for _ in range(4):
                u_new[chosen] -= group_sum
                group_sum = _fold(u_new[i] for i in members)
                if group_sum == 0.0:
                    break
            for _ in range(64):
                if group_sum == 0.0:
                    break
                toward = -math.inf if group_sum > 0.0 else math.inf
                u_new[chosen] = math.nextafter(u_new[chosen], toward)
                group_sum = _fold(u_new[i] for i in members)
        if group_sum != 0.0:
            raise NumericalError(
                f"{context}: bias group at {loc} left residual {group_sum!r}"
            )
        weight_changes.append((chosen, old, u_new[chosen]))

    return u_new, b_new, bias_moves, weight_changes, norm_sq


def project_to_zero(theta: ShallowNetParams) -> ProjectionResult:
    """Project onto {theta : f_theta = 0 on [0, 1]} for a network with
    b2 = 0, with movement_sq <= 96 k^{13/5} ||f||^{4/5}."""
    if theta.b2 != 0.0:
        raise ConfigError(f"project_to_zero requires b2 = 0, got {theta.b2}")
    u = theta.effective_weights()
    b = np.asarray(theta.b1, dtype=float)
    u_new, b_new, moves, changes, norm_sq = _zero_project_core(
        u, b, pin_zero=None, frozen=frozenset(), context="project_to_zero"
    )
    bound = 96.0 * theta.k ** (13.0 / 5.0) * norm_sq ** (2.0 / 5.0)
    return _result(theta, u_new, b_new, 0.0, bound,
                   ProjectionPhases(tuple(moves), tuple(changes)))


# --------------------------------------------------------------------------
# Projection with free output bias
# --------------------------------------------------------------------------


def _with_bias_core(
    u: np.ndarray,
    b: np.ndarray,
    b2: float,
    norm_sq: float,
    frozen: frozenset[int],
    context: str,
):
    """Return (u_new, b_new, b2_new, bias_moves, weight_changes). Biases
    must be >= 0."""
    eps = math.sqrt(norm_sq)
    if abs(b2) <= math.sqrt(eps):
        # Case 1: zero b2, then the two-phase projection.
        u_new, b_new, moves, changes, _ = _zero_project_core(
            u, b, pin_zero=None, frozen=frozen, context=context
        )
        return u_new, b_new, 0.0, moves, changes
    if b2 < 0.0:
        # Mirror through f -> -f.
        u_m, b_m, b2_m, moves, changes = _with_bias_core(
            -u, b, -b2, norm_sq, frozen, context
        )
        changes = [(i, -old, -new) for i, old, new in changes]
        return np.negative(u_m), b_m, -b2_m, moves, changes

    # Case 2: b2 > sqrt(||f||). Build the breakpoint profile of f.
    interior = np.unique(b[(b > 0.0) & (b < 1.0)])
    pts = np.unique(np.concatenate([[0.0, 1.0], interior]))
    vals = _eval_nodes(u, b, b2, pts)
    slopes = np.diff(vals) / np.diff(pts)

    # First crossing of b2/2.
    half = b2 / 2.0
    x0 = None
    for i in range(slopes.size):
        if vals[i] > half >= vals[i + 1]:
            x0 = pts[i] + (half - vals[i]) / slopes[i]
            break
    if x0 is None:
        raise SmallnessError(norm_sq, b2 * b2 / 4.0, f"{context}: f never descends to b2/2")

    # Last x < x0 with f(x) >= b2 (f(0) = b2 exactly).
    x_hi = 0.0
    for i in range(slopes.size):
        lo, hi = pts[i], min(pts[i + 1], x0)
        if lo >= x0:
            break
        v_lo = vals[i]
        v_hi = vals[i] + slopes[i] * (hi - lo)
        if v_hi >= b2:
            x_hi = max(x_hi, hi)
        elif v_lo >= b2 and slopes[i] < 0.0:
            x_hi = max(x_hi, lo + (b2 - v_lo) / slopes[i])

    # Steepest descending segment within [x_hi, x0].
    best = None
    for i in range(slopes.size):
        lo, hi = max(pts[i], x_hi), min(pts[i + 1], x0)
        if hi <= lo:
            continue
        if best is None or slopes[i] < best[0]:
            best = (slopes[i], lo, hi)
    if best is None or best[0] >= 0.0:
        raise SmallnessError(norm_sq, b2 * b2 / 4.0, f"{context}: no descending segment")
    x1 = (best[1] + best[2]) / 2.0

    shifted = np.flatnonzero(b < x1)
    if any(i in frozen for i in shifted):
        raise NumericalError(f"{context}: pinned node inside the shift region")
    w_one = float(u[shifted].sum())
    f_x1 = float(b2 + u @ np.maximum(0.0, x1 - b))
    shift = x1 - f_x1 / w_one  # > x1 since f(x1) > 0 > w_one

    tail = np.flatnonzero(b >= x1)
    if tail.size == 0:
        raise SmallnessError(norm_sq, b2 * b2 / 4.0, f"{context}: no node right of x1")
    # Every free node tied at the first bias right of x1 moves to 0; the
    # first of them (i0) takes on the shifted cluster's total slope.
    b_first = b[tail].min()
    retargeted = [int(i) for i in tail if b[i] == b_first and i not in frozen]
    if not retargeted:
        raise NumericalError(f"{context}: pinned node would be retargeted to 0")
    i0 = retargeted[0]
    if b_first > x1 + 4.0 * eps:
        raise SmallnessError(norm_sq, b2 * b2 / 4.0, f"{context}: nearest node beyond x1 + 4 eps")

    moves: list[BiasMove] = [(int(i), float(b[i]), float(b[i] - shift)) for i in shifted]
    moves += [(i, float(b_first), 0.0) for i in retargeted]

    # Delegate on the virtual net: untouched tail nodes plus the retargeted
    # nodes at bias 0, i0 carrying the shifted cluster's total slope.
    sel = [int(i) for i in tail]
    u_virt = u[sel].copy()
    b_virt = b[sel].copy()
    pos_i0 = sel.index(i0)
    u_virt[pos_i0] = w_one + u[i0]
    b_virt[[sel.index(i) for i in retargeted]] = 0.0
    frozen_virt = frozenset(sel.index(i) for i in frozen if i in sel)
    u_star, b_star, v_moves, v_changes, _ = _zero_project_core(
        u_virt, b_virt, pin_zero=pos_i0, frozen=frozen_virt, context=f"{context}: delegate"
    )

    u_new = u.copy()
    b_new = b.copy()
    b_new[shifted] -= shift
    for pos, i in enumerate(sel):
        b_new[i] = b_star[pos]
        u_new[i] = u_star[pos]
    u_new[i0] -= w_one
    moves += [(sel[pos], old, new) for pos, old, new in v_moves]
    changes: list[WeightChange] = []
    for pos, old, new in v_changes:
        i = sel[pos]
        if i == i0:
            old, new = old - w_one, new - w_one
        changes.append((i, old, new))
    return u_new, b_new, b2, moves, changes


def project_to_zero_with_bias(
    theta: ShallowNetParams, R: float, guard_scale: float = 1e-3
) -> ProjectionResult:
    """Project onto the zero-representation set with b2 free; movement obeys
    the k^5 R^{4/5} ||f||^{2/5} scaling."""
    if R <= 0:
        raise ConfigError(f"R must be > 0, got {R}")
    k = theta.k
    u = theta.effective_weights()
    b = np.asarray(theta.b1, dtype=float)
    if np.any(b < 0.0):
        raise ConfigError("projection requires nonnegative biases")
    norm_sq = _norm_sq_nodes(u, b, theta.b2)
    threshold = guard_scale / (R**4 * k**5)
    if not norm_sq < threshold:
        raise SmallnessError(norm_sq, threshold, "project_to_zero_with_bias")
    u_new, b_new, b2_new, moves, changes = _with_bias_core(
        u, b, theta.b2, norm_sq, frozenset(), "project_to_zero_with_bias"
    )
    bound = k**5 * R ** (4.0 / 5.0) * norm_sq ** (1.0 / 5.0)
    return _result(theta, u_new, b_new, b2_new, bound,
                   ProjectionPhases(tuple(moves), tuple(changes)))


# --------------------------------------------------------------------------
# Projection onto an arbitrary piecewise-linear target
# --------------------------------------------------------------------------


def project_to_target(
    theta: ShallowNetParams, g: PwlFunction, R: float, guard_scale: float = 1e-3
) -> ProjectionResult:
    """Project onto {theta : f_theta = g on [0, 1]} by zero-projecting the
    augmented difference network h = f_theta - g with the c target nodes
    pinned; movement obeys the k^7 R^{4/5} ||g - f||^{2/5} scaling."""
    if R <= 0:
        raise ConfigError(f"R must be > 0, got {R}")
    k = theta.k
    c = len(g.knots)
    if c > k:
        raise ConfigError(f"target has c={c} knots but the network has only k={k} nodes")
    u_real = theta.effective_weights()
    b_real = np.asarray(theta.b1, dtype=float)
    if np.any(b_real < 0.0):
        raise ConfigError("projection requires nonnegative biases")
    knot_t = np.array([t for t, _ in g.knots])
    knot_v = np.array([v for _, v in g.knots])
    u_aug = np.concatenate([u_real, -knot_v])
    b_aug = np.concatenate([b_real, knot_t])
    b2_aug = theta.b2 - g.bias
    frozen = frozenset(range(k, k + c))

    norm_sq = _norm_sq_nodes(u_aug, b_aug, b2_aug)
    total = k + c
    threshold = guard_scale / (R**4 * total**5)
    if not norm_sq < threshold:
        raise SmallnessError(norm_sq, threshold, "project_to_target")
    u_new, b_new, b2_new, moves, changes = _with_bias_core(
        u_aug, b_aug, b2_aug, norm_sq, frozen, "project_to_target"
    )
    for j in range(c):
        if u_new[k + j] != u_aug[k + j] or b_new[k + j] != b_aug[k + j]:
            raise NumericalError(f"project_to_target: pinned target node {j} was altered")
    bound = k**7 * R ** (4.0 / 5.0) * norm_sq ** (1.0 / 5.0)
    real_moves = tuple(m for m in moves if m[0] < k)
    real_changes = tuple(ch for ch in changes if ch[0] < k)
    return _result(theta, u_new[:k], b_new[:k], b2_new + g.bias, bound,
                   ProjectionPhases(real_moves, real_changes))
