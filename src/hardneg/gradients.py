"""Analytic gradients of the losses, and finite-difference oracles.

Optimal distances are differentiated under the frozen-optimum (envelope)
convention: the winning case's active set is held fixed. An angle pinned
at 0 makes the optimal point the first endpoint (identity Jacobian), an
angle pinned at the arc extent makes it the second endpoint, and a free
angle is held at its stationary value, where the envelope theorem makes
the fixed-angle derivative exact. Sensitivities of the stationary angles
themselves are never formed. Each gradient is one (B, B) coefficient matrix
times E; an arc row's 4x4 block of it comes in closed form from the solve's
(a, b, c, d) and the winning angles, with no second pass over the dots.

Hinge subgradients at the kink are taken as 0 (terms contribute only when
strictly positive).
"""

from __future__ import annotations

import numpy as np

from .arc_solver import ArcProblem, KktSolution, active_set_margin
from .batch_engine import LabeledBatch, build_pairs, optimal_distance_table
from .errors import NondifferentiablePoint
from .losses import (  # noqa: F401  ms_mining and loop_ms_mining are re-exported
    LossConfig,
    hardest,
    loop_hphn,
    loop_ls,
    loop_ms,
    loop_ms_mining,
    loop_triplet,
    ms_masks,
    ms_mining,
    ms_weighting,
    pairwise,
)
from .losses import hphn_triplet as _hphn_loss
from .losses import lifted_structure as _ls_loss
from .losses import ms_loss as _ms_loss
from .losses import triplet as _triplet_loss
from .vectorized import CASE_BOUNDS, EXPLICIT_NORM_BELOW, SegmentStackSolution

# Distances below this are treated as kinks of the norm; their gradient
# contribution is dropped.
_TINY_DIST = 1e-12
# Per case, the endpoint columns (x1, x2, y1, y2) an angle pinned at its
# extent takes over, and their adjoint rows there: p1 = x2, -p2 = -y2.
_PINNED_HIGH = CASE_BOUNDS[:, [1, 1, 3, 3]]
_HIGH_ROW = np.array([0.0, 1.0, 0.0, -1.0])


def arc_point_adjoints(
    x1, x2, n2, endpoint_dot, residual_norm, angle, delta,
    pinned_low: bool, pinned_high: bool,
):
    """(dp/dx1)^T delta and (dp/dx2)^T delta for p = x1 cos(a) + n2 sin(a).

    With the angle pinned at 0 the point is x1; pinned at the extent it is
    x2. Otherwise the angle is held fixed and the Jacobians of the basis
    construction n2 = (x2 - (x1.x2) x1) / |...| are applied.
    """
    if pinned_low:
        return delta.copy(), np.zeros_like(delta)
    if pinned_high:
        return np.zeros_like(delta), delta.copy()
    cos_a, sin_a = np.cos(angle), np.sin(angle)
    dt = delta - (delta @ n2) * n2
    dt_x1 = dt @ x1
    g_x1 = cos_a * delta + sin_a * (-(dt_x1) * x2 - endpoint_dot * dt) / residual_norm
    g_x2 = sin_a * (dt - dt_x1 * x1) / residual_norm
    return g_x1, g_x2


def _square(n: int, rows, cols, values) -> np.ndarray:
    """(n, n) matrix of the values summed at their (row, col) entries."""
    flat = np.bincount(np.ravel(rows * n + cols), weights=np.ravel(values), minlength=n * n)
    return flat.reshape(n, n)


def chord_grad(emb, dist, weights, minus=None) -> np.ndarray:
    """Gradient of sum_ab weights[a, b] * |e_a - e_b| - minus E as one (B, B) matrix times E.

    With S = weights / dist and A = S + S^T the matrix is diag(rowsum(A)) - A
    - minus. Entries with a vanishing distance (a norm kink) are dropped.
    Below EXPLICIT_NORM_BELOW the 1/d weights would amplify the rounding of
    the product, so those entries are applied as explicit unit vectors
    (e_a - e_b) / d instead.
    """
    keep = (weights != 0) & (dist > _TINY_DIST)
    near = keep & (dist < EXPLICIT_NORM_BELOW)
    far = keep & ~near
    s = np.where(far, weights / np.where(far, dist, 1.0), 0.0)
    a = s + s.T
    a.flat[:: len(a) + 1] = -a.sum(axis=1)
    if minus is not None:
        a += minus
    grad = -(a @ emb)
    if np.any(near):
        heads, tails = np.nonzero(near)
        u = (weights[near] / dist[near])[:, None] * (emb[heads] - emb[tails])
        terms = np.arange(len(heads))
        incidence = np.zeros((len(emb), len(heads)))
        incidence[heads, terms] = 1.0
        incidence[tails, terms] -= 1.0
        grad += incidence @ u
    return grad


def optimal_distance_grad_stack(n, combos, sol, weights) -> np.ndarray:
    """(n, n) matrix M such that M E sums the weighted optimal-distance gradients of a table.

    Every optimal point is a linear combination of its row's four
    endpoints, so each row's gradient is a 4x4 block of coefficients:
    block[col, m] is the weight of endpoint m in the adjoint of endpoint
    col. Arc rows apply per-combination pinning from the winning cases;
    segment rows hold k1 and k2 fixed, so the adjoints of p1 = (1 - k1) x1 +
    k1 x2 and p2 = (1 - k2) y1 + k2 y2 are (1 - k1, k1, -(1 - k2), -k2) times
    the unit difference. Combinations with zero weight or a vanishing
    distance (a norm kink) contribute nothing.
    """
    sel = np.flatnonzero((weights != 0) & (sol.distance > _TINY_DIST))
    if isinstance(sol, SegmentStackSolution):
        k1, k2 = sol.k1[sel], sol.k2[sel]
        ends = np.stack([1.0 - k1, k1, -(1.0 - k2), -k2], axis=1)
        blocks = ends[:, :, None] * ends[:, None, :] / sol.distance[sel][:, None, None]
    else:
        blocks = _arc_adjoint_blocks(sol, sel)
    blocks *= weights[sel][:, None, None]
    rows = combos[sel]
    return _square(n, rows[:, :, None], rows[:, None, :], blocks)


def _arc_adjoint_blocks(sol, sel) -> np.ndarray:
    """(n, 4, 4) adjoint coefficients of the selected arc rows over (x1, x2, y1, y2).

    A point p = e1 cos(t) + n2 sin(t), n2 = (e2 - c0 e1) / s, has endpoint
    coefficients (cos t - c0 sin t / s, sin t / s). With t held fixed its
    adjoint is that row times the unit difference delta = (p1 - p2) / rho,
    plus the Jacobian of n2 in its side's own two columns. At t = 0 (a lower
    pin or a collapsed side) this is the identity; an upper pin makes p = e2.
    The dots of delta come from the solve's (a, b, c, d) = -(n2x.n2y, x1.n2y,
    n2x.y1, x1.y1) and the winning angles: rho delta.x1 = cos a + d cos b +
    b sin b, rho delta.n2x = sin a + c cos b + a sin b, and the same for
    -delta on the y side with b and c swapped.
    """
    a, b, c, d = sol.coeffs[sel].T
    alpha, beta, rho = sol.alpha[sel], sol.beta[sel], sol.distance[sel]
    ca, sa, cb, sb = np.cos(alpha), np.sin(alpha), np.cos(beta), np.sin(beta)
    high = _PINNED_HIGH[sol.case_id[sel]]
    sides = (  # first column, cos, sin, c0, s, collapsed, rho delta.e1, rho delta.n2
        (0, ca, sa, sol.dot_x[sel], sol.res_x[sel], sol.x_collapsed[sel],
         ca + d * cb + b * sb, sa + c * cb + a * sb),
        (2, cb, sb, sol.dot_y[sel], sol.res_y[sel], sol.y_collapsed[sel],
         cb + d * ca + c * sa, sb + b * ca + a * sa),
    )
    ends = np.empty((len(sel), 4))  # endpoint coefficients of p1 and -p2
    jacobians = []
    for first, cos, sin, c0, res, collapsed, e1_dot, n2_dot in sides:
        inv = np.where(collapsed, 0.0, 1.0 / np.where(collapsed, 1.0, res))
        s_over = sin * inv
        ends[:, first] = cos - c0 * s_over
        ends[:, first + 1] = s_over
        # Unless pinned at the extent, n2's Jacobian adds s_over (c0 (delta.n2)
        # n2 - (delta.e1) e2) to row e1, -s_over ((delta.n2) n2 + (delta.e1) e1) to e2.
        scale = np.where(high[:, first], 0.0, s_over) / rho
        k = scale * n2_dot * inv
        jacobians.append((first, c0 * c0 * k, c0 * k - scale * e1_dot, k))
    ends[:, 2:] *= -1.0
    blocks = np.where(high, _HIGH_ROW, ends)[:, :, None] * (ends / rho[:, None])[:, None, :]
    for first, j11, j12, j22 in jacobians:
        blocks[:, first, first] -= j11
        blocks[:, first, first + 1] += j12
        blocks[:, first + 1, first] += j12
        blocks[:, first + 1, first + 1] -= j22
    return blocks


def _norm_factor(batch, config, n_terms):
    if config.normalization == "classes":
        return batch.num_classes()
    return max(n_terms, 1)


def triplet_grad(batch: LabeledBatch, config: LossConfig):
    """(loss, gradient) of the plain triplet loss."""
    loss = _triplet_loss(batch, config)
    dist, _ = pairwise(batch)
    labels = batch.labels
    pairs = build_pairs(batch)
    i_idx, j_idx = pairs.idx1, pairs.idx2
    neg_mask = labels[i_idx][:, None] != labels[None, :]
    d_pos = dist[i_idx, j_idx]
    active = neg_mask & (d_pos[:, None] - dist[i_idx, :] + config.margin > 0.0)
    # Each active (pair, negative) term adds d(i, j) - d(i, k).
    weights = np.zeros_like(dist)
    weights[i_idx] = -active.astype(float)
    weights[i_idx, j_idx] = active.sum(axis=1)
    grad = chord_grad(batch.embeddings, dist, weights)
    return loss, grad / _norm_factor(batch, config, int(neg_mask.sum()))


def loop_triplet_grad(batch: LabeledBatch, table, config: LossConfig):
    """(loss, gradient) of the optimal-negative triplet loss."""
    loss = loop_triplet(batch, table, config)
    dist, _ = pairwise(batch)
    emb = batch.embeddings
    combos = table.combos
    # Both sides of every combination play the positive pair once.
    heads, tails = combos[:, [0, 2]], combos[:, [1, 3]]
    active = dist[heads, tails] - table.distances[:, None] + config.margin > 0.0
    m = optimal_distance_grad_stack(len(emb), combos, table.solution, active.sum(axis=1))
    grad = chord_grad(emb, dist, _square(len(emb), heads, tails, active), m)
    return loss, grad / _norm_factor(batch, config, 2 * len(combos))


def _pair_loss_grad(batch, config, table, positive_is_distance):
    """Shared gradient for HPHN (hardest positive) and LS (pair distance).

    Without a table the hardest negative is mined from the batch; with one
    it is each pair's nearest optimal distance. Each active pair adds its
    positive distance and subtracts its mined negative distance.
    """
    dist, _ = pairwise(batch)
    emb = batch.embeddings
    pairs = build_pairs(batch)
    if positive_is_distance:
        hp, hp_a, hp_b = dist[pairs.idx1, pairs.idx2], pairs.idx1, pairs.idx2
    else:
        hp, hp_a, hp_b = hardest(dist, batch.labels, pairs, positive=True)
    if table is None:
        hn, hn_a, hn_b = hardest(dist, batch.labels, pairs, positive=False)
    else:
        hn = table.pair_min
    active = hp + config.margin - hn > 0.0
    weights, m = _square(len(emb), hp_a, hp_b, active), None
    if table is None:
        weights -= _square(len(emb), hn_a, hn_b, active)
    else:
        nearest = np.bincount(table.nearest[active], minlength=len(table.combos))
        m = optimal_distance_grad_stack(len(emb), table.combos, table.solution, nearest)
    return chord_grad(emb, dist, weights, m) / _norm_factor(batch, config, len(pairs))


def hphn_grad(batch: LabeledBatch, config: LossConfig):
    loss = _hphn_loss(batch, config)
    return loss, _pair_loss_grad(batch, config, None, False)


def loop_hphn_grad(batch: LabeledBatch, table, config: LossConfig):
    loss = loop_hphn(batch, table, config)
    return loss, _pair_loss_grad(batch, config, table, False)


def ls_grad(batch: LabeledBatch, config: LossConfig):
    loss = _ls_loss(batch, config)
    return loss, _pair_loss_grad(batch, config, None, True)


def loop_ls_grad(batch: LabeledBatch, table, config: LossConfig):
    loss = loop_ls(batch, table, config)
    return loss, _pair_loss_grad(batch, config, table, True)


def _ms_grad(batch, config, table=None):
    """Weighting-stage gradient W E + W^T E; the mined sets are frozen."""
    _, sim = pairwise(batch)
    _, weights = ms_weighting(sim, *ms_masks(batch.labels, sim, config, table), config)
    emb = batch.embeddings
    return (weights @ emb + weights.T @ emb) / _norm_factor(batch, config, batch.batch_size)


def ms_grad(batch: LabeledBatch, config: LossConfig):
    return _ms_loss(batch, config), _ms_grad(batch, config)


def loop_ms_grad(batch: LabeledBatch, table, config: LossConfig):
    return loop_ms(batch, table, config), _ms_grad(batch, config, table)


# Losses available to the trainer: name -> (needs table, function).
LOSS_REGISTRY = {
    "triplet": (False, triplet_grad),
    "loop_triplet": (True, loop_triplet_grad),
    "hphn_triplet": (False, hphn_grad),
    "loop_hphn": (True, loop_hphn_grad),
    "lifted_structure": (False, ls_grad),
    "loop_ls": (True, loop_ls_grad),
    "ms": (False, ms_grad),
    "loop_ms": (True, loop_ms_grad),
}


def loss_and_grad(name: str, batch: LabeledBatch, config: LossConfig, variant="arc"):
    """Evaluate a loss by name, returning (LossValue, gradient)."""
    if name not in LOSS_REGISTRY:
        raise ValueError(f"unknown loss {name!r}")
    needs_table, fn = LOSS_REGISTRY[name]
    if needs_table:
        table = optimal_distance_table(batch, variant=variant)
        return fn(batch, table, config)
    return fn(batch, config)


def evaluate_loss(name: str, batch: LabeledBatch, config: LossConfig, variant="arc") -> float:
    """Loss value only; used by the finite-difference oracle."""
    return loss_and_grad(name, batch, config, variant)[0].total


def project_tangent(embeddings: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """Remove radial components; what a renormalizing perturbation sees."""
    radial = np.sum(embeddings * grads, axis=1, keepdims=True)
    return grads - radial * embeddings


def finite_diff_grad(loss_fn, batch: LabeledBatch, index: int, h: float = 1e-5) -> np.ndarray:
    """Central differences w.r.t. one embedding, renormalizing perturbations.

    loss_fn maps a LabeledBatch to a float. The perturbed row is projected
    back to the sphere exactly as the training step does, so the result is
    the tangential gradient.
    """
    if h <= 0:
        raise ValueError("step size must be positive")
    base = batch.embeddings
    grad = np.zeros(base.shape[1])
    for coord in range(base.shape[1]):
        values = []
        for sign in (1.0, -1.0):
            row = base[index].copy()
            row[coord] += sign * h
            emb = base.copy()
            emb[index] = row / np.linalg.norm(row)
            values.append(
                loss_fn(LabeledBatch(embeddings=emb, labels=batch.labels,
                                     samples_per_class=batch.samples_per_class))
            )
        grad[coord] = (values[0] - values[1]) / (2.0 * h)
    return grad


def analytic_loop_triplet_grad(
    problem: ArcProblem,
    solution: KktSolution,
    margin: float,
    stability_margin: float = 1e-9,
):
    """Gradients of the squared-distance tuple loss with optimal negatives.

    The tuple loss is [ |x1 - x2|^2 - |p1 - p2|^2 + margin ]_+ with (p1, p2)
    the optimal pair. Returns a dict with keys x1, x2, y1, y2. Raises
    NondifferentiablePoint at hinge kinks and at active-set boundaries
    (where the winning case is about to change), detected within
    stability_margin.
    """
    pos_sq = float(np.sum((problem.x1 - problem.x2) ** 2))
    hinge_arg = pos_sq - solution.distance**2 + margin
    if abs(hinge_arg) < stability_margin:
        raise NondifferentiablePoint(f"hinge argument {hinge_arg:.3e} at the kink")
    zeros = {name: np.zeros_like(problem.x1) for name in ("x1", "x2", "y1", "y2")}
    if hinge_arg < 0.0:
        return zeros
    if active_set_margin(problem, solution) < stability_margin:
        raise NondifferentiablePoint("winning case at an active-set boundary")
    case = solution.candidate.case_id
    delta = solution.p1 - solution.p2
    pinned = CASE_BOUNDS[case]
    a_low = bool(pinned[0]) or problem.x_collapsed
    a_high = bool(pinned[1]) and not a_low
    b_low = bool(pinned[2]) or problem.y_collapsed
    b_high = bool(pinned[3]) and not b_low
    res_x = float(np.sin(problem.alpha0))
    res_y = float(np.sin(problem.beta0))
    g_x1, g_x2 = arc_point_adjoints(
        problem.x1, problem.x2, problem.basis_x.n2, float(problem.x1 @ problem.x2),
        res_x, solution.candidate.alpha, delta, a_low, a_high,
    )
    # (dp2/dy)^T delta; it enters the loss with a plus sign.
    g_y1, g_y2 = arc_point_adjoints(
        problem.y1, problem.y2, problem.basis_y.n2, float(problem.y1 @ problem.y2),
        res_y, solution.candidate.beta, delta, b_low, b_high,
    )
    diff = problem.x1 - problem.x2
    return {
        "x1": 2.0 * (diff - g_x1),
        "x2": 2.0 * (-diff - g_x2),
        "y1": 2.0 * g_y1,
        "y2": 2.0 * g_y2,
    }
