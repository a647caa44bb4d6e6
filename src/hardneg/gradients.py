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

Each gradient reads the arrays its loss's value pass kept on the LossValue
(distances, active hinge terms, mined samples, multi-similarity weights, the
normalizer and, for an optimal negative, the table), so one loss step
computes each of them once.

Hinge subgradients at the kink are taken as 0 (terms contribute only when
strictly positive).
"""

from __future__ import annotations

import numpy as np

# Nothing here calls build_pairs, pairwise, ms_mining or loop_ms_mining; they
# stay as attributes of this module for perfbench to wrap.
from .batch_engine import VARIANTS, LabeledBatch, build_pairs, optimal_distance_table  # noqa: F401
from .losses import (  # noqa: F401
    LossConfig,
    loop_hphn,
    loop_ls,
    loop_ms,
    loop_ms_mining,
    loop_triplet,
    ms_mining,
    pairwise,
)
from .losses import hphn_triplet as _hphn_loss
from .losses import lifted_structure as _ls_loss
from .losses import ms_loss as _ms_loss
from .losses import triplet as _triplet_loss
from .vectorized import CASE_BOUNDS, EXPLICIT_NORM_BELOW, SegmentDotSolution

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
    """(n, n) matrix of the values summed at their (row, col) entries, broadcast to the values."""
    index = np.broadcast_to(rows * n + cols, np.shape(values))
    flat = np.bincount(index.ravel(), weights=np.ravel(values), minlength=n * n)
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
    if isinstance(sol, SegmentDotSolution):
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


def _hinge_step(loss, batch: LabeledBatch) -> np.ndarray:
    """Gradient of a hinge loss from the arrays its value pass kept.

    Every active term adds its positive distance and subtracts its negative
    one: a mined sample's distance or, when the loss kept a table, its
    row's optimal distance.
    """
    emb, n, active, table = batch.embeddings, batch.batch_size, loss.active, loss.table
    weights, m = _square(n, *loss.positive, active), None
    if table is None:
        weights -= _square(n, *loss.negative, active)
    else:
        rows = np.bincount(loss.negative[active], minlength=len(table.combos))
        m = optimal_distance_grad_stack(n, table.combos, table.solution, rows)
    return chord_grad(emb, loss.dist, weights, m) / loss.norm


def _ms_step(loss, batch: LabeledBatch) -> np.ndarray:
    """Gradient of multi-similarity: W E + W^T E, the mined sets frozen."""
    emb = batch.embeddings
    return (loss.weights @ emb + loss.weights.T @ emb) / loss.norm


# Losses available to the trainer: name -> (needs table, value function, step).
# Value functions are named, not held, and read from this module at call time,
# so a wrapper set on the module attribute (as perfbench's tracer sets them)
# is the one each step calls.
LOSS_REGISTRY = {
    "triplet": (False, "_triplet_loss", _hinge_step),
    "loop_triplet": (True, "loop_triplet", _hinge_step),
    "hphn_triplet": (False, "_hphn_loss", _hinge_step),
    "loop_hphn": (True, "loop_hphn", _hinge_step),
    "lifted_structure": (False, "_ls_loss", _hinge_step),
    "loop_ls": (True, "loop_ls", _hinge_step),
    "ms": (False, "_ms_loss", _ms_step),
    "loop_ms": (True, "loop_ms", _ms_step),
}


def _value(name: str, batch: LabeledBatch, config: LossConfig, variant: str):
    """A loss's LossValue, its table built first when it needs one, and its step."""
    if name not in LOSS_REGISTRY:
        raise ValueError(f"unknown loss {name!r}")
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    needs_table, value_name, step = LOSS_REGISTRY[name]
    value_fn = globals()[value_name]
    if needs_table:
        return value_fn(batch, optimal_distance_table(batch, variant=variant), config), step
    return value_fn(batch, config), step


def loss_and_grad(name: str, batch: LabeledBatch, config: LossConfig, variant="arc"):
    """Evaluate a loss by name, returning (LossValue, gradient)."""
    loss, step = _value(name, batch, config, variant)
    return loss, step(loss, batch)


def evaluate_loss(name: str, batch: LabeledBatch, config: LossConfig, variant="arc") -> float:
    """Loss value only; used by the finite-difference oracle."""
    return _value(name, batch, config, variant)[0].total


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
