"""Analytic gradients of the losses, and finite-difference oracles.

Optimal distances are differentiated under the frozen-optimum (envelope)
convention: the winning case's active set is held fixed. An angle pinned
at 0 makes the optimal point the first endpoint (identity Jacobian), an
angle pinned at the arc extent makes it the second endpoint, and a free
angle is held at its stationary value, where the envelope theorem makes
the fixed-angle derivative exact. Sensitivities of the stationary angles
themselves are never formed.

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
from .vectorized import SegmentStackSolution

# Distances below this are treated as kinks of the norm; their gradient
# contribution is dropped.
_TINY_DIST = 1e-12

_ALPHA_LOW_CASES = frozenset((1, 5, 6))
_ALPHA_HIGH_CASES = frozenset((2, 7, 8))
_BETA_LOW_CASES = frozenset((3, 5, 7))
_BETA_HIGH_CASES = frozenset((4, 6, 8))


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


def optimal_distance_grad_stack(emb, combos, sol, weights) -> np.ndarray:
    """Sum of weighted optimal-distance gradients, scattered over a table.

    Accumulates sum_c weights[c] * d(optimal distance_c)/d(embedding) for
    every combination at once. Arc rows apply per-combination pinning from
    the winning cases; segment rows hold k1 and k2 fixed, so the adjoints
    of p1 = (1 - k1) x1 + k1 x2 and p2 = (1 - k2) y1 + k2 y2 are linear.
    Combinations with zero weight or a vanishing distance (a norm kink)
    contribute nothing.
    """
    grad = np.zeros_like(emb)
    sel = np.flatnonzero((np.asarray(weights) != 0) & (sol.distance > _TINY_DIST))
    if len(sel) == 0:
        return grad
    w = np.asarray(weights, dtype=float)[sel][:, None]
    delta_hat = (sol.p1[sel] - sol.p2[sel]) / sol.distance[sel][:, None]
    if isinstance(sol, SegmentStackSolution):
        k1, k2 = sol.k1[sel][:, None], sol.k2[sel][:, None]
        coefficients = (1.0 - k1, k1, -(1.0 - k2), -k2)
        adjoints = (k * delta_hat for k in coefficients)
    else:
        adjoints = _arc_adjoints(emb, combos[sel], sol, sel, delta_hat)
    # Adjoints are generated one column at a time and scattered at once,
    # so at most one side's (C, D) temporaries are alive.
    for col, g in enumerate(adjoints):
        np.add.at(grad, combos[sel, col], w * g)
    return grad


def _arc_adjoints(emb, combos, sol, sel, delta_hat):
    """Yield the arc adjoints for columns x1, x2, y1, y2 of the selected rows.

    Pinned angles keep their endpoint identity (cases and collapsed sides);
    free angles apply the Jacobians of the basis construction.
    """
    case = sol.case_id[sel]
    sides = (
        (0, 1, sol.n2x, sol.dot_x, sol.res_x, sol.alpha,
         (1, 5, 6), (2, 7, 8), sol.x_collapsed, delta_hat),
        (2, 3, sol.n2y, sol.dot_y, sol.res_y, sol.beta,
         (3, 5, 7), (4, 6, 8), sol.y_collapsed, -delta_hat),
    )
    for i_col, j_col, n2_all, c0_all, s_all, ang_all, low_cases, high_cases, col_all, dvec in sides:
        n2 = n2_all[sel]
        c0 = c0_all[sel][:, None]
        s = s_all[sel][:, None]
        ang = ang_all[sel][:, None]
        low = np.isin(case, low_cases) | col_all[sel]
        high = np.isin(case, high_cases) & ~low
        x1r, x2r = emb[combos[:, i_col]], emb[combos[:, j_col]]
        s_safe = np.where((low | high)[:, None], 1.0, s)
        dt = dvec - np.sum(dvec * n2, axis=1, keepdims=True) * n2
        dt_x1 = np.sum(dt * x1r, axis=1, keepdims=True)
        g1_free = np.cos(ang) * dvec + np.sin(ang) * (-dt_x1 * x2r - c0 * dt) / s_safe
        g2_free = np.sin(ang) * (dt - dt_x1 * x1r) / s_safe
        lowc, highc = low[:, None], high[:, None]
        yield np.where(lowc, dvec, np.where(highc, 0.0, g1_free))
        yield np.where(lowc, 0.0, np.where(highc, dvec, g2_free))


def _norm_factor(batch, config, n_terms):
    if config.normalization == "classes":
        return batch.num_classes()
    return max(n_terms, 1)


def triplet_grad(batch: LabeledBatch, config: LossConfig):
    """(loss, gradient) of the plain triplet loss."""
    loss = _triplet_loss(batch, config)
    dist, _ = pairwise(batch)
    emb = batch.embeddings
    labels = batch.labels
    pairs = build_pairs(batch)
    grad = np.zeros_like(emb)
    i_idx, j_idx = pairs.idx1, pairs.idx2
    neg_mask = labels[i_idx][:, None] != labels[None, :]
    d_pos = dist[i_idx, j_idx]
    active = neg_mask & (d_pos[:, None] - dist[i_idx, :] + config.margin > 0.0)
    # Positive-distance part: each active negative adds one unit vector.
    counts = active.sum(axis=1).astype(float)
    pos_ok = d_pos > _TINY_DIST
    u_pos = np.zeros_like(emb[i_idx])
    u_pos[pos_ok] = (emb[i_idx][pos_ok] - emb[j_idx][pos_ok]) / d_pos[pos_ok, None]
    np.add.at(grad, i_idx, counts[:, None] * u_pos)
    np.add.at(grad, j_idx, -counts[:, None] * u_pos)
    # Negative-distance part, one term per active (pair, negative sample).
    p_sel, k_sel = np.nonzero(active)
    anchors = i_idx[p_sel]
    d_neg = dist[anchors, k_sel]
    neg_ok = d_neg > _TINY_DIST
    anchors, k_sel, d_neg = anchors[neg_ok], k_sel[neg_ok], d_neg[neg_ok]
    u_neg = (emb[anchors] - emb[k_sel]) / d_neg[:, None]
    np.add.at(grad, anchors, -u_neg)
    np.add.at(grad, k_sel, u_neg)
    grad /= _norm_factor(batch, config, int(neg_mask.sum()))
    return loss, grad


def loop_triplet_grad(batch: LabeledBatch, table, config: LossConfig):
    """(loss, gradient) of the optimal-negative triplet loss."""
    loss = loop_triplet(batch, table, config)
    dist, _ = pairwise(batch)
    emb = batch.embeddings
    grad = np.zeros_like(emb)
    sol = table.solution
    combos = table.combos
    m = config.margin
    weights = np.zeros(len(combos))
    for cols in ((0, 1), (2, 3)):
        i_idx, j_idx = combos[:, cols[0]], combos[:, cols[1]]
        d_pos = dist[i_idx, j_idx]
        active = d_pos - sol.distance + m > 0.0
        weights += active
        sel = active & (d_pos > _TINY_DIST)
        u = (emb[i_idx[sel]] - emb[j_idx[sel]]) / d_pos[sel, None]
        np.add.at(grad, i_idx[sel], u)
        np.add.at(grad, j_idx[sel], -u)
    grad -= optimal_distance_grad_stack(emb, combos, sol, weights)
    grad /= _norm_factor(batch, config, 2 * len(combos))
    return loss, grad


def _pair_loss_grad(batch, config, table, positive_is_distance):
    """Shared gradient for HPHN (hardest positive) and LS (pair distance).

    Without a table the hardest negative is mined from the batch; with one
    it is each pair's nearest optimal distance. Each active pair adds the
    signed unit vector of its positive (and mined negative) distance at
    the first index and subtracts it at the second, in pair order.
    """
    dist, _ = pairwise(batch)
    emb = batch.embeddings
    pairs = build_pairs(batch)
    if positive_is_distance:
        hp, hp_a, hp_b = dist[pairs.idx1, pairs.idx2], pairs.idx1, pairs.idx2
    else:
        hp, hp_a, hp_b = hardest(dist, batch.labels, pairs, positive=True)
    heads, tails, signs = [hp_a], [hp_b], [1.0]
    if table is None:
        hn, hn_a, hn_b = hardest(dist, batch.labels, pairs, positive=False)
        heads.append(hn_a)
        tails.append(hn_b)
        signs.append(-1.0)
    else:
        hn = table.pair_min
    active = hp + config.margin - hn > 0.0
    heads, tails = np.stack(heads, axis=1), np.stack(tails, axis=1)  # (P, terms)
    d = dist[heads, tails]
    keep = active[:, None] & (d > _TINY_DIST)
    sign = np.broadcast_to(signs, keep.shape)[keep][:, None]
    u = sign * (emb[heads[keep]] - emb[tails[keep]]) / d[keep][:, None]
    grad = np.zeros_like(emb)
    np.add.at(grad, np.stack([heads[keep], tails[keep]], axis=1).ravel(),
              np.stack([u, -u], axis=1).reshape(-1, emb.shape[1]))
    if table is not None:
        weights = np.bincount(table.nearest[active], minlength=len(table.combos))
        grad -= optimal_distance_grad_stack(emb, table.combos, table.solution, weights)
    grad /= _norm_factor(batch, config, len(pairs))
    return grad


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
    a_low = case in _ALPHA_LOW_CASES or problem.x_collapsed
    a_high = case in _ALPHA_HIGH_CASES and not a_low
    b_low = case in _BETA_LOW_CASES or problem.y_collapsed
    b_high = case in _BETA_HIGH_CASES and not b_low
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
