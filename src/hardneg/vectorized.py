"""Array-parallel arc and segment solvers.

Solves a stack of independent minimum-distance instances in one pass,
mirroring the scalar solvers candidate for candidate (same case order,
same feasibility masks, same tie-breaks), so batch construction can solve
every pair-of-pairs combination at once. The test suite pins scalar and
stacked results against each other on random and degenerate inputs.

Every arc quantity is a function of the six endpoint dots of a row, so one
core (`_solve_arc_core`) solves from dots alone: `solve_arc_stack` feeds it
row dots and then forms the optimal points, and `solve_arc_gram` feeds it
gathers from a Gram matrix E E^T, so its cost per row does not grow with
the dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arc_solver import EPS_BOX, EPS_LAMBDA, EPS_QUAD
from .errors import DegenerateArc, DegenerateSegment, NonFiniteInput
from .geometry import DEGENERACY_EPS
from .segment_solver import EPS_SEGMENT

# Candidate slot layout: two interior candidates then boundary cases 1..8.
_SLOT_CASE = np.array([0, 0, 1, 2, 3, 4, 5, 6, 7, 8])
_N_SLOTS = 10

# Below this chord, sqrt(2 + 2f) loses too many digits to cancellation
# (f is near -1), so the distance is taken as the explicit norm of p1 - p2.
EXPLICIT_NORM_BELOW = 1e-3


@dataclass
class ArcSolution:
    """Winning candidates for a stack of arc problems, from endpoint dots.

    Holds no (n, D) array: the optimal points are p1 = x1 cos(alpha) +
    n2x sin(alpha) with n2x = (x2 - dot_x x1) / res_x (and likewise p2),
    so the dots and residual norms suffice to form envelope gradients.
    cross holds the rows (x1.y1, x1.y2, x2.y1, x2.y2).
    """

    case_id: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    alpha0: np.ndarray
    beta0: np.ndarray
    f_value: np.ndarray
    distance: np.ndarray
    multipliers: np.ndarray
    coeffs: np.ndarray  # (n, 4) rows (a, b, c, d)
    dot_x: np.ndarray
    dot_y: np.ndarray
    cross: np.ndarray
    res_x: np.ndarray  # |x2 - (x1.x2) x1|, the Gram-Schmidt residual norm
    res_y: np.ndarray
    x_collapsed: np.ndarray
    y_collapsed: np.ndarray


@dataclass
class ArcStackSolution(ArcSolution):
    """An ArcSolution plus the optimal points and second basis vectors as rows."""

    p1: np.ndarray
    p2: np.ndarray
    n2x: np.ndarray
    n2y: np.ndarray


def _require_finite(*arrays) -> None:
    if not all(np.all(np.isfinite(m)) for m in arrays):
        raise NonFiniteInput("stack contains a non-finite coordinate")


def _fallback_rows(x: np.ndarray) -> np.ndarray:
    """Row-wise deterministic unit vectors orthogonal to x."""
    n, dim = x.shape
    axis = np.argmin(np.abs(x), axis=1)
    e = np.zeros_like(x)
    e[np.arange(n), axis] = 1.0
    residual = e - (np.sum(x * e, axis=1, keepdims=True)) * x
    return residual / np.linalg.norm(residual, axis=1, keepdims=True)


def _second_basis(u: np.ndarray, v: np.ndarray, dot, collapsed) -> np.ndarray:
    """Unit rows along v - (u.v) u; a fixed orthogonal row where the side collapsed."""
    residual = v - dot[:, None] * u
    n2 = residual / np.where(collapsed, 1.0, np.linalg.norm(residual, axis=1))[:, None]
    if np.any(collapsed):
        n2[collapsed] = _fallback_rows(u[collapsed])
    return n2


def _arc_side(dot):
    """Clipped endpoint dot, residual norm, extent and collapse flag of one side."""
    dot = np.clip(dot, -1.0, 1.0)
    collapsed = dot >= 1.0 - DEGENERACY_EPS
    if np.any(dot <= -1.0 + DEGENERACY_EPS):
        raise DegenerateArc("stack contains antiparallel endpoint pairs")
    residual = np.sqrt((1.0 - dot) * (1.0 + dot))
    extent = np.where(collapsed, 0.0, np.arccos(dot))
    return dot, residual, extent, collapsed


def _objective_and_grads(a, b, c, d, al, be):
    """f(alpha, beta) = -p1.p2 and its two partials, from one set of sines and cosines."""
    sa, ca = np.sin(al), np.cos(al)
    sb, cb = np.sin(be), np.cos(be)
    f = a * sa * sb + b * ca * sb + c * sa * cb + d * ca * cb
    ga = a * ca * sb - b * sa * sb + c * ca * cb - d * sa * cb
    gb = a * sa * cb + b * ca * cb - c * sa * sb - d * ca * sb
    return f, ga, gb


def _stationary_beta(a, b, c, d, al):
    sa, ca = np.sin(al), np.cos(al)
    return np.arctan2(a * sa + b * ca, c * sa + d * ca) % np.pi


def _select(slot_case, g1, g2, x_col, y_col, in_box, values, allowed):
    """Multipliers of every candidate slot and the winning slot of each row.

    slot_case maps slots to cases 0..8; g1 and g2 are the objective's
    partials in the two parameters at each candidate. A candidate is
    eligible when its multipliers have the feasible sign and it lies in the
    box; corners always are. A collapsed side restricts the candidate set
    to its 1-D subproblem, and its multipliers, structurally pinned, carry
    no information and must not veto candidates. The smallest value wins.
    """
    lams = np.zeros(g1.shape + (4,))
    for slot, case in enumerate(slot_case):
        if case in (1, 5, 6):
            lams[:, slot, 0] = -g1[:, slot]
        if case in (2, 7, 8):
            lams[:, slot, 1] = g1[:, slot]
        if case in (3, 5, 7):
            lams[:, slot, 2] = -g2[:, slot]
        if case in (4, 6, 8):
            lams[:, slot, 3] = g2[:, slot]
    lams[x_col, :, 0:2] = 0.0
    lams[y_col, :, 2:4] = 0.0
    eligible = (np.all(lams <= EPS_LAMBDA, axis=2) & in_box) | (slot_case >= 5)
    allowed[x_col & ~y_col] &= np.isin(slot_case, (1, 5, 6))
    allowed[y_col & ~x_col] &= np.isin(slot_case, (3, 5, 7))
    allowed[x_col & y_col] &= slot_case == 5
    winner = np.argmin(np.where(eligible & allowed, values, np.inf), axis=1)
    return lams, winner


def _solve_arc_core(dot_x, dot_y, x1y1, x1y2, x2y1, x2y2) -> ArcSolution:
    """Solve n arc problems of unit endpoints from their six endpoint dots.

    The distance is sqrt(2 + 2f) at the winner; callers holding the rows
    replace it where it falls below EXPLICIT_NORM_BELOW.
    """
    n = len(dot_x)
    dot_x, res_x, alpha0, x_col = _arc_side(dot_x)
    dot_y, res_y, beta0, y_col = _arc_side(dot_y)

    # (a, b, c, d) = -(n2x.n2y, x1.n2y, n2x.y1, x1.y1). On a collapsed side
    # the terms divided by its residual only multiply the sine of its
    # pinned angle, sin(0) = 0, and are set to 0.
    inv_x = np.where(x_col, 0.0, 1.0 / np.where(x_col, 1.0, res_x))
    inv_y = np.where(y_col, 0.0, 1.0 / np.where(y_col, 1.0, res_y))
    a = -(x2y2 - dot_y * x2y1 - dot_x * x1y2 + dot_x * dot_y * x1y1) * inv_x * inv_y
    b = -(x1y2 - dot_y * x1y1) * inv_y
    c = -(x2y1 - dot_x * x1y1) * inv_x
    d = -x1y1

    alpha_c = np.zeros((n, _N_SLOTS))
    beta_c = np.zeros((n, _N_SLOTS))

    # Interior quadratic in tan(alpha); roots multiply to -1.
    lead = a * b + c * d
    big_a = a * a - b * b + c * c - d * d
    generic = np.abs(lead) >= EPS_QUAD
    linear = ~generic & (np.abs(big_a) >= EPS_QUAD)
    disc = np.hypot(big_a, 2.0 * lead)
    num = big_a + np.where(big_a >= 0.0, disc, -disc)
    safe_lead = np.where(generic, lead, 1.0)
    t_big = np.where(generic, num / (2.0 * safe_lead), 1.0)
    al_first = np.where(generic, np.arctan(t_big) % np.pi, 0.0)
    al_second = np.where(
        generic,
        np.arctan(-1.0 / t_big) % np.pi,
        np.where(linear, np.pi / 2.0, alpha0),
    )
    # Order the two interior candidates by (alpha, beta) for tie-breaking.
    be_first = _stationary_beta(a, b, c, d, al_first)
    be_second = _stationary_beta(a, b, c, d, al_second)
    swap = (al_first > al_second) | ((al_first == al_second) & (be_first > be_second))
    alpha_c[:, 0] = np.where(swap, al_second, al_first)
    alpha_c[:, 1] = np.where(swap, al_first, al_second)
    beta_c[:, 0] = np.where(swap, be_second, be_first)
    beta_c[:, 1] = np.where(swap, be_first, be_second)

    sa0, ca0 = np.sin(alpha0), np.cos(alpha0)
    sb0, cb0 = np.sin(beta0), np.cos(beta0)

    # Case 1: alpha = 0, beta stationary.
    beta_c[:, 2] = np.arctan2(b, d) % np.pi
    # Case 2: alpha = alpha0, beta stationary.
    alpha_c[:, 3] = alpha0
    beta_c[:, 3] = np.arctan2(a * sa0 + b * ca0, c * sa0 + d * ca0) % np.pi
    # Case 3: beta = 0, alpha stationary.
    alpha_c[:, 4] = np.arctan2(c, d) % np.pi
    # Case 4: beta = beta0, alpha stationary.
    alpha_c[:, 5] = np.arctan2(a * sb0 + c * cb0, b * sb0 + d * cb0) % np.pi
    beta_c[:, 5] = beta0
    # Corners 5..8.
    alpha_c[:, 7] = 0.0
    beta_c[:, 7] = beta0
    alpha_c[:, 8] = alpha0
    alpha_c[:, 9] = alpha0
    beta_c[:, 9] = beta0

    f_c, ga, gb = _objective_and_grads(
        a[:, None], b[:, None], c[:, None], d[:, None], alpha_c, beta_c
    )
    in_box = (
        (alpha_c >= -EPS_BOX)
        & (alpha_c <= alpha0[:, None] + EPS_BOX)
        & (beta_c >= -EPS_BOX)
        & (beta_c <= beta0[:, None] + EPS_BOX)
    )
    allowed = np.ones((n, _N_SLOTS), dtype=bool)
    lams, winner = _select(_SLOT_CASE, ga, gb, x_col, y_col, in_box, f_c, allowed)
    rows = np.arange(n)
    f_w = f_c[rows, winner]
    return ArcSolution(
        case_id=_SLOT_CASE[winner],
        alpha=alpha_c[rows, winner],
        beta=beta_c[rows, winner],
        alpha0=alpha0,
        beta0=beta0,
        f_value=f_w,
        distance=np.sqrt(np.maximum(2.0 + 2.0 * f_w, 0.0)),
        multipliers=lams[rows, winner, :],
        coeffs=np.stack([a, b, c, d], axis=1),
        dot_x=dot_x,
        dot_y=dot_y,
        cross=np.stack([x1y1, x1y2, x2y1, x2y2], axis=1),
        res_x=res_x,
        res_y=res_y,
        x_collapsed=x_col,
        y_collapsed=y_col,
    )


def _arc_points(sol: ArcSolution, x1, x2, y1, y2, rows=slice(None)):
    """Optimal points p1, p2 and second basis rows n2x, n2y of the given rows."""
    n2x = _second_basis(x1, x2, sol.dot_x[rows], sol.x_collapsed[rows])
    n2y = _second_basis(y1, y2, sol.dot_y[rows], sol.y_collapsed[rows])
    al, be = sol.alpha[rows][:, None], sol.beta[rows][:, None]
    p1 = x1 * np.cos(al) + n2x * np.sin(al)
    p2 = y1 * np.cos(be) + n2y * np.sin(be)
    return p1, p2, n2x, n2y


def solve_arc_stack(x1, x2, y1, y2) -> ArcStackSolution:
    """Solve n arc problems given four (n, D) stacks of unit rows."""
    x1, x2, y1, y2 = (np.ascontiguousarray(m, dtype=float) for m in (x1, x2, y1, y2))
    _require_finite(x1, x2, y1, y2)
    ends = ((x1, x2), (y1, y2), (x1, y1), (x1, y2), (x2, y1), (x2, y2))
    core = _solve_arc_core(*(np.sum(u * v, axis=1) for u, v in ends))
    p1, p2, n2x, n2y = _arc_points(core, x1, x2, y1, y2)
    core.distance = np.linalg.norm(p1 - p2, axis=1)
    return ArcStackSolution(**vars(core), p1=p1, p2=p2, n2x=n2x, n2y=n2y)


def solve_arc_gram(emb: np.ndarray, gram: np.ndarray, combos: np.ndarray) -> ArcSolution:
    """Solve the arc problems of rows (i, j, k, l) of emb from gram = emb emb^T.

    Rows whose distance falls below EXPLICIT_NORM_BELOW gather their four
    endpoints and take the explicit norm of p1 - p2; no other row is gathered.
    """
    _require_finite(gram)
    i, j, k, l = combos.T
    sol = _solve_arc_core(gram[i, j], gram[k, l], gram[i, k], gram[i, l], gram[j, k], gram[j, l])
    near = np.flatnonzero(sol.distance < EXPLICIT_NORM_BELOW)
    if len(near):
        p1, p2, _, _ = _arc_points(sol, *(emb[combos[near, col]] for col in range(4)), rows=near)
        sol.distance[near] = np.linalg.norm(p1 - p2, axis=1)
    return sol


def arc_stack_residuals(sol: ArcSolution) -> np.ndarray:
    """Max stationarity residual per instance for the winning candidates.

    A collapsed side has its angle structurally pinned and carries no
    stationarity condition, so its residual is excluded.
    """
    a, b, c, d = sol.coeffs.T
    _, ga, gb = _objective_and_grads(a, b, c, d, sol.alpha, sol.beta)
    r1 = ga + sol.multipliers[:, 0] - sol.multipliers[:, 1]
    r2 = gb + sol.multipliers[:, 2] - sol.multipliers[:, 3]
    r1 = np.where(sol.x_collapsed, 0.0, r1)
    r2 = np.where(sol.y_collapsed, 0.0, r2)
    return np.maximum(np.abs(r1), np.abs(r2))


@dataclass
class SegmentStackSolution:
    case_id: np.ndarray
    k1: np.ndarray
    k2: np.ndarray
    distance: np.ndarray
    p1: np.ndarray
    p2: np.ndarray


def solve_segment_stack(x1, x2, y1, y2) -> SegmentStackSolution:
    """Solve n segment problems given four (n, D) endpoint stacks.

    Rows where both segments collapse are rejected, matching the scalar
    solver; rows with one collapsed segment fall back to point-vs-segment.
    """
    x1, x2, y1, y2 = (np.ascontiguousarray(m, dtype=float) for m in (x1, x2, y1, y2))
    _require_finite(x1, x2, y1, y2)
    n = x1.shape[0]
    u = x1 - x2
    v = y1 - y2
    w = x1 - y1
    uu = np.sum(u * u, axis=1)
    vv = np.sum(v * v, axis=1)
    uv = np.sum(u * v, axis=1)
    uw = np.sum(u * w, axis=1)
    vw = np.sum(v * w, axis=1)
    x_col = np.sqrt(uu) <= EPS_SEGMENT
    y_col = np.sqrt(vv) <= EPS_SEGMENT
    if np.any(x_col & y_col):
        raise DegenerateSegment("stack contains doubly collapsed segments")

    ca, cb, cc = uu, -uv, -uw
    ca2, cb2, cc2 = -uv, vv, vw

    k1_c = np.zeros((n, 9))
    k2_c = np.zeros((n, 9))
    safe_a = np.where(ca > 0.0, ca, 1.0)
    safe_b2 = np.where(cb2 > 0.0, cb2, 1.0)
    det = ca2 * cb - ca * cb2
    det_ok = (np.abs(det) >= EPS_SEGMENT * ca * cb2) & ~x_col & ~y_col
    safe_det = np.where(det_ok, det, 1.0)
    k1_c[:, 0] = (cb2 * cc - cb * cc2) / safe_det
    k2_c[:, 0] = (ca * cc2 - ca2 * cc) / safe_det
    k2_c[:, 1] = -cc2 / safe_b2
    k1_c[:, 2] = 1.0
    k2_c[:, 2] = -(ca2 + cc2) / safe_b2
    k1_c[:, 3] = -cc / safe_a
    k1_c[:, 4] = -(cb + cc) / safe_a
    k2_c[:, 4] = 1.0
    k2_c[:, 6] = 1.0
    k1_c[:, 7] = 1.0
    k1_c[:, 8] = 1.0
    k2_c[:, 8] = 1.0

    # Squared distance at each candidate, evaluated from the quadratic form.
    d2 = (
        np.sum(w * w, axis=1)[:, None]
        + k1_c * k1_c * uu[:, None]
        + k2_c * k2_c * vv[:, None]
        - 2.0 * k1_c * uw[:, None]
        + 2.0 * k2_c * vw[:, None]
        - 2.0 * k1_c * k2_c * uv[:, None]
    )
    g1 = ca[:, None] * k1_c + cb[:, None] * k2_c + cc[:, None]
    g2 = ca2[:, None] * k1_c + cb2[:, None] * k2_c + cc2[:, None]
    in_box = (
        (k1_c >= -EPS_BOX) & (k1_c <= 1.0 + EPS_BOX) & (k2_c >= -EPS_BOX) & (k2_c <= 1.0 + EPS_BOX)
    )
    allowed = np.ones((n, 9), dtype=bool)
    allowed[~det_ok, 0] = False
    _, winner = _select(np.arange(9), g1, g2, x_col, y_col, in_box, d2, allowed)
    rows = np.arange(n)
    k1_w = k1_c[rows, winner]
    k2_w = k2_c[rows, winner]
    p1 = (1.0 - k1_w)[:, None] * x1 + k1_w[:, None] * x2
    p2 = (1.0 - k2_w)[:, None] * y1 + k2_w[:, None] * y2
    dist = np.linalg.norm(p1 - p2, axis=1)
    return SegmentStackSolution(
        case_id=winner, k1=k1_w, k2=k2_w, distance=dist, p1=p1, p2=p2
    )
