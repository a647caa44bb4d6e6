"""Array-parallel arc and segment solvers: the one implementation of the nine-case analysis.

Solves a stack of independent minimum-distance instances in one pass, so
batch construction can solve every pair-of-pairs combination at once; the
single-instance solvers in `arc_solver` and `segment_solver` call these on
a stack of one row.

Both variants solve from dots alone. Every arc quantity is a function of
the six endpoint dots of a row, and every segment quantity of the dots of
u = x1 - x2, v = y1 - y2 and w = x1 - y1, which for unit endpoints are
affine in the same six. So one core per variant (`_solve_arc_core`,
`_solve_segment_core`) takes dots: `solve_arc_stack` and
`solve_segment_stack` feed it row dots and then form the optimal points,
and `solve_arc_gram` and `solve_segment_gram` feed it gathers from a Gram
matrix E E^T, so their cost per row does not grow with the dimension.

The core evaluates ten candidate slots per row: two interior stationary
points (case 0, both angles free), four edges (cases 1 and 2 pin alpha at 0
or at its extent and leave beta free, cases 3 and 4 pin beta and leave
alpha free) and four corners (cases 5..8, both angles pinned). It takes
sines and cosines only of free angles and of the two extents, forms a
partial only where its angle carries a multiplier, and builds the winner's
multipliers after the selection, which reads constant per-case tables.
Ties go to the lowest slot: lowest case id, then lowest (alpha, beta).

Sign convention: the Lagrangian is f - sum(lambda_i g_i) with g_i <= 0 and
lambda_i <= 0 at a feasible minimum. Stationarity reads
df/dalpha + lambda_1 - lambda_2 = 0 and df/dbeta + lambda_3 - lambda_4 = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateArc, DegenerateSegment, NonFiniteInput
from .geometry import DEGENERACY_EPS, fallback_orthonormal

# Multiplier sign slack and box feasibility slack: exact-arithmetic KKT
# conditions need a numeric cushion.
EPS_LAMBDA = 1e-9
EPS_BOX = 1e-9
# Below this magnitude the linear coefficient of the interior tan quadratic
# is treated as zero and the degenerate closed forms apply.
EPS_QUAD = 1e-12
# A segment with endpoint gap at or below this collapses to a point.
EPS_SEGMENT = 1e-12

# Candidate slots: two interior candidates (case 0), then cases 1..8. Alpha
# is free in slots 0, 1, 4 and 5 (cases 0, 3, 4), beta in slots 0..3 (cases
# 0, 1, 2); every other angle is pinned at 0 or at its arc's extent.
_SLOT_CASE = np.array([0, 0, 1, 2, 3, 4, 5, 6, 7, 8])
_N_SLOTS = len(_SLOT_CASE)
# Which of the bounds alpha = 0, alpha = alpha0, beta = 0, beta = beta0 each
# case 0..8 pins.
CASE_BOUNDS = np.array([[case in pins for pins in ((1, 5, 6), (2, 7, 8), (3, 5, 7), (4, 6, 8))]
                        for case in range(9)])
_CORNER = np.arange(9) >= 5
# The sign that turns each partial into the multiplier of a pinned bound:
# the multiplier of a lower bound is minus the partial in that angle.
_CASE_SIGN = np.where(CASE_BOUNDS, [-1.0, 1.0, -1.0, 1.0], 0.0)
# The slots each collapse code x_col + 2 y_col permits: a collapsed side pins
# its angle at 0, which restricts the candidates to its 1-D subproblem.
_ALLOWED = np.stack([np.ones(9, dtype=bool), CASE_BOUNDS[:, 0], CASE_BOUNDS[:, 2],
                     CASE_BOUNDS[:, 0] & CASE_BOUNDS[:, 2]])
_ARC_ALLOWED = _ALLOWED[:, _SLOT_CASE]
# Sign of each case's multiplier on its first and second parameter (0: none).
_SEG_SIGN = _CASE_SIGN[:, 0::2] + _CASE_SIGN[:, 1::2]
# Rows of the arc core's angle table that hold each slot's alpha and beta.
_ANGLE_ROW = np.array([[0, 1, 4, 5, 2, 3, 4, 4, 5, 5], [6, 7, 8, 9, 10, 11, 10, 11, 10, 11]])

# Below this chord, sqrt(2 + 2f) loses too many digits to cancellation
# (f is near -1), so the distance is taken as the explicit norm of p1 - p2.
EXPLICIT_NORM_BELOW = 1e-3


@dataclass
class ArcSolution:
    """Winning candidates for a stack of arc problems, from endpoint dots.

    Holds no (n, D) array: the optimal points are p1 = x1 cos(alpha) +
    n2x sin(alpha) with n2x = (x2 - dot_x x1) / res_x (and likewise p2),
    so the dots and residual norms suffice to form envelope gradients.
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


def _second_basis(u: np.ndarray, v: np.ndarray, dot, collapsed) -> np.ndarray:
    """Unit rows along v - (u.v) u; a fixed orthogonal row where the side collapsed."""
    residual = v - dot[:, None] * u
    n2 = residual / np.where(collapsed, 1.0, np.linalg.norm(residual, axis=1))[:, None]
    if np.any(collapsed):
        n2[collapsed] = fallback_orthonormal(u[collapsed])
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


def _mod_pi(x):
    """x % pi for x in [-pi, pi], bit for bit, without np.remainder's division:
    there fmod is x except at +-pi, and np.remainder adds pi to a negative one."""
    return x + np.where(x < 0.0, np.pi, np.where(x >= np.pi, -np.pi, 0.0))


def objective(a, b, c, d, sa, ca, sb, cb):
    """f(alpha, beta) = -p1.p2 from the sines and cosines of the two angles.

    Its partial in alpha is the same form with (sa, ca) -> (ca, -sa), and in
    beta with (sb, cb) -> (cb, -sb).
    """
    return a * sa * sb + b * ca * sb + c * sa * cb + d * ca * cb


def objective_partials(a, b, c, d, angles):
    """df/dalpha and df/dbeta at the rows (alpha, beta) of angles."""
    (sa, sb), (ca, cb) = np.sin(angles), np.cos(angles)
    return objective(a, b, c, d, ca, -sa, sb, cb), objective(a, b, c, d, sa, ca, cb, -sb)


def _select(values, ok, code, allowed):
    """Winning slot of each row: the smallest value among its eligible slots.

    values and ok are (slots, n); ok marks candidates in the box whose
    multipliers have the feasible sign, and corners always. allowed[code]
    keeps the slots a row's collapse code permits. The first minimum wins.
    """
    return np.argmin(np.where(ok & allowed[code].T, values, np.inf), axis=0)


def _arc_candidates(a, b, c, d, alpha0, beta0):
    """The (12, n) angle table and the (slots, n) values and eligibility.

    Table rows 0..5 hold the free alphas of slots 0, 1, 4, 5, then 0 and
    alpha0; rows 6..11 the free betas of slots 0..3, then 0 and beta0. Only
    free angles and extents take sines and cosines; a zero angle enters in
    closed form, sin 0 = 0 and cos 0 = 1 multiplied out, which leaves each
    value as the general form gives it (x * 0 = +-0, x * 1 = x). The sine
    tables die on return, before the selection allocates its own arrays.
    """
    n = len(a)
    ang = np.empty((12, n))
    al, be = ang[:6], ang[6:]
    al[4] = be[4] = 0.0
    al[5] = alpha0
    be[5] = beta0
    sa0, ca0 = np.sin(alpha0), np.cos(alpha0)
    sb0, cb0 = np.sin(beta0), np.cos(beta0)
    # Interior: a quadratic in tan(alpha) whose roots multiply to -1, and the
    # stationary beta of each root. The fallbacks 0, pi/2 and alpha0 lie in
    # [0, pi), where the reduction mod pi leaves them as they are.
    lead = a * b + c * d
    big_a = a * a - b * b + c * c - d * d
    generic = np.abs(lead) >= EPS_QUAD
    linear = ~generic & (np.abs(big_a) >= EPS_QUAD)
    disc = np.hypot(big_a, 2.0 * lead)
    num = big_a + np.where(big_a >= 0.0, disc, -disc)
    safe_lead = np.where(generic, lead, 1.0)
    t_big = np.where(generic, num / (2.0 * safe_lead), 1.0)
    al[0] = np.where(generic, np.arctan(t_big), 0.0)
    al[1] = np.where(generic, np.arctan(-1.0 / t_big), np.where(linear, np.pi / 2.0, alpha0))
    al[2] = np.arctan2(c, d)  # case 3: beta = 0
    al[3] = np.arctan2(a * sb0 + c * cb0, b * sb0 + d * cb0)  # case 4: beta = beta0
    al[:4] = _mod_pi(al[:4])
    sa, ca = np.sin(al[:4]), np.cos(al[:4])
    be[:2] = np.arctan2(a * sa[:2] + b * ca[:2], c * sa[:2] + d * ca[:2])
    be[2] = np.arctan2(b, d)  # case 1: alpha = 0
    be[3] = np.arctan2(a * sa0 + b * ca0, c * sa0 + d * ca0)  # case 2: alpha = alpha0
    be[:4] = _mod_pi(be[:4])
    sb, cb = np.sin(be[:4]), np.cos(be[:4])

    f = np.empty((n, _N_SLOTS)).T  # slot rows over row-major storage, for argmin
    f[:2] = objective(a, b, c, d, sa[:2], ca[:2], sb[:2], cb[:2])
    f[2] = b * sb[2] + d * cb[2]
    f[3] = objective(a, b, c, d, sa0, ca0, sb[3], cb[3])
    f[4] = c * sa[2] + d * ca[2]
    f[5] = objective(a, b, c, d, sa[3], ca[3], sb0, cb0)
    f[6] = d
    f[7] = b * sb0 + d * cb0
    f[8] = c * sa0 + d * ca0
    f[9] = objective(a, b, c, d, sa0, ca0, sb0, cb0)
    # Order the two interior candidates by (alpha, beta) for tie-breaking.
    swap = (al[0] > al[1]) | ((al[0] == al[1]) & (be[0] > be[1]))
    for m in (al, be, f):
        m[:2] = np.where(swap, m[1::-1], m[:2])
    # Pinned angles lie in the box and free ones, reduced mod pi, are >= 0,
    # so only the upper bounds of the free angles are tested. An edge's
    # multiplier is its partial in the pinned angle, negated at 0 (slots 2
    # and 4); corners always compete.
    box_a = al[:4] <= alpha0 + EPS_BOX
    box_b = be[:4] <= beta0 + EPS_BOX
    ok = np.ones((n, _N_SLOTS), dtype=bool).T
    ok[:2] = box_a[:2] & box_b[:2]
    ok[2] = box_b[2] & (a * sb[2] + c * cb[2] >= -EPS_LAMBDA)
    ok[3] = box_b[3] & (objective(a, b, c, d, ca0, -sa0, sb[3], cb[3]) <= EPS_LAMBDA)
    ok[4] = box_a[2] & (a * sa[2] + b * ca[2] >= -EPS_LAMBDA)
    ok[5] = box_a[3] & (objective(a, b, c, d, sa[3], ca[3], cb0, -sb0) <= EPS_LAMBDA)
    return ang, f, ok


def _arc_coeffs(dot_x, dot_y, x1y1, x1y2, x2y1, x2y2):
    """Both sides (see `_arc_side`) and the objective coefficients (a, b, c, d)."""
    x_side = _arc_side(dot_x)
    y_side = _arc_side(dot_y)
    dot_x, res_x, _, x_col = x_side
    dot_y, res_y, _, y_col = y_side

    # (a, b, c, d) = -(n2x.n2y, x1.n2y, n2x.y1, x1.y1). On a collapsed side
    # the terms divided by its residual only multiply the sine of its
    # pinned angle, sin(0) = 0, and are set to 0. Its partial at 0 is then
    # +-0, so its multipliers vanish and never veto a candidate.
    inv_x = np.where(x_col, 0.0, 1.0 / np.where(x_col, 1.0, res_x))
    inv_y = np.where(y_col, 0.0, 1.0 / np.where(y_col, 1.0, res_y))
    a = -(x2y2 - dot_y * x2y1 - dot_x * x1y2 + dot_x * dot_y * x1y1) * inv_x * inv_y
    b = -(x1y2 - dot_y * x1y1) * inv_y
    c = -(x2y1 - dot_x * x1y1) * inv_x
    d = -x1y1
    return x_side, y_side, (a, b, c, d)


def _solve_arc_core(dot_x, dot_y, x1y1, x1y2, x2y1, x2y2) -> ArcSolution:
    """Solve n arc problems of unit endpoints from their six endpoint dots.

    The distance is sqrt(2 + 2f) at the winner; callers holding the rows
    replace it where it falls below EXPLICIT_NORM_BELOW.
    """
    x_side, y_side, (a, b, c, d) = _arc_coeffs(dot_x, dot_y, x1y1, x1y2, x2y1, x2y2)
    dot_x, res_x, alpha0, x_col = x_side
    dot_y, res_y, beta0, y_col = y_side
    ang, f, ok = _arc_candidates(a, b, c, d, alpha0, beta0)
    winner = _select(f, ok, x_col + 2 * y_col, _ARC_ALLOWED)
    rows = np.arange(len(winner))
    case = _SLOT_CASE[winner]
    angles = ang[_ANGLE_ROW[:, winner], rows]
    alpha, beta = angles
    f_w = f[winner, rows]
    ga, gb = objective_partials(a, b, c, d, angles)
    return ArcSolution(
        case_id=case,
        alpha=alpha,
        beta=beta,
        alpha0=alpha0,
        beta0=beta0,
        f_value=f_w,
        distance=np.sqrt(np.maximum(2.0 + 2.0 * f_w, 0.0)),
        multipliers=np.stack([ga, ga, gb, gb], axis=1) * _CASE_SIGN[case],
        coeffs=np.stack([a, b, c, d], axis=1),
        dot_x=dot_x,
        dot_y=dot_y,
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


def _row_dots(x1, x2, y1, y2):
    """Four (n, D) float stacks, checked finite, and the six endpoint dots of each row."""
    rows = tuple(np.ascontiguousarray(m, dtype=float) for m in (x1, x2, y1, y2))
    _require_finite(*rows)
    x1, x2, y1, y2 = rows
    ends = ((x1, x2), (y1, y2), (x1, y1), (x1, y2), (x2, y1), (x2, y2))
    return rows, tuple(np.sum(u * v, axis=1) for u, v in ends)


def solve_arc_stack(x1, x2, y1, y2) -> ArcStackSolution:
    """Solve n arc problems given four (n, D) stacks of unit rows."""
    (x1, x2, y1, y2), dots = _row_dots(x1, x2, y1, y2)
    core = _solve_arc_core(*dots)
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


def arc_candidate_table(x1, x2, y1, y2):
    """Every candidate slot of n arc problems given four (n, D) stacks of unit rows.

    Returns the case id of each slot, shape (slots,), and (slots, n) arrays
    of the slot's alpha, beta and objective value, of ok (in the box with
    multipliers of the feasible sign; corners always) and of allowed (the
    slots a collapsed side leaves). The solve picks, per row, the first
    smallest value among the slots both ok and allowed.
    """
    (_, _, alpha0, x_col), (_, _, beta0, y_col), coeffs = _arc_coeffs(*_row_dots(x1, x2, y1, y2)[1])
    ang, f, ok = _arc_candidates(*coeffs, alpha0, beta0)
    alpha, beta = ang[_ANGLE_ROW]
    return _SLOT_CASE, alpha, beta, f, ok, _ARC_ALLOWED[x_col + 2 * y_col].T


def arc_stack_residuals(sol: ArcSolution) -> np.ndarray:
    """Max stationarity residual per instance for the winning candidates.

    A collapsed side has its angle structurally pinned and carries no
    stationarity condition, so its residual is excluded.
    """
    a, b, c, d = sol.coeffs.T
    ga, gb = objective_partials(a, b, c, d, np.stack([sol.alpha, sol.beta]))
    r1 = ga + sol.multipliers[:, 0] - sol.multipliers[:, 1]
    r2 = gb + sol.multipliers[:, 2] - sol.multipliers[:, 3]
    r1 = np.where(sol.x_collapsed, 0.0, r1)
    r2 = np.where(sol.y_collapsed, 0.0, r2)
    return np.maximum(np.abs(r1), np.abs(r2))


@dataclass
class SegmentDotSolution:
    """Winning candidates for a stack of segment problems, from endpoint dots.

    Holds no (n, D) array: the optimal points are p1 = (1 - k1) x1 + k1 x2
    and p2 = (1 - k2) y1 + k2 y2, so k1, k2 and the distance suffice to form
    envelope gradients.
    """

    case_id: np.ndarray
    k1: np.ndarray
    k2: np.ndarray
    distance: np.ndarray


@dataclass
class SegmentStackSolution(SegmentDotSolution):
    """A SegmentDotSolution plus the optimal points as rows."""

    p1: np.ndarray
    p2: np.ndarray


def _solve_segment_core(uu, vv, uv, uw, vw, ww) -> SegmentDotSolution:
    """Solve n segment problems from the dots of u = x1 - x2, v = y1 - y2, w = x1 - y1.

    Rows where both segments collapse are rejected; rows with one collapsed
    segment fall back to point-vs-segment. The distance is the square root
    of the expanded d^2 that ranks the candidates; callers replace it.
    """
    n = len(uu)
    x_col = np.sqrt(uu) <= EPS_SEGMENT
    y_col = np.sqrt(vv) <= EPS_SEGMENT
    if np.any(x_col & y_col):
        raise DegenerateSegment("stack contains doubly collapsed segments")

    ca, cb, cc = uu, -uv, -uw
    ca2, cb2, cc2 = -uv, vv, vw

    # One row per case 0..8.
    k1_c = np.zeros((9, n))
    k2_c = np.zeros((9, n))
    safe_a = np.where(ca > 0.0, ca, 1.0)
    safe_b2 = np.where(cb2 > 0.0, cb2, 1.0)
    det = ca2 * cb - ca * cb2
    det_ok = (np.abs(det) >= EPS_SEGMENT * ca * cb2) & ~x_col & ~y_col
    safe_det = np.where(det_ok, det, 1.0)
    k1_c[0] = (cb2 * cc - cb * cc2) / safe_det
    k2_c[0] = (ca * cc2 - ca2 * cc) / safe_det
    k2_c[1] = -cc2 / safe_b2
    k1_c[2] = 1.0
    k2_c[2] = -(ca2 + cc2) / safe_b2
    k1_c[3] = -cc / safe_a
    k1_c[4] = -(cb + cc) / safe_a
    k2_c[4] = 1.0
    k2_c[6] = 1.0
    k1_c[7] = 1.0
    k1_c[8] = 1.0
    k2_c[8] = 1.0

    # Squared distance at each candidate, evaluated from the quadratic form.
    d2 = (
        ww
        + k1_c * k1_c * uu
        + k2_c * k2_c * vv
        - 2.0 * k1_c * uw
        + 2.0 * k2_c * vw
        - 2.0 * k1_c * k2_c * uv
    )
    g1 = ca * k1_c + cb * k2_c + cc
    g2 = ca2 * k1_c + cb2 * k2_c + cc2
    in_box = (
        (k1_c >= -EPS_BOX) & (k1_c <= 1.0 + EPS_BOX) & (k2_c >= -EPS_BOX) & (k2_c <= 1.0 + EPS_BOX)
    )
    # A collapsed side's multipliers are structurally pinned and veto nothing.
    ok = (
        ((g1 * _SEG_SIGN[:, 0:1] <= EPS_LAMBDA) | x_col)
        & ((g2 * _SEG_SIGN[:, 1:2] <= EPS_LAMBDA) | y_col)
        & in_box
    ) | _CORNER[:, None]
    ok[0] &= det_ok
    winner = _select(d2, ok, x_col + 2 * y_col, _ALLOWED)
    rows = np.arange(n)
    return SegmentDotSolution(
        case_id=winner, k1=k1_c[winner, rows], k2=k2_c[winner, rows],
        distance=np.sqrt(np.maximum(d2[winner, rows], 0.0)),
    )


def solve_segment_stack(x1, x2, y1, y2) -> SegmentStackSolution:
    """Solve n segment problems given four (n, D) endpoint stacks."""
    x1, x2, y1, y2 = (np.ascontiguousarray(m, dtype=float) for m in (x1, x2, y1, y2))
    _require_finite(x1, x2, y1, y2)
    u = x1 - x2
    v = y1 - y2
    w = x1 - y1
    core = _solve_segment_core(*(np.sum(a * b, axis=1) for a, b in
                                 ((u, u), (v, v), (u, v), (u, w), (v, w), (w, w))))
    k1, k2 = core.k1[:, None], core.k2[:, None]
    p1 = (1.0 - k1) * x1 + k1 * x2
    p2 = (1.0 - k2) * y1 + k2 * y2
    core.distance = np.linalg.norm(p1 - p2, axis=1)
    return SegmentStackSolution(**vars(core), p1=p1, p2=p2)


def solve_segment_gram(emb: np.ndarray, gram: np.ndarray, combos: np.ndarray) -> SegmentDotSolution:
    """Solve the segment problems of unit rows (i, j, k, l) of emb from gram = emb emb^T.

    With u = e_i - e_j, v = e_k - e_l and w = e_i - e_k every core dot is
    affine in the six endpoint dots G_ab. The distance is taken in chord
    form, d^2 = -sum_{a<b} c_a c_b |e_a - e_b|^2 with c = (1 - k1, k1,
    -(1 - k2), -k2), which at a corner is the chord itself. Rows with |u|,
    |v| or the distance below EXPLICIT_NORM_BELOW gather their four
    endpoints and take `solve_segment_stack`'s case, k1, k2 and distance,
    so collapse decisions and near-contact distances are the row solver's;
    the core never sees those rows, and no other row is gathered.
    """
    _require_finite(gram)
    first, second = (0, 0, 0, 1, 1, 2), (1, 2, 3, 2, 3, 3)  # ij, ik, il, jk, jl, kl
    g = gram[combos[:, first], combos[:, second]]
    chord_sq = np.maximum(2.0 - 2.0 * g, 0.0)
    short = np.minimum(chord_sq[:, 0], chord_sq[:, 5]) < EXPLICIT_NORM_BELOW**2
    far = np.flatnonzero(~short)
    g_ij, g_ik, g_il, g_jk, g_jl, g_kl = g[far].T
    uu, ww, _, _, _, vv = chord_sq[far].T
    core = _solve_segment_core(uu, vv, g_ik - g_il - g_jk + g_jl, 1.0 - g_ij - g_ik + g_jk,
                               g_ik - g_il + g_kl - 1.0, ww)
    sol = SegmentDotSolution(*(np.zeros(len(combos), m.dtype) for m in vars(core).values()))
    for name, values in vars(core).items():
        getattr(sol, name)[far] = values
    c = np.stack([1.0 - sol.k1, sol.k1, -(1.0 - sol.k2), -sol.k2], axis=1)
    d_sq = -np.sum(c[:, first] * c[:, second] * chord_sq, axis=1)
    sol.distance = np.sqrt(np.maximum(d_sq, 0.0))
    near = np.flatnonzero(short | (sol.distance < EXPLICIT_NORM_BELOW))
    if len(near):
        rows = solve_segment_stack(*(emb[combos[near, col]] for col in range(4)))
        for name in vars(sol):
            getattr(sol, name)[near] = getattr(rows, name)
    return sol
