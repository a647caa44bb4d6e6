"""Array code of the evaluation layer, of build_pairs and of the stacked
solvers against references.

Each evaluation reference below is the straightforward loop form of the
same algorithm: explicit (n, k, D) distances and a per-cluster mean for
k-means, a stable argsort of the whole distance matrix for recall@k, and a
dict scan for positive pairing. The solver references are the stacked arc
core and segment stack as they were before slot specialisation: every
candidate slot evaluated with the general objective and its partials, and
winners picked through a per-slot multiplier array. The array forms must
agree with them exactly. The adjoint-block reference forms every dot of
the unit difference from each row's local Gram matrix; the closed form
reorders the arithmetic, so it must agree to 1e-13 of the largest block
entry. The grid-oracle reference scans each grid in slabs of 4,096 rows
with freshly allocated temporaries; the cache-sized slabs written in place
must give every GridResult field bit for bit, ties included. The loss
references compute each loss's value, then rebuild its distances, mining and
multi-similarity weights for the gradient; the one-pass steps, which read
them from the value pass, must give every total, term and gradient bit for
bit. The recall reference forms a fresh E E^T per call; recall and evaluate,
which read the batch's cached Gram matrix, must agree with it bit for bit.
"""

import dataclasses

import numpy as np
import pytest

from hardneg import (
    ArcProblem,
    LabeledBatch,
    OddClassCount,
    SyntheticSpec,
    build_pairs,
    SegmentProblem,
    generate_synthetic,
    gradients,
    optimal_distance_table,
    oracle,
    vectorized,
)
from hardneg.batch_engine import VARIANTS, OptimalDistanceTable, PairSet
from hardneg.errors import DegenerateSegment
from hardneg.gradients import _square, chord_grad, optimal_distance_grad_stack
from hardneg.losses import (
    LossConfig,
    LossValue,
    _require_negatives,
    hardest,
    hinge,
    ms_masks,
    ms_weighting,
)
from hardneg.geometry import point_on_arc
from hardneg.oracle import GridResult
from hardneg.trainer import _farthest_point_kmeans, _nmi_from_contingency, evaluate, recall_at_k
from hardneg.vectorized import (
    CASE_BOUNDS,
    EPS_BOX,
    EPS_LAMBDA,
    EPS_QUAD,
    EPS_SEGMENT,
    ArcSolution,
    SegmentStackSolution,
    _arc_side,
    _require_finite,
)


def reference_kmeans(points, k, seed=0, max_iter=100):
    n = len(points)
    k = min(k, n)
    rng = np.random.default_rng(seed)
    centers = [points[int(rng.integers(n))]]
    d_min = np.linalg.norm(points - centers[0], axis=1)
    for _ in range(1, k):
        nxt = int(np.argmax(d_min))
        centers.append(points[nxt])
        d_min = np.minimum(d_min, np.linalg.norm(points - centers[-1], axis=1))
    centers = np.stack(centers)
    assign = np.zeros(n, dtype=int)
    for _ in range(max_iter):
        d = np.linalg.norm(points[:, None, :] - centers[None, :, :], axis=2)
        new_assign = np.argmin(d, axis=1)
        for c in range(k):
            members = new_assign == c
            if np.any(members):
                centers[c] = np.mean(points[members], axis=0)
            else:
                far = int(np.argmax(np.min(d, axis=1)))
                centers[c] = points[far]
                new_assign[far] = c
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
    return assign


def reference_nmi(table):
    n = table.sum()
    pr = table.sum(axis=1) / n
    pc = table.sum(axis=0) / n
    hu = -np.sum(pr[pr > 0] * np.log(pr[pr > 0]))
    hv = -np.sum(pc[pc > 0] * np.log(pc[pc > 0]))
    if hu == 0.0 and hv == 0.0:
        return 1.0
    mi = 0.0
    for r, c in np.argwhere(table > 0):
        p = table[r, c] / n
        mi += p * np.log(p / (pr[r] * pc[c]))
    if hu == 0.0 or hv == 0.0:
        return 0.0
    return float(np.clip(2.0 * mi / (hu + hv), 0.0, 1.0))


def reference_recall(batch, k):
    gram = batch.embeddings @ batch.embeddings.T
    d_sq = np.clip(2.0 - 2.0 * gram, 0.0, None)
    np.fill_diagonal(d_sq, np.inf)
    order = np.argsort(d_sq, axis=1, kind="stable")[:, :-1]
    same = batch.labels[order[:, :k]] == batch.labels[:, None]
    return float(np.mean(np.any(same, axis=1)))


def reference_pairs(labels):
    positions, idx1, idx2, out = {}, [], [], []
    for i, label in enumerate(labels):
        key = label.item() if hasattr(label, "item") else label
        if key in positions:
            idx1.append(positions.pop(key))
            idx2.append(i)
            out.append(label)
        else:
            positions[key] = i
    if positions:
        bad = sorted(str(k) for k in positions)
        raise OddClassCount(f"classes with odd counts: {', '.join(bad)}")
    order = np.argsort(np.asarray(idx1), kind="stable")
    return np.asarray(idx1)[order], np.asarray(idx2)[order], np.asarray(out)[order]


# (classes, samples per class, dimension, seeds): desk, wide, 4x4 and 128x4.
SHAPES = {
    "desk": (8, 16, 16, 2),
    "wide": (32, 4, 64, 2),
    "4x4": (4, 4, 8, 2),
    "128x4": (128, 4, 8, 1),
}


def parity_batches(classes, per_class, dim, seed):
    """A spread batch, a tight one (near ties) and one made of few distinct rows."""
    rng = np.random.default_rng(seed)
    spread = generate_synthetic(SyntheticSpec(classes, per_class, dim, seed=seed))
    tight = generate_synthetic(SyntheticSpec(classes, per_class, dim, concentration=1e7, seed=seed))
    distinct = rng.normal(size=(max(2, classes // 2), dim))
    rows = distinct[rng.integers(len(distinct), size=classes * per_class)]
    duplicated = LabeledBatch.from_arrays(rows, np.repeat(np.arange(classes), per_class))
    return spread, tight, duplicated


def capped_reference_kmeans(points, k):
    """The reference asked for at most as many clusters as there are distinct
    rows, the cap _farthest_point_kmeans applies; past it the reference
    reseeds empty clusters until max_iter."""
    return reference_kmeans(points, min(k, len(np.unique(points, axis=0))))


@pytest.mark.parametrize("shape", list(SHAPES), ids=list(SHAPES))
def test_kmeans_matches_reference(shape):
    classes, per_class, dim, seeds = SHAPES[shape]
    for seed in range(seeds):
        for batch in parity_batches(classes, per_class, dim, seed):
            for k in (max(1, classes // 2), classes, 2 * classes):
                np.testing.assert_array_equal(
                    _farthest_point_kmeans(batch.embeddings, k),
                    capped_reference_kmeans(batch.embeddings, k),
                )


def test_kmeans_reseeds_empty_clusters_like_reference():
    # Three distinct points for up to twelve clusters. Uncapped, seeding
    # repeated points and Lloyd emptied clusters several times a step; with
    # k capped at three, every k must give the reference's three clusters.
    rng = np.random.default_rng(5)
    distinct = rng.normal(size=(3, 6))
    for trial in range(20):
        points = distinct[rng.integers(3, size=12)]
        points /= np.linalg.norm(points, axis=1, keepdims=True)
        for k in (2, 4, 8, 12):
            np.testing.assert_array_equal(
                _farthest_point_kmeans(points, k), capped_reference_kmeans(points, k)
            )


def test_nmi_matches_reference():
    rng = np.random.default_rng(3)
    tables = [rng.integers(0, 6, size=(rows, cols)).astype(float)
              for rows in (1, 2, 8, 32) for cols in (1, 3, 8, 64) for _ in range(5)]
    tables += [np.eye(4) * 16, np.ones((3, 5)), np.diag([1.0, 0.0, 7.0])]
    for table in tables:
        if table.sum() > 0:
            assert _nmi_from_contingency(table) == reference_nmi(table)


@pytest.mark.parametrize("shape", list(SHAPES), ids=list(SHAPES))
def test_recall_matches_stable_argsort(shape):
    classes, per_class, dim, seeds = SHAPES[shape]
    for seed in range(seeds):
        for batch in parity_batches(classes, per_class, dim, seed):
            ks = (1, 2, 4, 8, batch.batch_size)
            expected = {k: reference_recall(batch, k) for k in ks}
            assert {k: recall_at_k(batch, k) for k in ks} == expected
            assert evaluate(batch, ks).recall_at_k == expected


def test_recall_singleton_class_and_ties():
    # Axis points repeated: every distance is 0 or sqrt(2), so ranks rest
    # on index order among ties; label 9 has no same-class neighbour.
    emb = np.repeat(np.eye(3), 3, axis=0)
    labels = np.array([0, 1, 0, 1, 2, 1, 2, 0, 9])
    batch = LabeledBatch.from_arrays(emb, labels)
    for k in (1, 2, 3, 4, 8, 9, 100):
        assert recall_at_k(batch, k) == reference_recall(batch, k)
    assert recall_at_k(batch, 100) == 8 / 9


@pytest.mark.parametrize("layout", ["grouped", "interleaved", "shuffled", "strings"])
def test_build_pairs_matches_reference(layout):
    rng = np.random.default_rng(11)
    labels = np.repeat(np.arange(6), 4)
    if layout == "interleaved":
        labels = np.tile(np.arange(6), 4)
    elif layout == "shuffled":
        labels = rng.permutation(labels)
    elif layout == "strings":
        labels = np.array(["cat", "dog", "emu", "gnu"])[rng.permutation(np.repeat(np.arange(4), 6))]
    batch = LabeledBatch.from_arrays(rng.normal(size=(len(labels), 5)), labels)
    pairs = build_pairs(batch)
    for got, want in zip((pairs.idx1, pairs.idx2, pairs.labels), reference_pairs(batch.labels)):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


def test_build_pairs_odd_count_message():
    labels = np.array([3, 1, 3, 2, 1, 1, 3, 2, 2, 10, 3, 2])
    batch = LabeledBatch(embeddings=np.eye(12), labels=labels)
    with pytest.raises(OddClassCount) as expected:
        reference_pairs(labels)
    with pytest.raises(OddClassCount) as got:
        build_pairs(batch)
    assert str(got.value) == str(expected.value) == "classes with odd counts: 1, 10"


# Solver references: verbatim copies of the stacked solver code before slot
# specialisation.

_SLOT_CASE = np.array([0, 0, 1, 2, 3, 4, 5, 6, 7, 8])
_N_SLOTS = 10


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
        res_x=res_x,
        res_y=res_y,
        x_collapsed=x_col,
        y_collapsed=y_col,
    )


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


def assert_same_fields(new, ref):
    for name, value in vars(ref).items():
        assert np.array_equal(getattr(new, name), value), name


def row_dots(x1, x2, y1, y2):
    ends = ((x1, x2), (y1, y2), (x1, y1), (x1, y2), (x2, y1), (x2, y2))
    return tuple(np.sum(u * v, axis=1) for u, v in ends)


def assert_arc_core_matches(x1, x2, y1, y2):
    dots = row_dots(x1, x2, y1, y2)
    assert_same_fields(vectorized._solve_arc_core(*dots), _solve_arc_core(*dots))


def unit(rows):
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


SOLVER_SHAPES = {"8x16-D16": (8, 16, 16), "32x4-D64": (32, 4, 64), "4x4-D8": (4, 4, 8)}


@pytest.mark.parametrize("concentration", [2.5, 40.0])
@pytest.mark.parametrize("shape", list(SOLVER_SHAPES), ids=list(SOLVER_SHAPES))
def test_solvers_match_reference_on_batches(shape, concentration):
    classes, per_class, dim = SOLVER_SHAPES[shape]
    for seed in range(3):
        spec = SyntheticSpec(classes, per_class, dim, concentration=concentration, seed=seed)
        batch = generate_synthetic(spec)
        table = optimal_distance_table(batch)
        i, j, k, l = table.combos.T
        g = batch.gram
        dots = (g[i, j], g[k, l], g[i, k], g[i, l], g[j, k], g[j, l])
        assert_same_fields(vectorized._solve_arc_core(*dots), _solve_arc_core(*dots))
        rows = [batch.embeddings[table.combos[:, col]] for col in range(4)]
        assert_arc_core_matches(*rows)
        segment = vectorized.solve_segment_stack(*rows)
        assert_same_fields(segment, solve_segment_stack(*rows))
        gram_segment = optimal_distance_table(batch, "segment").solution
        assert np.array_equal(gram_segment.case_id, segment.case_id) and np.max(
            np.abs(gram_segment.distance - segment.distance)) <= 1e-15


def degenerate_stacks(rng, n, dim):
    """Four unit stacks whose row blocks have x1 = x2, y1 = y2, both, a shared
    endpoint, one row repeated, and the y arc near the antipode of the x arc."""
    x1, x2, y1, y2 = (unit(rng.normal(size=(n, dim))) for _ in range(4))
    k = n // 6
    x2[:k] = x1[:k]
    y2[k:2 * k] = y1[k:2 * k]
    x2[2 * k:3 * k] = x1[2 * k:3 * k]
    y2[2 * k:3 * k] = y1[2 * k:3 * k]
    y1[3 * k:4 * k] = x1[3 * k:4 * k]
    for m in (x1, x2, y1, y2):
        m[4 * k:5 * k] = m[4 * k]
    y1[5 * k:] = unit(-x1[5 * k:] + 0.3 * rng.normal(size=(n - 5 * k, dim)))
    y2[5 * k:] = unit(-x2[5 * k:] + 0.3 * rng.normal(size=(n - 5 * k, dim)))
    return x1, x2, y1, y2


@pytest.mark.parametrize("dim", [3, 8, 64])
def test_arc_core_matches_reference_on_degenerate_stacks(dim):
    rng = np.random.default_rng(dim)
    stacks = degenerate_stacks(rng, 300, dim)
    sol = vectorized._solve_arc_core(*row_dots(*stacks))
    assert sol.x_collapsed.any() and sol.y_collapsed.any()
    assert (sol.x_collapsed & sol.y_collapsed).any()
    assert_arc_core_matches(*stacks)


def forced_branch_stacks(rng):
    """Rotated axis configurations whose cross dots vanish up to rounding,
    next to random rows.

    Cross dots that vanish make lead = ab + cd zero up to rounding, below
    EPS_QUAD: with all four zero both interior branches fail; with y1 = x1
    or y1 = x2 and the rest orthogonal, the linear one is taken. Random
    rotations supply the rounding; random rows keep the generic branch in
    the same stacks.
    """
    e = np.eye(6)
    configs = [(e[0], e[1], e[2], e[3]), (e[0], e[1], e[0], e[2]), (e[0], e[1], e[1], e[2])]
    stacks = [[], [], [], []]
    for config in configs:
        for _ in range(40):
            q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
            for stack, point in zip(stacks, config):
                stack.append(q @ point)
    return [np.concatenate([np.array(m), unit(rng.normal(size=(60, 6)))]) for m in stacks]


def test_arc_core_matches_reference_on_forced_branches():
    stacks = forced_branch_stacks(np.random.default_rng(7))
    sol = vectorized._solve_arc_core(*row_dots(*stacks))
    a, b, c, d = sol.coeffs.T
    lead, big_a = a * b + c * d, a * a - b * b + c * c - d * d
    assert np.sum(np.abs(lead) < EPS_QUAD) == 120
    assert np.sum((np.abs(lead) < EPS_QUAD) & (np.abs(big_a) >= EPS_QUAD)) == 80
    assert_arc_core_matches(*stacks)


@pytest.mark.parametrize("dim", [2, 3, 8])
def test_segment_stack_matches_reference(dim):
    # Collapsed x or y segments, parallel pairs (a vanishing determinant),
    # half of them shifted orthogonally so that a whole range is optimal,
    # shared endpoints and repeated rows, next to generic ones.
    rng = np.random.default_rng(dim)
    x1, x2, y1, y2 = (2.0 * rng.normal(size=(300, dim)) for _ in range(4))
    x2[:40] = x1[:40]
    y2[40:80] = y1[40:80]
    shift = rng.normal(size=(40, dim))
    u = x2[80:120] - x1[80:120]
    shift[:20] -= np.sum(shift[:20] * u[:20], axis=1, keepdims=True) * u[:20] / np.sum(
        u[:20] * u[:20], axis=1, keepdims=True)
    y1[80:120], y2[80:120] = x1[80:120] + shift, x2[80:120] + shift
    y1[120:160] = x2[120:160]
    for m in (x1, x2, y1, y2):
        m[160:200] = m[160]
    new = vectorized.solve_segment_stack(x1, x2, y1, y2)
    assert set(np.unique(new.case_id)) >= {0, 1, 3}
    assert_same_fields(new, solve_segment_stack(x1, x2, y1, y2))


# Verbatim copy of gradients._arc_adjoint_blocks before the closed form: it
# stacks each row's local Gram matrix and projects delta through it. The
# solution no longer carries the cross dots, so they come in as the rows
# (x1.y1, x1.y2, x2.y1, x2.y2) of cross, formed as the solve formed them.
def _arc_adjoint_blocks(sol, sel, cross) -> np.ndarray:
    """(n, 4, 4) adjoint coefficients of the selected arc rows over (x1, x2, y1, y2).

    A point is p = e1 cos(a) + n2 sin(a) with n2 = (e2 - c0 e1) / s. Pinned
    angles keep their endpoint identity (cases and collapsed sides); free
    angles apply the Jacobians of the basis construction, with every dot
    product read from the rows' local Gram matrix.
    """
    n = len(sel)
    x1y1, x1y2, x2y1, x2y2 = cross[sel].T
    dot_x, dot_y, one = sol.dot_x[sel], sol.dot_y[sel], np.ones(n)
    local = np.stack([one, dot_x, x1y1, x1y2, dot_x, one, x2y1, x2y2,
                      x1y1, x2y1, one, dot_y, x1y2, x2y2, dot_y, one], axis=1).reshape(n, 4, 4)
    bounds = CASE_BOUNDS[sol.case_id[sel]]
    sides = (
        (0, sol.alpha[sel], dot_x, sol.res_x[sel], sol.x_collapsed[sel]),
        (2, sol.beta[sel], dot_y, sol.res_y[sel], sol.y_collapsed[sel]),
    )
    # Unit difference (p1 - p2) / distance in the endpoint basis. A
    # collapsed side sits at angle 0, where n2 does not enter.
    delta = np.zeros((n, 4))
    for first, angle, c0, res, collapsed in sides:
        sin_over = np.where(collapsed, 0.0, np.sin(angle) / np.where(collapsed, 1.0, res))
        sign = 1.0 if first == 0 else -1.0
        delta[:, first] = sign * (np.cos(angle) - c0 * sin_over)
        delta[:, first + 1] = sign * sin_over
    delta /= sol.distance[sel][:, None]

    blocks = np.zeros((n, 4, 4))
    for first, angle, c0, res, collapsed in sides:
        dvec = delta if first == 0 else -delta
        low = bounds[:, first] | collapsed
        high = bounds[:, first + 1] & ~low
        inv_res = np.where(low | high, 0.0, 1.0 / np.where(low | high, 1.0, res))
        n2 = np.zeros((n, 4))
        n2[:, first] = -c0 * inv_res
        n2[:, first + 1] = inv_res
        along = np.einsum("ra,rab,rb->r", dvec, local, n2)
        dt = dvec - along[:, None] * n2
        dt_e1 = np.einsum("rb,rb->r", local[:, first], dt)
        s_over = (np.sin(angle) * inv_res)[:, None]
        g1 = np.cos(angle)[:, None] * dvec - s_over * c0[:, None] * dt
        g1[:, first + 1] -= s_over[:, 0] * dt_e1
        g2 = s_over * dt
        g2[:, first] -= s_over[:, 0] * dt_e1
        lowc, highc = low[:, None], high[:, None]
        blocks[:, first] = np.where(lowc, dvec, np.where(highc, 0.0, g1))
        blocks[:, first + 1] = np.where(lowc, 0.0, np.where(highc, dvec, g2))
    return blocks


def table_cross(table, batch):
    """The cross dots of a table's rows, gathered from its batch's Gram matrix as the solve does."""
    i, j, k, l = table.combos.T
    gram = batch.gram
    return np.stack([gram[i, k], gram[i, l], gram[j, k], gram[j, l]], axis=1)


def stack_solution(x1, x2, y1, y2):
    """The row solve of the stacks and its cross dots, formed as the solve forms them."""
    cross = np.stack(row_dots(x1, x2, y1, y2)[2:], axis=1)
    return vectorized.solve_arc_stack(x1, x2, y1, y2), cross


def adjoint_solutions(kind):
    """(solution, cross dots) pairs to check the adjoint blocks on: tables of
    seeded batches (Gram path), degenerate stacks and forced-branch stacks
    (row path)."""
    if kind == "batches":
        for classes, per_class, dim in SOLVER_SHAPES.values():
            for concentration in (2.5, 40.0):
                for seed in range(3):
                    spec = SyntheticSpec(classes, per_class, dim, concentration=concentration,
                                         seed=seed)
                    batch = generate_synthetic(spec)
                    table = optimal_distance_table(batch)
                    yield table.solution, table_cross(table, batch)
    elif kind == "degenerate":
        for dim in (3, 8, 64):
            yield stack_solution(*degenerate_stacks(np.random.default_rng(dim), 300, dim))
    else:
        yield stack_solution(*forced_branch_stacks(np.random.default_rng(7)))


ADJOINT_KINDS = ["batches", "degenerate", "forced"]


@pytest.mark.parametrize("kind", ADJOINT_KINDS)
def test_adjoint_blocks_match_reference(kind):
    for sol, cross in adjoint_solutions(kind):
        sel = np.flatnonzero(sol.distance > gradients._TINY_DIST)
        ref = _arc_adjoint_blocks(sol, sel, cross)
        new = gradients._arc_adjoint_blocks(sol, sel)
        assert np.max(np.abs(new - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_adjoint_inputs_cover_every_case():
    cases = np.concatenate([sol.case_id[sol.distance > gradients._TINY_DIST]
                            for kind in ADJOINT_KINDS for sol, _ in adjoint_solutions(kind)])
    assert set(cases.tolist()) == set(range(9))


@pytest.mark.parametrize("shape", list(SOLVER_SHAPES), ids=list(SOLVER_SHAPES))
def test_optimal_distance_grad_stack_matches_reference_on_row_subset(shape):
    # The loop_hphn and loop_ls path: integer weights on a subset of rows
    # (each pair's nearest row), every other row weighted 0.
    classes, per_class, dim = SOLVER_SHAPES[shape]
    rng = np.random.default_rng(3)
    for seed in range(3):
        batch = generate_synthetic(SyntheticSpec(classes, per_class, dim, seed=seed))
        table = optimal_distance_table(batch)
        sol, n = table.solution, batch.batch_size
        picked = rng.choice(len(table.combos), size=len(table.combos) // 3)
        weights = np.bincount(np.concatenate([table.nearest, picked]), minlength=len(table.combos))
        sel = np.flatnonzero(weights)
        assert 0 < len(sel) < len(weights)
        ref = np.zeros((n, n))
        rows = table.combos[sel]
        blocks = _arc_adjoint_blocks(sol, sel, table_cross(table, batch))
        np.add.at(ref, (rows[:, :, None], rows[:, None, :]), weights[sel][:, None, None] * blocks)
        new = gradients.optimal_distance_grad_stack(n, table.combos, sol, weights)
        assert np.max(np.abs(new - ref)) <= 1e-13 * np.max(np.abs(ref))
        emb = batch.embeddings
        assert np.max(np.abs(new @ emb - ref @ emb)) <= 1e-13 * np.max(np.abs(ref @ emb))


# -- grid oracle -----------------------------------------------------------

_CHUNK = 4096

DEFAULT_RESOLUTION = 1e-3


def _axis(extent: float, resolution: float) -> np.ndarray:
    """Grid 0, r, 2r, ... capped at extent, with the endpoint appended.

    Multiples of the step are exact floats, so halving the resolution
    yields a superset of the points and refinement is monotone by
    construction.
    """
    if extent <= 0.0:
        return np.zeros(1)
    points = np.arange(int(np.floor(extent / resolution)) + 1) * resolution
    if points[-1] >= extent:
        points[-1] = extent
    else:
        points = np.append(points, extent)
    return points


def _scan_min(rows_fn, n_rows: int, n_cols: int):
    """Row-chunked minimum of a matrix of squared distances.

    rows_fn(i0, i1) returns the squared-distance block for rows [i0, i1).
    Returns (flat row, col, min value) of the first minimal cell.
    """
    best = np.inf
    best_rc = (0, 0)
    for i0 in range(0, n_rows, _CHUNK):
        i1 = min(i0 + _CHUNK, n_rows)
        block = rows_fn(i0, i1)
        flat = int(np.argmin(block))
        val = float(block.flat[flat])
        if val < best:
            best = val
            best_rc = (i0 + flat // n_cols, flat % n_cols)
    return best_rc, best


def grid_min_arc(
    problem: ArcProblem, resolution: float = DEFAULT_RESOLUTION, explicit: bool = False
) -> GridResult:
    """Grid minimum of the chord distance over [0, alpha0] x [0, beta0]."""
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    alphas = _axis(problem.alpha0, resolution)
    betas = _axis(problem.beta0, resolution)
    if explicit:
        points_x = np.stack([point_on_arc(problem.basis_x, a) for a in alphas])
        points_y = np.stack([point_on_arc(problem.basis_y, b) for b in betas])

        def rows_fn(i0, i1):
            diff = points_x[i0:i1, None, :] - points_y[None, :, :]
            return np.sum(diff * diff, axis=2)

    else:
        n1, n2 = problem.basis_x.n1, problem.basis_x.n2
        n3, n4 = problem.basis_y.n1, problem.basis_y.n2
        g13, g23 = float(n1 @ n3), float(n2 @ n3)
        g14, g24 = float(n1 @ n4), float(n2 @ n4)
        cos_a, sin_a = np.cos(alphas), np.sin(alphas)
        cos_b, sin_b = np.cos(betas), np.sin(betas)
        # p1.p2 = u1(alpha) cos(beta) + u2(alpha) sin(beta)
        u1 = cos_a * g13 + sin_a * g23
        u2 = cos_a * g14 + sin_a * g24

        def rows_fn(i0, i1):
            dots = u1[i0:i1, None] * cos_b[None, :] + u2[i0:i1, None] * sin_b[None, :]
            return 2.0 - 2.0 * dots

    (ia, ib), d2 = _scan_min(rows_fn, len(alphas), len(betas))
    return GridResult(
        best_params=(float(alphas[ia]), float(betas[ib])),
        best_distance=float(np.sqrt(max(d2, 0.0))),
        resolution=resolution,
        evaluations=len(alphas) * len(betas),
    )


def grid_min_segment(
    problem: SegmentProblem,
    resolution: float = DEFAULT_RESOLUTION,
    explicit: bool = False,
) -> GridResult:
    """Grid minimum of |p1 - p2| over (k1, k2) in [0, 1]^2."""
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    k1s = _axis(1.0, resolution)
    k2s = _axis(1.0, resolution)
    if explicit:
        points_x = problem.x1[None, :] + np.outer(k1s, problem.x2 - problem.x1)
        points_y = problem.y1[None, :] + np.outer(k2s, problem.y2 - problem.y1)

        def rows_fn(i0, i1):
            diff = points_x[i0:i1, None, :] - points_y[None, :, :]
            return np.sum(diff * diff, axis=2)

    else:
        u, v, w = problem.u, problem.v, problem.w
        uu, vv, uv = float(u @ u), float(v @ v), float(u @ v)
        uw, vw, ww = float(u @ w), float(v @ w), float(w @ w)
        # |w - k1 u + k2 v|^2 split into row, column, and cross terms
        row = ww + k1s * k1s * uu - 2.0 * k1s * uw
        col = k2s * k2s * vv + 2.0 * k2s * vw
        cross = -2.0 * uv

        def rows_fn(i0, i1):
            return (
                row[i0:i1, None]
                + col[None, :]
                + cross * k1s[i0:i1, None] * k2s[None, :]
            )

    (i1_, i2_), d2 = _scan_min(rows_fn, len(k1s), len(k2s))
    return GridResult(
        best_params=(float(k1s[i1_]), float(k2s[i2_])),
        best_distance=float(np.sqrt(max(d2, 0.0))),
        resolution=resolution,
        evaluations=len(k1s) * len(k2s),
    )


def assert_grids_match(points, resolution, explicit=False):
    """Both variants of one instance give the reference's GridResult, field for field."""
    arc = ArcProblem.from_endpoints(*unit(points))
    segment = SegmentProblem.from_endpoints(*points)
    for new, ref in ((oracle.grid_min_arc, grid_min_arc),
                     (oracle.grid_min_segment, grid_min_segment)):
        problem = arc if new is oracle.grid_min_arc else segment
        got = dataclasses.astuple(new(problem, resolution, explicit=explicit))
        assert got == dataclasses.astuple(ref(problem, resolution, explicit=explicit))


# Each resolution leaves a partial last slab on the segment grid, whose axes
# hold 1,001, 1,371 and 324 points (slabs of 32, 23 and 101 rows).
@pytest.mark.parametrize("resolution", [1e-3, 7.3e-4, 3.1e-3])
@pytest.mark.parametrize("dim", [2, 3, 8, 64, 512])
def test_grid_oracle_matches_reference(dim, resolution):
    rng = np.random.default_rng(dim)
    for _ in range(3):
        assert_grids_match(rng.normal(size=(4, dim)), resolution)


def test_grid_oracle_matches_reference_on_degenerate_instances():
    rng = np.random.default_rng(11)
    for dim in (3, 8, 64):
        x1, x2, y1, y2 = rng.normal(size=(4, dim))
        instances = {
            "collapsed x": (x1, x1, y1, y2),
            "both collapsed": (x1, x1, y1, y1),
            "shared endpoint": (x1, x2, x1, y2),
            "identical": (x1, x2, x1, x2),
            "reversed": (x1, x2, x2, x1),
            "parallel": (x1, x2, x1 + y1, x2 + y1),
        }
        for points in instances.values():
            assert_grids_match(np.stack(points), 1e-3)


def test_grid_oracle_constant_surface_ties_span_slabs():
    # Every cell of the orthogonal-span grid is exactly 2, so the first cell
    # of the first slab must beat the equal cells of the later slabs.
    e = np.eye(4)
    problem = ArcProblem.from_endpoints(e[0], e[1], e[2], e[3])
    result = oracle.grid_min_arc(problem, 1e-3)
    assert dataclasses.astuple(result) == dataclasses.astuple(grid_min_arc(problem, 1e-3))
    assert result.best_params == (0.0, 0.0)
    assert result.evaluations > 32 * oracle._SLAB_CELLS


@pytest.mark.parametrize("dim", [3, 64, 512])
def test_explicit_grid_oracle_matches_reference(dim):
    rng = np.random.default_rng(dim + 1)
    for _ in range(2):
        assert_grids_match(rng.normal(size=(4, dim)), 2e-2, explicit=True)


# -- one-pass loss steps -----------------------------------------------------
# The loss values and gradients as they were when each gradient recomputed
# the distances, the mining and the MS weights of its value pass.


def pairwise(batch: LabeledBatch):
    """Distance and similarity matrices d and s = 1 - d^2 / 2."""
    gram = batch.embeddings @ batch.embeddings.T
    d_sq = np.clip(2.0 - 2.0 * gram, 0.0, None)
    np.fill_diagonal(d_sq, 0.0)
    dist = np.sqrt(d_sq)
    sim = 1.0 - d_sq / 2.0
    return dist, sim


def _finish(terms, keys, batch: LabeledBatch, config: LossConfig) -> LossValue:
    if config.normalization == "classes":
        norm = batch.num_classes()
    else:
        norm = max(len(terms), 1)
    return LossValue(total=float(np.sum(terms) / norm), terms=terms, keys=keys)


def _pair_terms(values, pairs: PairSet, batch, config) -> LossValue:
    """One hinge term per positive pair, keyed (i, j)."""
    return _finish(hinge(values), lambda: zip(pairs.idx1.tolist(), pairs.idx2.tolist()),
                   batch, config)


def triplet(batch: LabeledBatch, config: LossConfig) -> LossValue:
    """Hinge over (positive pair, negative sample) tuples."""
    _require_negatives(batch)
    dist, _ = pairwise(batch)
    pairs = build_pairs(batch)
    i, j = pairs.idx1, pairs.idx2
    negative = batch.labels[i][:, None] != batch.labels[None, :]
    values = dist[i, j][:, None] - dist[i] + config.margin
    rows, k = np.nonzero(negative)
    return _finish(hinge(values[negative]),
                   lambda: zip(i[rows].tolist(), j[rows].tolist(), k.tolist()), batch, config)


def loop_triplet(
    batch: LabeledBatch, table: OptimalDistanceTable, config: LossConfig
) -> LossValue:
    """Triplet hinge with the negative distance replaced by the optimal one.

    Every combination contributes twice, once per side playing the positive
    pair, matching the sum over (positive pair, negative pair) tuples.
    """
    _require_negatives(batch)
    dist, _ = pairwise(batch)
    i, j, k, l = table.combos.T
    d_opt = table.distances
    values = np.stack([dist[i, j] - d_opt, dist[k, l] - d_opt], axis=1) + config.margin

    def keys():
        for a, b, c, d in table.combos.tolist():
            yield ((a, b), (c, d))
            yield ((c, d), (a, b))

    return _finish(hinge(values.ravel()), keys, batch, config)


def hphn_triplet(batch: LabeledBatch, config: LossConfig) -> LossValue:
    """Hard-positive hard-negative triplet: one term per positive pair."""
    _require_negatives(batch)
    dist, _ = pairwise(batch)
    pairs = build_pairs(batch)
    hp = hardest(dist, batch.labels, pairs, positive=True)[0]
    hn = hardest(dist, batch.labels, pairs, positive=False)[0]
    return _pair_terms(hp + config.margin - hn, pairs, batch, config)


def loop_hphn(
    batch: LabeledBatch, table: OptimalDistanceTable, config: LossConfig
) -> LossValue:
    """HPHN with the mined negative replaced by the per-pair optimal minimum."""
    _require_negatives(batch)
    dist, _ = pairwise(batch)
    hp = hardest(dist, batch.labels, table.pairs, positive=True)[0]
    return _pair_terms(hp + config.margin - table.pair_min, table.pairs, batch, config)


def lifted_structure(batch: LabeledBatch, config: LossConfig) -> LossValue:
    """Push each positive pair beyond the margin from its nearest negative."""
    _require_negatives(batch)
    dist, _ = pairwise(batch)
    pairs = build_pairs(batch)
    hn = hardest(dist, batch.labels, pairs, positive=False)[0]
    return _pair_terms(dist[pairs.idx1, pairs.idx2] + config.margin - hn, pairs, batch, config)


def loop_ls(
    batch: LabeledBatch, table: OptimalDistanceTable, config: LossConfig
) -> LossValue:
    """Lifted structure with the optimal per-pair minimum as the negative."""
    _require_negatives(batch)
    dist, _ = pairwise(batch)
    pairs = table.pairs
    d_pos = dist[pairs.idx1, pairs.idx2]
    return _pair_terms(d_pos + config.margin - table.pair_min, pairs, batch, config)


def _ms_value(batch, config, table=None) -> LossValue:
    _require_negatives(batch)
    _, sim = pairwise(batch)
    terms, _ = ms_weighting(sim, *ms_masks(batch.labels, sim, config, table), config)
    return _finish(terms, lambda: range(len(terms)), batch, config)


def ms_loss(batch: LabeledBatch, config: LossConfig) -> LossValue:
    """Multi-similarity loss: mine, then weight."""
    return _ms_value(batch, config)


def loop_ms(
    batch: LabeledBatch, table: OptimalDistanceTable, config: LossConfig
) -> LossValue:
    """Multi-similarity loss over the optimally mined negative sets."""
    return _ms_value(batch, config, table)


_triplet_loss, _hphn_loss, _ls_loss, _ms_loss = triplet, hphn_triplet, lifted_structure, ms_loss


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


def _ms_grad(batch, config, table=None):
    """Weighting-stage gradient W E + W^T E; the mined sets are frozen."""
    _, sim = pairwise(batch)
    _, weights = ms_weighting(sim, *ms_masks(batch.labels, sim, config, table), config)
    emb = batch.embeddings
    return (weights @ emb + weights.T @ emb) / _norm_factor(batch, config, batch.batch_size)


REFERENCE_STEPS = {
    "triplet": triplet_grad,
    "loop_triplet": loop_triplet_grad,
    "hphn_triplet": lambda b, c: (_hphn_loss(b, c), _pair_loss_grad(b, c, None, False)),
    "loop_hphn": lambda b, t, c: (loop_hphn(b, t, c), _pair_loss_grad(b, c, t, False)),
    "lifted_structure": lambda b, c: (_ls_loss(b, c), _pair_loss_grad(b, c, None, True)),
    "loop_ls": lambda b, t, c: (loop_ls(b, t, c), _pair_loss_grad(b, c, t, True)),
    "ms": lambda b, c: (_ms_loss(b, c), _ms_grad(b, c)),
    "loop_ms": lambda b, t, c: (loop_ms(b, t, c), _ms_grad(b, c, t)),
}

STEP_SHAPES = {"8x16": (8, 16, 16), "32x4": (32, 4, 64), "4x4": (4, 4, 8), "16x8": (16, 8, 32)}


def step_batches(classes, per_class, dim):
    """A spread batch, the same rows with labels interleaved, and one with a duplicated row."""
    spread = generate_synthetic(SyntheticSpec(classes, per_class, dim, seed=classes + dim))
    order = np.random.default_rng(dim).permutation(spread.batch_size)
    interleaved = LabeledBatch.from_arrays(spread.embeddings[order], spread.labels[order])
    rows = spread.embeddings.copy()
    rows[1] = rows[0]
    duplicated = LabeledBatch.from_arrays(rows, spread.labels)
    return spread, interleaved, duplicated


@pytest.mark.parametrize("shape", list(STEP_SHAPES), ids=list(STEP_SHAPES))
def test_loss_steps_match_reference(shape):
    classes, per_class, dim = STEP_SHAPES[shape]
    for batch in step_batches(classes, per_class, dim):
        dist, sim = gradients.pairwise(batch)
        ref_dist, ref_sim = pairwise(batch)
        assert np.array_equal(dist, ref_dist) and np.array_equal(sim, ref_sim)
        tables = {variant: optimal_distance_table(batch, variant) for variant in VARIANTS}
        for normalization in ("terms", "classes"):
            cfg = LossConfig(margin=0.3, normalization=normalization)
            for name, (needs_table, _, _) in gradients.LOSS_REGISTRY.items():
                for variant in VARIANTS if needs_table else ("arc",):
                    args = (batch, tables[variant]) if needs_table else (batch,)
                    loss, grad = gradients.loss_and_grad(name, batch, cfg, variant)
                    ref_loss, ref_grad = REFERENCE_STEPS[name](*args, cfg)
                    assert loss.total == ref_loss.total, (name, variant)
                    assert np.array_equal(loss.terms, ref_loss.terms), (name, variant)
                    assert np.array_equal(grad, ref_grad), (name, variant)
                    assert gradients.evaluate_loss(name, batch, cfg, variant) == loss.total


# -- recall chords -----------------------------------------------------------


def _sq_chords(batch: LabeledBatch) -> np.ndarray:
    """(B, B) squared chords 2 - 2 e_i.e_j, clipped at 0, with inf on the diagonal."""
    if batch.batch_size < 2:
        raise ValueError("need at least 2 samples")
    d_sq = batch.embeddings @ batch.embeddings.T
    d_sq *= -2.0
    d_sq += 2.0
    np.maximum(d_sq, 0.0, out=d_sq)
    d_sq.flat[:: batch.batch_size + 1] = np.inf
    return d_sq


def reference_chord_recall(batch, k):
    """recall@k from fresh chords: the first neighbour for k = 1, else the stable ranks."""
    d_sq = _sq_chords(batch)
    if k == 1:
        return float(np.mean(batch.labels[np.argmin(d_sq, axis=1)] == batch.labels))
    labels = batch.labels
    same = np.where(labels[:, None] == labels[None, :], d_sq, np.inf)
    nearest = np.argmin(same, axis=1)[:, None]
    d_star = np.take_along_axis(same, nearest, axis=1)
    earlier = np.arange(batch.batch_size)[None, :] < nearest
    rank = np.count_nonzero(np.where(earlier, d_sq <= d_star, d_sq < d_star), axis=1)
    return float(np.mean(np.where(np.isfinite(d_star[:, 0]), rank, np.inf) < k))


@pytest.mark.parametrize("shape", list(STEP_SHAPES), ids=list(STEP_SHAPES))
def test_recall_chords_match_reference(shape):
    # Recall reads the batch's one Gram matrix: first on a fresh batch, then
    # after a loss step has read it too.
    classes, per_class, dim = STEP_SHAPES[shape]
    ks = (1, 2, 4, 8)
    for batch in step_batches(classes, per_class, dim):
        expected = {k: reference_chord_recall(batch, k) for k in ks}
        for _ in range(2):
            assert np.array_equal(batch.sq_chords(np.inf), _sq_chords(batch))
            assert {k: recall_at_k(batch, k) for k in ks} == expected
            assert evaluate(batch, ks).recall_at_k == expected
            gradients.loss_and_grad("loop_triplet", batch, LossConfig())
