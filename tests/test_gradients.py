import math
from collections import Counter

import numpy as np
import pytest

from hardneg import (
    ArcProblem,
    LabeledBatch,
    LossConfig,
    SyntheticSpec,
    finite_diff_grad,
    generate_synthetic,
    optimal_arc_distance,
    optimal_distance_table,
    pairwise,
)
from hardneg.arc_solver import active_set_margin
from hardneg import batch_engine, gradients, losses, trainer
from hardneg.batch_engine import VARIANTS
from hardneg.gradients import (
    LOSS_REGISTRY,
    arc_point_adjoints,
    evaluate_loss,
    loss_and_grad,
    project_tangent,
)
from hardneg.geometry import gram_schmidt_basis, point_on_arc

from conftest import random_batch, unit_rows


def numeric_fixed_angle_adjoints(x1, x2, alpha, delta, h=1e-7):
    def arc_point(u, v):
        return point_on_arc(gram_schmidt_basis(u, v), alpha)

    g1, g2 = np.zeros_like(x1), np.zeros_like(x2)
    for c in range(len(x1)):
        e = np.zeros_like(x1)
        e[c] = h
        g1[c] = delta @ (arc_point(x1 + e, x2) - arc_point(x1 - e, x2)) / (2 * h)
        g2[c] = delta @ (arc_point(x1, x2 + e) - arc_point(x1, x2 - e)) / (2 * h)
    return g1, g2


def test_adjoints_match_numeric_jacobians(rng):
    for _ in range(40):
        x1, x2 = unit_rows(rng, 2, 6)
        alpha = rng.uniform(0.1, 0.9) * math.acos(np.clip(x1 @ x2, -1, 1))
        delta = rng.normal(size=6)
        basis = gram_schmidt_basis(x1, x2)
        dot = float(x1 @ x2)
        res = float(np.linalg.norm(x2 - dot * x1))
        a1, a2 = arc_point_adjoints(x1, x2, basis.n2, dot, res, alpha, delta, False, False)
        n1, n2 = numeric_fixed_angle_adjoints(x1, x2, alpha, delta)
        np.testing.assert_allclose(a1, n1, atol=1e-6)
        np.testing.assert_allclose(a2, n2, atol=1e-6)


def tuple_batch(points):
    """One tuple as a batch: (x1, x2) of class 0, (y1, y2) of class 1, one combination."""
    return LabeledBatch.from_arrays(np.asarray(points), np.array([0, 0, 1, 1]))


def test_tuple_gradient_inactive_hinge(rng):
    # tight positive pair far from the negatives: hinge strictly off
    x1 = np.array([1.0, 0.0, 0.0, 0.0])
    x2 = np.array([math.cos(0.05), math.sin(0.05), 0.0, 0.0])
    y1 = np.array([0.0, 0.0, 1.0, 0.0])
    y2 = np.array([0.0, 0.0, math.cos(0.3), math.sin(0.3)])
    batch = tuple_batch([x1, x2, y1, y2])
    loss, grad = loss_and_grad("loop_triplet", batch, LossConfig(margin=0.05))
    assert loss.total == 0.0
    assert np.all(grad == 0.0)


def test_tuple_gradient_corner_case_shapes():
    # corner winner with p1 = x1, p2 = y1: gradients reduce to endpoint forms
    x1 = np.array([1.0, 0.0, 0.0, 0.0])
    x2 = np.array([0.0, 1.0, 0.0, 0.0])
    y1 = np.array([0.95, -0.25, 0.19, 0.0])
    y2 = np.array([0.85, -0.40, 0.30, 0.15])
    y1, y2 = y1 / np.linalg.norm(y1), y2 / np.linalg.norm(y2)
    sol = optimal_arc_distance(ArcProblem.from_endpoints(x1, x2, y1, y2))
    assert sol.candidate.case_id == 5
    _, grad = loss_and_grad("loop_triplet", tuple_batch([x1, x2, y1, y2]), LossConfig(margin=2.0))
    # Both hinges are active; the loss is the mean of |x1 - x2| - rho and
    # |y1 - y2| - rho plus the margin, with rho = |x1 - y1| at this corner.
    u_x = (x1 - x2) / np.linalg.norm(x1 - x2)
    u_y = (y1 - y2) / np.linalg.norm(y1 - y2)
    delta = (x1 - y1) / sol.distance
    expected = np.stack([u_x - 2 * delta, -u_x, u_y + 2 * delta, -u_y]) / 2
    np.testing.assert_allclose(grad, expected, atol=1e-12)


def test_tuple_gradient_matches_finite_differences(rng):
    checked = 0
    interior_checked = 0
    worst = 0.0
    cfg = LossConfig(margin=0.3)
    while checked < 60:
        points = unit_rows(rng, 4, int(rng.choice([4, 6, 8])))
        problem = ArcProblem.from_endpoints(*points)
        sol = optimal_arc_distance(problem)
        hinges = [np.linalg.norm(points[a] - points[b]) - sol.distance + cfg.margin
                  for a, b in ((0, 1), (2, 3))]
        if min(hinges) < 1e-3 or active_set_margin(problem, sol) < 1e-4:
            continue
        batch = tuple_batch(points)
        tangent = project_tangent(batch.embeddings, loss_and_grad("loop_triplet", batch, cfg)[1])
        fd = np.stack([
            finite_diff_grad(lambda b: evaluate_loss("loop_triplet", b, cfg), batch, idx)
            for idx in range(4)
        ])
        worst = max(worst, np.linalg.norm(tangent - fd) / max(np.linalg.norm(fd), 1e-12))
        checked += 1
        interior_checked += sol.candidate.case_id == 0
    assert worst < 1e-3
    assert interior_checked > 0


def test_tuple_gradient_drops_term_at_hinge_kink(rng):
    # A term exactly at its kink takes the subgradient 0: the gradient equals
    # the one just inside the inactive side, not the one just outside.
    while True:
        points = unit_rows(rng, 4, 5)
        batch = tuple_batch(points)
        dist, _ = pairwise(batch)
        rho = optimal_distance_table(batch).distances[0]
        if rho - dist[0, 1] > 1e-3 and dist[2, 3] - dist[0, 1] > 1e-3:
            break
    kink = rho - dist[0, 1]  # the (x1, x2) term's hinge argument is exactly 0 here
    at, below, above = (loss_and_grad("loop_triplet", batch, LossConfig(margin=m))[1]
                        for m in (kink, kink - 1e-9, kink + 1e-9))
    assert np.array_equal(at, below)
    assert not np.allclose(at, above)


def test_finite_diff_constant_loss(rng):
    batch = random_batch(rng, num_classes=2, per_class=2, dim=4)
    grad = finite_diff_grad(lambda b: 1.25, batch, index=0)
    assert np.all(grad == 0.0)


GRADIENT_TOLERANCES = {
    "triplet": 1e-4,
    "hphn_triplet": 1e-4,
    "lifted_structure": 1e-4,
    "ms": 1e-4,
    "loop_triplet": 1e-3,
    "loop_hphn": 1e-3,
    "loop_ls": 1e-3,
    "loop_ms": 1e-3,
}


def gradient_batches():
    """Three class-grouped batches and one with interleaved labels."""
    for seed in range(3):
        yield random_batch(np.random.default_rng(seed + 31), num_classes=3,
                           per_class=4, dim=6)
    rng = np.random.default_rng(37)
    grouped = random_batch(rng, num_classes=3, per_class=4, dim=6)
    order = rng.permutation(grouped.batch_size)
    yield LabeledBatch.from_arrays(grouped.embeddings[order], grouped.labels[order])


@pytest.mark.parametrize(
    "name,tol,variant,normalization",
    [pytest.param(name, tol, "arc", norm, id=f"{name}-{tol}{suffix}")
     for norm, suffix in (("terms", ""), ("classes", "-classes"))
     for name, tol in GRADIENT_TOLERANCES.items()]
    + [pytest.param(name, tol, "segment", norm, id=f"{name}-segment{suffix}")
       for norm, suffix in (("terms", ""), ("classes", "-classes"))
       for name, tol in GRADIENT_TOLERANCES.items() if name.startswith("loop_")],
)
def test_batch_loss_gradients(name, tol, variant, normalization):
    cfg = LossConfig(margin=0.4, normalization=normalization)
    worst = 0.0
    for batch in gradient_batches():
        _, grad = loss_and_grad(name, batch, cfg, variant)
        tangent = project_tangent(batch.embeddings, grad)
        for idx in (0, 7):
            fd = finite_diff_grad(lambda b: evaluate_loss(name, b, cfg, variant), batch, idx)
            denom = max(np.linalg.norm(fd), 1e-10)
            if denom > 1e-8:
                worst = max(worst, np.linalg.norm(tangent[idx] - fd) / denom)
    assert worst < tol


@pytest.mark.parametrize("name", sorted(LOSS_REGISTRY))
def test_unknown_variant_rejected(name):
    batch = random_batch(np.random.default_rng(5))
    for fn in (loss_and_grad, evaluate_loss):
        with pytest.raises(ValueError, match="unknown variant 'segmnet'"):
            fn(name, batch, LossConfig(), "segmnet")


@pytest.mark.parametrize("name", sorted(LOSS_REGISTRY))
def test_one_pass_per_loss_step(name, monkeypatch):
    # The gradient reads the value pass's arrays: one distance matrix, one
    # pairing, one mining per step, and evaluate_loss forms no gradient.
    calls = Counter()

    def counted(module, attr):
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            calls[attr] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, attr, wrapper)

    for attr in ("pairwise", "hardest", "ms_masks", "ms_weighting", "build_pairs"):
        counted(losses, attr)
    for module in (gradients, batch_engine):
        counted(module, "build_pairs")
    counted(gradients, "chord_grad")
    batch = random_batch(np.random.default_rng(6), num_classes=4, per_class=4, dim=8)
    cfg = LossConfig(margin=0.4)
    loss_and_grad(name, batch, cfg)
    mined = {"hphn_triplet": 2, "loop_hphn": 1, "lifted_structure": 1}.get(name, 0)
    ms = int(name in ("ms", "loop_ms"))
    assert calls["pairwise"] == 1
    assert calls["build_pairs"] == (0 if name == "ms" else 1)
    assert calls["hardest"] == mined
    assert calls["ms_masks"] == calls["ms_weighting"] == ms
    assert calls["chord_grad"] == 1 - ms
    calls.clear()
    evaluate_loss(name, batch, cfg)
    assert calls["pairwise"] == 1
    assert calls["chord_grad"] == 0


LOOP_LOSSES = [name for name in sorted(LOSS_REGISTRY) if name.startswith("loop_")]
# The names the registry rows read their value functions by.
VALUE_ALIASES = {
    "triplet": "_triplet_loss", "loop_triplet": "loop_triplet",
    "hphn_triplet": "_hphn_loss", "loop_hphn": "loop_hphn",
    "lifted_structure": "_ls_loss", "loop_ls": "loop_ls",
    "ms": "_ms_loss", "loop_ms": "loop_ms",
}


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("name", LOOP_LOSSES)
def test_loop_loss_value_keeps_its_table(name, variant, monkeypatch):
    # The step's one table rides on its LossValue, equal to a fresh build.
    batch = random_batch(np.random.default_rng(8), num_classes=4, per_class=4, dim=8)
    built = []

    def counted(batch, variant="arc"):
        built.append(optimal_distance_table(batch, variant=variant))
        return built[-1]

    monkeypatch.setattr(gradients, "optimal_distance_table", counted)
    loss, _ = loss_and_grad(name, batch, LossConfig(margin=0.4), variant)
    assert len(built) == 1 and loss.table is built[0]
    fresh = optimal_distance_table(batch, variant)
    assert loss.table.variant == variant
    assert np.array_equal(loss.table.combos, fresh.combos)
    assert np.array_equal(loss.table.distances, fresh.distances)
    assert np.array_equal(loss.table.solution.case_id, fresh.solution.case_id)


@pytest.mark.parametrize("name", sorted(set(LOSS_REGISTRY) - set(LOOP_LOSSES)))
def test_plain_loss_value_keeps_no_table(name):
    batch = random_batch(np.random.default_rng(8), num_classes=4, per_class=4, dim=8)
    assert loss_and_grad(name, batch, LossConfig(margin=0.4))[0].table is None


@pytest.mark.parametrize("name", sorted(LOSS_REGISTRY))
def test_value_functions_read_at_call_time(name, monkeypatch):
    # A wrapper set on the gradients attribute is the one both entry points
    # call, as a tracer's wrappers must be.
    calls = Counter()
    alias = VALUE_ALIASES[name]
    original = getattr(gradients, alias)

    def wrapper(*args, **kwargs):
        calls[alias] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(gradients, alias, wrapper)
    batch = random_batch(np.random.default_rng(9), num_classes=4, per_class=4, dim=8)
    cfg = LossConfig(margin=0.4)
    loss, _ = loss_and_grad(name, batch, cfg)
    assert calls == {alias: 1}
    assert evaluate_loss(name, batch, cfg) == loss.total
    assert calls == {alias: 2}


class CountedRows(np.ndarray):
    """Embedding rows that count the products E E^T formed from them."""

    products = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        a = inputs[0]
        if (ufunc is np.matmul and a.ndim == 2 and inputs[1].shape == a.shape[::-1]
                and np.may_share_memory(*inputs)):
            CountedRows.products += 1
        plain = [x.view(np.ndarray) if isinstance(x, CountedRows) else x for x in inputs]
        if "out" in kwargs:
            kwargs["out"] = tuple(x.view(np.ndarray) for x in kwargs["out"])
        return getattr(ufunc, method)(*plain, **kwargs)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("name", sorted(LOSS_REGISTRY))
def test_one_gram_product_per_train_step(name, variant, monkeypatch):
    # The table, the distances and recall@1 of a step all read one E E^T,
    # and evaluate's ranks reuse the trained batch's. k-means keeps its own
    # product, so its rows are passed uncounted.
    spec, cfg, steps = SyntheticSpec(4, 4, 8, seed=3), LossConfig(margin=0.4), 3
    expected = trainer.train(spec, name, cfg, steps, variant=variant)

    def counted(embeddings, labels, samples_per_class):
        return LabeledBatch(embeddings.view(CountedRows), labels, samples_per_class)

    def synthetic(spec):
        batch = generate_synthetic(spec)
        return counted(batch.embeddings, batch.labels, batch.samples_per_class)

    monkeypatch.setattr(trainer, "LabeledBatch", counted)
    monkeypatch.setattr(trainer, "generate_synthetic", synthetic)
    kmeans = trainer._farthest_point_kmeans
    monkeypatch.setattr(trainer, "_farthest_point_kmeans",
                        lambda points, k: kmeans(points.view(np.ndarray), k))
    CountedRows.products = 0
    state = trainer.train(spec, name, cfg, steps, variant=variant)
    assert state.history == expected.history
    assert CountedRows.products == steps + 1  # the steps and the final loss
    assert trainer.evaluate(state.embeddings) == trainer.evaluate(expected.embeddings)
    assert CountedRows.products == steps + 1


def test_zero_gradient_when_hinges_off():
    emb = np.array(
        [[1.0, 0.02, 0], [1.0, -0.02, 0], [-1.0, 0.02, 0], [-1.0, -0.02, 0]]
    )
    batch = LabeledBatch.from_arrays(emb, np.array([0, 0, 1, 1]))
    cfg = LossConfig(margin=0.1)
    loss, grad = loss_and_grad("loop_triplet", batch, cfg)
    assert loss.total == 0.0
    assert np.all(grad == 0.0)


def _instance_with_case(case, rng, min_margin=1e-3):
    """Four unit points in R^5 whose arc solution wins `case`, clear of active-set changes."""
    while True:
        points = unit_rows(rng, 4, 5)
        problem = ArcProblem.from_endpoints(*points)
        sol = optimal_arc_distance(problem)
        if sol.candidate.case_id == case and active_set_margin(problem, sol) > min_margin:
            return points


@pytest.mark.parametrize("case", range(1, 9))
@pytest.mark.parametrize("name", ["loop_triplet", "loop_hphn", "loop_ls"])
def test_loop_gradients_by_winning_case(name, case):
    # One combination per batch, every hinge strictly active, the winning
    # case stable under the finite-difference steps.
    rng = np.random.default_rng(100 + case)
    cfg = LossConfig(margin=3.0)
    for _ in range(3):
        points = _instance_with_case(case, rng)
        batch = LabeledBatch.from_arrays(points, np.array([0, 0, 1, 1]))
        assert optimal_distance_table(batch).solution.case_id.tolist() == [case]
        _, grad = loss_and_grad(name, batch, cfg)
        tangent = project_tangent(batch.embeddings, grad)
        for idx in range(4):
            fd = finite_diff_grad(lambda b: evaluate_loss(name, b, cfg), batch, idx, h=1e-6)
            assert np.linalg.norm(tangent[idx] - fd) <= 1e-6 * max(np.linalg.norm(fd), 1.0)


def _near_coincident_batch():
    """Two classes of four in R^5; samples 0 and 1 are about 1e-7 apart."""
    rng = np.random.default_rng(71)
    emb = unit_rows(rng, 8, 5)
    step = rng.normal(size=5)
    step -= (step @ emb[0]) * emb[0]
    emb[1] = emb[0] + 1e-7 * step / np.linalg.norm(step)
    return LabeledBatch.from_arrays(emb, np.repeat([0, 1], 4))


def _unit(emb, dist, a, b):
    return (emb[a] - emb[b]) / dist[a, b] if dist[a, b] > 1e-12 else np.zeros(emb.shape[1])


def test_near_coincident_pair_triplet_grad():
    # Explicit per-term unit vectors (e_a - e_b) / d_ab as the reference.
    batch = _near_coincident_batch()
    cfg = LossConfig(margin=2.5)
    emb, labels = batch.embeddings, batch.labels
    dist, _ = pairwise(batch)
    assert 5e-8 < dist[0, 1] < 2e-7
    ref = np.zeros_like(emb)
    negatives = 0
    for i in range(0, 8, 2):
        j = i + 1
        for k in np.flatnonzero(labels != labels[i]):
            negatives += 1
            if dist[i, j] - dist[i, k] + cfg.margin > 0.0:
                u_pos, u_neg = _unit(emb, dist, i, j), _unit(emb, dist, i, k)
                ref[i] += u_pos - u_neg
                ref[j] -= u_pos
                ref[k] += u_neg
    ref /= negatives
    _, grad = loss_and_grad("triplet", batch, cfg)
    for row in (0, 1):
        assert np.linalg.norm(grad[row] - ref[row]) <= 1e-9 * np.linalg.norm(ref[row])


def test_near_coincident_pair_loop_triplet_grad():
    # Explicit chord terms plus scalar envelope adjoints per combination.
    batch = _near_coincident_batch()
    cfg = LossConfig(margin=2.5)
    emb = batch.embeddings
    dist, _ = pairwise(batch)
    table = optimal_distance_table(batch)
    ref = np.zeros_like(emb)
    for i, j, k, l in table.combos:
        problem = ArcProblem.from_endpoints(emb[i], emb[j], emb[k], emb[l])
        sol = optimal_arc_distance(problem)
        active = [dist[a, b] - sol.distance + cfg.margin > 0.0 for a, b in ((i, j), (k, l))]
        for (a, b), on in zip(((i, j), (k, l)), active):
            if on:
                u = _unit(emb, dist, a, b)
                ref[a] += u
                ref[b] -= u
        delta = (sol.p1 - sol.p2) / sol.distance
        case = sol.candidate.case_id
        for (e1, e2), basis, angle, collapsed, low, high, sign in (
            ((i, j), problem.basis_x, sol.candidate.alpha, problem.x_collapsed,
             (1, 5, 6), (2, 7, 8), 1.0),
            ((k, l), problem.basis_y, sol.candidate.beta, problem.y_collapsed,
             (3, 5, 7), (4, 6, 8), -1.0),
        ):
            dot = float(problem.x1 @ problem.x2) if sign > 0 else float(problem.y1 @ problem.y2)
            residual = np.linalg.norm(emb[e2] - dot * emb[e1])
            pinned_low = case in low or collapsed
            g1, g2 = arc_point_adjoints(
                emb[e1], emb[e2], basis.n2, dot, residual, angle, sign * delta,
                pinned_low, case in high and not pinned_low,
            )
            ref[e1] -= sum(active) * g1
            ref[e2] -= sum(active) * g2
    ref /= 2 * len(table.combos)
    _, grad = loss_and_grad("loop_triplet", batch, cfg)
    for row in (0, 1):
        assert np.linalg.norm(grad[row] - ref[row]) <= 1e-9 * np.linalg.norm(ref[row])
