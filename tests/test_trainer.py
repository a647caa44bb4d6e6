import numpy as np
import pytest

from hardneg import (
    InsufficientSamples,
    LabeledBatch,
    LossConfig,
    SyntheticSpec,
    f1,
    generate_synthetic,
    homoscedasticity_check,
    nmi,
    recall_at_k,
    train,
)
from hardneg import trainer
from hardneg.trainer import evaluate


def test_synthetic_deterministic():
    spec = SyntheticSpec(num_classes=4, samples_per_class=4, dimension=8, seed=3)
    a = generate_synthetic(spec)
    b = generate_synthetic(spec)
    np.testing.assert_array_equal(a.embeddings, b.embeddings)
    np.testing.assert_array_equal(a.labels, b.labels)


def test_synthetic_concentration_limit():
    spec = SyntheticSpec(
        num_classes=3, samples_per_class=4, dimension=6, concentration=1e9, seed=1
    )
    batch = generate_synthetic(spec)
    for cls in range(3):
        rows = batch.embeddings[batch.labels == cls]
        assert np.max(np.linalg.norm(rows - rows[0], axis=1)) < 1e-6


def test_synthetic_unit_norm_and_shape():
    spec = SyntheticSpec(num_classes=5, samples_per_class=6, dimension=12, seed=0)
    batch = generate_synthetic(spec)
    assert batch.embeddings.shape == (30, 12)
    np.testing.assert_allclose(np.linalg.norm(batch.embeddings, axis=1), 1.0, atol=1e-12)


def test_synthetic_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(samples_per_class=3)
    with pytest.raises(ValueError):
        SyntheticSpec(dimension=2)
    with pytest.raises(ValueError):
        SyntheticSpec(concentration=1e12)


def test_antipodal_means_high_concentration():
    # hand-built batch standing in for two classes at opposite poles
    pole = np.array([1.0, 0, 0, 0])
    jitter = np.array([0.0, 1e-4, 0, 0])
    emb = np.stack([pole, pole + jitter, -pole, -pole + jitter])
    batch = LabeledBatch.from_arrays(emb, np.array([0, 0, 1, 1]))
    dist = np.linalg.norm(emb[0] - emb[2])
    assert abs(dist - 2.0) < 1e-3
    assert recall_at_k(batch, 1) == 1.0


def test_recall_hand_example():
    # six points on a circle at angles with gaps 0.10/0.08 | 0.12 | 0.20/0.10:
    # every sample's nearest neighbor is same-class except sample 3, whose
    # nearest (gap 0.12 to sample 2) is in the other class -> recall 5/6
    angles = np.array([0.00, 0.10, 0.18, 0.30, 0.50, 0.60])
    emb = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    batch = LabeledBatch.from_arrays(emb, np.array([0, 0, 0, 1, 1, 1]))
    assert abs(recall_at_k(batch, 1) - 5.0 / 6.0) < 1e-12


def test_recall_monotone_in_k():
    rng = np.random.default_rng(0)
    emb = rng.normal(size=(20, 5))
    batch = LabeledBatch.from_arrays(emb, rng.integers(0, 3, size=20))
    values = [recall_at_k(batch, k) for k in range(1, 8)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_metrics_on_collapsed_classes():
    # classes collapsed onto distinct axis points: perfect retrieval and
    # clustering
    emb = np.repeat(np.eye(3), 4, axis=0)
    labels = np.repeat(np.arange(3), 4)
    batch = LabeledBatch.from_arrays(emb, labels)
    assert recall_at_k(batch, 1) == 1.0
    assert nmi(batch, 3) == 1.0
    assert f1(batch, 3) == 1.0


def test_kmeans_converges_with_more_clusters_than_distinct_rows(monkeypatch):
    # 32 rows holding 4 distinct values, 8 clusters asked for: the clustering
    # must settle in a few Lloyd iterations, one value per cluster.
    rng = np.random.default_rng(9)
    distinct = rng.normal(size=(4, 6))
    distinct /= np.linalg.norm(distinct, axis=1, keepdims=True)
    which = np.repeat(np.arange(4), 8)
    calls = []
    nearest = trainer._nearest_centers

    def counting(*args):
        calls.append(1)
        return nearest(*args)

    monkeypatch.setattr(trainer, "_nearest_centers", counting)
    assign = trainer._farthest_point_kmeans(distinct[which], 8)
    assert len(calls) <= 3
    _, per_value = np.unique(np.stack([which, assign]), axis=1, return_counts=True)
    assert len(per_value) == 4 and np.all(per_value == 8)


def test_nmi_random_labels_near_zero():
    rng = np.random.default_rng(7)
    emb = rng.normal(size=(120, 6))
    batch = LabeledBatch.from_arrays(emb, rng.integers(0, 4, size=120))
    assert nmi(batch, 4) < 0.1


def test_zero_learning_rate_constant_history():
    spec = SyntheticSpec(num_classes=3, samples_per_class=4, dimension=6, seed=2)
    state = train(spec, "triplet", LossConfig(margin=0.2), steps=5, learning_rate=0.0)
    losses = {round(h[1], 15) for h in state.history}
    assert len(losses) == 1


@pytest.mark.parametrize("loss", ["triplet", "ms", "loop_ls"])
def test_unknown_variant_rejected(loss):
    spec = SyntheticSpec(num_classes=3, samples_per_class=4, dimension=6, seed=2)
    with pytest.raises(ValueError, match="unknown variant 'segmnet'"):
        train(spec, loss, LossConfig(), steps=1, variant="segmnet")


def test_well_separated_clusters_zero_loss():
    spec = SyntheticSpec(
        num_classes=3, samples_per_class=4, dimension=8, concentration=60.0, seed=4
    )
    state = train(spec, "triplet", LossConfig(margin=0.05), steps=3, learning_rate=0.05)
    assert state.history[-1][1] == 0.0


def test_training_deterministic():
    spec = SyntheticSpec(num_classes=3, samples_per_class=4, dimension=6, seed=5)
    cfg = LossConfig(margin=0.2)
    a = train(spec, "loop_triplet", cfg, steps=8, learning_rate=0.05, seed=5)
    b = train(spec, "loop_triplet", cfg, steps=8, learning_rate=0.05, seed=5)
    assert a.history == b.history
    np.testing.assert_array_equal(a.embeddings.embeddings, b.embeddings.embeddings)


def test_training_projects_to_sphere():
    spec = SyntheticSpec(num_classes=3, samples_per_class=4, dimension=6, seed=6)
    state = train(spec, "loop_ls", LossConfig(margin=0.3), steps=10, learning_rate=0.1)
    np.testing.assert_allclose(
        np.linalg.norm(state.embeddings.embeddings, axis=1), 1.0, atol=1e-9
    )
    assert state.step == 10
    assert len(state.history) == 11


def test_homoscedasticity_identical_clusters():
    spec = SyntheticSpec(num_classes=8, samples_per_class=16, dimension=16,
                         concentration=10.0, seed=0)
    report = homoscedasticity_check(generate_synthetic(spec))
    assert np.all(report["std_over_mean"] <= 0.5)


def test_homoscedasticity_scaled_class_violates():
    spec = SyntheticSpec(num_classes=8, samples_per_class=16, dimension=16,
                         concentration=10.0, seed=0)
    batch = generate_synthetic(spec)
    emb = batch.embeddings.copy()
    mask = batch.labels == 0
    center = emb[mask].mean(axis=0)
    emb[mask] = center + 10.0 * (emb[mask] - center)
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    scaled = LabeledBatch(embeddings=emb, labels=batch.labels,
                          samples_per_class=batch.samples_per_class)
    report = homoscedasticity_check(scaled)
    assert np.max(report["std_over_mean"]) > 1.0


def test_homoscedasticity_needs_four_samples():
    emb = np.eye(4)
    batch = LabeledBatch.from_arrays(emb, np.array([0, 0, 1, 1]))
    with pytest.raises(InsufficientSamples):
        homoscedasticity_check(batch)


def test_evaluate_report_fields():
    spec = SyntheticSpec(num_classes=3, samples_per_class=4, dimension=6, seed=8)
    report = evaluate(generate_synthetic(spec))
    assert set(report.recall_at_k) == {1, 2, 4, 8}
    assert 0.0 <= report.nmi <= 1.0
    assert 0.0 <= report.f1 <= 1.0
    values = [report.recall_at_k[k] for k in (1, 2, 4, 8)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_loss_continuity_along_geodesic_sweep():
    # short version of the acceptance sweep: move one endpoint along a
    # geodesic and bound optimal-distance increments by endpoint motion
    from hardneg.geometry import gram_schmidt_basis, point_on_arc
    from hardneg.vectorized import solve_arc_stack

    rng = np.random.default_rng(12)
    pts = rng.normal(size=(4, 5))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    target = rng.normal(size=5)
    target /= np.linalg.norm(target)
    basis = gram_schmidt_basis(pts[3], target)
    steps = 400
    sweep_angles = np.linspace(0, 1.0, steps)
    y2_path = np.stack([point_on_arc(basis, t) for t in sweep_angles])
    sol = solve_arc_stack(
        np.tile(pts[0], (steps, 1)),
        np.tile(pts[1], (steps, 1)),
        np.tile(pts[2], (steps, 1)),
        y2_path,
    )
    moves = np.linalg.norm(np.diff(y2_path, axis=0), axis=1)
    jumps = np.abs(np.diff(sol.distance))
    assert np.all(jumps <= 5.0 * moves + 1e-12)


@pytest.mark.parametrize("shape", [(8, 16, 16), (32, 4, 64)], ids=["desk", "wide"])
def test_evaluate_matches_separate_metrics(shape):
    classes, per_class, dim = shape
    spec = SyntheticSpec(num_classes=classes, samples_per_class=per_class, dimension=dim, seed=3)
    for batch in (generate_synthetic(spec), train(spec, "triplet", LossConfig(), 3).embeddings):
        ks = (1, 2, 4, 8, 1000)
        report = evaluate(batch, ks)
        assert report.recall_at_k == {k: recall_at_k(batch, k) for k in ks}
        assert report.nmi == nmi(batch, classes)
        assert report.f1 == f1(batch, classes)
