"""Array code of the evaluation layer and of build_pairs against loop references.

Each reference below is the straightforward loop form of the same
algorithm: explicit (n, k, D) distances and a per-cluster mean for k-means,
a stable argsort of the whole distance matrix for recall@k, and a dict scan
for positive pairing. The array forms must agree with them exactly.
"""

import numpy as np
import pytest

from hardneg import LabeledBatch, OddClassCount, SyntheticSpec, build_pairs, generate_synthetic
from hardneg.trainer import _farthest_point_kmeans, _nmi_from_contingency, evaluate, recall_at_k


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


@pytest.mark.parametrize("shape", list(SHAPES), ids=list(SHAPES))
def test_kmeans_matches_reference(shape):
    classes, per_class, dim, seeds = SHAPES[shape]
    for seed in range(seeds):
        for batch in parity_batches(classes, per_class, dim, seed):
            for k in (max(1, classes // 2), classes, 2 * classes):
                np.testing.assert_array_equal(
                    _farthest_point_kmeans(batch.embeddings, k),
                    reference_kmeans(batch.embeddings, k),
                )


def test_kmeans_reseeds_empty_clusters_like_reference():
    # Three distinct points for up to eight clusters: seeding repeats points
    # and Lloyd empties clusters, so the reseed runs, several times a step.
    rng = np.random.default_rng(5)
    distinct = rng.normal(size=(3, 6))
    for trial in range(20):
        points = distinct[rng.integers(3, size=12)]
        points /= np.linalg.norm(points, axis=1, keepdims=True)
        for k in (2, 4, 8, 12):
            np.testing.assert_array_equal(
                _farthest_point_kmeans(points, k), reference_kmeans(points, k)
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
