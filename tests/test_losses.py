import math

import numpy as np
import pytest

from hardneg import (
    LabeledBatch,
    LossConfig,
    NoNegatives,
    hphn_triplet,
    lifted_structure,
    loop_hphn,
    loop_ls,
    loop_ms,
    loop_ms_mining,
    loop_triplet,
    ms_loss,
    ms_mining,
    optimal_distance_table,
    pairwise,
    triplet,
)
from hardneg.batch_engine import build_pairs

from conftest import random_batch, unit_rows


def brute_triplet(batch, m):
    """Independent enumeration of the triplet sum, straight from the data."""
    dist, _ = pairwise(batch)
    pairs = build_pairs(batch)
    terms = []
    for i, j in zip(pairs.idx1, pairs.idx2):
        for k in range(batch.batch_size):
            if batch.labels[k] != batch.labels[i]:
                terms.append(max(0.0, dist[i, j] - dist[i, k] + m))
    return sum(terms) / len(terms)


def brute_hphn(batch, m):
    dist, _ = pairwise(batch)
    pairs = build_pairs(batch)
    labels = batch.labels
    terms = []
    for i, j in zip(pairs.idx1, pairs.idx2):
        pos = [dist[a, k] for a in (i, j) for k in range(batch.batch_size)
               if labels[k] == labels[a] and k != a]
        neg = [dist[a, k] for a in (i, j) for k in range(batch.batch_size)
               if labels[k] != labels[a]]
        terms.append(max(0.0, max(pos) + m - min(neg)))
    return sum(terms) / len(terms)


def brute_ls(batch, m):
    dist, _ = pairwise(batch)
    pairs = build_pairs(batch)
    labels = batch.labels
    terms = []
    for i, j in zip(pairs.idx1, pairs.idx2):
        neg = [dist[a, k] for a in (i, j) for k in range(batch.batch_size)
               if labels[k] != labels[a]]
        terms.append(max(0.0, dist[i, j] + m - min(neg)))
    return sum(terms) / len(terms)


def brute_ms(batch, cfg):
    _, sim = pairwise(batch)
    labels = batch.labels
    n = batch.batch_size
    total = 0.0
    for i in range(n):
        same = [j for j in range(n) if labels[j] == labels[i] and j != i]
        diff = [j for j in range(n) if labels[j] != labels[i]]
        neg_thr = min(sim[i, j] for j in same) - cfg.ms_epsilon
        pos_thr = max(sim[i, j] for j in diff) + cfg.ms_epsilon
        pos = [j for j in same if sim[i, j] < pos_thr]
        neg = [j for j in diff if sim[i, j] > neg_thr]
        value = 0.0
        if pos:
            value += math.log1p(
                sum(math.exp(-cfg.ms_alpha * (sim[i, j] - cfg.ms_margin)) for j in pos)
            ) / cfg.ms_alpha
        if neg:
            value += math.log1p(
                sum(math.exp(cfg.ms_beta * (sim[i, j] - cfg.ms_margin)) for j in neg)
            ) / cfg.ms_beta
        total += value
    return total / n


def _optimal_negatives(table, pair):
    """Optimal distances of every combination holding `pair` on either side."""
    return [d for key, d in table.per_combination.items() if pair in (key[:2], key[2:])]


def _normalized(terms, batch, cfg):
    norm = batch.num_classes() if cfg.normalization == "classes" else len(terms)
    return sum(terms) / norm


def brute_loop_hphn(batch, table, cfg):
    dist, _ = pairwise(batch)
    labels = batch.labels
    terms = []
    pairs = build_pairs(batch)
    for i, j in zip(pairs.idx1, pairs.idx2):
        pos = [dist[a, k] for a in (i, j) for k in range(batch.batch_size)
               if labels[k] == labels[a] and k != a]
        hn = min(_optimal_negatives(table, (int(i), int(j))))
        terms.append(max(0.0, max(pos) + cfg.margin - hn))
    return _normalized(terms, batch, cfg)


def brute_loop_ls(batch, table, cfg):
    dist, _ = pairwise(batch)
    terms = []
    pairs = build_pairs(batch)
    for i, j in zip(pairs.idx1, pairs.idx2):
        hn = min(_optimal_negatives(table, (int(i), int(j))))
        terms.append(max(0.0, dist[i, j] + cfg.margin - hn))
    return _normalized(terms, batch, cfg)


def brute_loop_ms(batch, table, cfg):
    _, sim = pairwise(batch)
    labels = batch.labels
    n = batch.batch_size
    pairs = build_pairs(batch)
    pair_of = {}
    for i, j in zip(pairs.idx1, pairs.idx2):
        pair_of[int(i)] = pair_of[int(j)] = (int(i), int(j))

    def optimal_sim(i, k):
        key = {pair_of[i], pair_of[k]}
        (d,) = [d for c, d in table.per_combination.items() if {c[:2], c[2:]} == key]
        return 1.0 - d * d / 2.0

    terms = []
    for i in range(n):
        same = [j for j in range(n) if labels[j] == labels[i] and j != i]
        diff = [j for j in range(n) if labels[j] != labels[i]]
        neg_thr = min(sim[i, j] for j in same) - cfg.ms_epsilon
        pos_thr = max(sim[i, j] for j in diff) + cfg.ms_epsilon
        pos = [j for j in same if sim[i, j] < pos_thr]
        neg = [j for j in diff if optimal_sim(i, j) > neg_thr]
        value = 0.0
        if pos:
            value += math.log1p(
                sum(math.exp(-cfg.ms_alpha * (sim[i, j] - cfg.ms_margin)) for j in pos)
            ) / cfg.ms_alpha
        if neg:
            value += math.log1p(
                sum(math.exp(cfg.ms_beta * (sim[i, j] - cfg.ms_margin)) for j in neg)
            ) / cfg.ms_beta
        terms.append(value)
    return _normalized(terms, batch, cfg)


@pytest.mark.parametrize("normalization", ["terms", "classes"])
def test_loop_losses_match_enumeration(normalization, rng):
    cfg = LossConfig(margin=0.4, normalization=normalization)
    for trial in range(10):
        batch = random_batch(rng, num_classes=3, per_class=4, dim=5)
        if trial % 2:  # interleaved labels pair non-adjacent samples
            order = rng.permutation(batch.batch_size)
            batch = LabeledBatch.from_arrays(batch.embeddings[order], batch.labels[order])
        table = optimal_distance_table(batch)
        assert abs(loop_hphn(batch, table, cfg).total - brute_loop_hphn(batch, table, cfg)) < 1e-12
        assert abs(loop_ls(batch, table, cfg).total - brute_loop_ls(batch, table, cfg)) < 1e-12
        assert abs(loop_ms(batch, table, cfg).total - brute_loop_ms(batch, table, cfg)) < 1e-12


def test_pairwise_trivials():
    emb = np.array([[1.0, 0, 0], [1.0, 0, 0], [-1.0, 0, 0], [0.0, 1, 0]])
    batch = LabeledBatch.from_arrays(emb, np.array([0, 0, 1, 1]))
    dist, sim = pairwise(batch)
    assert dist[0, 1] == 0.0 and sim[0, 1] == 1.0
    assert abs(dist[0, 2] - 2.0) < 1e-12 and abs(sim[0, 2] + 1.0) < 1e-12
    assert abs(dist[0, 3] - math.sqrt(2)) < 1e-12 and abs(sim[0, 3]) < 1e-12


def test_triplet_hinge_arithmetic():
    # inactive hinge: d_pos 0.5, d_neg 1.0, m 0.2; active: 1.0, 0.5 -> 0.7
    assert max(0.0, 0.5 - 1.0 + 0.2) == 0.0
    assert abs(max(0.0, 1.0 - 0.5 + 0.2) - 0.7) < 1e-12


def test_triplet_matches_enumeration(rng):
    cfg = LossConfig(margin=0.3)
    for _ in range(20):
        batch = random_batch(rng, num_classes=3, per_class=4, dim=5)
        assert abs(triplet(batch, cfg).total - brute_triplet(batch, 0.3)) < 1e-12


def test_hphn_and_ls_match_enumeration(rng):
    cfg = LossConfig(margin=0.4)
    for _ in range(20):
        batch = random_batch(rng, num_classes=3, per_class=4, dim=5)
        assert abs(hphn_triplet(batch, cfg).total - brute_hphn(batch, 0.4)) < 1e-12
        assert abs(lifted_structure(batch, cfg).total - brute_ls(batch, 0.4)) < 1e-12


def test_ms_matches_enumeration(rng):
    cfg = LossConfig()
    for _ in range(20):
        batch = random_batch(rng, num_classes=3, per_class=4, dim=5)
        assert abs(ms_loss(batch, cfg).total - brute_ms(batch, cfg)) < 1e-12


def test_ms_paper_default_scales():
    cfg = LossConfig()
    assert cfg.ms_alpha == 2.0
    assert cfg.ms_beta == 50.0


def test_ms_scales_are_bounded():
    # Above 350 the weights exp(beta (s - lambda)) can overflow: s - lambda
    # approaches 2 as s nears 1 and lambda nears -1.
    assert LossConfig(ms_alpha=350.0, ms_beta=350.0).ms_beta == 350.0
    for field in ("ms_alpha", "ms_beta"):
        with pytest.raises(ValueError):
            LossConfig(**{field: 351.0})


def test_single_class_raises():
    batch = LabeledBatch.from_arrays(np.eye(4), np.zeros(4, dtype=int))
    with pytest.raises(NoNegatives):
        triplet(batch, LossConfig())
    with pytest.raises(NoNegatives):
        hphn_triplet(batch, LossConfig())


def test_loop_triplet_shared_endpoint_term():
    # optimal negative distance 0 (arcs share x1 = y1), pair distance 0.3
    theta = 2 * math.asin(0.15)
    x1 = np.array([1.0, 0.0, 0.0])
    x2 = np.array([math.cos(theta), math.sin(theta), 0.0])
    y2 = np.array([0.0, 0.0, 1.0])
    batch = LabeledBatch.from_arrays(np.stack([x1, x2, x1, y2]), np.array([0, 0, 1, 1]))
    table = optimal_distance_table(batch)
    loss = loop_triplet(batch, table, LossConfig(margin=0.2))
    contributions = dict(loss.per_term)
    assert abs(contributions[((0, 1), (2, 3))] - 0.5) < 1e-9


def test_loop_dominance_per_tuple(rng):
    cfg = LossConfig(margin=0.3)
    dist_failures = 0
    for _ in range(30):
        batch = random_batch(rng, num_classes=3, per_class=4, dim=6)
        table = optimal_distance_table(batch)
        dist, _ = pairwise(batch)
        loop = dict(loop_triplet(batch, table, cfg).per_term)
        for (i, j, k, l), d_opt in table.per_combination.items():
            term = loop[((i, j), (k, l))]
            for neg in (k, l):
                plain = max(0.0, dist[i, j] - dist[i, neg] + cfg.margin)
                if term < plain - 1e-9:
                    dist_failures += 1
    assert dist_failures == 0


def test_loop_totals_dominate(rng):
    cfg = LossConfig(margin=0.3)
    for _ in range(10):
        batch = random_batch(rng, num_classes=3, per_class=2, dim=6)
        table = optimal_distance_table(batch)
        assert loop_hphn(batch, table, cfg).total >= hphn_triplet(batch, cfg).total - 1e-12
        assert loop_ls(batch, table, cfg).total >= lifted_structure(batch, cfg).total - 1e-12


def test_hphn_equals_ls_with_two_per_class(rng):
    cfg = LossConfig(margin=0.25)
    for _ in range(30):
        batch = random_batch(rng, num_classes=4, per_class=2, dim=5)
        a = hphn_triplet(batch, cfg).total
        b = lifted_structure(batch, cfg).total
        assert abs(a - b) < 1e-12


def test_hinge_inactive_configuration():
    # two tight clusters on opposite poles, margin far below the gap
    emb = np.array(
        [[1.0, 0.01, 0], [1.0, -0.01, 0], [-1.0, 0.01, 0], [-1.0, -0.01, 0]]
    )
    batch = LabeledBatch.from_arrays(emb, np.array([0, 0, 1, 1]))
    cfg = LossConfig(margin=0.1)
    assert lifted_structure(batch, cfg).total == 0.0
    assert triplet(batch, cfg).total == 0.0
    table = optimal_distance_table(batch)
    assert loop_ls(batch, table, cfg).total == 0.0


def test_ms_mining_superset(rng):
    cfg = LossConfig(ms_epsilon=0.1)
    for _ in range(30):
        batch = random_batch(rng, num_classes=3, per_class=4, dim=6)
        table = optimal_distance_table(batch)
        plain = ms_mining(batch, cfg)
        loop = loop_ms_mining(batch, table, cfg)
        for i in range(batch.batch_size):
            assert set(loop[i]["negatives"]) >= set(plain[i]["negatives"])
            assert loop[i]["positives"] == plain[i]["positives"]


def test_ms_mining_tie_excluded(rng):
    # a negative placed exactly on a positive: equality on the strict
    # criterion, so it is excluded at epsilon zero
    emb = unit_rows(rng, 4, 5)
    emb[2] = emb[1]
    batch = LabeledBatch.from_arrays(emb, np.array([0, 0, 1, 1]))
    mined = ms_mining(batch, LossConfig(ms_epsilon=0.0))
    assert 2 not in mined[0]["negatives"]
    assert 1 not in mined[0]["positives"]


def test_block_duplication_keeps_triplet_mean(rng):
    cfg = LossConfig(margin=0.3)
    batch = random_batch(rng, num_classes=3, per_class=2, dim=5)
    order = np.argsort(batch.labels, kind="stable")
    emb, labels = batch.embeddings[order], batch.labels[order]
    doubled_emb, doubled_labels = [], []
    for cls in np.unique(labels):
        block = emb[labels == cls]
        doubled_emb.append(np.tile(block, (2, 1)))
        doubled_labels.extend([cls] * 2 * len(block))
    doubled = LabeledBatch.from_arrays(
        np.concatenate(doubled_emb), np.asarray(doubled_labels)
    )
    base = triplet(LabeledBatch.from_arrays(emb, labels), cfg).total
    assert abs(triplet(doubled, cfg).total - base) < 1e-9


def test_normalization_by_classes():
    emb = np.array([[1.0, 0, 0], [0.0, 1, 0], [0.0, 0, 1], [-1.0, 0, 0]])
    batch = LabeledBatch.from_arrays(emb, np.array([0, 0, 1, 1]))
    cfg_terms = LossConfig(margin=0.2, normalization="terms")
    cfg_classes = LossConfig(margin=0.2, normalization="classes")
    by_terms = triplet(batch, cfg_terms)
    by_classes = triplet(batch, cfg_classes)
    raw = sum(v for _, v in by_terms.per_term)
    assert abs(by_terms.total - raw / len(by_terms.per_term)) < 1e-12
    assert abs(by_classes.total - raw / 2) < 1e-12


def test_loss_value_total_is_term_mean(rng):
    cfg = LossConfig(margin=0.3)
    batch = random_batch(rng, num_classes=3, per_class=2, dim=4)
    for fn in (triplet, hphn_triplet, lifted_structure, ms_loss):
        value = fn(batch, cfg)
        mean = sum(v for _, v in value.per_term) / len(value.per_term)
        assert abs(value.total - mean) < 1e-12
