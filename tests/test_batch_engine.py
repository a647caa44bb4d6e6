import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardneg import (
    InvalidBatchShape,
    LabeledBatch,
    NoNegatives,
    NonFiniteInput,
    OddClassCount,
    build_pairs,
    combination_count,
    optimal_distance_table,
)
from hardneg.vectorized import solve_arc_stack, solve_segment_stack

from conftest import random_batch, unit_rows


def make_batch(labels, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    emb = rng.normal(size=(len(labels), dim))
    return LabeledBatch.from_arrays(emb, np.asarray(labels))


def test_build_pairs_grouped():
    pairs = build_pairs(make_batch(["A", "A", "B", "B"]))
    assert list(zip(pairs.idx1, pairs.idx2)) == [(0, 1), (2, 3)]
    assert list(pairs.labels) == ["A", "B"]


def test_build_pairs_four_of_one_class():
    pairs = build_pairs(make_batch(["A", "A", "A", "A"]))
    assert list(zip(pairs.idx1, pairs.idx2)) == [(0, 1), (2, 3)]


def test_build_pairs_interleaved():
    pairs = build_pairs(make_batch(["A", "B", "A", "B"]))
    assert list(zip(pairs.idx1, pairs.idx2)) == [(0, 2), (1, 3)]


def test_build_pairs_odd_class_count():
    with pytest.raises(OddClassCount):
        build_pairs(make_batch(["A", "A", "A"]))


def test_combination_count_examples():
    assert combination_count(32, 2) == 120
    assert combination_count(8, 4) == 4
    assert combination_count(16, 16) == 0


def test_combination_count_invalid_shapes():
    with pytest.raises(InvalidBatchShape):
        combination_count(12, 3)
    with pytest.raises(InvalidBatchShape):
        combination_count(10, 4)


def test_enumeration_matches_formula():
    # all valid (batch size, class size) combinations from the small grid
    for batch_size, per_class in itertools.product((8, 16, 32), (2, 4, 8)):
        if batch_size % per_class:
            continue
        labels = np.repeat(np.arange(batch_size // per_class), per_class)
        batch = make_batch(labels, dim=4, seed=batch_size + per_class)
        if batch.num_classes() < 2:
            continue
        table = optimal_distance_table(batch)
        assert len(table.combos) == combination_count(batch_size, per_class)


def test_single_class_table_rejected():
    with pytest.raises(NoNegatives):
        optimal_distance_table(make_batch(["A", "A", "A", "A"]))


def pair_minima(table):
    """Each positive pair's minimum optimal distance, keyed (i, j)."""
    keys = zip(table.pairs.idx1.tolist(), table.pairs.idx2.tolist())
    return dict(zip(keys, table.pair_min.tolist()))


def test_shared_endpoint_across_classes():
    shared = np.array([1.0, 0, 0])
    emb = np.stack([shared, [0, 1, 0], shared, [0, 0, 1]])
    batch = LabeledBatch.from_arrays(emb, np.array(["A", "A", "B", "B"]))
    table = optimal_distance_table(batch)
    assert pair_minima(table)[(0, 1)] < 1e-9
    assert pair_minima(table)[(2, 3)] < 1e-9


def test_orthogonal_planes_constant_distance():
    e = np.eye(4)
    batch = LabeledBatch.from_arrays(
        np.stack([e[0], e[1], e[2], e[3]]), np.array([0, 0, 1, 1])
    )
    table = optimal_distance_table(batch)
    assert abs(pair_minima(table)[(0, 1)] - math.sqrt(2)) < 1e-9


def test_per_pair_min_below_endpoint_distances(rng):
    batch = random_batch(rng, num_classes=4, per_class=4, dim=8)
    table = optimal_distance_table(batch)
    emb = batch.embeddings
    for (i, j, k, l), dist in table.per_combination.items():
        endpoint_min = min(
            np.linalg.norm(emb[a] - emb[b]) for a in (i, j) for b in (k, l)
        )
        assert dist <= endpoint_min + 1e-9
    for (i, j), dmin in pair_minima(table).items():
        combo_dists = [
            d for key, d in table.per_combination.items()
            if (key[0], key[1]) == (i, j) or (key[2], key[3]) == (i, j)
        ]
        assert dmin == min(combo_dists)


def test_duplicate_embeddings_within_pair(rng):
    emb = unit_rows(rng, 4, 5)
    emb[1] = emb[0]  # collapsed positive pair
    batch = LabeledBatch.from_arrays(emb, np.array([0, 0, 1, 1]))
    table = optimal_distance_table(batch)
    assert len(table.combos) == 1
    assert np.isfinite(table.distances).all()


def test_identical_embeddings_across_classes(rng):
    emb = unit_rows(rng, 4, 5)
    emb[2] = emb[0]  # a maximally hard negative
    batch = LabeledBatch.from_arrays(emb, np.array([0, 0, 1, 1]))
    table = optimal_distance_table(batch)
    assert pair_minima(table)[(0, 1)] < 1e-9


def test_label_permutation_equivariance(rng):
    batch = random_batch(rng, num_classes=3, per_class=2, dim=6)
    table = optimal_distance_table(batch)
    perm = np.array([2, 3, 4, 5, 0, 1])  # rotate class blocks
    batch2 = LabeledBatch.from_arrays(batch.embeddings[perm], batch.labels[perm])
    table2 = optimal_distance_table(batch2)
    inverse = np.argsort(perm)
    for (i, j, k, l), d in table.per_combination.items():
        mapped = (inverse[i], inverse[j], inverse[k], inverse[l])
        key = mapped if mapped[0] < mapped[2] else (*mapped[2:], *mapped[:2])
        assert abs(table2.per_combination[tuple(int(v) for v in key)] - d) < 1e-12


def test_segment_variant_table(rng):
    batch = random_batch(rng, num_classes=2, per_class=2, dim=4)
    table = optimal_distance_table(batch, variant="segment")
    assert table.variant == "segment"
    # optimal segment points may leave the sphere, distances still bounded
    # by endpoint gaps
    emb = batch.embeddings
    for (i, j, k, l), dist in table.per_combination.items():
        endpoint_min = min(
            np.linalg.norm(emb[a] - emb[b]) for a in (i, j) for b in (k, l)
        )
        assert dist <= endpoint_min + 1e-9


def test_non_finite_embeddings_rejected(rng):
    emb = unit_rows(rng, 4, 3)
    for bad in (np.nan, np.inf):
        emb_bad = emb.copy()
        emb_bad[2, 1] = bad
        with pytest.raises(InvalidBatchShape):
            LabeledBatch.from_arrays(emb_bad, np.array([0, 0, 1, 1]))


@pytest.mark.filterwarnings("error")
@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_classes=st.integers(2, 4),
    per_class=st.sampled_from([2, 4]),
    dim=st.integers(3, 8),
    collapsed=st.booleans(),
    touching=st.booleans(),
    interleaved=st.booleans(),
    variant=st.sampled_from(["arc", "segment"]),
)
def test_gram_table_matches_row_solver(seed, num_classes, per_class, dim, collapsed,
                                       touching, interleaved, variant):
    # The table solves from E E^T; the row solver from gathered endpoints.
    rng = np.random.default_rng(seed)
    emb = unit_rows(rng, num_classes * per_class, dim)
    labels = np.repeat(np.arange(num_classes), per_class)
    if collapsed:
        emb[1] = emb[0]  # a within-pair duplicate: a collapsed side
    if touching:
        emb[per_class] = emb[0]  # identical across classes: distance 0
    if interleaved:
        order = rng.permutation(len(labels))
        emb, labels = emb[order], labels[order]
    batch = LabeledBatch.from_arrays(emb, labels)
    table = optimal_distance_table(batch, variant)
    rows = (batch.embeddings[table.combos[:, col]] for col in range(4))
    sol = table.solution
    if variant == "arc":
        reference = solve_arc_stack(*rows)
        params = (sol.alpha, reference.alpha), (sol.beta, reference.beta)
    else:
        reference = solve_segment_stack(*rows)
        params = (sol.k1, reference.k1), (sol.k2, reference.k2)
    assert np.max(np.abs(sol.distance - reference.distance)) <= 1e-12
    # Where duplicated embeddings make several cases meet at one point, the
    # last bit of a dot product picks the label; the optimum must still agree.
    same_point = np.logical_and.reduce([np.abs(new - ref) <= 1e-9 for new, ref in params])
    tie = same_point & (collapsed or touching)
    assert np.all((sol.case_id == reference.case_id) | tie)


@pytest.mark.parametrize("variant", ["arc", "segment"])
def test_non_finite_table_rejected(rng, variant):
    # Built directly, so LabeledBatch.from_arrays never saw the NaN or inf.
    # The table checks E E^T once; the Gram solvers do not check it again.
    for bad in (np.nan, np.inf):
        emb = unit_rows(rng, 4, 3)
        emb[3, 0] = bad
        batch = LabeledBatch(embeddings=emb, labels=np.array([0, 0, 1, 1]), samples_per_class=2)
        with pytest.raises(NonFiniteInput):
            optimal_distance_table(batch, variant=variant)


@pytest.mark.parametrize("variant", ["arc", "segment"])
def test_non_unit_table_rejected(rng, variant):
    # Every table is solved from E E^T, whose dots assume unit rows; rows of
    # norm 1.5 used to give an arc distance that was neither the unit nor a
    # scaled answer.
    batch = LabeledBatch(embeddings=1.5 * unit_rows(rng, 4, 3), labels=np.array([0, 0, 1, 1]),
                         samples_per_class=2)
    with pytest.raises(InvalidBatchShape, match="unit norm"):
        optimal_distance_table(batch, variant=variant)
