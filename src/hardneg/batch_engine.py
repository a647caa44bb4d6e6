"""Batch combination construction and the optimal-distance table.

Same-class samples are paired positionally (consecutive occurrences of a
class form a pair), every cross-class pair-of-pairs combination is solved,
and each positive pair keeps the minimum optimal distance over all its
negative pairs. For a balanced batch of size B with N samples per class
the number of combinations is B (B - N) / 8.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvalidBatchShape, NoNegatives, NonFiniteInput, OddClassCount
from .vectorized import solve_arc_gram, solve_segment_gram
# The row solvers are not called here; they stay as attributes of this module
# for perfbench to wrap.
from .vectorized import solve_arc_stack, solve_segment_stack  # noqa: F401

# Table variants: negatives on the great-circle arc or on the chord segment of a pair.
VARIANTS = ("arc", "segment")


@dataclass
class LabeledBatch:
    """Unit-norm embeddings with class labels.

    samples_per_class is the common class size for balanced batches and
    None otherwise.

    gram, the (B, B) matrix of embedding dots, is formed on first read and
    kept; the table, the plain distances and recall all read it. The cache
    relies on one rule: no code writes to a batch's embeddings in place.
    """

    embeddings: np.ndarray
    labels: np.ndarray
    samples_per_class: int | None = None

    @classmethod
    def from_arrays(cls, embeddings, labels) -> "LabeledBatch":
        emb = np.asarray(embeddings, dtype=float)
        labels = np.asarray(labels)
        if emb.ndim != 2 or emb.shape[0] != labels.shape[0]:
            raise InvalidBatchShape(
                f"embeddings {emb.shape} do not match {labels.shape[0]} labels"
            )
        if not np.all(np.isfinite(emb)):
            raise InvalidBatchShape("batch contains a non-finite embedding")
        norms = np.linalg.norm(emb, axis=1, keepdims=True)
        if np.any(norms <= 1e-12):
            raise InvalidBatchShape("batch contains a near-zero embedding")
        emb = emb / norms
        counts = np.unique(labels, return_counts=True)[1]
        n = int(counts[0]) if np.all(counts == counts[0]) else None
        return cls(embeddings=emb, labels=labels, samples_per_class=n)

    @property
    def batch_size(self) -> int:
        return self.embeddings.shape[0]

    @property
    def dim(self) -> int:
        return self.embeddings.shape[1]

    def num_classes(self) -> int:
        return len(np.unique(self.labels))

    @cached_property
    def gram(self) -> np.ndarray:
        gram = self.embeddings @ self.embeddings.T
        gram.flags.writeable = False  # shared by every reader of the batch
        return gram

    def sq_chords(self, diagonal: float) -> np.ndarray:
        """Fresh (B, B) squared chords 2 - 2 G, clipped at 0, with the given diagonal."""
        # 2 + (-2 g) rounds exactly as 2 - 2 g.
        d_sq = self.gram * -2.0
        d_sq += 2.0
        np.maximum(d_sq, 0.0, out=d_sq)
        np.fill_diagonal(d_sq, diagonal)
        return d_sq


@dataclass(frozen=True)
class PairSet:
    """Aligned positive pairs: embedding index arrays and shared labels."""

    idx1: np.ndarray
    idx2: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return len(self.idx1)


def build_pairs(batch: LabeledBatch) -> PairSet:
    """Pair consecutive same-class samples, preserving batch order.

    For class-grouped batches this is exactly alternate-element pairing;
    interleaved batches pair the 1st/2nd, 3rd/4th, ... occurrences of each
    class. Raises OddClassCount when a class cannot be fully paired.
    """
    labels = np.asarray(batch.labels)
    # Samples grouped by class in batch order. Every class count is even
    # exactly when each (even, odd) position pair holds one class.
    grouped = np.argsort(labels, kind="stable")
    first, second = grouped[0::2], grouped[1::2]
    if len(labels) % 2 or np.any(labels[first] != labels[second]):
        classes, counts = np.unique(labels, return_counts=True)
        bad = sorted(str(k) for k in classes[counts % 2 == 1].tolist())
        raise OddClassCount(f"classes with odd counts: {', '.join(bad)}")
    order = np.argsort(first)
    idx1 = first[order]
    return PairSet(idx1=idx1, idx2=second[order], labels=labels[idx1])


def combination_count(batch_size: int, samples_per_class: int) -> int:
    """Number of cross-class pair-of-pairs combinations, B (B - N) / 8."""
    if samples_per_class < 2 or samples_per_class % 2 != 0:
        raise InvalidBatchShape(f"samples per class must be even, got {samples_per_class}")
    if batch_size % samples_per_class != 0:
        raise InvalidBatchShape(
            f"batch size {batch_size} not divisible by class size {samples_per_class}"
        )
    return batch_size * (batch_size - samples_per_class) // 8


@dataclass
class OptimalDistanceTable:
    """Per-combination optimal distances and their per-pair minima.

    combos holds rows (i, j, k, l) in lexicographic order; solution is the
    stacked solver output aligned with combos, kept for gradient formation.
    Every table is solved from the batch's Gram matrix, so its rows must be
    unit (the Gram dots assume |e| = 1), and holds no per-row embedding
    copies.
    pair_distances is the (P, P) optimal distance between positive pairs
    (+inf within a class and on the diagonal) and nearest the first row
    attaining each pair's minimum. The dict view per_combination is built
    on first read.
    """

    combos: np.ndarray
    distances: np.ndarray
    variant: str
    solution: object = field(repr=False)
    pairs: PairSet = field(repr=False)
    pair_distances: np.ndarray = field(repr=False)
    nearest: np.ndarray = field(repr=False)

    @property
    def pair_min(self) -> np.ndarray:
        return self.distances[self.nearest]

    def sample_distances(self) -> np.ndarray:
        """(B, B) optimal distance between the pairs holding samples i and k."""
        pair_of = np.empty(2 * len(self.pairs), dtype=int)
        pair_of[self.pairs.idx1] = pair_of[self.pairs.idx2] = np.arange(len(self.pairs))
        return self.pair_distances[np.ix_(pair_of, pair_of)]

    @cached_property
    def per_combination(self) -> dict:
        return dict(zip(map(tuple, self.combos.tolist()), self.distances.tolist()))


def optimal_distance_table(batch: LabeledBatch, variant: str = "arc") -> OptimalDistanceTable:
    """Solve every cross-class combination and reduce per-pair minima.

    All instances are solved in one stacked call from the Gram matrix;
    rows are in fixed lexicographic pair order and minima keep the first
    minimising row, so the table is reproducible bit for bit for a given
    batch. Raises NonFiniteInput for a non-finite embedding and
    InvalidBatchShape for one that is not unit norm.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if batch.num_classes() < 2:
        raise NoNegatives("batch has a single class")
    pairs = build_pairs(batch)
    n_pairs = len(pairs)
    p, q = np.triu_indices(n_pairs, k=1)
    cross = pairs.labels[p] != pairs.labels[q]
    p, q = p[cross], q[cross]
    combos = np.stack([pairs.idx1[p], pairs.idx2[p], pairs.idx1[q], pairs.idx2[q]], axis=1)

    gram = batch.gram
    if not np.all(np.isfinite(gram)):
        raise NonFiniteInput("batch contains a non-finite embedding")
    # A normalized row's squared norm is 1 to within rounding, far inside 1e-9.
    if np.any(np.abs(np.diagonal(gram) - 1.0) > 1e-9):
        raise InvalidBatchShape("table embeddings must have unit norm")
    solve = solve_arc_gram if variant == "arc" else solve_segment_gram
    solution = solve(batch.embeddings, gram, combos)
    distances = solution.distance

    # Row index of each (pair, pair) entry; a row's index grows with the
    # partner pair, so argmin's first minimum is also the first row.
    row_of = np.full((n_pairs, n_pairs), -1)
    row_of[p, q] = row_of[q, p] = np.arange(len(p))
    pair_distances = np.where(row_of >= 0, distances[row_of], np.inf)
    nearest = row_of[np.arange(n_pairs), np.argmin(pair_distances, axis=1)]
    return OptimalDistanceTable(
        combos=combos,
        distances=distances,
        variant=variant,
        solution=solution,
        pairs=pairs,
        pair_distances=pair_distances,
        nearest=nearest,
    )
