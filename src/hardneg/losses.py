"""Metric-learning losses over a batch, plain and with optimal negatives.

The plain forms consume pairwise embedding distances; the modified forms
substitute the per-combination optimal distances from the table, which are
never larger than any endpoint distance, so every hinge term can only grow.
Similarities are s = 1 - d^2 / 2, the dot product for unit embeddings.

Totals are normalized by the number of summed terms by default; set
normalization="classes" to divide by the number of classes in the batch
instead (both normalizations are in circulation for these losses, so both
are supported).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .batch_engine import LabeledBatch, OptimalDistanceTable, PairSet, build_pairs
from .errors import NoNegatives


@dataclass(frozen=True)
class LossConfig:
    """Margins and multi-similarity hyperparameters."""

    margin: float = 0.2
    ms_epsilon: float = 0.1
    ms_margin: float = 0.5
    ms_alpha: float = 2.0
    ms_beta: float = 50.0
    normalization: str = "terms"  # or "classes"

    def __post_init__(self):
        for name in ("margin", "ms_epsilon", "ms_margin", "ms_alpha", "ms_beta"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.margin < 0:
            raise ValueError("margin must be nonnegative")
        if self.ms_alpha <= 0 or self.ms_beta <= 0:
            raise ValueError("ms_alpha and ms_beta must be positive")
        if not -1.0 < self.ms_margin < 1.0:
            raise ValueError("ms_margin must lie in (-1, 1)")
        if self.normalization not in ("terms", "classes"):
            raise ValueError(f"unknown normalization {self.normalization!r}")


@dataclass(frozen=True)
class LossValue:
    """Total loss plus per-term contributions for diagnostics.

    terms holds the contributions in term order; per_term pairs them with
    their keys, built by calling keys(), and is only formed when read.
    """

    total: float
    terms: np.ndarray = field(repr=False, compare=False)
    keys: Callable = field(repr=False, compare=False)

    @cached_property
    def per_term(self) -> tuple:
        return tuple(zip(self.keys(), self.terms.tolist()))


def export_loss_csv(value: LossValue, path) -> None:
    """Write the per-term diagnostics as rows (term, contribution)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["term", "contribution"])
        for term, contribution in value.per_term:
            writer.writerow([repr(term), repr(float(contribution))])


def pairwise(batch: LabeledBatch):
    """Distance and similarity matrices d and s = 1 - d^2 / 2."""
    gram = batch.embeddings @ batch.embeddings.T
    d_sq = np.clip(2.0 - 2.0 * gram, 0.0, None)
    np.fill_diagonal(d_sq, 0.0)
    dist = np.sqrt(d_sq)
    sim = 1.0 - d_sq / 2.0
    return dist, sim


def hinge(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0.0, x, 0.0)


def _require_negatives(batch: LabeledBatch) -> None:
    if batch.num_classes() < 2:
        raise NoNegatives("batch has a single class")


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


def hardest(dist, labels, pairs: PairSet, positive: bool):
    """Per pair, the hardest distance seen from either member, and its arguments.

    The hardest positive is the farthest same-class sample (the anchor
    excluded), the hardest negative the nearest other-class one. Returns
    (values, anchors, samples); ties keep the first member and the lowest
    sample index.
    """
    anchors = np.stack([pairs.idx1, pairs.idx2])  # (2, P)
    candidates = labels[anchors][..., None] == labels
    if positive:
        candidates &= anchors[..., None] != np.arange(len(labels))
        rows = np.where(candidates, dist[anchors], -np.inf)
        samples = np.argmax(rows, axis=2)
    else:
        rows = np.where(candidates, np.inf, dist[anchors])
        samples = np.argmin(rows, axis=2)
    values = np.take_along_axis(rows, samples[..., None], axis=2)[..., 0]
    second = values[1] > values[0] if positive else values[1] < values[0]
    side = second.astype(int), np.arange(len(pairs))
    return values[side], anchors[side], samples[side]


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


def ms_masks(labels, sim, config: LossConfig, table: OptimalDistanceTable | None = None):
    """(B, B) masks of the positives and negatives mined for each anchor row.

    A negative j survives when s_ij > (min same-class similarity) - epsilon;
    a positive j survives when s_ij < (max different-class similarity) +
    epsilon. Ties on the strict inequalities are excluded. With a table,
    the negative test reads the optimal similarity 1 - d_opt^2 / 2 of the
    pairs holding i and j instead; thresholds and positives are unchanged.
    """
    different = labels[:, None] != labels[None, :]
    same = ~different
    np.fill_diagonal(same, False)
    neg_threshold = np.where(same, sim, np.inf).min(axis=1) - config.ms_epsilon
    pos_threshold = np.where(different, sim, -np.inf).max(axis=1) + config.ms_epsilon
    positives = same & (sim < pos_threshold[:, None])
    if table is not None:
        d_opt = table.sample_distances()
        sim = 1.0 - d_opt * d_opt / 2.0
    negatives = different & (sim > neg_threshold[:, None])
    return positives, negatives


def _mined(positives, negatives) -> dict:
    return {
        i: {"positives": tuple(np.flatnonzero(pos).tolist()),
            "negatives": tuple(np.flatnonzero(neg).tolist())}
        for i, (pos, neg) in enumerate(zip(positives, negatives))
    }


def ms_mining(batch: LabeledBatch, config: LossConfig) -> dict:
    """Plain multi-similarity mining: per anchor, kept positives/negatives."""
    _require_negatives(batch)
    _, sim = pairwise(batch)
    return _mined(*ms_masks(batch.labels, sim, config))


def loop_ms_mining(
    batch: LabeledBatch, table: OptimalDistanceTable, config: LossConfig
) -> dict:
    """Multi-similarity mining with the negative test on optimal similarity.

    Only the negative-selection criterion changes: the candidate's optimal
    similarity (from the pair-of-pairs distance) is compared against the
    plain threshold. Positive selection is untouched.
    """
    _require_negatives(batch)
    _, sim = pairwise(batch)
    return _mined(*ms_masks(batch.labels, sim, config, table))


def ms_weighting(sim, positives, negatives, config: LossConfig):
    """Log-sum-exp pair weighting over mined sets; empty sets contribute 0.

    Returns the per-anchor terms and the (B, B) weights W with
    d term_i = sum_j W_ij d s_ij, the mined sets held fixed.
    """
    lam = config.ms_margin
    e_pos = np.where(positives, np.exp(-config.ms_alpha * (sim - lam)), 0.0)
    e_neg = np.where(negatives, np.exp(config.ms_beta * (sim - lam)), 0.0)
    sum_pos = e_pos.sum(axis=1, keepdims=True)
    sum_neg = e_neg.sum(axis=1, keepdims=True)
    terms = np.log1p(sum_pos[:, 0]) / config.ms_alpha + np.log1p(sum_neg[:, 0]) / config.ms_beta
    return terms, e_neg / (1.0 + sum_neg) - e_pos / (1.0 + sum_pos)


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
