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

import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .batch_engine import LabeledBatch, OptimalDistanceTable, PairSet, build_pairs
from .errors import NoNegatives


# Multi-similarity weights exp(alpha |s - lambda|), with |s - lambda| < 2 for
# unit embeddings and lambda in (-1, 1), stay below exp(700) while alpha and
# beta are at most 350, so a row's sum of them stays finite for batches of up
# to about 17,000 samples.
MAX_MS_SCALE = 350.0


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
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a number, got {value!r}")
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.margin < 0:
            raise ValueError("margin must be nonnegative")
        if self.ms_alpha <= 0 or self.ms_beta <= 0:
            raise ValueError("ms_alpha and ms_beta must be positive")
        if max(self.ms_alpha, self.ms_beta) > MAX_MS_SCALE:
            raise ValueError(f"ms_alpha and ms_beta must be at most {MAX_MS_SCALE:g}")
        if not -1.0 < self.ms_margin < 1.0:
            raise ValueError("ms_margin must lie in (-1, 1)")
        if self.normalization not in ("terms", "classes"):
            raise ValueError(f"unknown normalization {self.normalization!r}")


@dataclass(frozen=True)
class LossValue:
    """Total loss plus per-term contributions for diagnostics.

    terms holds the contributions in term order; per_term pairs them with
    their keys, built by calling keys(), and is only formed when read.

    The other fields keep what the gradient needs from the value pass: the
    (B, B) distances dist, the divisor norm of the total, the strictly
    positive hinge terms active (shaped like the terms before masking), the
    (anchors, samples) of each term's positive and negative distance, or
    for an optimal negative its table row, the multi-similarity weights, and
    the table of a loss with optimal negatives.
    """

    total: float
    terms: np.ndarray = field(repr=False, compare=False)
    keys: Callable = field(repr=False, compare=False)
    dist: np.ndarray | None = field(default=None, repr=False, compare=False)
    norm: int = field(default=1, repr=False, compare=False)
    active: np.ndarray | None = field(default=None, repr=False, compare=False)
    positive: tuple | None = field(default=None, repr=False, compare=False)
    negative: tuple | None = field(default=None, repr=False, compare=False)
    weights: np.ndarray | None = field(default=None, repr=False, compare=False)
    table: OptimalDistanceTable | None = field(default=None, repr=False, compare=False)

    @cached_property
    def per_term(self) -> tuple:
        return tuple(zip(self.keys(), self.terms.tolist()))


def pairwise(batch: LabeledBatch):
    """Distance and similarity matrices d and s = 1 - d^2 / 2, from the batch's Gram matrix."""
    d_sq = batch.sq_chords(0.0)
    dist = np.sqrt(d_sq)
    # In place; -d^2 / 2 + 1 rounds exactly as 1 - d^2 / 2.
    sim = d_sq * -0.5
    sim += 1.0
    return dist, sim


def hinge(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0.0, x, 0.0)


def _require_negatives(batch: LabeledBatch) -> None:
    if batch.num_classes() < 2:
        raise NoNegatives("batch has a single class")


def _finish(terms, keys, batch: LabeledBatch, config: LossConfig, **kept) -> LossValue:
    if config.normalization == "classes":
        norm = batch.num_classes()
    else:
        norm = max(len(terms), 1)
    return LossValue(total=float(np.sum(terms) / norm), terms=terms, keys=keys, norm=norm,
                     **kept)


def _pair_terms(values, pairs: PairSet, batch, config, **kept) -> LossValue:
    """One hinge term per positive pair, keyed (i, j)."""
    return _finish(hinge(values), lambda: zip(pairs.idx1.tolist(), pairs.idx2.tolist()),
                   batch, config, active=values > 0.0, **kept)


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
                   lambda: zip(i[rows].tolist(), j[rows].tolist(), k.tolist()), batch, config,
                   dist=dist, active=negative & (values > 0.0), positive=(i[:, None], j[:, None]),
                   negative=(i[:, None], np.arange(batch.batch_size)))


def loop_triplet(
    batch: LabeledBatch, table: OptimalDistanceTable, config: LossConfig
) -> LossValue:
    """Triplet hinge with the negative distance replaced by the optimal one.

    Every combination contributes twice, once per side playing the positive
    pair, matching the sum over (positive pair, negative pair) tuples.
    """
    _require_negatives(batch)
    dist, _ = pairwise(batch)
    heads, tails = table.combos[:, [0, 2]], table.combos[:, [1, 3]]
    values = dist[heads, tails] - table.distances[:, None] + config.margin

    def keys():
        for a, b, c, d in table.combos.tolist():
            yield ((a, b), (c, d))
            yield ((c, d), (a, b))

    rows = np.repeat(np.arange(len(values)), 2).reshape(values.shape)  # each side's own row
    return _finish(hinge(values.ravel()), keys, batch, config,
                   dist=dist, active=values > 0.0, positive=(heads, tails), negative=rows,
                   table=table)


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
    hp = hardest(dist, batch.labels, pairs, positive=True)
    hn = hardest(dist, batch.labels, pairs, positive=False)
    return _pair_terms(hp[0] + config.margin - hn[0], pairs, batch, config,
                       dist=dist, positive=hp[1:], negative=hn[1:])


def loop_hphn(
    batch: LabeledBatch, table: OptimalDistanceTable, config: LossConfig
) -> LossValue:
    """HPHN with the mined negative replaced by the per-pair optimal minimum."""
    _require_negatives(batch)
    dist, _ = pairwise(batch)
    hp = hardest(dist, batch.labels, table.pairs, positive=True)
    return _pair_terms(hp[0] + config.margin - table.pair_min, table.pairs, batch, config,
                       dist=dist, positive=hp[1:], negative=table.nearest, table=table)


def lifted_structure(batch: LabeledBatch, config: LossConfig) -> LossValue:
    """Push each positive pair beyond the margin from its nearest negative."""
    _require_negatives(batch)
    dist, _ = pairwise(batch)
    pairs = build_pairs(batch)
    hn = hardest(dist, batch.labels, pairs, positive=False)
    return _pair_terms(dist[pairs.idx1, pairs.idx2] + config.margin - hn[0], pairs, batch, config,
                       dist=dist, positive=(pairs.idx1, pairs.idx2), negative=hn[1:])


def loop_ls(
    batch: LabeledBatch, table: OptimalDistanceTable, config: LossConfig
) -> LossValue:
    """Lifted structure with the optimal per-pair minimum as the negative."""
    _require_negatives(batch)
    dist, _ = pairwise(batch)
    pairs = table.pairs
    d_pos = dist[pairs.idx1, pairs.idx2]
    return _pair_terms(d_pos + config.margin - table.pair_min, pairs, batch, config,
                       dist=dist, positive=(pairs.idx1, pairs.idx2), negative=table.nearest,
                       table=table)


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
    terms, weights = ms_weighting(sim, *ms_masks(batch.labels, sim, config, table), config)
    return _finish(terms, lambda: range(len(terms)), batch, config, weights=weights, table=table)


def ms_loss(batch: LabeledBatch, config: LossConfig) -> LossValue:
    """Multi-similarity loss: mine, then weight."""
    return _ms_value(batch, config)


def loop_ms(
    batch: LabeledBatch, table: OptimalDistanceTable, config: LossConfig
) -> LossValue:
    """Multi-similarity loss over the optimally mined negative sets."""
    return _ms_value(batch, config, table)
