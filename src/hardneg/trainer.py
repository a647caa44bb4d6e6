"""Desk-scale training and evaluation on synthetic hypersphere data.

Instead of a feature-extracting network, the trainable object is the
embedding table itself: full-batch gradient steps followed by projection
back to the unit sphere. Synthetic classes are identically shaped
rotationally symmetric bumps around random unit means, so the batch is
spherical-homoscedastic by construction, and a validator checks exactly
that property through per-class PCA eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .batch_engine import LabeledBatch
from .errors import DivergenceDetected, InsufficientSamples
from .gradients import loss_and_grad
from .losses import LossConfig

# Cluster tightness giving a mid-range baseline recall on the default
# desk-scale shape (8 classes x 16 samples in dimension 16); picked by
# calibration, stored here so experiments are reproducible.
DEFAULT_CONCENTRATION = 2.5

DEFAULT_LEARNING_RATE = 0.05

# Seed and iteration cap of the deterministic k-means behind NMI / F1.
_KMEANS_SEED = 0
_KMEANS_MAX_ITER = 100

# Gram-form squared distances carry rounding of a few ulps of the squared
# norms; k-means candidates closer than this share of the largest squared
# distance are compared by their explicit norms instead.
_TIE_RTOL = 1e-9


@dataclass(frozen=True)
class SyntheticSpec:
    """Shape of a synthetic clustered batch."""

    num_classes: int = 8
    samples_per_class: int = 16
    dimension: int = 16
    concentration: float = DEFAULT_CONCENTRATION
    seed: int = 0

    def __post_init__(self):
        if self.samples_per_class < 2 or self.samples_per_class % 2 != 0:
            raise ValueError(f"samples_per_class must be even, >= 2: {self.samples_per_class}")
        if self.dimension < 3:
            raise ValueError("dimension must be at least 3")
        if not (np.isfinite(self.concentration) and self.concentration > 0):
            raise ValueError(f"concentration must be positive and finite, got {self.concentration}")


@dataclass
class TrainState:
    """Trainable embedding table plus its optimization history."""

    embeddings: LabeledBatch
    step: int
    learning_rate: float
    history: list = field(default_factory=list)  # (step, loss, recall@1)


@dataclass(frozen=True)
class EvalReport:
    recall_at_k: dict
    nmi: float
    f1: float


def generate_synthetic(spec: SyntheticSpec) -> LabeledBatch:
    """Classes as identical isotropic bumps around random unit means.

    Each sample is the projection of mean + noise/concentration onto the
    sphere, so every class has the same shape up to rotation. Deterministic
    for a fixed seed.
    """
    rng = np.random.default_rng(spec.seed)
    means = rng.normal(size=(spec.num_classes, spec.dimension))
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    sigma = 1.0 / spec.concentration
    rows = []
    labels = []
    for cls in range(spec.num_classes):
        noise = rng.normal(size=(spec.samples_per_class, spec.dimension))
        samples = means[cls][None, :] + sigma * noise
        rows.append(samples)
        labels.extend([cls] * spec.samples_per_class)
    emb = np.concatenate(rows, axis=0)
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    return LabeledBatch(
        embeddings=emb,
        labels=np.asarray(labels, dtype=int),
        samples_per_class=spec.samples_per_class,
    )


def _same_class_ranks(batch: LabeledBatch) -> np.ndarray:
    """Per sample, the rank of its nearest same-class neighbour among the others.

    The rank is the position in a stable nearest-first order of the other
    samples: those strictly closer, plus equally close ones of lower index.
    A sample with no same-class neighbour gets rank inf.
    """
    if batch.batch_size < 2:
        raise ValueError("need at least 2 samples")
    d_sq = batch.sq_chords(np.inf)
    labels = batch.labels
    same = np.where(labels[:, None] == labels[None, :], d_sq, np.inf)
    nearest = np.argmin(same, axis=1)[:, None]
    d_star = np.take_along_axis(same, nearest, axis=1)
    earlier = np.arange(batch.batch_size)[None, :] < nearest
    rank = np.count_nonzero(np.where(earlier, d_sq <= d_star, d_sq < d_star), axis=1)
    return np.where(np.isfinite(d_star[:, 0]), rank, np.inf)


def _recall_from_ranks(ranks: np.ndarray, k: int) -> float:
    if k < 1:
        raise ValueError("k must be at least 1")
    return float(np.mean(ranks < k))


def recall_at_k(batch: LabeledBatch, k: int) -> float:
    """Fraction of samples whose k nearest neighbors include their class."""
    if k == 1:
        if batch.batch_size < 2:
            raise ValueError("need at least 2 samples")
        # Rank 0: the first nearest other sample is of the same class.
        nearest = np.argmin(batch.sq_chords(np.inf), axis=1)
        return float(np.mean(batch.labels[nearest] == batch.labels))
    return _recall_from_ranks(_same_class_ranks(batch), k)


def _explicit_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(m, k) distances as the explicit norm of each difference vector."""
    return np.linalg.norm(points[:, None, :] - centers[None, :, :], axis=2)


def _sq_distances(points, sq_norms, centers) -> np.ndarray:
    """(n, k) squared distances in Gram form |x|^2 - 2 x.c + |c|^2."""
    return sq_norms[:, None] - 2.0 * (points @ centers.T) + np.einsum("ij,ij->i", centers, centers)


def _nearest_centers(points, sq_norms, centers, tol):
    """First nearest center of each point, and the Gram-form squared distances.

    Rows whose two best candidates lie within tol are decided by the
    explicit norm, so near ties break exactly as with explicit distances.
    """
    sq = _sq_distances(points, sq_norms, centers)
    nearest = np.argmin(sq, axis=1)
    if sq.shape[1] > 1:
        best_two = np.partition(sq, 1, axis=1)
        close = np.flatnonzero(best_two[:, 1] - best_two[:, 0] <= tol)
        if close.size:
            nearest[close] = np.argmin(_explicit_distances(points[close], centers), axis=1)
    return nearest, sq


def _farthest(approx: np.ndarray, tol: float, exact) -> int:
    """First index maximising exact(rows), evaluated only on rows within tol of approx's max."""
    rows = np.flatnonzero(approx >= approx.max() - tol)
    return int(rows[np.argmax(exact(rows))]) if rows.size > 1 else int(rows[0])


def _farthest_point_kmeans(points: np.ndarray, k: int) -> np.ndarray:
    """Deterministic Lloyd k-means with farthest-point initialization.

    k is capped at the number of distinct rows: seeding stops once every
    row repeats a seed.

    Distances are compared in Gram form: one (n, D) x (D, n) product for
    the seeding and one (n, D) x (D, k) product per iteration. Near ties
    fall back to explicit norms, so every argmin and argmax is the one
    explicit distances give. Cluster sums add the members in index order
    from 0.0, as np.mean does for D >= 2 (for D = 1, unit embeddings are
    +-1 and every sum is exact).
    """
    n, dim = points.shape
    k = min(k, n)
    sq_norms = np.einsum("ij,ij->i", points, points)
    # |x - c|^2 <= 4 max |x|^2; Gram-form rounding is many orders below this.
    tol = _TIE_RTOL * 4.0 * sq_norms.max()
    rng = np.random.default_rng(_KMEANS_SEED)
    chosen = [int(rng.integers(n))]
    pairwise = _sq_distances(points, sq_norms, points)
    d_min = pairwise[chosen[0]]
    for _ in range(1, k):
        nxt = _farthest(d_min, tol, lambda rows: np.min(
            _explicit_distances(points[rows], points[chosen]), axis=1))
        if d_min[nxt] <= tol and np.any(np.all(points[chosen] == points[nxt], axis=1)):
            # Every row repeats a seed. Past the distinct rows, clusters
            # would stay empty and reseeding them would cycle until _KMEANS_MAX_ITER.
            break
        chosen.append(nxt)
        d_min = np.minimum(d_min, pairwise[nxt])
    centers = points[chosen]
    k = len(centers)
    assign = np.zeros(n, dtype=int)
    columns = np.arange(dim)
    for _ in range(_KMEANS_MAX_ITER):
        new_assign, sq = _nearest_centers(points, sq_norms, centers, tol)
        counts = np.bincount(new_assign, minlength=k)
        if np.all(counts):
            sums = np.bincount((new_assign[:, None] * dim + columns).ravel(),
                               weights=points.ravel(), minlength=k * dim)
            centers = sums.reshape(k, dim) / counts[:, None]
        else:
            # Reseed each empty cluster at the point farthest from its
            # nearest center, cluster by cluster: a move can empty a later
            # cluster.
            far = _farthest(np.min(sq, axis=1), tol, lambda rows: np.min(
                _explicit_distances(points[rows], centers), axis=1))
            for c in range(k):
                members = new_assign == c
                if np.any(members):
                    centers[c] = np.mean(points[members], axis=0)
                else:
                    centers[c] = points[far]
                    new_assign[far] = c
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
    return assign


def _nmi_from_contingency(table: np.ndarray) -> float:
    n = table.sum()
    pr = table.sum(axis=1) / n
    pc = table.sum(axis=0) / n
    hu = -np.sum(pr[pr > 0] * np.log(pr[pr > 0]))
    hv = -np.sum(pc[pc > 0] * np.log(pc[pc > 0]))
    if hu == 0.0 and hv == 0.0:
        return 1.0
    if hu == 0.0 or hv == 0.0:
        return 0.0
    r, c = np.nonzero(table)
    p = table[r, c] / n
    # Summed one term after another in row-major order (cumsum), not pairwise.
    mi = np.cumsum(p * np.log(p / (pr[r] * pc[c])))[-1]
    return float(np.clip(2.0 * mi / (hu + hv), 0.0, 1.0))


def _pair_f1_from_contingency(table: np.ndarray) -> float:
    def pairs(x):
        return float(np.sum(x * (x - 1.0) / 2.0))

    tp = pairs(table)
    pred = pairs(table.sum(axis=0))
    true = pairs(table.sum(axis=1))
    if pred == 0.0 or true == 0.0:
        return 0.0
    precision = tp / pred
    recall = tp / true
    if precision + recall == 0.0:
        return 0.0
    return float(2.0 * precision * recall / (precision + recall))


def _cluster_table(batch: LabeledBatch, num_clusters: int) -> np.ndarray:
    """Contingency table of the labels against deterministic k-means clusters."""
    _, ca = np.unique(batch.labels, return_inverse=True)
    _, cb = np.unique(_farthest_point_kmeans(batch.embeddings, num_clusters), return_inverse=True)
    table = np.zeros((ca.max() + 1, cb.max() + 1))
    np.add.at(table, (ca, cb), 1.0)
    return table


def nmi(batch: LabeledBatch, num_clusters: int) -> float:
    """Normalized mutual information of deterministic k-means vs labels."""
    return _nmi_from_contingency(_cluster_table(batch, num_clusters))


def f1(batch: LabeledBatch, num_clusters: int) -> float:
    """Harmonic mean of pairwise precision/recall over co-clustered pairs."""
    return _pair_f1_from_contingency(_cluster_table(batch, num_clusters))


def evaluate(batch: LabeledBatch, ks=(1, 2, 4, 8)) -> EvalReport:
    """Recall@k for every k from one set of neighbour ranks, NMI and F1 from one clustering."""
    ranks = _same_class_ranks(batch)
    table = _cluster_table(batch, batch.num_classes())
    return EvalReport(
        recall_at_k={k: _recall_from_ranks(ranks, k) for k in ks},
        nmi=_nmi_from_contingency(table),
        f1=_pair_f1_from_contingency(table),
    )


def train(
    spec: SyntheticSpec,
    loss_choice: str,
    config: LossConfig,
    steps: int,
    learning_rate: float = DEFAULT_LEARNING_RATE,
    seed: int | None = None,
    variant: str = "arc",
) -> TrainState:
    """Full-batch gradient descent on the embedding table with projection.

    The loss and its analytic gradient are evaluated on the whole table,
    a plain gradient step is taken, and rows are renormalized to the
    sphere. History records (step, loss, recall@1) per step, including a
    final entry at index `steps` for the post-update table.
    """
    if seed is not None:
        spec = replace(spec, seed=seed)
    batch = generate_synthetic(spec)
    state = TrainState(embeddings=batch, step=0, learning_rate=learning_rate)
    for step in range(steps):
        loss, grad = loss_and_grad(loss_choice, state.embeddings, config, variant)
        if not np.isfinite(loss.total):
            raise DivergenceDetected(f"loss became {loss.total} at step {step}")
        state.history.append((step, loss.total, recall_at_k(state.embeddings, 1)))
        emb = state.embeddings.embeddings - learning_rate * grad
        del loss, grad  # the step's table and arrays go before the next step builds its own
        norms = np.linalg.norm(emb, axis=1, keepdims=True)
        if np.any(~np.isfinite(norms)) or np.any(norms <= 1e-12):
            raise DivergenceDetected(f"embedding norms collapsed at step {step}")
        state.embeddings = LabeledBatch(
            embeddings=emb / norms,
            labels=state.embeddings.labels,
            samples_per_class=state.embeddings.samples_per_class,
        )
        state.step = step + 1
    final_loss = loss_and_grad(loss_choice, state.embeddings, config, variant)[0]
    state.history.append((steps, final_loss.total, recall_at_k(state.embeddings, 1)))
    return state


def homoscedasticity_check(batch: LabeledBatch) -> dict:
    """Per-class top-3 PCA eigenvalues after a global 3-D projection.

    Returns per-class eigenvalue triples plus, per eigenvalue position,
    the mean, standard deviation, and std/mean ratio across classes.
    Identically shaped class clouds give small ratios; a rescaled class
    inflates them. Requires at least 4 samples in every class.
    """
    labels = batch.labels
    classes = list(dict.fromkeys(labels.tolist()))
    counts = {cls: int(np.sum(labels == cls)) for cls in classes}
    lacking = [str(c) for c, n in counts.items() if n < 4]
    if lacking:
        raise InsufficientSamples(f"classes with fewer than 4 samples: {lacking}")
    emb = batch.embeddings
    centered = emb - emb.mean(axis=0, keepdims=True)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    projected = centered @ vt[:3].T
    triples = {}
    for cls in classes:
        cloud = projected[labels == cls]
        cov = np.cov(cloud, rowvar=False)
        eig = np.sort(np.linalg.eigvalsh(cov))[::-1]
        triples[cls] = eig
    stacked = np.stack([triples[c] for c in classes])
    mean = stacked.mean(axis=0)
    std = stacked.std(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(mean > 0, std / mean, np.inf)
    return {
        "per_class": triples,
        "mean": mean,
        "std": std,
        "std_over_mean": ratio,
    }
