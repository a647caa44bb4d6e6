"""Acceptance criteria, one test per criterion, each printing a PASS line.

The heavy randomized sweeps (10,000 instances against the dense grid
oracle) run once per session and are shared across the criteria that
consume them. Budgets: the arc sweep is expected to stay under 10
minutes, the paired training experiment under 5.
"""

import statistics
import time

import numpy as np
import pytest

from hardneg import (
    ArcProblem,
    LabeledBatch,
    LossConfig,
    SegmentProblem,
    SyntheticSpec,
    combination_count,
    generate_synthetic,
    grid_min_arc,
    grid_min_segment,
    homoscedasticity_check,
    loop_ms_mining,
    loop_triplet,
    ms_mining,
    optimal_arc_distance,
    optimal_distance_table,
    optimal_segment_distance,
    pairwise,
    train,
)
from hardneg import hphn_triplet, lifted_structure
from hardneg.arc_solver import active_set_margin, kkt_residuals
from hardneg.gradients import (
    evaluate_loss,
    finite_diff_grad,
    loss_and_grad,
    project_tangent,
)
from hardneg.geometry import gram_schmidt_basis, point_on_arc
from hardneg.vectorized import solve_arc_stack

SWEEP_SIZE = 10_000
SWEEP_DIMS = (3, 8, 64, 512)
SWEEP_SEED = 20240501
ORACLE_RESOLUTION = 1e-3


def announce(name: str, detail: str) -> None:
    print(f"[ACCEPTANCE] PASS {name}: {detail}")


def _sweep_points(rng, dim):
    pts = rng.normal(size=(4, dim))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


@pytest.fixture(scope="module")
def arc_sweep():
    """Solve 10,000 random arc instances; keep everything.

    The grid oracle runs in test_solver_vs_oracle_arc only, so the
    envelope and KKT criteria do not wait for it.
    """
    rng = np.random.default_rng(SWEEP_SEED)
    records = []
    start = time.time()
    per_dim = SWEEP_SIZE // len(SWEEP_DIMS)
    for dim in SWEEP_DIMS:
        for _ in range(per_dim):
            pts = _sweep_points(rng, dim)
            problem = ArcProblem.from_endpoints(*pts)
            solution = optimal_arc_distance(problem)
            records.append((pts, problem, solution))
    return records, time.time() - start


@pytest.mark.slow
def test_solver_vs_oracle_arc(arc_sweep):
    records, solve_s = arc_sweep
    start = time.time()
    oracles = [grid_min_arc(problem, ORACLE_RESOLUTION).best_distance for _, problem, _ in records]
    elapsed = solve_s + time.time() - start
    assert len(records) == SWEEP_SIZE
    pairs = [(sol, oracle) for (_, _, sol), oracle in zip(records, oracles)]
    above = sum(1 for sol, oracle in pairs if sol.distance > oracle + 1e-9)
    gaps = [oracle - sol.distance for sol, oracle in pairs]
    assert above == 0
    assert max(gaps) <= 2e-3
    assert elapsed < 600.0
    announce(
        "solver-vs-oracle (arc)",
        f"{len(records)} instances, max gap {max(gaps):.2e} <= 2e-3, "
        f"0 above oracle, {elapsed:.0f}s",
    )


@pytest.mark.slow
def test_solver_vs_oracle_segment():
    rng = np.random.default_rng(SWEEP_SEED + 1)
    per_dim = SWEEP_SIZE // len(SWEEP_DIMS)
    violations = 0
    worst = 0.0
    for dim in SWEEP_DIMS:
        for _ in range(per_dim):
            pts = rng.normal(size=(4, dim))
            problem = SegmentProblem.from_endpoints(*pts)
            sol = optimal_segment_distance(problem)
            oracle = grid_min_segment(problem, ORACLE_RESOLUTION).best_distance
            scale = float(np.linalg.norm(problem.u) + np.linalg.norm(problem.v))
            if sol.distance > oracle + 1e-9 or oracle - sol.distance > 2e-3 * scale:
                violations += 1
            worst = max(worst, (oracle - sol.distance) / scale)
    assert violations == 0
    announce(
        "solver-vs-oracle (segment)",
        f"{SWEEP_SIZE} instances, worst scaled gap {worst:.2e} <= 2e-3, 0 violations",
    )


def test_envelope_invariant(arc_sweep):
    records, _ = arc_sweep
    violations = 0
    for pts, _, sol in records:
        corner_min = min(
            float(np.linalg.norm(pts[i] - pts[j])) for i in (0, 1) for j in (2, 3)
        )
        if sol.distance > corner_min + 1e-9:
            violations += 1
    assert violations == 0
    announce("envelope invariant", f"{len(records)} instances, 0 violations")


def test_kkt_residuals(arc_sweep):
    records, _ = arc_sweep
    worst = 0.0
    for _, problem, sol in records:
        res = kkt_residuals(sol.candidate, problem.coeffs, problem.alpha0, problem.beta0)
        worst = max(
            worst,
            abs(res["stationarity_alpha"]),
            abs(res["stationarity_beta"]),
            res["slackness"],
        )
    assert worst <= 1e-8
    announce("KKT residuals", f"worst winner residual {worst:.2e} <= 1e-8")


def test_combination_count():
    rng = np.random.default_rng(7)
    checked = 0
    for batch_size in (8, 16, 32, 64):
        for per_class in (2, 4, 8):
            if batch_size % per_class:
                continue
            expected = combination_count(batch_size, per_class)
            num_classes = batch_size // per_class
            if num_classes < 2:
                assert expected == 0
                checked += 1
                continue
            emb = rng.normal(size=(batch_size, 6))
            labels = np.repeat(np.arange(num_classes), per_class)
            table = optimal_distance_table(LabeledBatch.from_arrays(emb, labels))
            assert len(table.combos) == expected
            checked += 1
    announce("combination count", f"{checked} (batch, class-size) shapes match B(B-N)/8")


def test_loss_dominance_and_hphn_ls_equality():
    cfg = LossConfig(margin=0.3)
    rng = np.random.default_rng(91)
    tuple_violations = 0
    equality_worst = 0.0
    for trial in range(1000):
        if trial % 2 == 0:
            labels = np.repeat(np.arange(4), 2)
            emb = rng.normal(size=(8, 8))
        else:
            labels = np.repeat(np.arange(3), 4)
            emb = rng.normal(size=(12, 5))
        batch = LabeledBatch.from_arrays(emb, labels)
        table = optimal_distance_table(batch)
        dist, _ = pairwise(batch)
        loop_terms = dict(loop_triplet(batch, table, cfg).per_term)
        for (i, j, k, l), d_opt in table.per_combination.items():
            for (pa, pb), (na, nb) in (((i, j), (k, l)), ((k, l), (i, j))):
                term = loop_terms[((pa, pb), (na, nb))]
                for neg in (na, nb):
                    plain = max(0.0, dist[pa, pb] - dist[pa, neg] + cfg.margin)
                    if term < plain - 1e-9:
                        tuple_violations += 1
        if trial % 2 == 0:  # the N = 2 batches
            a = hphn_triplet(batch, cfg).total
            b = lifted_structure(batch, cfg).total
            equality_worst = max(equality_worst, abs(a - b))
    assert tuple_violations == 0
    assert equality_worst < 1e-12
    announce(
        "loss dominance",
        f"1000 batches, 0 per-tuple violations; |HPHN - LS| <= {equality_worst:.1e} at N=2",
    )


def test_ms_superset_mining():
    cfg = LossConfig(ms_epsilon=0.1)
    rng = np.random.default_rng(17)
    violations = 0
    for trial in range(1000):
        labels = np.repeat(np.arange(3), 4)
        emb = rng.normal(size=(12, 6))
        batch = LabeledBatch.from_arrays(emb, labels)
        table = optimal_distance_table(batch)
        plain = ms_mining(batch, cfg)
        loop = loop_ms_mining(batch, table, cfg)
        for i in range(batch.batch_size):
            if not set(loop[i]["negatives"]) >= set(plain[i]["negatives"]):
                violations += 1
    assert violations == 0
    announce("MS superset mining", "1000 batches, loop-mined set always contains plain")


def _strictly_active(loss_value) -> bool:
    return any(v > 1e-4 for _, v in loss_value.per_term)


def test_gradient_checks():
    rng = np.random.default_rng(23)
    cfg = LossConfig(margin=0.6)

    # Plain triplet and lifted structure on strictly-active random instances.
    worst_plain = 0.0
    checked = 0
    while checked < 500:
        emb = rng.normal(size=(4, 6))
        batch = LabeledBatch.from_arrays(emb, np.array([0, 0, 1, 1]))
        name = ("triplet", "lifted_structure")[checked % 2]
        loss, grad = loss_and_grad(name, batch, cfg)
        if not _strictly_active(loss):
            continue
        tangent = project_tangent(batch.embeddings, grad)
        idx = checked % 4
        fd = finite_diff_grad(lambda b: evaluate_loss(name, b, cfg), batch, idx, h=1e-6)
        denom = np.linalg.norm(fd)
        if denom < 1e-8:
            continue
        worst_plain = max(worst_plain, np.linalg.norm(tangent[idx] - fd) / denom)
        checked += 1
    assert worst_plain <= 1e-4

    # Envelope gradients of the optimal-negative triplet at interior optima.
    worst_loop = 0.0
    interior = 0
    attempts = 0
    while interior < 100 and attempts < 20000:
        attempts += 1
        pts = _sweep_points(rng, 6)
        problem = ArcProblem.from_endpoints(*pts)
        sol = optimal_arc_distance(problem)
        if sol.candidate.case_id != 0:
            continue
        if active_set_margin(problem, sol) < 1e-4:
            continue
        batch = LabeledBatch.from_arrays(pts, np.array([0, 0, 1, 1]))
        loss, grad = loss_and_grad("loop_triplet", batch, cfg)
        hinge_margins = [abs(v) for _, v in loss.per_term]
        if min(hinge_margins) < 1e-4 or not _strictly_active(loss):
            continue
        tangent = project_tangent(batch.embeddings, grad)
        idx = interior % 4
        fd = finite_diff_grad(
            lambda b: evaluate_loss("loop_triplet", b, cfg), batch, idx, h=1e-6
        )
        denom = np.linalg.norm(fd)
        if denom < 1e-8:
            continue
        worst_loop = max(worst_loop, np.linalg.norm(tangent[idx] - fd) / denom)
        interior += 1
    assert interior == 100
    assert worst_loop <= 1e-3
    announce(
        "gradient checks",
        f"plain worst rel {worst_plain:.2e} <= 1e-4 (500 instances); "
        f"interior envelope worst rel {worst_loop:.2e} <= 1e-3 ({interior} instances)",
    )


def test_continuity_sweep():
    rng = np.random.default_rng(41)
    pts = _sweep_points(rng, 8)
    target = rng.normal(size=8)
    target /= np.linalg.norm(target)
    basis = gram_schmidt_basis(pts[3], target)
    steps = 10_000
    angles = np.linspace(0.0, 1.2, steps)
    path = np.stack([point_on_arc(basis, t) for t in angles])
    sol = solve_arc_stack(
        np.tile(pts[0], (steps, 1)),
        np.tile(pts[1], (steps, 1)),
        np.tile(pts[2], (steps, 1)),
        path,
    )
    moves = np.linalg.norm(np.diff(path, axis=0), axis=1)
    jumps = np.abs(np.diff(sol.distance))
    ratio = jumps / moves
    assert float(np.max(ratio)) <= 5.0
    announce(
        "continuity sweep",
        f"10,000 steps, max |d(t+1)-d(t)| / step = {float(np.max(ratio)):.3f} <= 5",
    )


@pytest.mark.slow
def test_paired_training_experiment():
    spec = SyntheticSpec(num_classes=8, samples_per_class=16, dimension=16)
    cfg = LossConfig(margin=0.2)
    seeds = (0, 1, 2, 3, 4)
    start = time.time()
    finals = {}
    ma_violation = 0.0
    for name in ("triplet", "loop_triplet", "hphn_triplet", "loop_hphn"):
        finals[name] = []
        for seed in seeds:
            state = train(spec, name, cfg, steps=500, learning_rate=0.05, seed=seed)
            finals[name].append(state.history[-1][2])
            if name.startswith("loop"):
                losses = np.array([h[1] for h in state.history])
                moving = np.convolve(losses, np.ones(50) / 50.0, mode="valid")
                ma_violation = max(ma_violation, float(np.max(np.diff(moving))))
    elapsed = time.time() - start
    med = {name: statistics.median(vals) for name, vals in finals.items()}
    assert med["loop_triplet"] >= med["triplet"]
    assert med["loop_hphn"] >= med["hphn_triplet"]
    assert ma_violation <= 1e-9
    assert elapsed < 300.0
    announce(
        "paired training",
        f"median recall@1 triplet {med['triplet']:.3f} -> loop {med['loop_triplet']:.3f}; "
        f"hphn {med['hphn_triplet']:.3f} -> loop {med['loop_hphn']:.3f}; "
        f"loop 50-step averages nonincreasing (max diff {ma_violation:.1e}); {elapsed:.0f}s",
    )


def test_homoscedasticity_validator():
    spec = SyntheticSpec(
        num_classes=8, samples_per_class=16, dimension=16, concentration=10.0, seed=0
    )
    batch = generate_synthetic(spec)
    identical = homoscedasticity_check(batch)["std_over_mean"]
    assert np.all(identical <= 0.5)

    emb = batch.embeddings.copy()
    mask = batch.labels == 0
    center = emb[mask].mean(axis=0)
    emb[mask] = center + 10.0 * (emb[mask] - center)
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    scaled = LabeledBatch(embeddings=emb, labels=batch.labels,
                          samples_per_class=batch.samples_per_class)
    violated = homoscedasticity_check(scaled)["std_over_mean"]
    assert np.max(violated) > 1.0
    announce(
        "homoscedasticity validator",
        f"identical clusters max ratio {float(np.max(identical)):.3f} <= 0.5; "
        f"10x-scaled class max ratio {float(np.max(violated)):.3f} > 1.0",
    )
