import math
import tracemalloc

import numpy as np
import pytest

from hardneg import (
    ArcProblem,
    SegmentProblem,
    SyntheticSpec,
    generate_synthetic,
    grid_min_arc,
    grid_min_segment,
    optimal_arc_distance,
    optimal_distance_table,
    optimal_segment_distance,
)

from conftest import random_arc_problem


def test_shared_endpoint_hits_grid_corner():
    x1 = np.array([1.0, 0, 0])
    problem = ArcProblem.from_endpoints(x1, [0, 1, 0], x1, [0, 0, 1])
    result = grid_min_arc(problem, 1e-2)
    assert result.best_distance == 0.0
    assert result.best_params == (0.0, 0.0)


def test_constant_surface_orthogonal_spans():
    e = np.eye(4)
    problem = ArcProblem.from_endpoints(e[0], e[1], e[2], e[3])
    result = grid_min_arc(problem, 1e-2)
    assert abs(result.best_distance - math.sqrt(2)) < 1e-12
    # row-major tie-break: the first grid cell wins a constant surface
    assert result.best_params == (0.0, 0.0)


def test_grid_dominates_solver(rng):
    for _ in range(30):
        problem = random_arc_problem(rng, 5)
        sol = optimal_arc_distance(problem)
        grid = grid_min_arc(problem, 5e-3)
        assert grid.best_distance >= sol.distance - 1e-9


def test_monotone_refinement(rng):
    for _ in range(15):
        problem = random_arc_problem(rng, 4)
        coarse = grid_min_arc(problem, 8e-3)
        fine = grid_min_arc(problem, 4e-3)
        assert fine.best_distance <= coarse.best_distance + 1e-12


def test_fast_and_explicit_paths_agree(rng):
    for _ in range(10):
        problem = random_arc_problem(rng, 6)
        fast = grid_min_arc(problem, 2e-2)
        explicit = grid_min_arc(problem, 2e-2, explicit=True)
        assert abs(fast.best_distance - explicit.best_distance) < 1e-9
        assert fast.best_params == explicit.best_params
        assert fast.evaluations == explicit.evaluations


def test_evaluation_count_and_endpoints():
    problem = ArcProblem.from_endpoints([1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 0])
    res = grid_min_arc(problem, 1e-2)
    # multiples of the step plus the exact endpoint
    per_axis = math.floor(problem.alpha0 / 1e-2) + 2
    assert res.evaluations == per_axis**2
    assert res.resolution == 1e-2


def test_rejects_bad_resolution():
    problem = ArcProblem.from_endpoints([1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 0])
    segment = SegmentProblem.from_endpoints([0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0])
    for resolution in (0.0, -1e-3, math.inf, -math.inf, math.nan, 1e-300):
        with pytest.raises(ValueError):
            grid_min_arc(problem, resolution)
        with pytest.raises(ValueError):
            grid_min_segment(segment, resolution)


def _traced_peak(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_grid_scan_allocates_little(rng):
    # A 1e-3 arc grid spans up to 3,142 x 3,142 cells (80 MB per full-grid
    # temporary); the slabs keep every call's temporaries to about 256 KB.
    points = rng.normal(size=(4, 64))
    arc = ArcProblem.from_endpoints(*(points / np.linalg.norm(points, axis=1, keepdims=True)))
    segment = SegmentProblem.from_endpoints(*points)
    budget = 2 * 2**20
    assert _traced_peak(grid_min_arc, arc, 1e-3) < budget
    assert _traced_peak(grid_min_segment, segment, 1e-3) < budget
    assert _traced_peak(grid_min_arc, arc, 5e-3, explicit=True) < budget


def test_segment_table_allocates_little():
    # Solved from the B x B Gram matrix, a segment table gathers no (C, D)
    # endpoint rows: 1,920 combinations at D=256 took 42 MiB that way.
    batch = generate_synthetic(SyntheticSpec(16, 8, 256, seed=0))
    assert _traced_peak(optimal_distance_table, batch, "segment") < 4 * 2**20


def test_collapsed_arc_grid_is_one_dimensional():
    pole = [0.0, 0.0, 1.0]
    problem = ArcProblem.from_endpoints(pole, pole, [1, 0, 0], [0, 1, 0])
    res = grid_min_arc(problem, 1e-2)
    per_axis = math.floor(problem.beta0 / 1e-2) + 2
    assert res.evaluations == per_axis
    assert abs(res.best_distance - math.sqrt(2)) < 1e-12


def test_segment_shared_endpoint():
    shared = [1.0, 2.0, 3.0]
    problem = SegmentProblem.from_endpoints(shared, [0, 0, 0], shared, [4, 4, 4])
    assert grid_min_segment(problem, 1e-2).best_distance == 0.0


def test_segment_parallel_offset():
    problem = SegmentProblem.from_endpoints([0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0])
    res = grid_min_segment(problem, 1e-2)
    assert abs(res.best_distance - 1.0) < 1e-9


def test_segment_grid_dominates_solver(rng):
    for _ in range(30):
        pts = rng.normal(size=(4, 4))
        problem = SegmentProblem.from_endpoints(*pts)
        sol = optimal_segment_distance(problem)
        grid = grid_min_segment(problem, 5e-3)
        scale = np.linalg.norm(problem.u) + np.linalg.norm(problem.v)
        assert grid.best_distance >= sol.distance - 1e-9
        assert grid.best_distance - sol.distance <= 5e-3 * scale


def test_segment_fast_and_explicit_agree(rng):
    for _ in range(10):
        pts = rng.normal(size=(4, 5))
        problem = SegmentProblem.from_endpoints(*pts)
        fast = grid_min_segment(problem, 2e-2)
        explicit = grid_min_segment(problem, 2e-2, explicit=True)
        assert abs(fast.best_distance - explicit.best_distance) < 1e-9
        assert fast.best_params == explicit.best_params
