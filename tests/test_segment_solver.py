import numpy as np
import pytest

from hardneg import (
    DegenerateSegment,
    HardNegError,
    SegmentProblem,
    grid_min_segment,
    optimal_segment_distance,
)
from hardneg.segment_solver import segment_residuals
from hardneg.vectorized import solve_segment_stack


def test_parallel_offset_segments():
    problem = SegmentProblem.from_endpoints(
        [0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]
    )
    sol = optimal_segment_distance(problem)
    assert abs(sol.distance - 1.0) < 1e-12


def test_skew_perpendicular_hand_case():
    # u = (-2,0,0), v = (0,-2,0), w = (-1,1,-1): closed form gives the midpoints
    problem = SegmentProblem.from_endpoints(
        [-1, 0, 0], [1, 0, 0], [0, -1, 1], [0, 1, 1]
    )
    sol = optimal_segment_distance(problem)
    assert abs(sol.k1 - 0.5) < 1e-12
    assert abs(sol.k2 - 0.5) < 1e-12
    assert abs(sol.distance - 1.0) < 1e-12
    assert sol.case_id == 0


def test_shared_endpoint():
    shared = [0.3, -0.2, 0.5]
    problem = SegmentProblem.from_endpoints(shared, [1, 0, 0], shared, [0, 1, 1])
    assert optimal_segment_distance(problem).distance < 1e-12


def test_point_vs_segment_fallback():
    problem = SegmentProblem.from_endpoints([0, 2, 0], [0, 2, 0], [-1, 0, 0], [1, 0, 0])
    sol = optimal_segment_distance(problem)
    assert abs(sol.distance - 2.0) < 1e-12
    assert sol.k1 == 0.0


def test_both_collapsed_raises():
    with pytest.raises(DegenerateSegment):
        optimal_segment_distance(
            SegmentProblem.from_endpoints([1, 1, 1], [1, 1, 1], [0, 0, 0], [0, 0, 0])
        )


def test_solution_consistency(rng):
    for _ in range(200):
        pts = rng.normal(size=(4, 5)) * rng.uniform(0.5, 3.0)
        problem = SegmentProblem.from_endpoints(*pts)
        sol = optimal_segment_distance(problem)
        p1 = (1 - sol.k1) * problem.x1 + sol.k1 * problem.x2
        p2 = (1 - sol.k2) * problem.y1 + sol.k2 * problem.y2
        np.testing.assert_allclose(sol.p1, p1, atol=1e-9)
        np.testing.assert_allclose(sol.p2, p2, atol=1e-9)
        assert abs(sol.distance - np.linalg.norm(p1 - p2)) < 1e-9
        assert -1e-9 <= sol.k1 <= 1 + 1e-9
        assert -1e-9 <= sol.k2 <= 1 + 1e-9


def test_envelope_property(rng):
    for _ in range(300):
        pts = rng.normal(size=(4, int(rng.choice([2, 3, 7]))))
        sol = optimal_segment_distance(SegmentProblem.from_endpoints(*pts))
        corners = min(
            float(np.linalg.norm(pts[i] - pts[j])) for i in (0, 1) for j in (2, 3)
        )
        assert sol.distance <= corners + 1e-9


def test_matches_grid_oracle(rng):
    for _ in range(60):
        pts = rng.normal(size=(4, 4)) * 2.0
        problem = SegmentProblem.from_endpoints(*pts)
        sol = optimal_segment_distance(problem)
        grid = grid_min_segment(problem, 1e-3)
        scale = np.linalg.norm(problem.u) + np.linalg.norm(problem.v)
        assert sol.distance <= grid.best_distance + 1e-9
        assert grid.best_distance - sol.distance <= 2e-3 * scale


def test_case0_winner_stationarity(rng):
    seen = 0
    for _ in range(300):
        pts = rng.normal(size=(4, 6))
        problem = SegmentProblem.from_endpoints(*pts)
        sol = optimal_segment_distance(problem)
        res = segment_residuals(problem, sol)
        assert abs(res["stationarity_k1"]) < 1e-8
        assert abs(res["stationarity_k2"]) < 1e-8
        seen += sol.case_id == 0
    assert seen > 0


def test_symmetry_under_swaps(rng):
    for _ in range(100):
        x1, x2, y1, y2 = rng.normal(size=(4, 5))
        base = optimal_segment_distance(
            SegmentProblem.from_endpoints(x1, x2, y1, y2)
        ).distance
        for pts in ((x2, x1, y1, y2), (x1, x2, y2, y1), (y1, y2, x1, x2)):
            other = optimal_segment_distance(SegmentProblem.from_endpoints(*pts)).distance
            assert abs(base - other) < 1e-9


def test_scalar_matches_stack(rng):
    pts = rng.normal(size=(300, 4, 5))
    pts[::40, 1] = pts[::40, 0]  # collapsed first segments
    stack = solve_segment_stack(pts[:, 0], pts[:, 1], pts[:, 2], pts[:, 3])
    for t in range(300):
        sol = optimal_segment_distance(SegmentProblem.from_endpoints(*pts[t]))
        assert abs(sol.distance - stack.distance[t]) < 1e-9
        assert sol.case_id == stack.case_id[t]


def test_stack_rejects_non_finite(rng):
    pts = rng.normal(size=(3, 4, 5))
    for bad in (np.nan, -np.inf):
        pts_bad = pts.copy()
        pts_bad[2, 0, 1] = bad
        with pytest.raises(HardNegError):
            solve_segment_stack(pts_bad[:, 0], pts_bad[:, 1], pts_bad[:, 2], pts_bad[:, 3])
