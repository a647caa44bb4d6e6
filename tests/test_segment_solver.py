import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hardneg import (
    ArcProblem,
    DegenerateSegment,
    HardNegError,
    NonFiniteInput,
    SegmentProblem,
    grid_min_segment,
    optimal_segment_distance,
)
from hardneg.vectorized import CASE_BOUNDS, solve_segment_stack


def gradients_at(problem, sol):
    """Partials of |p1 - p2|^2 / 2 in k1 and k2: -u.delta and v.delta."""
    delta = sol.p1 - sol.p2
    return -float(problem.u @ delta), float(problem.v @ delta)


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


def segment_points():
    """Four points of one dimension with coordinates in [-4, 4]."""
    return st.integers(1, 8).flatmap(
        lambda dim: arrays(np.float64, (4, dim), elements=st.floats(-4.0, 4.0))
    )


def segment_distance_or_none(x1, x2, y1, y2):
    try:
        return optimal_segment_distance(SegmentProblem.from_endpoints(x1, x2, y1, y2)).distance
    except DegenerateSegment:
        return None


def sq_tol(pts):
    """Squared-distance tolerance: the solve ranks candidates by squared
    distances expanded in u, v and w, whose rounding error scales with
    their squares, so at contact a 1e-16 error in d^2 is a 1e-8 error in d."""
    spread = max(float(np.sum((pts[i] - pts[j]) ** 2)) for i in range(4) for j in range(i))
    return 1e-12 * max(spread, 1.0)


@settings(max_examples=300, deadline=None)
@given(pts=segment_points())
def test_envelope_property(pts):
    base = segment_distance_or_none(*pts)
    assume(base is not None)
    corners = min(float(np.linalg.norm(pts[i] - pts[j])) for i in (0, 1) for j in (2, 3))
    assert base**2 <= corners**2 + sq_tol(pts)


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
        if sol.case_id == 0:
            g1, g2 = gradients_at(problem, sol)
            assert abs(g1) < 1e-8 and abs(g2) < 1e-8
            seen += 1
    assert seen > 0


def test_winner_kkt_conditions(rng):
    # A free parameter is stationary; a parameter pinned at 0 has a partial
    # >= 0 (moving inward does not help), one pinned at 1 a partial <= 0.
    seen = set()
    for _ in range(600):
        pts = rng.normal(size=(4, int(rng.choice([2, 3, 6]))))
        problem = SegmentProblem.from_endpoints(*pts)
        sol = optimal_segment_distance(problem)
        low1, high1, low2, high2 = CASE_BOUNDS[sol.case_id]
        for grad, low, high in zip(gradients_at(problem, sol), (low1, low2), (high1, high2)):
            if low:
                assert grad >= -1e-9
            elif high:
                assert grad <= 1e-9
            else:
                assert abs(grad) < 1e-8
        seen.add(sol.case_id)
    assert seen == set(range(9))


@settings(max_examples=300, deadline=None)
@given(pts=segment_points(), seed=st.integers(0, 2**32 - 1))
def test_symmetry_under_swaps(pts, seed):
    # Swapping the segments, reversing either one and rotating the space
    # leave the distance unchanged.
    x1, x2, y1, y2 = pts
    base = segment_distance_or_none(x1, x2, y1, y2)
    assume(base is not None)
    rotation, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(len(x1), len(x1))))
    for other in ((y1, y2, x1, x2), (x2, x1, y1, y2), (x1, x2, y2, y1), pts @ rotation.T):
        assert abs(segment_distance_or_none(*other) ** 2 - base**2) <= sq_tol(pts)


def test_scalar_matches_stack(rng):
    # One problem solved alone is its row of a 200-row stack, bit for bit.
    pts = rng.normal(size=(200, 4, 5))
    pts[::40, 1] = pts[::40, 0]  # collapsed first segments
    pts[1::45, 3] = pts[1::45, 2]  # collapsed second segments
    stack = solve_segment_stack(pts[:, 0], pts[:, 1], pts[:, 2], pts[:, 3])
    for t in range(200):
        sol = optimal_segment_distance(SegmentProblem.from_endpoints(*pts[t]))
        assert sol.case_id == stack.case_id[t]
        assert (sol.k1, sol.k2, sol.distance) == (stack.k1[t], stack.k2[t], stack.distance[t])
        assert np.array_equal(sol.p1, stack.p1[t]) and np.array_equal(sol.p2, stack.p2[t])


def test_stack_rejects_non_finite(rng):
    pts = rng.normal(size=(3, 4, 5))
    for bad in (np.nan, -np.inf):
        pts_bad = pts.copy()
        pts_bad[2, 0, 1] = bad
        with pytest.raises(HardNegError):
            solve_segment_stack(pts_bad[:, 0], pts_bad[:, 1], pts_bad[:, 2], pts_bad[:, 3])


def test_handled_overflows_warn_nothing():
    # Each input overflows on the way to a check that rejects it, or in a
    # candidate slot that a collapsed side rules out; none may warn.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for build, points in (
            (ArcProblem.from_endpoints, ([1e200, 1e200], [1, 0], [0, 1], [1, 1])),
            (SegmentProblem.from_endpoints, ([1e308, 0], [-1e308, 0], [0, 1], [1, 1])),
            (SegmentProblem.from_endpoints, ([1e200, 1e200], [1, 0], [0, 1], [1, 1])),
        ):
            with pytest.raises(NonFiniteInput):
                build(*points)
        for points in (([0, 0, 0], [1, 0, 0], [0, 1, 0], [1e-160, 1, 0]),
                       ([0, 1, 0], [1e-160, 1, 0], [0, 0, 0], [1, 0, 0])):
            problem = SegmentProblem.from_endpoints(*points)
            assert optimal_segment_distance(problem).distance == 1.0
