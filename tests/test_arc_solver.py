import math

import numpy as np
import pytest

from hardneg import (
    ArcProblem,
    DegenerateArc,
    HardNegError,
    check_kkt,
    chord_distance,
    grid_min_arc,
    optimal_arc_distance,
    solve_boundary_case,
    solve_interior,
)
from hardneg.arc_solver import KktCandidate, kkt_residuals
from hardneg.geometry import (
    ObjectiveCoeffs,
    objective_grad_alpha,
    objective_grad_beta,
)
from hardneg.vectorized import arc_stack_residuals, solve_arc_stack

from conftest import random_arc_problem, unit_rows


def random_coeffs(rng):
    return ObjectiveCoeffs(*rng.uniform(-1, 1, size=4))


def test_interior_identical_arc_limit():
    # a = b = c = 0, d = -1: f = -cos(alpha) cos(beta), floor f = -1 at (0, 0)
    cands = solve_interior(ObjectiveCoeffs(0.0, 0.0, 0.0, -1.0), 1.0, 1.0)
    assert any(abs(c.f_value + 1.0) < 1e-12 for c in cands)


def test_interior_constant_objective():
    cands = solve_interior(ObjectiveCoeffs(0.0, 0.0, 0.0, 0.0), 1.2, 0.7)
    assert cands
    for cand in cands:
        assert abs(cand.f_value) < 1e-12  # distance sqrt(2) everywhere


def test_interior_candidates_are_stationary(rng):
    for _ in range(300):
        co = random_coeffs(rng)
        for cand in solve_interior(co, math.pi / 2, math.pi / 2):
            assert abs(objective_grad_alpha(co, cand.alpha, cand.beta)) < 1e-8
            assert abs(objective_grad_beta(co, cand.alpha, cand.beta)) < 1e-8
            assert cand.multipliers == (0.0, 0.0, 0.0, 0.0)


def test_case5_multipliers_are_minus_c_and_minus_b(rng):
    co = random_coeffs(rng)
    cand = solve_boundary_case(5, co, 1.0, 1.0)
    assert cand.alpha == 0.0 and cand.beta == 0.0
    assert abs(cand.multipliers[0] + co.c) < 1e-12
    assert abs(cand.multipliers[2] + co.b) < 1e-12


def test_case8_multipliers_match_partials(rng):
    co = random_coeffs(rng)
    a0, b0 = 1.1, 0.8
    cand = solve_boundary_case(8, co, a0, b0)
    assert cand.multipliers[1] == objective_grad_alpha(co, a0, b0)
    assert cand.multipliers[3] == objective_grad_beta(co, a0, b0)


def test_case1_aligned_endpoint():
    cand = solve_boundary_case(1, ObjectiveCoeffs(0.3, 0.0, 0.2, -1.0), 1.0, 1.0)
    assert cand.alpha == 0.0
    assert abs(cand.beta) < 1e-12  # atan(0 / -1) maps to 0 in [0, pi)


def test_boundary_cases_satisfy_stationarity_in_free_angle(rng):
    for _ in range(200):
        co = random_coeffs(rng)
        a0, b0 = rng.uniform(0.2, 3.0, size=2)
        for cid in range(1, 9):
            cand = solve_boundary_case(cid, co, a0, b0)
            res = kkt_residuals(cand, co, a0, b0)
            assert abs(res["stationarity_alpha"]) < 1e-12
            assert abs(res["stationarity_beta"]) < 1e-12
            assert res["slackness"] < 1e-12


def test_check_kkt_interior_feasible():
    cand = KktCandidate(0, 0.5, 0.5, (0.0, 0.0, 0.0, 0.0), -0.1)
    assert check_kkt(cand, 1.0, 1.0)


def test_check_kkt_multiplier_sign_violation():
    cand = KktCandidate(1, 0.0, 0.5, (0.5, 0.0, 0.0, 0.0), -0.1)
    assert not check_kkt(cand, 1.0, 1.0)


def test_check_kkt_box_violation():
    cand = KktCandidate(0, 1.3, 0.5, (0.0, 0.0, 0.0, 0.0), -0.1)
    assert not check_kkt(cand, 1.0, 1.0)


def test_shared_endpoint_gives_zero_distance():
    x1 = np.array([1.0, 0.0, 0.0])
    problem = ArcProblem.from_endpoints(
        x1, [0.0, 1.0, 0.0], x1, [0.0, 0.0, 1.0]
    )
    sol = optimal_arc_distance(problem)
    assert sol.distance < 1e-9
    np.testing.assert_allclose(sol.p1, sol.p2, atol=1e-9)


def test_pole_equidistant_from_equatorial_arc():
    # collapsed y pair at the pole: point-vs-arc, distance sqrt(2) everywhere
    pole = [0.0, 0.0, 1.0]
    problem = ArcProblem.from_endpoints([1, 0, 0], [0, 1, 0], pole, pole)
    assert problem.y_collapsed
    sol = optimal_arc_distance(problem)
    assert abs(sol.distance - math.sqrt(2)) < 1e-9


def test_hand_instance_matches_grid_oracle():
    problem = ArcProblem.from_endpoints(
        [0.6, 0.64, 0.48], [0.48, 0.6, 0.64], [1, 0, 0], [0, 1, 0]
    )
    sol = optimal_arc_distance(problem)
    grid = grid_min_arc(problem, 1e-3)
    assert sol.distance <= grid.best_distance + 1e-9
    assert grid.best_distance - sol.distance <= 2e-3


def test_collapsed_x_pair_point_vs_arc(rng):
    for _ in range(20):
        x, y1, y2 = unit_rows(rng, 3, 4)
        problem = ArcProblem.from_endpoints(x, x, y1, y2)
        assert problem.x_collapsed
        sol = optimal_arc_distance(problem)
        np.testing.assert_allclose(sol.p1, x, atol=1e-12)
        grid = grid_min_arc(problem, 1e-3)
        assert sol.distance <= grid.best_distance + 1e-9
        assert grid.best_distance - sol.distance <= 2e-3


def test_both_pairs_collapsed_reduces_to_chord():
    problem = ArcProblem.from_endpoints([1, 0, 0], [1, 0, 0], [0, 1, 0], [0, 1, 0])
    sol = optimal_arc_distance(problem)
    assert abs(sol.distance - math.sqrt(2)) < 1e-12
    assert sol.candidate.case_id == 5


def test_antipodal_pair_raises():
    with pytest.raises(DegenerateArc):
        ArcProblem.from_endpoints([1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, 0, 1])


def test_envelope_property(rng):
    for _ in range(300):
        dim = int(rng.choice([3, 4, 8]))
        pts = unit_rows(rng, 4, dim)
        sol = optimal_arc_distance(ArcProblem.from_endpoints(*pts))
        corners = min(
            chord_distance(pts[i], pts[j]) for i in (0, 1) for j in (2, 3)
        )
        assert sol.distance <= corners + 1e-9


def test_solution_internal_consistency(rng):
    from hardneg.geometry import point_on_arc

    for _ in range(100):
        problem = random_arc_problem(rng, 6)
        sol = optimal_arc_distance(problem)
        np.testing.assert_allclose(
            sol.p1, point_on_arc(problem.basis_x, sol.candidate.alpha), atol=1e-12
        )
        np.testing.assert_allclose(
            sol.p2, point_on_arc(problem.basis_y, sol.candidate.beta), atol=1e-12
        )
        assert abs(sol.distance - chord_distance(sol.p1, sol.p2)) < 1e-9


def test_symmetry_under_swaps(rng):
    for _ in range(100):
        dim = int(rng.choice([3, 5, 16]))
        x1, x2, y1, y2 = unit_rows(rng, 4, dim)
        base = optimal_arc_distance(ArcProblem.from_endpoints(x1, x2, y1, y2)).distance
        for pts in ((x2, x1, y1, y2), (x1, x2, y2, y1), (y1, y2, x1, x2)):
            other = optimal_arc_distance(ArcProblem.from_endpoints(*pts)).distance
            assert abs(base - other) < 1e-9


def test_winner_kkt_residuals(rng):
    for _ in range(300):
        problem = random_arc_problem(rng, int(rng.choice([3, 8, 24])))
        sol = optimal_arc_distance(problem)
        res = kkt_residuals(
            sol.candidate, problem.coeffs, problem.alpha0, problem.beta0
        )
        assert abs(res["stationarity_alpha"]) < 1e-8
        assert abs(res["stationarity_beta"]) < 1e-8
        if sol.candidate.case_id == 0:
            assert abs(objective_grad_alpha(problem.coeffs, sol.candidate.alpha, sol.candidate.beta)) < 1e-8
            assert abs(objective_grad_beta(problem.coeffs, sol.candidate.alpha, sol.candidate.beta)) < 1e-8


def test_scalar_matches_stack(rng):
    pts = unit_rows(rng, 4 * 400, 8).reshape(400, 4, 8)
    # fold in collapsed instances
    pts[::50, 1] = pts[::50, 0]
    pts[::75, 3] = pts[::75, 2]
    stack = solve_arc_stack(pts[:, 0], pts[:, 1], pts[:, 2], pts[:, 3])
    for t in range(400):
        sol = optimal_arc_distance(ArcProblem.from_endpoints(*pts[t]))
        assert sol.candidate.case_id == stack.case_id[t]
        assert abs(sol.candidate.alpha - stack.alpha[t]) < 1e-12
        assert abs(sol.candidate.beta - stack.beta[t]) < 1e-12
        assert abs(sol.distance - stack.distance[t]) < 1e-12
    residuals = arc_stack_residuals(stack)
    assert float(np.max(residuals)) < 1e-8


def test_stack_rejects_non_finite(rng):
    pts = unit_rows(rng, 4 * 3, 5).reshape(3, 4, 5)
    for bad in (np.nan, np.inf):
        pts_bad = pts.copy()
        pts_bad[1, 2, 3] = bad
        with pytest.raises(HardNegError):
            solve_arc_stack(pts_bad[:, 0], pts_bad[:, 1], pts_bad[:, 2], pts_bad[:, 3])
