import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hardneg import (
    ArcProblem,
    DegenerateArc,
    HardNegError,
    grid_min_arc,
    optimal_arc_distance,
)
from hardneg.arc_solver import kkt_residuals
from hardneg.geometry import DEGENERACY_EPS, point_on_arc
from hardneg.vectorized import (
    CASE_BOUNDS,
    EPS_BOX,
    EPS_LAMBDA,
    arc_candidate_table,
    arc_kkt,
    solve_arc_stack,
)

from conftest import random_arc_problem, unit_rows


def endpoints(problem):
    return problem.x1, problem.x2, problem.y1, problem.y2


def candidates(problem):
    """One problem's candidate table: slot case ids, then alpha, beta, f, ok
    and allowed per slot."""
    case, *table = arc_candidate_table(*(p[None] for p in endpoints(problem)))
    return (case, *(m[:, 0] for m in table))


def partials(problem, alpha, beta):
    """df/dalpha and df/dbeta of f = -p1.p2 from the problem's bases alone:
    the derivative of a point on an arc is the point a quarter turn on."""
    p1, p2 = point_on_arc(problem.basis_x, alpha), point_on_arc(problem.basis_y, beta)
    t1 = point_on_arc(problem.basis_x, alpha + math.pi / 2)
    t2 = point_on_arc(problem.basis_y, beta + math.pi / 2)
    return -float(t1 @ p2), -float(p1 @ t2)


def expected_multipliers(problem, sol):
    """Minus the partial on each pinned lower bound, plus it on each upper one."""
    ga, gb = partials(problem, sol.candidate.alpha, sol.candidate.beta)
    pins = CASE_BOUNDS[sol.candidate.case_id]
    return np.where(pins, [-ga, ga, -gb, gb], 0.0)


def random_problems(rng, count, dims=(3, 4, 8)):
    for _ in range(count):
        yield random_arc_problem(rng, int(rng.choice(dims)))


def winners(rng, cases, count):
    """(problem, solution) pairs of random problems whose winner is in cases."""
    found = []
    for problem in random_problems(rng, 100_000):
        sol = optimal_arc_distance(problem)
        if sol.candidate.case_id in cases:
            found.append((problem, sol))
            if len(found) == count:
                return found
    raise AssertionError(f"no {count} winners of cases {cases}")


def test_interior_identical_arc_limit(rng):
    # Identical arcs: f = -cos(alpha - beta), floor f = -1 on the diagonal.
    x1, x2 = unit_rows(rng, 2, 5)
    problem = ArcProblem.from_endpoints(x1, x2, x1, x2)
    case, _, _, f, _, _ = candidates(problem)
    assert np.any(np.abs(f[case == 0] + 1.0) < 1e-12)
    assert optimal_arc_distance(problem).distance < 1e-7


def test_interior_constant_objective(rng):
    # Orthogonal planes: every point of one arc is sqrt(2) from the other.
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    problem = ArcProblem.from_endpoints(q[0], q[0] + q[1], q[2], q[2] - q[3])
    _, _, _, f, _, allowed = candidates(problem)
    assert np.all(np.abs(f[allowed]) < 1e-12)
    assert abs(optimal_arc_distance(problem).distance - math.sqrt(2)) < 1e-12


def test_interior_candidates_are_stationary(rng):
    for problem in random_problems(rng, 300):
        case, alpha, beta, _, _, _ = candidates(problem)
        for al, be in zip(alpha[case == 0], beta[case == 0]):
            ga, gb = partials(problem, al, be)
            assert abs(ga) < 1e-8 and abs(gb) < 1e-8


def test_case5_multipliers_are_minus_c_and_minus_b(rng):
    for problem, sol in winners(rng, (5,), 20):
        cand, co = sol.candidate, problem.coeffs
        assert cand.alpha == 0.0 and cand.beta == 0.0
        np.testing.assert_allclose(cand.multipliers, [-co.c, 0.0, -co.b, 0.0], atol=1e-12)
        np.testing.assert_allclose(cand.multipliers, expected_multipliers(problem, sol), atol=1e-12)


def test_case8_multipliers_match_partials(rng):
    for problem, sol in winners(rng, (8,), 20):
        cand = sol.candidate
        assert abs(cand.alpha - problem.alpha0) < 1e-12
        assert abs(cand.beta - problem.beta0) < 1e-12
        np.testing.assert_allclose(cand.multipliers, expected_multipliers(problem, sol), atol=1e-12)


def test_case1_aligned_endpoint(rng):
    # A shared first endpoint: case 1 pins alpha at 0 and finds beta = 0,
    # which the reduction into [0, pi) may also give as pi.
    x1, x2, y2 = unit_rows(rng, 3, 4)
    case, alpha, beta, _, _, _ = candidates(ArcProblem.from_endpoints(x1, x2, x1, y2))
    (slot,) = np.flatnonzero(case == 1)
    assert alpha[slot] == 0.0
    assert min(beta[slot], math.pi - beta[slot]) < 1e-12


def test_boundary_cases_satisfy_stationarity_in_free_angle(rng):
    for problem in random_problems(rng, 200):
        case, alpha, beta, _, _, _ = candidates(problem)
        for slot in np.flatnonzero((case >= 1) & (case <= 4)):
            ga, gb = partials(problem, alpha[slot], beta[slot])
            assert abs(gb if case[slot] <= 2 else ga) < 1e-12
    # Edge and corner winners: each pinned bound's multiplier is +-its partial.
    for problem, sol in winners(rng, (1, 2, 3, 4, 6, 7), 60):
        np.testing.assert_allclose(
            sol.candidate.multipliers, expected_multipliers(problem, sol), atol=1e-12
        )


def slot_table(rng, count):
    """Per slot of random problems: case, in-box flag with its margin, the
    multiplier sign condition with its margin, and the table's ok flag."""
    for problem in random_problems(rng, count):
        case, alpha, beta, _, ok, _ = candidates(problem)
        for slot in range(len(case)):
            al, be = alpha[slot], beta[slot]
            box_gap = max(al - problem.alpha0, be - problem.beta0) - EPS_BOX
            ga, gb = partials(problem, al, be)
            lams = np.where(CASE_BOUNDS[case[slot]], [-ga, ga, -gb, gb], 0.0)
            sign_gap = float(np.max(lams)) - EPS_LAMBDA
            yield case[slot], box_gap, sign_gap, ok[slot]


def test_check_kkt_interior_feasible(rng):
    # An interior candidate is ok exactly when it lies in the box.
    outcomes = set()
    for case, box_gap, _, ok in slot_table(rng, 300):
        if case == 0 and abs(box_gap) > 1e-12:
            assert ok == (box_gap < 0.0)
            outcomes.add(bool(ok))
    assert outcomes == {False, True}


def test_check_kkt_multiplier_sign_violation(rng):
    # In the box, an edge candidate is ok exactly when its multiplier is <= 0.
    vetoed = 0
    for case, box_gap, sign_gap, ok in slot_table(rng, 300):
        if 1 <= case <= 4 and box_gap < -1e-12 and abs(sign_gap) > 1e-12:
            assert ok == (sign_gap < 0.0)
            vetoed += not ok
    assert vetoed > 0


def test_check_kkt_box_violation(rng):
    # Out of the box no candidate but a corner is ok; corners always are.
    outside = 0
    for case, box_gap, _, ok in slot_table(rng, 300):
        if case >= 5:
            assert ok
        elif box_gap > 1e-12:
            assert not ok
            outside += 1
    assert outside > 0


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
    assert problem.beta0 == 0.0
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
        assert problem.alpha0 == 0.0
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


def arc_points(dim_range=(2, 9)):
    """Four unit rows of one dimension, from raw coordinates in [-1, 1]."""
    return st.integers(*dim_range).flatmap(
        lambda dim: arrays(np.float64, (4, dim), elements=st.floats(-1.0, 1.0))
    )


def solve_or_none(x1, x2, y1, y2):
    """The distance and the slack a collapsed arc brings, or None for a zero
    row or an antiparallel pair.

    An arc whose endpoints are closer than DEGENERACY_EPS in 1 - x1.x2 is
    solved as the point x1, which can move the distance by up to its chord.
    Beyond that, the solve ranks candidates by f = -p1.p2, which carries an
    absolute rounding error of a few ulps, so squared distances are
    compared: at contact a 1e-16 error in d^2 is a 1e-8 error in d.
    """
    try:
        problem = ArcProblem.from_endpoints(x1, x2, y1, y2)
    except HardNegError:
        return None
    slack = 1e-12
    for (a, b), collapsed in (((problem.x1, problem.x2), problem.alpha0 == 0.0),
                              ((problem.y1, problem.y2), problem.beta0 == 0.0)):
        slack += 4.0 * float(np.linalg.norm(a - b)) * collapsed  # d^2 moves by <= (2 + 2) |a - b|
    return optimal_arc_distance(problem).distance, slack


@settings(max_examples=300, deadline=None)
@given(pts=arc_points())
def test_envelope_property(pts):
    solved = solve_or_none(*pts)
    assume(solved is not None)
    base, slack = solved
    unit = pts / np.linalg.norm(pts, axis=1, keepdims=True)
    corners = min(float(np.linalg.norm(unit[i] - unit[j])) for i in (0, 1) for j in (2, 3))
    assert base**2 <= corners**2 + slack


def test_solution_internal_consistency(rng):
    for _ in range(100):
        problem = random_arc_problem(rng, 6)
        sol = optimal_arc_distance(problem)
        np.testing.assert_allclose(
            sol.p1, point_on_arc(problem.basis_x, sol.candidate.alpha), atol=1e-12
        )
        np.testing.assert_allclose(
            sol.p2, point_on_arc(problem.basis_y, sol.candidate.beta), atol=1e-12
        )
        assert abs(sol.distance - np.linalg.norm(sol.p1 - sol.p2)) < 1e-12


@settings(max_examples=300, deadline=None)
@given(pts=arc_points(), seed=st.integers(0, 2**32 - 1))
def test_symmetry_under_swaps(pts, seed):
    # Swapping the arcs, reversing either arc and rotating the space leave
    # the distance unchanged.
    x1, x2, y1, y2 = pts
    solved = solve_or_none(x1, x2, y1, y2)
    assume(solved is not None)
    base, slack = solved
    rotation, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(len(x1), len(x1))))
    for other in ((y1, y2, x1, x2), (x2, x1, y1, y2), (x1, x2, y2, y1), pts @ rotation.T):
        distance, other_slack = solve_or_none(*other)
        assert abs(distance**2 - base**2) <= max(slack, other_slack)


def collapsed_problems(rng, count, dim):
    """Problems whose x arc (even t) or y arc (odd t) collapses exactly."""
    for t in range(count):
        x1, x2, y1, y2 = unit_rows(rng, 4, dim)
        yield ArcProblem.from_endpoints(x1, x2 if t % 2 else x1, y1, y1 if t % 2 else y2)


def test_winner_kkt_residuals(rng):
    # A collapsed side's basis is a placeholder, so f's partial there is not
    # 0; its angle is pinned at both bounds and has no stationarity residual.
    problems = (*random_problems(rng, 300, dims=(3, 8, 24)), *collapsed_problems(rng, 200, 5))
    assert sum(p.alpha0 == 0.0 for p in problems) == sum(p.beta0 == 0.0 for p in problems) == 100
    for problem in problems:
        sol = optimal_arc_distance(problem)
        res = kkt_residuals(
            sol.candidate, problem.coeffs, problem.alpha0, problem.beta0
        )
        assert abs(res["stationarity_alpha"]) < 1e-8
        assert abs(res["stationarity_beta"]) < 1e-8
        assert res["slackness"] < 1e-8
        if sol.candidate.case_id == 0:
            ga, gb = partials(problem, sol.candidate.alpha, sol.candidate.beta)
            assert abs(ga) < 1e-8 and abs(gb) < 1e-8


def test_scalar_matches_stack(rng):
    # One problem solved alone is its row of a 200-row stack, bit for bit.
    pts = unit_rows(rng, 4 * 200, 8).reshape(200, 4, 8)
    pts[::50, 1] = pts[::50, 0]  # collapsed x arcs
    pts[::75, 3] = pts[::75, 2]  # collapsed y arcs
    problems = [ArcProblem.from_endpoints(*p) for p in pts]
    stack = solve_arc_stack(*(np.stack(side) for side in zip(*map(endpoints, problems))))
    for t, problem in enumerate(problems):
        sol = optimal_arc_distance(problem)
        cand = sol.candidate
        assert cand.case_id == stack.case_id[t]
        assert (cand.alpha, cand.beta, cand.f_value) == (
            stack.alpha[t], stack.beta[t], stack.f_value[t])
        assert cand.multipliers == tuple(stack.multipliers[t])
        assert np.array_equal(sol.p1, stack.p1[t]) and np.array_equal(sol.p2, stack.p2[t])
        assert sol.distance == stack.distance[t]
    stationarity, slackness, _ = arc_kkt(stack.case_id, stack.alpha, stack.beta, stack.multipliers,
                                         stack.coeffs, stack.alpha0, stack.beta0)
    assert stationarity.shape == (200, 2)
    assert float(np.max(np.abs(stationarity))) < 1e-8
    assert float(np.max(slackness)) < 1e-8


def test_extent_is_zero_exactly_on_collapsed_sides(rng):
    # A zero extent is the one collapse mark: both the stack and a problem
    # built alone give extent 0.0 exactly where the clipped endpoint dot
    # reaches 1 - DEGENERACY_EPS, and a clearly positive one elsewhere, sides
    # just above the collapse threshold included.
    x1, x2, y1, y2 = (unit_rows(rng, 400, 6) for _ in range(4))
    x2[::4] = x1[::4]
    y2[1::4] = y1[1::4]
    x2[2::8] = x1[2::8] + 1e-9 * rng.normal(size=(50, 6))
    y2[6::8] = y1[6::8] + 1e-9 * rng.normal(size=(50, 6))
    for step, m, base in ((5, x2, x1), (7, y2, y1)):
        m[3::step] = base[3::step] + rng.uniform(4e-4, 2e-3) * rng.normal(size=(len(m[3::step]), 6))
    x2, y2 = (m / np.linalg.norm(m, axis=1, keepdims=True) for m in (x2, y2))
    stack = solve_arc_stack(x1, x2, y1, y2)
    x_col, y_col = (np.clip(np.sum(u * v, axis=1), -1.0, 1.0) >= 1.0 - DEGENERACY_EPS
                    for u, v in ((x1, x2), (y1, y2)))
    for extent, collapsed in ((stack.alpha0, x_col), (stack.beta0, y_col)):
        assert collapsed.any() and not collapsed.all()
        assert np.array_equal(extent == 0.0, collapsed)
        assert float(np.min(extent[~collapsed])) > 4e-4
    for t in range(0, 400, 3):
        problem = ArcProblem.from_endpoints(x1[t], x2[t], y1[t], y2[t])
        assert (problem.alpha0 == 0.0) == x_col[t] == (stack.alpha0[t] == 0.0)
        assert (problem.beta0 == 0.0) == y_col[t] == (stack.beta0[t] == 0.0)


def test_stack_rejects_non_finite(rng):
    pts = unit_rows(rng, 4 * 3, 5).reshape(3, 4, 5)
    for bad in (np.nan, np.inf):
        pts_bad = pts.copy()
        pts_bad[1, 2, 3] = bad
        with pytest.raises(HardNegError):
            solve_arc_stack(pts_bad[:, 0], pts_bad[:, 1], pts_bad[:, 2], pts_bad[:, 3])
