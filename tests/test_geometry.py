import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardneg import (
    DegenerateArc,
    DimensionMismatch,
    LabeledBatch,
    NearZeroVector,
    gram_schmidt_basis,
    normalize,
    objective_coeffs,
    pairwise,
    point_on_arc,
)
from hardneg.geometry import OrthoBasis, fallback_orthonormal
from hardneg.vectorized import objective

from conftest import unit_rows

SQRT2 = math.sqrt(2.0)


def chord_distance(p, q):
    """The chord distance the losses use, from the pairwise matrix of p and q."""
    dist, _ = pairwise(LabeledBatch.from_arrays(np.stack([p, q]), np.array([0, 1])))
    return float(dist[0, 1])


def evaluate_objective(co, alpha, beta):
    return objective(co.a, co.b, co.c, co.d, math.sin(alpha), math.cos(alpha),
                     math.sin(beta), math.cos(beta))


def test_normalize_axis_scaling():
    np.testing.assert_allclose(normalize([3.0, 0.0, 0.0]), [1.0, 0.0, 0.0])


def test_normalize_symmetric():
    np.testing.assert_allclose(
        normalize([1.0, 1.0, 0.0, 0.0]), [1 / SQRT2, 1 / SQRT2, 0.0, 0.0]
    )


def test_normalize_near_zero_rejected():
    with pytest.raises(NearZeroVector):
        normalize([1e-13, 0.0])


def test_gram_schmidt_already_orthonormal():
    basis = gram_schmidt_basis(np.array([1.0, 0, 0]), np.array([0.0, 1, 0]))
    np.testing.assert_allclose(basis.n1, [1, 0, 0])
    np.testing.assert_allclose(basis.n2, [0, 1, 0])


def test_gram_schmidt_hand_case():
    # residual x2 - (x1.x2) x1 = (0, 1/sqrt(2), 0), normalized to e2
    x2 = np.array([1 / SQRT2, 1 / SQRT2, 0.0])
    basis = gram_schmidt_basis(np.array([1.0, 0, 0]), x2)
    np.testing.assert_allclose(basis.n1, [1, 0, 0])
    np.testing.assert_allclose(basis.n2, [0, 1, 0], atol=1e-12)


def test_gram_schmidt_antipodal_rejected():
    with pytest.raises(DegenerateArc):
        gram_schmidt_basis(np.array([1.0, 0, 0]), np.array([-1.0, 0, 0]))


def test_gram_schmidt_orientation_and_orthonormality(rng):
    for _ in range(50):
        x1, x2 = unit_rows(rng, 2, 5)
        basis = gram_schmidt_basis(x1, x2)
        assert abs(np.linalg.norm(basis.n1) - 1) < 1e-9
        assert abs(np.linalg.norm(basis.n2) - 1) < 1e-9
        assert abs(basis.n1 @ basis.n2) < 1e-9
        assert x2 @ basis.n2 > 0


def test_point_on_arc_endpoints(rng):
    for _ in range(20):
        x1, x2 = unit_rows(rng, 2, 4)
        basis = gram_schmidt_basis(x1, x2)
        alpha0 = math.acos(np.clip(x1 @ x2, -1, 1))
        np.testing.assert_allclose(point_on_arc(basis, 0.0), x1, atol=1e-9)
        np.testing.assert_allclose(point_on_arc(basis, alpha0), x2, atol=1e-9)


def test_point_on_arc_hand_case():
    basis = gram_schmidt_basis(np.array([1.0, 0, 0]), np.array([0.0, 1, 0]))
    np.testing.assert_allclose(
        point_on_arc(basis, math.pi / 4), [1 / SQRT2, 1 / SQRT2, 0.0], atol=1e-12
    )


def test_chord_distance_trivials():
    p = np.array([1.0, 0.0])
    assert chord_distance(p, p) == 0.0
    assert chord_distance(p, -p) == 2.0
    assert abs(chord_distance(np.array([1.0, 0, 0]), np.array([0.0, 1, 0])) - SQRT2) < 1e-12


def test_objective_coeffs_same_basis():
    basis = gram_schmidt_basis(np.array([1.0, 0, 0]), np.array([0.0, 1, 0]))
    co = objective_coeffs(basis, basis)
    assert (co.a, co.b, co.c, co.d) == (-1.0, 0.0, 0.0, -1.0)


def test_objective_coeffs_orthogonal_spans():
    e = np.eye(4)
    bx = OrthoBasis(n1=e[0], n2=e[1])
    by = OrthoBasis(n1=e[2], n2=e[3])
    co = objective_coeffs(bx, by)
    assert (co.a, co.b, co.c, co.d) == (0.0, 0.0, 0.0, 0.0)


def test_objective_coeffs_hand_case():
    e = np.eye(3)
    co = objective_coeffs(OrthoBasis(n1=e[0], n2=e[1]), OrthoBasis(n1=e[1], n2=e[2]))
    assert (co.a, co.b, co.c, co.d) == (0.0, 0.0, -1.0, 0.0)


def test_objective_coeffs_dimension_mismatch():
    e3, e4 = np.eye(3), np.eye(4)
    with pytest.raises(DimensionMismatch):
        objective_coeffs(
            OrthoBasis(n1=e3[0], n2=e3[1]), OrthoBasis(n1=e4[0], n2=e4[1])
        )


def test_evaluate_objective_angle_axes(rng):
    for _ in range(20):
        x = unit_rows(rng, 4, 6)
        co = objective_coeffs(
            gram_schmidt_basis(x[0], x[1]), gram_schmidt_basis(x[2], x[3])
        )
        assert abs(evaluate_objective(co, 0.0, 0.0) - co.d) < 1e-12
        assert abs(evaluate_objective(co, math.pi / 2, 0.0) - co.c) < 1e-12


def test_objective_is_negative_dot_of_arc_points(rng):
    # the algebraic identity f(alpha, beta) = -p1.p2, checked pointwise
    for _ in range(1000):
        x = unit_rows(rng, 4, 5)
        bx = gram_schmidt_basis(x[0], x[1])
        by = gram_schmidt_basis(x[2], x[3])
        co = objective_coeffs(bx, by)
        alpha, beta = rng.uniform(0, math.pi, size=2)
        p1, p2 = point_on_arc(bx, alpha), point_on_arc(by, beta)
        assert abs(evaluate_objective(co, alpha, beta) + p1 @ p2) < 1e-9


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    angle=st.floats(-10.0, 10.0, allow_nan=False),
    dim=st.integers(2, 12),
)
def test_arc_points_stay_unit(seed, angle, dim):
    rows = unit_rows(np.random.default_rng(seed), 2, dim)
    try:
        basis = gram_schmidt_basis(rows[0], rows[1])
    except DegenerateArc:
        return
    assert abs(np.linalg.norm(point_on_arc(basis, angle)) - 1.0) < 1e-9


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), dim=st.integers(2, 16))
def test_chord_matches_euclidean_norm(seed, dim):
    p, q = unit_rows(np.random.default_rng(seed), 2, dim)
    assert abs(chord_distance(p, q) ** 2 - float(np.sum((p - q) ** 2))) < 1e-9


def test_fallback_orthonormal(rng):
    for _ in range(30):
        (x,) = unit_rows(rng, 1, 7)
        v = fallback_orthonormal(x)
        assert abs(np.linalg.norm(v) - 1) < 1e-12
        assert abs(v @ x) < 1e-12
