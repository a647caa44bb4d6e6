"""Closed-form minimum chord distance between two bounded great-circle arcs.

The objective f(alpha, beta) = -p1.p2 is minimized over the box
[0, alpha0] x [0, beta0] by enumerating the nine ways the box constraints
can be active: the unconstrained stationary points (case 0), one angle
pinned at a bound (cases 1-4), and both pinned (corner cases 5-8). The case
analysis is `vectorized.solve_arc_stack` and the KKT check
`vectorized.arc_kkt`; this module calls both on a stack of one row and keeps
the problem's own basis, which the grid oracle reads, built here with
`geometry` and independent of the case analysis.

Sign convention: the Lagrangian is f - sum(lambda_i g_i) with g_i <= 0 and
lambda_i <= 0 at a feasible minimum. Stationarity reads
df/dalpha + lambda_1 - lambda_2 = 0 and df/dbeta + lambda_3 - lambda_4 = 0.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from .errors import DegenerateArc, DimensionMismatch
from .geometry import (
    DEGENERACY_EPS,
    ObjectiveCoeffs,
    OrthoBasis,
    clamp_unit,
    fallback_orthonormal,
    gram_schmidt_basis,
    normalize,
    objective_coeffs,
)
from .vectorized import arc_kkt, solve_arc_stack


@dataclass(frozen=True)
class ArcProblem:
    """Two arcs on the unit hypersphere plus derived quantities.

    alpha0 and beta0 are the arc extents arccos(x1.x2) and arccos(y1.y2).
    A collapsed arc (coincident endpoints within DEGENERACY_EPS) is stored
    with extent exactly 0 and a deterministic placeholder for its second
    basis vector; the placeholder never enters f at angle 0.
    """

    x1: np.ndarray
    x2: np.ndarray
    y1: np.ndarray
    y2: np.ndarray
    basis_x: OrthoBasis
    basis_y: OrthoBasis
    coeffs: ObjectiveCoeffs
    alpha0: float
    beta0: float

    @classmethod
    def from_endpoints(cls, x1, x2, y1, y2) -> "ArcProblem":
        """Build a problem from four points, renormalizing onto the sphere.

        Raises DimensionMismatch unless the points are vectors of one common
        dimension of at least 2, and DegenerateArc for antiparallel endpoint
        pairs (the rotation plane is ambiguous). Parallel pairs collapse to
        a point.
        """
        x1, x2, y1, y2 = (normalize(v) for v in (x1, x2, y1, y2))
        if x1.ndim != 1 or len(x1) < 2 or any(p.shape != x1.shape for p in (x2, y1, y2)):
            raise DimensionMismatch(
                f"arc endpoints must be vectors of one dimension >= 2, got shapes "
                f"{[p.shape for p in (x1, x2, y1, y2)]}"
            )
        basis_x, alpha0 = _pair_basis(x1, x2)
        basis_y, beta0 = _pair_basis(y1, y2)
        coeffs = objective_coeffs(basis_x, basis_y)
        return cls(
            x1=x1, x2=x2, y1=y1, y2=y2,
            basis_x=basis_x, basis_y=basis_y, coeffs=coeffs,
            alpha0=alpha0, beta0=beta0,
        )


@dataclass(frozen=True)
class KktCandidate:
    """One active-set case: angles, multipliers, and the objective there.

    multipliers = (lambda_1, lambda_2, lambda_3, lambda_4), one per box
    constraint; each is zero unless its constraint is active in this case.
    """

    case_id: int
    alpha: float
    beta: float
    multipliers: tuple
    f_value: float


@dataclass(frozen=True)
class KktSolution:
    """Winning candidate realized as points, with their chord distance."""

    candidate: KktCandidate
    p1: np.ndarray
    p2: np.ndarray
    distance: float


def _pair_basis(u, v):
    """Basis and extent of one endpoint pair; the extent is 0.0 exactly when it collapses."""
    dot = clamp_unit(float(u @ v))
    if dot >= 1.0 - DEGENERACY_EPS:
        return OrthoBasis(n1=u, n2=fallback_orthonormal(u)), 0.0
    if dot <= -1.0 + DEGENERACY_EPS:
        raise DegenerateArc(f"antiparallel endpoints, dot = {dot:.12f}")
    return gram_schmidt_basis(u, v), math.acos(dot)


def optimal_arc_distance(problem: ArcProblem) -> KktSolution:
    """Globally minimal chord distance between the two arcs.

    All cases are evaluated; KKT-infeasible candidates are discarded except
    corners, which always compete as a robustness floor. The feasible
    candidate with minimal objective wins, ties broken by candidate order
    (lowest case id, then lowest alpha, then lowest beta). The result is
    bit for bit the row `solve_arc_stack` gives these endpoints in any stack.
    """
    sol = solve_arc_stack(*(p[None] for p in (problem.x1, problem.x2, problem.y1, problem.y2)))
    candidate = KktCandidate(
        case_id=int(sol.case_id[0]),
        alpha=float(sol.alpha[0]),
        beta=float(sol.beta[0]),
        multipliers=tuple(sol.multipliers[0].tolist()),
        f_value=float(sol.f_value[0]),
    )
    return KktSolution(candidate=candidate, p1=sol.p1[0], p2=sol.p2[0],
                       distance=float(sol.distance[0]))


def _kkt_row(candidate: KktCandidate, coeffs: ObjectiveCoeffs, alpha0: float, beta0: float):
    """`arc_kkt` of one candidate: both stationarity residuals, slackness and margin."""
    row = (candidate.case_id, candidate.alpha, candidate.beta, candidate.multipliers,
           astuple(coeffs), alpha0, beta0)
    (st_alpha, st_beta), slackness, margin = (m[0] for m in arc_kkt(*(np.array([r]) for r in row)))
    return float(st_alpha), float(st_beta), float(slackness), float(margin)


def kkt_residuals(candidate: KktCandidate, coeffs: ObjectiveCoeffs,
                  alpha0: float, beta0: float) -> dict:
    """Stationarity and complementary-slackness residuals of a candidate (see `arc_kkt`)."""
    st_alpha, st_beta, slackness, _ = _kkt_row(candidate, coeffs, alpha0, beta0)
    return {"stationarity_alpha": st_alpha, "stationarity_beta": st_beta, "slackness": slackness}


def active_set_margin(problem: ArcProblem, solution: KktSolution) -> float:
    """How far the winner is from an active-set change (see `arc_kkt`)."""
    return _kkt_row(solution.candidate, problem.coeffs, problem.alpha0, problem.beta0)[3]
