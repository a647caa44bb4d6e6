"""Minimum distance between two line segments via the same 9-case analysis.

Points are p1 = (1 - k1) x1 + k1 x2 and p2 = (1 - k2) y1 + k2 y2 with
k1, k2 in [0, 1]; endpoints need not be unit norm and the optima are not
constrained to the sphere. Writing u = x1 - x2, v = y1 - y2, w = x1 - y1,
the (halved) squared-distance stationarity conditions are linear:

    u.u k1 - u.v k2 - u.w + lambda_1 - lambda_2 = 0
    -v.u k1 + v.v k2 + v.w + lambda_3 - lambda_4 = 0

and the nine active-set cases mirror the arc solver's. The case analysis
is `vectorized.solve_segment_stack`; this module solves one problem as a
stack of one row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFiniteInput
from .vectorized import solve_segment_stack


@dataclass(frozen=True)
class SegmentProblem:
    """Segment endpoints and the difference vectors u, v, w built from them."""

    x1: np.ndarray
    x2: np.ndarray
    y1: np.ndarray
    y2: np.ndarray
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray

    @classmethod
    def from_endpoints(cls, x1, x2, y1, y2) -> "SegmentProblem":
        """Build a problem from four points.

        Raises DimensionMismatch unless the points are non-empty vectors of
        one common dimension, and NonFiniteInput when a squared difference
        u.u, v.v or w.w is not finite (a non-finite coordinate, or squares
        past the float range).
        """
        x1, x2, y1, y2 = (np.asarray(p, dtype=float) for p in (x1, x2, y1, y2))
        if x1.ndim != 1 or len(x1) < 1 or any(p.shape != x1.shape for p in (x2, y1, y2)):
            raise DimensionMismatch(
                f"segment endpoints must be vectors of one dimension, got shapes "
                f"{[p.shape for p in (x1, x2, y1, y2)]}"
            )
        with np.errstate(over="ignore"):  # an overflow gives inf, which the check rejects
            u, v, w = x1 - x2, y1 - y2, x1 - y1
            if not all(np.isfinite(m @ m) for m in (u, v, w)):
                raise NonFiniteInput("segment differences are non-finite or overflow when squared")
        return cls(x1=x1, x2=x2, y1=y1, y2=y2, u=u, v=v, w=w)


@dataclass(frozen=True)
class SegmentSolution:
    """Winning case with its parameters, realized points, and distance."""

    case_id: int
    k1: float
    k2: float
    p1: np.ndarray
    p2: np.ndarray
    distance: float


def optimal_segment_distance(problem: SegmentProblem) -> SegmentSolution:
    """Globally minimal distance between the segments.

    Same selection policy as the arc solver: all cases compete, infeasible
    non-corner candidates are discarded, corners are a robustness floor,
    ties break toward lower case id then lower parameters. The result is
    bit for bit the row `solve_segment_stack` gives these endpoints in any
    stack.
    """
    sol = solve_segment_stack(*(p[None] for p in (problem.x1, problem.x2, problem.y1, problem.y2)))
    return SegmentSolution(
        case_id=int(sol.case_id[0]), k1=float(sol.k1[0]), k2=float(sol.k2[0]),
        p1=sol.p1[0], p2=sol.p2[0], distance=float(sol.distance[0]),
    )
