"""Brute-force grid verification of both solvers.

Exhaustively evaluates the distance on a uniform grid over the feasible
box, endpoints always included. Stays independent of the case analysis:
no stationarity conditions, no multipliers, just dense evaluation. Ties
resolve to the first grid cell in row-major order.

The default evaluation exploits only the bilinearity of dot products (each
grid distance is still evaluated individually); ``explicit=True`` instead
materializes the curve points and takes Euclidean norms of differences,
which is slower but shares no algebra with the fast path. The two are
cross-checked in the test suite.

The grid is scanned in slabs of whole rows holding about ``_SLAB_CELLS``
cells, whatever the grid's size. The fast paths write each slab into two
buffers allocated once per call, so the working set stays in cache and a
call maps no fresh pages; a grid of 3,142 x 3,142 cells (an arc extent of
pi at the default resolution) would otherwise take 80 MB per temporary.
Each slab's first minimal cell replaces the running best only when it is
strictly smaller, so across slabs too the first minimal cell in row-major
order wins. Every cell is computed by the same operations in the same
order whatever the slab size, so results do not depend on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arc_solver import ArcProblem
from .geometry import point_on_arc
from .segment_solver import SegmentProblem

# Cells per slab: 256 KB of float64, so a slab and its second buffer stay
# cache-resident and are reused across slabs instead of being mapped afresh.
# The explicit path's (rows, cols, D) difference is held to the same budget,
# down to one row per slab.
_SLAB_CELLS = 32768

DEFAULT_RESOLUTION = 1e-3

# A segment grid at 1e-6 already holds 1e12 cells, about an hour of
# scanning; finer grids are out of reach, and below about 1e-16 an axis
# would not even fit in memory.
MIN_RESOLUTION = 1e-6


@dataclass(frozen=True)
class GridResult:
    """Minimum over the evaluated grid and where it was attained."""

    best_params: tuple
    best_distance: float
    resolution: float
    evaluations: int


def check_resolution(resolution: float) -> None:
    """Raise ValueError unless resolution is finite and at least MIN_RESOLUTION."""
    if not (math.isfinite(resolution) and resolution > 0.0):
        raise ValueError(f"resolution must be positive and finite, got {resolution}")
    if resolution < MIN_RESOLUTION:
        raise ValueError(f"resolution must be at least {MIN_RESOLUTION:g}, got {resolution}")


def _axis(extent: float, resolution: float) -> np.ndarray:
    """Grid 0, r, 2r, ... capped at extent, with the endpoint appended.

    Multiples of the step are exact floats, so halving the resolution
    yields a superset of the points and refinement is monotone by
    construction.
    """
    if extent <= 0.0:
        return np.zeros(1)
    points = np.arange(int(np.floor(extent / resolution)) + 1) * resolution
    if points[-1] >= extent:
        points[-1] = extent
    else:
        points = np.append(points, extent)
    return points


def _scan_min(rows_fn, n_rows: int, n_cols: int, depth: int = 1):
    """Slab-wise minimum of a matrix of squared distances.

    rows_fn(i0, i1, buf, tmp) returns the squared-distance block for rows
    [i0, i1); buf and tmp are (i1 - i0, n_cols) scratch buffers it may
    write the block into. depth is the number of values per cell rows_fn
    materializes, which shrinks the slab to the same byte budget.
    Returns ((row, col), min value) of the first minimal cell.
    """
    rows = max(1, _SLAB_CELLS // (n_cols * depth))
    buf = np.empty((rows, n_cols))
    tmp = np.empty((rows, n_cols))
    best = np.inf
    best_rc = (0, 0)
    for i0 in range(0, n_rows, rows):
        i1 = min(i0 + rows, n_rows)
        block = rows_fn(i0, i1, buf[: i1 - i0], tmp[: i1 - i0])
        flat = int(np.argmin(block))
        val = float(block.flat[flat])
        if val < best:
            best = val
            best_rc = (i0 + flat // n_cols, flat % n_cols)
    return best_rc, best


def grid_min_arc(
    problem: ArcProblem, resolution: float = DEFAULT_RESOLUTION, explicit: bool = False
) -> GridResult:
    """Grid minimum of the chord distance over [0, alpha0] x [0, beta0]."""
    check_resolution(resolution)
    alphas = _axis(problem.alpha0, resolution)
    betas = _axis(problem.beta0, resolution)
    if explicit:
        points_x = np.stack([point_on_arc(problem.basis_x, a) for a in alphas])
        points_y = np.stack([point_on_arc(problem.basis_y, b) for b in betas])

        def rows_fn(i0, i1, buf, tmp):
            diff = points_x[i0:i1, None, :] - points_y[None, :, :]
            return np.sum(diff * diff, axis=2)

    else:
        n1, n2 = problem.basis_x.n1, problem.basis_x.n2
        n3, n4 = problem.basis_y.n1, problem.basis_y.n2
        g13, g23 = float(n1 @ n3), float(n2 @ n3)
        g14, g24 = float(n1 @ n4), float(n2 @ n4)
        cos_a, sin_a = np.cos(alphas), np.sin(alphas)
        cos_b, sin_b = np.cos(betas), np.sin(betas)
        # p1.p2 = u1(alpha) cos(beta) + u2(alpha) sin(beta)
        u1 = cos_a * g13 + sin_a * g23
        u2 = cos_a * g14 + sin_a * g24

        def rows_fn(i0, i1, buf, tmp):
            np.multiply(u1[i0:i1, None], cos_b, out=buf)
            np.multiply(u2[i0:i1, None], sin_b, out=tmp)
            buf += tmp
            buf *= 2.0
            return np.subtract(2.0, buf, out=buf)

    depth = len(problem.x1) if explicit else 1
    (ia, ib), d2 = _scan_min(rows_fn, len(alphas), len(betas), depth)
    return GridResult(
        best_params=(float(alphas[ia]), float(betas[ib])),
        best_distance=float(np.sqrt(max(d2, 0.0))),
        resolution=resolution,
        evaluations=len(alphas) * len(betas),
    )


def grid_min_segment(
    problem: SegmentProblem,
    resolution: float = DEFAULT_RESOLUTION,
    explicit: bool = False,
) -> GridResult:
    """Grid minimum of |p1 - p2| over (k1, k2) in [0, 1]^2."""
    check_resolution(resolution)
    k1s = _axis(1.0, resolution)
    k2s = _axis(1.0, resolution)
    if explicit:
        points_x = problem.x1[None, :] + np.outer(k1s, problem.x2 - problem.x1)
        points_y = problem.y1[None, :] + np.outer(k2s, problem.y2 - problem.y1)

        def rows_fn(i0, i1, buf, tmp):
            diff = points_x[i0:i1, None, :] - points_y[None, :, :]
            return np.sum(diff * diff, axis=2)

    else:
        u, v, w = problem.u, problem.v, problem.w
        uu, vv, uv = float(u @ u), float(v @ v), float(u @ v)
        uw, vw, ww = float(u @ w), float(v @ w), float(w @ w)
        # |w - k1 u + k2 v|^2 split into row, column, and cross terms
        row = ww + k1s * k1s * uu - 2.0 * k1s * uw
        col = k2s * k2s * vv + 2.0 * k2s * vw
        cross = -2.0 * uv

        def rows_fn(i0, i1, buf, tmp):
            np.add(row[i0:i1, None], col, out=buf)
            np.multiply(cross * k1s[i0:i1, None], k2s, out=tmp)
            buf += tmp
            return buf

    depth = len(problem.x1) if explicit else 1
    (i1_, i2_), d2 = _scan_min(rows_fn, len(k1s), len(k2s), depth)
    return GridResult(
        best_params=(float(k1s[i1_]), float(k2s[i2_])),
        best_distance=float(np.sqrt(max(d2, 0.0))),
        resolution=resolution,
        evaluations=len(k1s) * len(k2s),
    )
