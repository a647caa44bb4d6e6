"""Unit-hypersphere primitives.

Vectors are plain float64 numpy arrays. A point p on the arc from x1 toward
x2 is parameterized by an angle a in [0, arc length] as

    p(a) = n1 * cos(a) + n2 * sin(a),

where (n1, n2) is the orthonormal basis of span{x1, x2} with n1 = x1 and
n2 oriented so that x2 . n2 > 0. The chord-distance objective between two
arcs reduces to a four-coefficient trigonometric polynomial in the two
angles; those coefficients are computed here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateArc, DimensionMismatch, NearZeroVector, NonFiniteInput

# Norm below which a vector cannot be normalized meaningfully.
NORM_EPS = 1e-12

# |x1 . x2| within this distance of 1 makes the Gram-Schmidt denominator
# vanish and the rotation plane ambiguous.
DEGENERACY_EPS = 1e-7


@dataclass(frozen=True)
class OrthoBasis:
    """Orthonormal basis (n1, n2) of the plane spanned by two arc endpoints."""

    n1: np.ndarray
    n2: np.ndarray


@dataclass(frozen=True)
class ObjectiveCoeffs:
    """Coefficients of f(a, b) = a*sin sin + b*cos sin + c*sin cos + d*cos cos.

    Each is a (negated) dot product of unit basis vectors, so all lie in
    [-1, 1] up to roundoff.
    """

    a: float
    b: float
    c: float
    d: float


def clamp_unit(x: float) -> float:
    """Clamp a dot product of unit vectors into [-1, 1] before acos/sqrt."""
    return min(1.0, max(-1.0, x))


def normalize(v) -> np.ndarray:
    """Return v scaled to unit Euclidean norm.

    Raises NearZeroVector when the norm is at or below NORM_EPS, and
    NonFiniteInput when it is not finite (a non-finite coordinate, or
    squares past the float range).
    """
    v = np.asarray(v, dtype=float)
    n = float(np.linalg.norm(v))
    if n <= NORM_EPS:
        raise NearZeroVector(f"norm {n:.3e} too small to normalize")
    if not np.isfinite(n):
        raise NonFiniteInput(f"norm {n} of a vector is not finite")
    return v / n


def gram_schmidt_basis(x1: np.ndarray, x2: np.ndarray) -> OrthoBasis:
    """Orthonormal basis of span{x1, x2} with n1 = x1 and x2 . n2 > 0.

    Raises DegenerateArc when x1 and x2 are parallel or antiparallel within
    DEGENERACY_EPS (the residual x2 - (x1.x2) x1 vanishes).
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if x1.shape != x2.shape:
        raise DimensionMismatch(f"shapes {x1.shape} vs {x2.shape}")
    dot = clamp_unit(float(x1 @ x2))
    if abs(dot) >= 1.0 - DEGENERACY_EPS:
        raise DegenerateArc(f"endpoints nearly (anti)parallel, x1.x2 = {dot:.12f}")
    residual = x2 - dot * x1
    n2 = residual / np.linalg.norm(residual)
    return OrthoBasis(n1=x1, n2=n2)


def point_on_arc(basis: OrthoBasis, angle: float) -> np.ndarray:
    """Point n1 cos(angle) + n2 sin(angle); unit norm for any angle."""
    return basis.n1 * np.cos(angle) + basis.n2 * np.sin(angle)


def objective_coeffs(basis_x: OrthoBasis, basis_y: OrthoBasis) -> ObjectiveCoeffs:
    """Coefficients of the angular objective between two arcs.

    a = -n2.n4, b = -n1.n4, c = -n2.n3, d = -n1.n3, where (n1, n2) spans the
    first arc and (n3, n4) the second.
    """
    if basis_x.n1.shape != basis_y.n1.shape:
        raise DimensionMismatch(
            f"dimensions {basis_x.n1.shape} vs {basis_y.n1.shape}"
        )
    n1, n2 = basis_x.n1, basis_x.n2
    n3, n4 = basis_y.n1, basis_y.n2
    return ObjectiveCoeffs(
        a=-float(n2 @ n4),
        b=-float(n1 @ n4),
        c=-float(n2 @ n3),
        d=-float(n1 @ n3),
    )


def fallback_orthonormal(x: np.ndarray) -> np.ndarray:
    """Deterministic unit vector orthogonal to x, for collapsed arcs; row-wise for a stack.

    Orthogonalizes the coordinate axis where |x| is smallest; that axis is
    never parallel to x, so the residual is well conditioned.
    """
    x = np.asarray(x, dtype=float)
    e = (np.arange(x.shape[-1]) == np.argmin(np.abs(x), axis=-1)[..., None]).astype(float)
    residual = e - np.sum(x * e, axis=-1, keepdims=True) * x
    return residual / np.linalg.norm(residual, axis=-1, keepdims=True)
