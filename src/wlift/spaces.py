"""Concrete metric spaces: Euclidean R^d, a circle of given perimeter, and a
cylinder (circle x R) with the intrinsic product metric.

Points are plain numpy arrays:
  * euclidean(d): shape (d,)
  * circle:      shape (1,), arc-length coordinate reduced into [0, perimeter)
  * cylinder:    shape (2,), (arc coordinate, height)

Geodesics are constant-speed.  On the circle the shorter arc is taken; the
antipodal tie is broken toward increasing arc coordinate from the start point,
so the selection is deterministic.  Cylinder geodesics unwrap the arc
coordinate by the same rule and interpolate linearly in (arc, height).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class Space:
    kind: str  # "euclidean" | "circle" | "cylinder"
    dim: int = 1  # coordinate dimension of points
    perimeter: float = 2.0

    def __post_init__(self):
        if self.kind not in ("euclidean", "circle", "cylinder"):
            raise ValidationError(f"unknown space kind {self.kind!r}")
        if self.kind != "euclidean" and self.perimeter <= 0:
            raise ValidationError("perimeter must be positive")
        if self.dim < 1:
            raise ValidationError("dimension must be >= 1")


def euclidean(d: int) -> Space:
    return Space("euclidean", dim=int(d))


def circle(perimeter: float = 2.0) -> Space:
    return Space("circle", dim=1, perimeter=float(perimeter))


def cylinder(perimeter: float = 2.0) -> Space:
    return Space("cylinder", dim=2, perimeter=float(perimeter))


def as_point(space: Space, x) -> np.ndarray:
    """Validate and canonicalize a point for `space` (wraps arc coordinates)."""
    p = np.atleast_1d(np.asarray(x, dtype=float))
    if p.ndim != 1 or p.shape[0] != space.dim:
        raise ValidationError(
            f"point of shape {p.shape} invalid for {space.kind}({space.dim})"
        )
    if not np.all(np.isfinite(p)):
        raise ValidationError("point coordinates must be finite")
    if space.kind in ("circle", "cylinder"):
        p = p.copy()
        p[0] = _wrap_arc(space.perimeter, p[0])
    return p


def canonicalize_points(space: Space, pts: np.ndarray) -> np.ndarray:
    """Vectorized canonicalization of an (n, dim) array of points."""
    pts = np.asarray(pts, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.shape[1] != space.dim:
        raise ValidationError(
            f"points of shape {pts.shape} invalid for {space.kind}({space.dim})"
        )
    if not np.all(np.isfinite(pts)):
        raise ValidationError("point coordinates must be finite")
    if space.kind in ("circle", "cylinder"):
        pts = pts.copy()
        pts[:, 0] = _wrap_arc(space.perimeter, pts[:, 0])
    return pts


def _wrap_arc(P: float, x):
    """Arc coordinates reduced into [0, P).  A plain `x % P` returns P
    itself for tiny negative x (it rounds up), which would keep the same
    point under two coordinates."""
    r = np.mod(x, P)
    return np.where(r < P, r, 0.0)


def _signed_arc(P: float, a, b, canonical: bool = False):
    """Signed displacement from arc coordinate a to b along the chosen
    geodesic direction: shorter arc, ties broken positively.  With
    `canonical`, a and b are both in [0, P), so b - a lies in (-P, P) and
    adding P to the negative differences gives the bits of the general
    modulo at half its cost."""
    d = np.asarray(b) - np.asarray(a)
    d = np.where(d < 0, d + P, d) if canonical else d % P
    return np.where(d <= P - d, d, d - P)


def distance(space: Space, x, y) -> float:
    x = as_point(space, x)
    y = as_point(space, y)
    return float(_distance_arrays(space, x[None, :], y[None, :])[0])


def _distance_arrays(
    space: Space, X: np.ndarray, Y: np.ndarray, canonical: bool = False
) -> np.ndarray:
    """Elementwise distances between matching points of X and Y (coordinates
    on the last axis; the other axes broadcast).  `canonical`: both are
    canonical points (see `_signed_arc`)."""
    if space.kind == "euclidean":
        return np.linalg.norm(X - Y, axis=-1)
    P = space.perimeter
    arc = np.abs(_signed_arc(P, X[..., 0], Y[..., 0], canonical))
    if space.kind == "circle":
        return arc
    dz = X[..., 1] - Y[..., 1]
    return np.sqrt(arc * arc + dz * dz)


# relative slack of `_diameter_bound` (and of the q-variation DP's bounds in
# `norms`), far above the few ulps by which a computed distance and the
# computed bound can round apart
_BOUND_MARGIN = 1e-9


def _diameter_bound(space: Space, X: np.ndarray) -> np.ndarray:
    """Per sequence of canonical points X (..., N, dim), a number at least
    every computed `_distance_arrays(..., canonical=True)` between two of
    its points: the diagonal of the coordinate box in R^d; on the circle
    min(P/2, arc extent), the extent being P less the widest gap between
    neighbouring arc coordinates, with an absolute slack of margin * P for
    the rounding of arc differences; on the cylinder that arc bound
    combined with the height extent.  All carry the relative margin
    _BOUND_MARGIN."""
    if space.kind == "euclidean":
        box = np.ptp(X, axis=-2)
        return np.sqrt(np.sum(box * box, axis=-1)) * (1.0 + _BOUND_MARGIN)
    P = space.perimeter
    arc = np.sort(X[..., 0], axis=-1)
    gap = np.maximum(np.max(np.diff(arc, axis=-1), axis=-1, initial=0.0),
                     arc[..., 0] + P - arc[..., -1])
    bound = np.minimum(P / 2.0, P - gap + _BOUND_MARGIN * P)
    if space.kind == "cylinder":
        height = np.ptp(X[..., 1], axis=-1)
        bound = np.sqrt(bound * bound + height * height)
    return bound * (1.0 + _BOUND_MARGIN)


def distance_matrix(space: Space, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """All pairwise distances between rows of X (n, dim) and Y (m, dim)."""
    X = canonicalize_points(space, X)
    Y = canonicalize_points(space, Y)
    return _distance_arrays(space, X[:, None, :], Y[None, :, :], canonical=True)


def geodesic_point(space: Space, x, y, t: float) -> np.ndarray:
    """Point at parameter t on the constant-speed geodesic from x to y."""
    x = as_point(space, x)
    y = as_point(space, y)
    t = float(t)
    if space.kind == "euclidean":
        return (1.0 - t) * x + t * y
    P = space.perimeter
    out = (1.0 - t) * x + t * y  # correct for the non-arc coordinates
    out[0] = _wrap_arc(P, x[0] + t * float(_signed_arc(P, x[0], y[0])))
    return out
