"""Piecewise-geodesic paths on [0,1] with dyadic breakpoints."""

from __future__ import annotations

import numpy as np

from . import spaces
from .errors import ValidationError


def dyadic_times(m: int) -> np.ndarray:
    """Grid t_k = k / 2^m, k = 0..2^m."""
    if m < 0:
        raise ValidationError("level must be >= 0")
    return np.arange(2**m + 1, dtype=float) / 2**m


def _interpolate(space: spaces.Space, X: np.ndarray, ts) -> np.ndarray:
    """Points at times `ts` of the piecewise-geodesic paths whose canonical
    breakpoints X (..., 2^n + 1, dim) sit at the level-n dyadic times, as
    (..., len(ts), dim).  The one geodesic interpolation: a single path and
    every path of a lift are its cases."""
    ts = np.asarray(ts, dtype=float)
    if ts.ndim != 1:
        raise ValidationError("times must be a 1-D sequence")
    if not np.all((ts >= -1e-15) & (ts <= 1 + 1e-15)):  # NaN fails too
        raise ValidationError("time outside [0, 1]")
    n = X.shape[-2] - 1
    scaled = np.clip(ts, 0.0, 1.0) * n
    seg = np.minimum(scaled.astype(int), n - 1)
    loc = scaled - seg
    a = X[..., seg, :]
    b = X[..., seg + 1, :]
    out = a + loc[:, None] * (b - a)
    if space.kind == "euclidean":
        return out
    P = space.perimeter
    delta = spaces._signed_arc(P, a[..., 0], b[..., 0])
    out[..., 0] = spaces._wrap_arc(P, a[..., 0] + loc * delta)
    return out


class PiecewiseGeodesicPath:
    """Path on [0,1] given by 2^n + 1 breakpoints at dyadic times k/2^n,
    joined by constant-speed geodesic segments."""

    def __init__(self, space: spaces.Space, breakpoints, level: int | None = None):
        pts = spaces.canonicalize_points(space, np.asarray(breakpoints, dtype=float))
        n_seg = pts.shape[0] - 1
        if n_seg < 1 or (n_seg & (n_seg - 1)) != 0:
            raise ValidationError(
                f"need 2^n + 1 breakpoints, got {pts.shape[0]}"
            )
        lvl = n_seg.bit_length() - 1
        if level is not None and level != lvl:
            raise ValidationError(f"level {level} inconsistent with {pts.shape[0]} breakpoints")
        self.space = space
        self.breakpoints = pts
        self.level = lvl
        pts.setflags(write=False)

    def __call__(self, t: float) -> np.ndarray:
        return self.eval_many([t])[0]

    def eval_many(self, ts) -> np.ndarray:
        return _interpolate(self.space, self.breakpoints, ts)

    def segment_lengths(self) -> np.ndarray:
        return spaces._distance_arrays(
            self.space, self.breakpoints[:-1], self.breakpoints[1:]
        )


def geodesic_segment(space: spaces.Space, x, y) -> PiecewiseGeodesicPath:
    """Single constant-speed geodesic from x to y as a level-0 path."""
    x = spaces.as_point(space, x)
    y = spaces.as_point(space, y)
    return PiecewiseGeodesicPath(space, np.stack([x, y]), 0)


def constant_path(space: spaces.Space, x, level: int = 0) -> PiecewiseGeodesicPath:
    x = spaces.as_point(space, x)
    return PiecewiseGeodesicPath(space, np.tile(x, (2**level + 1, 1)), level)
