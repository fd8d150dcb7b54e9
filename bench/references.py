"""Reference values the benchmark checks wlift's outputs against.

Nothing here calls wlift: distances, brute-force and 1-D optimal transport
and the closed forms are written out independently, so a defect in the
library cannot hide in its own reference.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def random_points(rng, kind, perimeter, dim, n):
    """n random points; the arc coordinate of circle/cylinder points is
    uniform on [0, perimeter)."""
    pts = rng.normal(scale=2.0, size=(n, dim))
    if kind in ("circle", "cylinder"):
        pts[:, 0] = rng.uniform(0.0, perimeter, size=n)
    return pts


def arc_step(perimeter, a, b):
    """Signed displacement from arc coordinate a to b along the shorter arc."""
    d = np.mod(np.asarray(b) - np.asarray(a), perimeter)
    return np.where(d <= perimeter - d, d, d - perimeter)


def distances(kind, perimeter, X, Y):
    """Distances between matching rows of X and Y (broadcasting)."""
    X, Y = np.asarray(X, dtype=float), np.asarray(Y, dtype=float)
    if kind == "euclidean":
        return np.sqrt(np.sum((X - Y) ** 2, axis=-1))
    d = np.mod(X[..., 0] - Y[..., 0], perimeter)
    arc = np.minimum(d, perimeter - d)
    if kind == "circle":
        return arc
    return np.hypot(arc, X[..., 1] - Y[..., 1])


def geodesic_breakpoints(kind, perimeter, x, y, ts):
    """Points at times ts on the constant-speed geodesic from x to y."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    step = y - x
    if kind != "euclidean":
        step = step.copy()
        step[0] = arc_step(perimeter, x[0], y[0])
    return x[None, :] + np.asarray(ts, dtype=float)[:, None] * step[None, :]


def wpp_permutation(kind, perimeter, X, Y, p):
    """W_p^p between uniform measures on the rows of X and Y (equal counts)
    by enumerating all permutations; returns (value, optimal permutation)."""
    n = len(X)
    C = distances(kind, perimeter, X[:, None, :], Y[None, :, :]) ** p
    rows = np.arange(n)
    best, best_perm = math.inf, None
    for perm in itertools.permutations(range(n)):
        cost = C[rows, perm].sum() / n
        if cost < best:
            best, best_perm = cost, np.array(perm)
    return float(best), best_perm


def wpp_1d(x, a, y, b, p):
    """W_p^p between measures on the real line by the monotone (north-west
    corner) coupling of the sorted atoms."""
    ix, iy = np.argsort(x), np.argsort(y)
    x, a, y, b = x[ix], a[ix], y[iy], b[iy]
    i = j = 0
    ra, rb = a[0], b[0]
    total = 0.0
    while True:
        total += min(ra, rb) * abs(x[i] - y[j]) ** p
        if ra <= rb:
            rb -= ra
            i += 1
            if i == len(a):
                break
            ra = a[i]
        else:
            ra -= rb
            j += 1
            if j == len(b):
                break
            rb = b[j]
    return total


def geodesic_besov_factor(alpha, p):
    """d(X_0, X_1)^p = factor * |X|^p_{b^{alpha,p}} for constant-speed
    geodesics (and W_p^p = factor * |mu|^p for Wasserstein geodesics)."""
    return 1.0 - 2.0 ** (-(p - alpha * p))


def frac_sobolev_geodesic(speed, alpha, p):
    """Double integral of (v|t-s|)^p / |t-s|^{1+alpha p} over [0,1]^2."""
    beta = p - alpha * p
    return 2.0 * speed**p / (beta * (beta + 1.0))


def cylinder_weights(J, p, alpha):
    """Total mass of circle j <= J in the truncated cylinder family."""
    raw = 2.0 ** (-np.arange(J + 1) * p * alpha)
    return raw / raw.sum()


def cylinder_lift_w1p(J, p, alpha):
    """W^{1,p} lift energy of the cylinder family's particle lift: circle j's
    particles move at constant speed 2^{j+1}."""
    w = cylinder_weights(J, p, alpha)
    return float(sum(w[j] * 2.0 ** ((j + 1) * p) for j in range(J + 1)))


def cylinder_lift_variation(J, q, p, alpha):
    """q-variation lift energy (outer power p) of the same lift.  A particle
    of circle j covers arc length 2^{j+1} on a circle of perimeter 2; a
    piece of arc length l contributes d^q <= l (d <= min(l, 1)), with
    equality for pieces of length 1, so the q-variation is 2^{(j+1)/q}."""
    w = cylinder_weights(J, p, alpha)
    return float(sum(w[j] * 2.0 ** ((j + 1) * p / q) for j in range(J + 1)))
