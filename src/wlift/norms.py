"""Path-regularity functionals: dyadic Besov sums (exact closed form for
piecewise geodesics), fractional Sobolev quadrature, Hölder / variation /
modulus functionals on dyadic grids, and related checks.

`besov_energy_pg`, `holder_norm_dyadic`, `modulus_of_continuity`,
`p_variation` and `_w1p_energy` also take a lift, read its (K, 2^n + 1,
dim) `breakpoints` as a path's, and give its K per-path values;
`frac_sobolev_energy` takes one too, checks the quadrature budget for all K
paths at once and integrates path by path.  All fractional Sobolev
quadrature runs through one table builder, `_frac_sobolev_table`: one
path's upper-triangular table of cell-pair integrals, whose sum is the
energy and whose square blocks are the energies of sub-intervals, so
`grr_check` reads every interval of its grid from one table by cumulative
sums.  Every dyadic Besov sum runs through one engine, `_dyadic_besov`:
direct level sums up to the exact level, then exact geodesic scaling and
the closed-form geometric tail.  The level sums come from
`_level_power_sum`, which also serves `limsup_variation_dyadic` and every
W^{1,p} sum.  A curve evaluated through a distance callback reads its
level-M grid through one helper, `_curve_grid` (one callback call per pair
list when it has a batched `many` form, `_distances`).  `_pairwise` gives
the level-M grid distances in column blocks of at most _VARIATION_ENTRIES
entries, built per block for paths and sliced from one full `_curve_grid`
matrix for a curve, together with a per-path bound on them.  Hölder and
modulus of paths and lifts are one masked max over the blocks, `_pair_max`,
which builds only the rows within the modulus's delta of each column.
Those of a curve solve only the pairs that a triangle-inequality bound
leaves able to win (`_curve_pair_max`): the value is never above the
all-pairs max and at most a relative _PRUNE_SLACK = 1e-9 below it, plus
rounding and solver error (in exact arithmetic with a zero slack, exactly
it).  Every q-variation is one dynamic program, `_variation_dp`, which
builds, per block of columns, only the rows that can still win one of
them: by the path's diameter bound, and for paths by the length of the
path from the row to the block's last column, the prefix sums of its
adjacent distances (`_prefix_lengths`).  On the level-10, 62-path
cylinder lift that is about 7 % of the K N(N-1)/2 pairs (a sixth with the
diameter bound alone), with values bit-identical to the full program.
Every dyadic grid is checked first (`_check_grid`): its level an integer
>= 0, its points over all paths charged against the size budget through
the one gate, `transport._charge`.

Conventions:
  * `*_norm_*` functions return the norm itself (p-th or q-th root);
  * `besov_energy_pg` and `frac_sobolev_energy` return the p-th power;
  * `besov_norm_truncated` returns the p-th-power partial sum together with
    its last increment (a convergence diagnostic);
  * `limsup_variation_dyadic` returns raw per-level sums of d^q.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import spaces
from .errors import ValidationError
from .measures import _check_exponent
from .paths import PiecewiseGeodesicPath, _interpolate, dyadic_times
from .transport import _charge


def _check_alpha_p(alpha, p, require_continuity=False):
    if not (0 < alpha < 1):
        raise ValidationError("alpha must lie in (0, 1)")
    if not (1 < p < np.inf):
        raise ValidationError("p must lie in (1, inf)")
    if require_continuity and alpha * p <= 1:
        raise ValidationError("alpha * p > 1 required for continuity claims")


def _check_count(value, name, least):
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValidationError(f"{name} must be an integer >= {least}, got {value!r}")


def _check_grid(curve, M, name: str = "M") -> int:
    """M as a Python int, once it is an integer >= 0 (ValidationError) and
    the K (2^M + 1) points of the level-M dyadic grid of `curve`'s K paths
    (K = 1 unless it is a lift) fit `transport.product_budget()`
    (BudgetExceededError); counted in Python integers, before anything is
    allocated.  This bounds the grid's memory, not the number of distance
    pairs built on it."""
    _check_count(M, name, 0)
    M = int(M)
    X = getattr(curve, "breakpoints", None)
    paths = 1 if X is None else math.prod(X.shape[:-2])
    # beyond M = 1023 the count, shown as inf, exceeds any budget
    _charge(paths * (2**M + 1) if M < 1024 else math.inf, "grid points")
    return M


def _distances(dist, pairs) -> np.ndarray:
    """dist(a, b) for every pair: one `dist.many(pairs)` call when the
    callback has that batched form, else one `dist` call per pair."""
    pairs = list(pairs)
    many = getattr(dist, "many", None)
    if many is not None:
        return np.asarray(many(pairs), dtype=float)
    return np.array([dist(a, b) for a, b in pairs], dtype=float)


# ---------------------------------------------------------------------------
# Besov dyadic sums


def _level_power_sum(curve, m: int, p: float, dist=None):
    """Sum_k d(X_{t_k}, X_{t_{k+1}})^p over the level-m dyadic grid.

    A path or a lift reads its breakpoints (or evaluates them below its
    level), one sum per path; any other curve needs `dist`.  A curve that
    declares an exact time `period` only samples one period of pairs."""
    X = getattr(curve, "breakpoints", None)
    if X is not None:
        step = 2 ** (curve.level - m) if m <= curve.level else 0
        X = X[..., ::step, :] if step else _interpolate(curve.space, X, dyadic_times(m))
        d = spaces._distance_arrays(curve.space, X[..., :-1, :], X[..., 1:, :])
        return np.sum(d**p, axis=-1)
    if dist is None:
        raise ValidationError("generic curve evaluators need a distance callback")
    n_pairs = pairs = 2**m
    period = getattr(curve, "period", None)
    if period is not None:
        # a period of exactly 2^-k (frexp's mantissa 1/2, k = 1 - exponent)
        # repeats every 2^max(m - k, 0) pairs; any other takes no shortcut
        mantissa, exponent = math.frexp(period)
        if mantissa == 0.5 and exponent <= 1:
            pairs = 2 ** max(m + exponent - 1, 0)
    vals = [curve(t) for t in dyadic_times(m)[: pairs + 1]]
    return (n_pairs // pairs) * float(np.sum(_distances(dist, zip(vals, vals[1:])) ** p))


def _dyadic_besov(curve, alpha: float, p: float, M: int, dist=None):
    """The one dyadic Besov engine behind every b^{alpha,p} sum.

    `curve` is a path or a lift (exact level L = its breakpoint level) or a
    curve evaluated through `dist` (L = its declared `level`, if any).
    Level sums S_m are computed directly for m <= min(L, M); beyond L each
    level-L piece is a geodesic, so S_m = S_L 2^{(L-m)(p-1)}.  Returns the
    increments 2^{m(alpha p - 1)} S_m for m = 0..M (for a lift, one column
    per path) and, when L <= M, the closed-form sum of every increment
    beyond L, 2^{L(alpha p - 1)} / (2^{p - alpha p} - 1) S_L (else None).
    """
    _check_alpha_p(alpha, p)
    if M < 0:
        raise ValidationError("M must be >= 0")
    ap = alpha * p
    L = getattr(curve, "level", None)
    top = M if L is None else min(L, M)
    sums = [_level_power_sum(curve, m, p, dist) for m in range(top + 1)]
    tail = None
    if L is not None and L <= M:
        sums += [sums[L] * 2.0 ** ((L - m) * (p - 1)) for m in range(L + 1, M + 1)]
        tail = 2.0 ** (L * (ap - 1)) / (2.0 ** (p - ap) - 1.0) * sums[L]
    return np.array([2.0 ** (m * (ap - 1)) * S for m, S in enumerate(sums)]), tail


def besov_energy_pg(path, alpha: float, p: float) -> float | list:
    """Exact |X|_{b^{alpha,p}}^p for a level-n piecewise-geodesic path:
    the finite double sum over scales m <= n plus the geometric tail
    2^{n(alpha p - 1)} / (2^{p - alpha p} - 1) * sum_i d(x_i, x_{i+1})^p;
    for a lift, the list of its per-path energies.
    """
    incs, tail = _dyadic_besov(path, alpha, p, path.level)
    return (np.sum(incs, axis=0) + tail).tolist()


def besov_norm_truncated(curve, alpha: float, p: float, M: int, dist=None):
    """Partial dyadic Besov sum over scales m = 0..M (p-th power) and the
    m = M increment.  Monotone nondecreasing in M.

    For piecewise-geodesic paths, and curves that declare a `level`, the
    level sums beyond that level scale exactly like 2^{(n-m)(p-1)} (each
    segment splits into equal geodesic pieces), so arbitrarily deep
    truncations stay cheap."""
    incs, _ = _dyadic_besov(curve, alpha, p, M, dist)
    return float(np.sum(incs)), float(incs[-1])


# ---------------------------------------------------------------------------
# Fractional Sobolev quadrature


# most (s, t) node pairs one batched quadrature evaluation takes: each of a
# chunk's few (rectangles, g, g) float arrays stays within 64 KiB, which
# keeps them in cache and adds nothing measurable to peak memory
_QUAD_NODE_PAIRS = 2**13
# Gauss-Legendre nodes and weights on [-1, 1], by order
_legendre = functools.lru_cache(maxsize=16)(np.polynomial.legendre.leggauss)


def _rectangle_quad(path, rects, alpha, p, g) -> np.ndarray:
    """Order-g tensor Gauss-Legendre integral of d(X_s, X_t)^p /
    |t-s|^{1+alpha p} over each rectangle [sa, sb] x [ta, tb] (rows of
    `rects`, off the diagonal), one value per rectangle, in chunks of at
    most _QUAD_NODE_PAIRS node pairs with one `eval_many` call each."""
    x, w = _legendre(g)
    step = max(1, _QUAD_NODE_PAIRS // (g * g))
    out = np.empty(len(rects))
    for k in range(0, len(rects), step):
        sa, sb, ta, tb = rects[k:k + step, :, None].transpose(1, 0, 2)
        ss, ws = 0.5 * (sb - sa) * x + 0.5 * (sa + sb), 0.5 * (sb - sa) * w
        tt, wt = 0.5 * (tb - ta) * x + 0.5 * (ta + tb), 0.5 * (tb - ta) * w
        X = path.eval_many(np.concatenate([ss.ravel(), tt.ravel()])).reshape(2, *ss.shape, -1)
        D = spaces._distance_arrays(path.space, X[0, :, :, None], X[1, :, None, :], canonical=True)
        integrand = D**p / np.abs(tt[:, None, :] - ss[:, :, None]) ** (1.0 + alpha * p)
        out[k:k + step] = np.einsum("ri,ri->r", ws, np.einsum("rij,rj->ri", integrand, wt))
    return out


def _check_quad(alpha, p, gl_order, corner_splits, require_continuity=False):
    """The argument checks shared by `frac_sobolev_energy` and `grr_check`."""
    _check_alpha_p(alpha, p, require_continuity)
    _check_count(gl_order, "gl_order", 1)
    if gl_order**2 > _QUAD_NODE_PAIRS:
        raise ValidationError(
            f"gl_order must be at most {math.isqrt(_QUAD_NODE_PAIRS)}, got {gl_order}"
        )
    _check_count(corner_splits, "corner_splits", 0)


def _check_quad_budget(n, corner_splits, paths: int = 1) -> None:
    """Charge the rectangles of `paths` tables over n cells (an int, or
    math.inf past any budget), (n-1)(n-2)/2 + (n-1)(corner_splits+1)^2 each,
    against `transport.product_budget()`; counted in Python integers,
    before anything is allocated."""
    _charge(paths * ((n - 1) * (n - 2) // 2 + (n - 1) * (int(corner_splits) + 1) ** 2)
            if n < math.inf else math.inf, "quadrature cells")


def frac_sobolev_energy(
    path,
    alpha: float,
    p: float,
    interval=(0.0, 1.0),
    gl_order: int = 8,
    corner_splits: int = 10,
) -> float | list:
    """Double integral over interval^2 of d(X_s, X_t)^p / |t-s|^{1+alpha p}.

    The domain is cut along the path's own breakpoints into N cells, and
    the energy is twice the sum of the path's cell-pair table
    (`_frac_sobolev_table`).  Within one segment the path is a
    constant-speed geodesic, so the diagonal cells are integrated in closed
    form from the segment speeds.  Separated cell pairs get tensor
    Gauss-Legendre of order `gl_order`; each adjacent pair [a, c] x [c, b]
    is cut at c - (c - a) 2^{-k} and c + (b - c) 2^{-k}, k = 1..corner_splits,
    into (corner_splits + 1)^2 sub-cells of order max(4, gl_order - 2).
    All rectangles of one order are evaluated together, in chunks of bounded
    size (`_rectangle_quad`).  `gl_order`^2 may not exceed _QUAD_NODE_PAIRS
    (ValidationError), so every rectangle fits one chunk, and the rectangle
    count, (N-1)(N-2)/2 + (N-1)(corner_splits+1)^2, is checked against
    `transport.product_budget()` before anything is evaluated
    (BudgetExceededError); together they bound the work.

    For a lift, the list of its K per-path energies; the count checked is
    then K times one path's, before any path is evaluated.
    """
    _check_quad(alpha, p, gl_order, corner_splits)
    lo, hi = float(interval[0]), float(interval[1])
    if not (0.0 <= lo < hi <= 1.0):
        raise ValidationError("interval must satisfy 0 <= lo < hi <= 1")
    grid = dyadic_times(path.level)
    knots = np.concatenate([[lo], grid[(grid > lo) & (grid < hi)], [hi]])
    paths = getattr(path, "paths", None)
    _check_quad_budget(len(knots) - 1, corner_splits, 1 if paths is None else len(paths))

    def energy(y):
        T, _ = _frac_sobolev_table(y, knots, alpha, p, gl_order, corner_splits)
        return 2.0 * float(np.sum(T))

    return energy(path) if paths is None else [energy(y) for y in paths]


def _frac_sobolev_table(path, knots, alpha, p, gl_order, corner_splits):
    """One path's cell-pair table over the n cells between `knots`, once the
    arguments and budget are checked, and the path's values at the knots.

    The table T is upper-triangular n x n and nonnegative: T[x, x] is the
    closed-form integral over cell x squared, T[x, y] for y > x + 1 the
    integral over cells x times y, T[x, x + 1] the sum over the corner
    sub-cells of that adjacent pair.  The energy over cells a..b-1 is twice
    the sum of T[x, y] over a <= x <= y < b."""
    n = len(knots) - 1
    # diagonal cells: d = speed * (t - s) exactly
    beta = p - alpha * p  # > 0
    L = np.diff(knots)
    X = path.eval_many(knots)
    speeds = spaces._distance_arrays(path.space, X[:-1], X[1:]) / L
    T = np.diag(speeds**p * L ** (beta + 1.0) / (beta * (beta + 1.0)))
    if n == 1:  # all diagonal; nothing is built from the orders
        return T, X

    a, b = knots[:-1], knots[1:]
    i, j = np.triu_indices(n, k=2)
    separated = np.stack([a[i], b[i], a[j], b[j]], axis=1)
    # adjacent cells [sa, c] and [c, tb]: geometric breaks toward c
    sa, c, tb = knots[:-2, None], knots[1:-1, None], knots[2:, None]
    halves = 2.0 ** (-np.arange(1, corner_splits + 1))
    s_breaks = np.hstack([sa, c - (c - sa) * halves, c])
    t_breaks = np.hstack([c, (c + (tb - c) * halves)[:, ::-1], tb])
    corners = np.stack(np.broadcast_arrays(
        s_breaks[:, :-1, None], s_breaks[:, 1:, None],
        t_breaks[:, None, :-1], t_breaks[:, None, 1:]), axis=-1).reshape(-1, 4)
    # one `_rectangle_quad` per order: separated and corner rectangles share
    # it when their orders agree
    orders = (gl_order, max(4, gl_order - 2))
    groups = [separated, corners]
    if orders[0] == orders[1]:
        groups = [np.concatenate(groups)]
    vals = np.concatenate([_rectangle_quad(path, r, alpha, p, g) for g, r in zip(orders, groups)])
    T[i, j] = vals[:len(separated)]
    k = np.arange(n - 1)
    T[k, k + 1] = vals[len(separated):].reshape(n - 1, -1).sum(axis=1)
    return T, X


# ---------------------------------------------------------------------------
# dyadic-grid functionals on paths, lifts or generic curve evaluators


# most distances one column block of a pair table holds, over all K paths
# together: like _QUAD_NODE_PAIRS, it keeps each of a block's few float
# arrays within 64 KiB, in cache
_VARIATION_ENTRIES = 2**13


def _block_width(K: int, N: int) -> int:
    """Columns of K paths' N x N pair tables, all rows i < N - 1, within
    _VARIATION_ENTRIES entries (one when one column alone is more)."""
    return max(1, _VARIATION_ENTRIES // (K * (N - 1)))


def _column_blocks(K: int, N: int):
    """Column ranges [j0, j1) of K paths' N x N pair tables, rows i < j1 - 1,
    within _VARIATION_ENTRIES entries (one column when one alone is more)."""
    width = _block_width(K, N)
    return [(j0, min(N, j0 + width)) for j0 in range(1, N, width)]


def _point_blocks(space, G):
    """block(j0, j1, rows): d(G_i, G_j) of the K point sequences G (K, N,
    dim) for columns j0 <= j < j1, as a (j1 - j0, rows) array.  `rows` is
    either an int r, for rows r <= i < j1 - 1 of every sequence, stacked
    sequence by sequence, or a pair (k, i) of flat index arrays, one row
    per entry."""
    N, flat = G.shape[1], G.reshape(-1, G.shape[-1])

    def block(j0, j1, rows):
        if isinstance(rows, tuple):
            start = rows[0] * N
            X = flat.take(start + rows[1], axis=0)
            Y = flat.take(start + np.arange(j0, j1)[:, None], axis=0)
            return spaces._distance_arrays(space, X, Y, canonical=True)
        D = spaces._distance_arrays(
            space, G[:, None, rows : j1 - 1, :], G[:, j0:j1, None, :], canonical=True
        )
        return D.swapaxes(0, 1).reshape(j1 - j0, -1)

    return block


def _prefix_lengths(space, X):
    """Per sequence of canonical points X (K, N, dim): the prefix sums L
    (K, N) of its computed adjacent distances (L[:, 0] = 0), and a slack
    s (K,) with every computed distance d(x_i, x_j), i < j, at most
    fl(L[:, j] - L[:, i]) + s, by the triangle inequality.

    s = (_BOUND_MARGIN + 8 N eps) (L[:, -1] + P), P the perimeter (0 in
    R^d): a computed distance is within a few ulps of d + P of the exact
    one (arc differences round relative to P), the N - 1 adjacent ones add
    up to N such errors, and each prefix sum rounds by at most N ulps of
    L[:, -1]."""
    L = np.zeros(X.shape[:2])
    step = max(1, _VARIATION_ENTRIES // (X.shape[1] - 1))  # sequences per distance call
    for a in range(0, len(X), step):
        d = spaces._distance_arrays(space, X[a : a + step, :-1], X[a : a + step, 1:], canonical=True)
        np.cumsum(d, axis=1, out=L[a : a + step, 1:])
    P = 0.0 if space.kind == "euclidean" else space.perimeter
    return L, (spaces._BOUND_MARGIN + 8 * X.shape[1] * np.finfo(float).eps) * (L[:, -1] + P)


def _curve_grid(curve, M: int, dist):
    """The level-M dyadic times of a curve evaluated through `dist`, and
    d(i, j): d(X_{t_i}, X_{t_j}) for index arrays i, j of those times, in
    one `_distances` call.  The one curve-grid evaluator behind the dyadic
    Hölder, modulus and variation of a curve."""
    if dist is None:
        raise ValidationError("generic curve evaluators need a distance callback")
    ts = dyadic_times(M)
    vals = [curve(t) for t in ts]
    return ts, lambda i, j: _distances(dist, [(vals[a], vals[b]) for a, b in zip(i, j)])


def _pairwise(curve, M: int, dist):
    """The level-M dyadic times, the shape of the per-path values (() or
    (K,)), block(j0, j1, rows) of d(X_{t_i}, X_{t_j}) as in `_point_blocks`,
    bound() of per-path bounds on every such distance, and lengths, a
    callable giving the grid's `_prefix_lengths` or None.  For paths both
    come from the grid points (`spaces._diameter_bound`); a curve's block
    and bound are sliced from its full `_curve_grid` matrix (its largest
    entry), and it gives no lengths: its distances may be solver output
    that meets the triangle inequality only to a tolerance."""
    X = getattr(curve, "breakpoints", None)
    if X is not None:
        ts = dyadic_times(M)
        G = _interpolate(curve.space, X.reshape(-1, *X.shape[-2:]), ts)
        bound = functools.partial(spaces._diameter_bound, curve.space, G)
        lengths = functools.partial(_prefix_lengths, curve.space, G)
        return ts, X.shape[:-2], _point_blocks(curve.space, G), bound, lengths
    ts, d = _curve_grid(curve, M, dist)
    iu, ju = np.triu_indices(len(ts), k=1)
    DT = np.zeros((len(ts), len(ts)))  # DT[j, i] = d(X_{t_i}, X_{t_j}) for i < j
    DT[ju, iu] = d(iu, ju)

    def block(j0, j1, rows):
        return DT[j0:j1, rows[1] if isinstance(rows, tuple) else slice(rows, j1 - 1)]

    return ts, (), block, lambda: np.array([DT.max()]), None


def _pair_max(curve, M: int, dist, divisor, reach=None):
    """Per path, the max (0 if none) of d(X_s, X_t) / divisor(t - s) over the
    level-M grid pairs s < t at most `reach` grid steps apart (any when
    None).  A path or a lift goes one `_pairwise` block at a time, each
    block built only from the first row that one of its columns can reach;
    a curve evaluated through `dist` goes through `_curve_pair_max`."""
    if getattr(curve, "breakpoints", None) is None:
        return _curve_pair_max(curve, M, dist, divisor, reach)
    ts, shape, block, _, _ = _pairwise(curve, M, dist)
    best = np.zeros(math.prod(shape))
    reach = len(ts) if reach is None else reach
    for j0, j1 in _column_blocks(len(best), len(ts)):
        r = max(0, j0 - reach)
        dt = ts[j0:j1, None] - ts[r : j1 - 1]  # exact multiples of ts[1] = 2^-M
        sel = (dt > 0) & (dt <= reach * ts[1])
        D = block(j0, j1, r).reshape(j1 - j0, len(best), j1 - 1 - r).swapaxes(0, 1)
        ratios = D[:, sel] / divisor(dt[sel])
        best = np.maximum(best, np.max(ratios, axis=1, initial=0.0))
    return best.reshape(shape).tolist()


# relative slack of the curve pair pruning: ties (every pair of a
# constant-speed curve's Hölder-1 table) differ from the max by rounding
# only and are skipped; far below the accuracy of an LP-solved W_p
_PRUNE_SLACK = 1e-9


def _curve_pair_max(curve, M: int, dist, divisor, reach) -> float:
    """`_pair_max` for a curve evaluated through `dist`.

    The N - 1 adjacent distances come first, in one batch.  With S their
    prefix sums, d(X_{t_i}, X_{t_j}) <= S_j - S_i, so pair (i, j) cannot
    exceed U_ij = (S_j - S_i) / divisor(t_j - t_i).  The other pairs within
    `reach` (with reach 0 nothing is solved) are solved highest U first, in
    batches of N, 2N, 4N, ... pairs, each after dropping every pair with
    U <= best (1 + _PRUNE_SLACK).  The candidate index arrays hold at most
    (N-1)(N-2)/2 pairs: fewer bytes than the N x N float table of all pairs."""
    ts, d = _curve_grid(curve, M, dist)
    if reach == 0:
        return 0.0
    n = len(ts) - 1
    reach = n if reach is None else min(reach, n)
    k = np.arange(n)
    adjacent = d(k, k + 1)
    best = float(np.max(adjacent / divisor(ts[1:] - ts[:-1])))
    S = np.concatenate([[0.0], np.cumsum(adjacent)])
    # every pair 2 <= j - i <= reach, gap by gap
    gaps = np.arange(2, reach + 1)
    counts = n + 1 - gaps
    j = np.repeat(gaps, counts)  # the gap j - i, for now
    i = np.arange(len(j)) - np.repeat(np.cumsum(counts) - counts, counts)
    j += i
    U = (S[j] - S[i]) / divisor(ts[j] - ts[i])
    live = np.flatnonzero(U > best * (1.0 + _PRUNE_SLACK))
    order = live[np.argsort(-U[live], kind="stable")]
    i, j, U = i[order], j[order], U[order]
    size = n + 1
    while len(U):
        a, b = i[:size], j[:size]
        best = max(best, float(np.max(d(a, b) / divisor(ts[b] - ts[a]))))
        live = np.count_nonzero(U > best * (1.0 + _PRUNE_SLACK))  # U is descending
        i, j, U = i[len(a):live], j[len(a):live], U[len(a):live]
        size *= 2
    return best


def holder_norm_dyadic(curve, gamma: float, M: int, dist=None) -> float | list:
    """sup over level-M dyadic pairs of d(X_s, X_t) / |t-s|^gamma (per path of a lift).

    For a curve evaluated through `dist`, only the pairs whose
    triangle-inequality bound can still beat the running max are solved
    (`_curve_pair_max`): the value is never above the all-pairs max and
    at most a relative _PRUNE_SLACK = 1e-9 below it, plus rounding and
    solver error; in exact arithmetic with a zero slack it is that max."""
    if not (0 < gamma <= 1):
        raise ValidationError("gamma must lie in (0, 1]")
    M = _check_grid(curve, M)
    return _pair_max(curve, M, dist, lambda dt: dt**gamma)


def modulus_of_continuity(curve, delta: float, M: int, dist=None) -> float | list:
    """sup of d(X_s, X_t) over level-M dyadic pairs with |t-s| <= delta (per path of a lift).

    For a curve evaluated through `dist`, the pairs within delta are pruned
    by the same triangle-inequality bound as in `holder_norm_dyadic`, with
    the same guarantee; with delta < 2^-M nothing is solved."""
    if not (0 < delta <= 1):
        raise ValidationError("delta must lie in (0, 1]")
    M = _check_grid(curve, M)
    # grid pairs are exact multiples of 2^-M apart: |t-s| <= delta + 1e-15
    # holds for exactly those at most this many steps apart
    reach = math.floor((delta + 1e-15) * 2**M)
    return _pair_max(curve, M, dist, lambda dt: 1.0, reach)


# columns of each variation DP block after the first, and rows per chunk of
# its coarse screen: narrower blocks or chunks screen more tightly but cost
# more numpy calls than the distances they save
_SCREEN_COLUMNS = 8
_SCREEN_CHUNK = 16


def _variation_dp(block, N: int, bound, q: float, lengths=None) -> np.ndarray:
    """max over partitions (index subsets containing both endpoints) of
    sum d^q, for K sequences of N points at once, by the dynamic program
    V[:, j] = max_{i<j} (V[:, i] + d(x_i, x_j)^q).  `block(j0, j1, rows)`
    gives d(x_i, x_j) for columns j0 <= j < j1 and the rows `rows` as in
    `_point_blocks`; bound[k] is at least every distance of sequence k;
    `lengths`, when given, is a callable returning `_prefix_lengths`' (L,
    s), with every distance d(x_i, x_j) of sequence k at most fl(L[k, j] -
    L[k, i]) + s[k].  Returns V[:, -1].

    The first block of columns is `_column_blocks`' first, with every row;
    if it reaches column N - 1 nothing else is done (and `lengths` is never
    called).  Later blocks of max(_SCREEN_COLUMNS, that width) columns j0
    <= j < j1 build only the rows i < j0 - 1 that can still win one of
    their columns, with U = min(bound, fl(L[j1 - 1] - L[i]) + s) (U =
    bound without `lengths`): V is nondecreasing along j, so row i cannot
    win any column of the block once V[i] + U^q < V[j0 - 1].  The screen
    runs first per chunk of _SCREEN_CHUNK rows, with V at the chunk's last
    row and L at its first, then per row of the chunks left; rows j0 - 1
    and later are always built, in distance calls of at most
    _VARIATION_ENTRIES entries (or K rows, when more); a block whose rows
    times columns exceed max(_VARIATION_ENTRIES, K (N - 1)) is narrowed to
    fit.

    The result is bit-identical to the full DP.  max is exact, and in
    floating point fl(V + x) >= V for x >= 0, so V never decreases and row
    j - 1 (never dropped) gives column j at least V[j - 1].  Every rounded
    operation of the screen (-, +, min) is monotone, and the bound's q-th
    power is padded by 1 + _BOUND_MARGIN, far above the few ulps of
    error of a computed power: so a dropped row's candidate rounds to at
    most the screen's value, which lies strictly below V[j0 - 1]."""
    K = len(bound)
    V = np.full((K, N), -np.inf)
    V[:, 0] = 0.0
    flat = V.reshape(-1)
    first = _block_width(K, N)
    j1 = min(N, 1 + first)
    Dq = block(1, j1, 0) ** q
    starts = np.arange(K) * (j1 - 1)
    for j in range(1, j1):
        V[:, j] = np.maximum.reduceat(V[:, : j1 - 1].reshape(-1) + Dq[j - 1], starts)
    if j1 == N:
        return V[:, -1]

    L, s = lengths() if lengths is not None else (np.zeros((K, N)), np.full(K, np.inf))
    Lflat, pad = L.reshape(-1), 1.0 + spaces._BOUND_MARGIN

    def power_bound(b, slack, lj, li):  # padded U^q, U = min(b, fl(lj - li) + slack)
        return np.minimum(b, (lj - li) + slack) ** q * pad

    cap, c = max(_VARIATION_ENTRIES, K * (N - 1)), _SCREEN_CHUNK
    width = max(first, _SCREEN_COLUMNS)
    lead, j0 = np.arange(c), j1
    while j0 < N:
        j1 = min(N, j0 + width)
        top = j0 - 1  # the last row V is known at; every row from it on is kept
        f = top // c  # the chunks wholly below it
        live = V[:, c - 1 : f * c : c] + power_bound(
            bound[:, None], s[:, None], L[:, j1 - 1 : j1], L[:, 0 : f * c : c]
        ) >= V[:, top : top + 1]
        live = np.hstack([live, np.ones((K, (j1 - 2) // c + 1 - f), dtype=bool)])
        k, t = np.nonzero(live)
        kN, i = k[:, None] * N, t[:, None] * c + lead
        at = kN + np.minimum(i, j1 - 2)  # rows past the block are gathered, never kept
        keep = (i < j1 - 1) & ((i >= top) | (flat[at] + power_bound(
            bound[k, None], s[k, None], Lflat[kN + j1 - 1], Lflat[at]
        ) >= flat[kN + top]))
        rows = np.nonzero(keep)
        k, i = k[rows[0]], i[rows]
        if len(k) * (j1 - j0) > cap:  # narrow the block to fit
            j1 = j0 + max(1, cap // len(k))
            k, i = k[i < j1 - 1], i[i < j1 - 1]
        counts = np.bincount(k, minlength=K)
        starts = np.cumsum(counts) - counts
        Dq = np.empty((j1 - j0, len(k)))
        step = max(K, _VARIATION_ENTRIES // (j1 - j0))  # rows per distance call
        for a in range(0, len(k), step):
            Dq[:, a : a + step] = block(j0, j1, (k[a : a + step], i[a : a + step])) ** q
        idx = k * N + i
        for j in range(j0, j1):
            V[:, j] = np.maximum.reduceat(flat[idx] + Dq[j - j0], starts)
        j0 = j1
    return V[:, -1]


def _vertex_variation(space, X: np.ndarray, q: float) -> np.ndarray:
    """Vertex q-variation, as the q-th power, of the K piecewise-geodesic
    paths whose canonical breakpoints are X (K, N, dim): partitions over the
    breakpoints only.  That is the path's q-variation for q >= 1 in R^d,
    where distance is convex along segments; on the circle and the cylinder
    it is a lower bound (a partition point inside a segment can be farther
    from others than both its ends).  Distances are built block by block
    (`_variation_dp`), never as a full N x N matrix per path."""
    return _variation_dp(_point_blocks(space, X), X.shape[1], spaces._diameter_bound(space, X), q,
                         functools.partial(_prefix_lengths, space, X))


def p_variation(curve, q: float, mode: str = "dyadic", M: int = 8, dist=None) -> float | list:
    """q-variation norm: (sup over partitions of sum d^q)^(1/q), per path of a lift.

    mode="dyadic": partitions with points in the level-M dyadic grid.
    mode="vertex": piecewise-geodesic paths and lifts only; partitions over
    the breakpoints.  For q >= 1 that is the exact q-variation in R^d, but
    on the circle and the cylinder only a lower bound: the circle(2) path
    [0, 0.6, 1.4] has vertex value 1.0 at q = 2 and dyadic value 1.16 at
    M = 10, through the point 1.0 antipodal to 0.
    """
    _check_exponent(q, "q")
    if mode == "vertex":
        X = getattr(curve, "breakpoints", None)
        if X is None:
            raise ValidationError("vertex mode needs a piecewise-geodesic path")
        shape = X.shape[:-2]
        V = _vertex_variation(curve.space, X.reshape(-1, *X.shape[-2:]), q)
    elif mode == "dyadic":
        ts, shape, block, bound, lengths = _pairwise(curve, _check_grid(curve, M), dist)
        V = _variation_dp(block, len(ts), bound(), q, lengths)
    else:
        raise ValidationError(f"unknown mode {mode!r}")
    return np.reshape([v ** (1.0 / q) for v in V.tolist()], shape).tolist()


def limsup_variation_dyadic(curve, q: float, levels, dist=None) -> np.ndarray:
    """For each level m: sum_k d(X_{t_k}, X_{t_{k+1}})^q over the level-m
    consecutive dyadic pairs.  The trend over growing m stands in for the
    limsup over shrinking dyadic meshes."""
    _check_exponent(q, "q")
    levels = [_check_grid(curve, m, "level") for m in levels]
    return np.array([_level_power_sum(curve, m, q, dist) for m in levels])


def _w1p_energy(curve, p: float, m: int, dist=None):
    """Speed^p over the level-m grid, 2^{m(p-1)} S_m: exact at a path's level."""
    _check_exponent(p, "p")
    return 2.0 ** (m * (p - 1.0)) * _level_power_sum(curve, m, p, dist)


def w1p_norm_pg(path: PiecewiseGeodesicPath, p: float) -> float:
    """Exact W^{1,p} norm of a piecewise-geodesic path (L^p norm of speed)."""
    return float(_w1p_energy(path, p, path.level)) ** (1.0 / p)


# ---------------------------------------------------------------------------
# checks


def grr_constant(alpha: float, p: float) -> float:
    """The explicit admissible constant (32 (alpha p + 1)/(alpha p - 1))^{1/p}."""
    if alpha * p <= 1:
        raise ValidationError("requires alpha * p > 1")
    return (32.0 * (alpha * p + 1.0) / (alpha * p - 1.0)) ** (1.0 / p)


def grr_check(
    path: PiecewiseGeodesicPath,
    alpha: float,
    p: float,
    level: int = 2,
    gl_order: int = 8,
    corner_splits: int = 10,
):
    """Verify d(X_s, X_t) <= cbar |t-s|^{alpha - 1/p} |X|_{W^{alpha,p};[s,t]}
    over all pairs of level-`level` dyadic times; reports the largest attained
    ratio relative to cbar (must be <= 1) and the number of pairs with
    d > 0 and a positive energy.

    The arguments (as `frac_sobolev_energy`'s, plus `level`) and the
    rectangle count of one table over 2^max(level, path.level) cells are
    checked before anything is allocated.  Then one cell-pair table
    (`_frac_sobolev_table`) is built on the level-max(level, path.level)
    dyadic knots, and every interval's energy is read from it as
    2 S[a, b], S[a, b] the sum of T[x, y] over a <= x <= y < b: a reversed
    cumulative sum down the columns, then a cumulative sum along the rows,
    of nonnegative terms only.  At level <= path.level these are the cells
    `frac_sobolev_energy(interval=(s, t))` integrates; above it they are
    the cells of the same path refined to level `level`.
    """
    _check_quad(alpha, p, gl_order, corner_splits, require_continuity=True)
    _check_count(level, "level", 0)
    level = int(level)
    top = max(level, path.level)
    # 2^top cells, counted as inf from top = 1024 on, never built
    _check_quad_budget(2**top if top < 1024 else math.inf, corner_splits)
    cbar = grr_constant(alpha, p)
    knots = dyadic_times(top)
    T, X = _frac_sobolev_table(path, knots, alpha, p, gl_order, corner_splits)
    # E[a, b - 1]: the energy over cells a..b-1
    E = 2.0 * np.cumsum(np.cumsum(T[::-1], axis=0)[::-1], axis=1)
    step = 2 ** (top - level)
    iu, ju = np.triu_indices(2**level + 1, k=1)
    a, b = step * iu, step * ju
    d = spaces._distance_arrays(path.space, X[a], X[b], canonical=True)
    energy = E[a, b - 1]
    keep = (d > 0.0) & (energy > 0.0)
    s, t = knots[a[keep]], knots[b[keep]]
    bound = cbar * (t - s) ** (alpha - 1.0 / p) * energy[keep] ** (1.0 / p)
    max_ratio = float(np.max(d[keep] / bound, initial=0.0))
    return {"max_ratio": max_ratio, "cbar": cbar, "pairs_checked": int(np.count_nonzero(keep))}


def geodesic_characterization_check(
    path: PiecewiseGeodesicPath, alpha: float, p: float, tol: float = 1e-9
) -> bool:
    """True iff d(X_0, X_1)^p equals (1 - 2^{-(p - alpha p)}) |X|^p_{b^{alpha,p}}
    within tol (relative to the Besov energy) — the equality characterizing
    constant-speed geodesics."""
    energy = besov_energy_pg(path, alpha, p)
    d01 = spaces.distance(path.space, path.breakpoints[0], path.breakpoints[-1])
    factor = 1.0 - 2.0 ** (-(p - alpha * p))
    return abs(d01**p - factor * energy) <= tol * max(energy, 1.0e-30) + 1e-30
