import functools

import numpy as np
import pytest
from hypothesis import strategies as st

from wlift import PiecewiseGeodesicPath, circle, cylinder, euclidean, make_measure, spaces, transport
from wlift.paths import dyadic_times

ALL_SPACES = [euclidean(1), euclidean(2), euclidean(3), circle(2.0), cylinder(2.0)]


def random_point(rng, space):
    x = rng.normal(scale=2.0, size=space.dim)
    if space.kind in ("circle", "cylinder"):
        x[0] = rng.uniform(0, space.perimeter)
    return x


def random_points(rng, space, n):
    return np.stack([random_point(rng, space) for _ in range(n)])


def random_measure(rng, space, n_atoms):
    w = rng.uniform(0.2, 1.0, size=n_atoms)
    return make_measure(space, random_points(rng, space, n_atoms), w / w.sum())


def on_plane(mu):
    """mu on the line y = 0 of R^2: the same atoms in the first coordinate,
    so the same cost matrices, on a space where plans and compatibility
    are decided by the general dispatch and the LP."""
    atoms = np.column_stack([mu.atoms, np.zeros(mu.size)])
    return make_measure(euclidean(2), atoms, mu.weights)


def counted_lp_solves(monkeypatch):
    """Record the number of columns of every LP solved through transport."""
    widths = []
    solve = transport._highs_solve

    def counting(c, *args, **kwargs):
        widths.append(len(c))
        return solve(c, *args, **kwargs)

    monkeypatch.setattr(transport, "_highs_solve", counting)
    return widths


def random_path(rng, space, level):
    return PiecewiseGeodesicPath(space, random_points(rng, space, 2**level + 1), level)


coords = st.floats(-5, 5, allow_nan=False, allow_infinity=False)


def measure_strategy(space, max_atoms=4):
    def build(draw_atoms, draw_w):
        atoms = np.array(draw_atoms, dtype=float).reshape(-1, space.dim)
        wts = np.array(draw_w, dtype=float) + 0.05
        return make_measure(space, atoms, wts / wts.sum())

    n = st.integers(1, max_atoms)
    return n.flatmap(
        lambda k: st.builds(
            build,
            st.lists(coords, min_size=k * space.dim, max_size=k * space.dim),
            st.lists(st.floats(0, 1, allow_nan=False), min_size=k, max_size=k),
        )
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20260826)


# one "[criterion N] PASS/FAIL" line per acceptance criterion, echoed after
# the test run so output capture cannot swallow them
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def loop_glue_chain(couplings, prune=1e-15):
    """Reference Markov glue of a chain of couplings, one support tuple and
    one successor atom at a time; returns (indices, weights)."""
    first = couplings[0].weights
    idx = np.argwhere(first > prune)
    wts = first[idx[:, 0], idx[:, 1]]
    for c in couplings[1:]:
        row_tot = c.weights.sum(axis=1)
        cond = c.weights / np.where(row_tot > 0, row_tot, 1.0)[:, None]
        new_idx, new_wts = [], []
        for tup, wt in zip(idx, wts):
            for k in np.nonzero(cond[tup[-1]] > prune)[0]:
                new_idx.append(np.append(tup, k))
                new_wts.append(wt * cond[tup[-1], k])
        idx, wts = np.array(new_idx, dtype=int), np.array(new_wts)
    return idx, wts


def loop_marginal_error(mc):
    """Reference largest 1-D marginal error of a multi-coupling, one
    marginal and one support tuple at a time."""
    worst = 0.0
    for i, mu in enumerate(mc.marginals):
        sums = np.zeros(mu.size)
        for k, wt in zip(mc.indices[:, i], mc.weights):
            sums[k] += wt
        worst = max(worst, float(np.abs(sums - mu.weights).max()))
    return worst


def _loop_gl_nodes(a, b, g):
    x, w = np.polynomial.legendre.leggauss(g)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def _loop_cell_pair_quad(path, sa, sb, ta, tb, alpha, p, g):
    ss, ws = _loop_gl_nodes(sa, sb, g)
    tt, wt = _loop_gl_nodes(ta, tb, g)
    Xs = path.eval_many(ss)
    Xt = path.eval_many(tt)
    D = spaces.distance_matrix(path.space, Xs, Xt)
    dt = tt[None, :] - ss[:, None]
    integrand = D**p / np.abs(dt) ** (1.0 + alpha * p)
    return float(ws @ integrand @ wt)


def loop_frac_sobolev(path, alpha, p, interval=(0.0, 1.0), gl_order=8, corner_splits=10):
    """Reference fractional Sobolev energy, one rectangle at a time: closed
    form on the diagonal cells, tensor Gauss-Legendre of order `gl_order`
    on separated cell pairs and of order max(4, gl_order - 2) on the
    geometrically refined corner sub-cells of adjacent pairs."""
    lo, hi = float(interval[0]), float(interval[1])
    n = path.level
    grid = dyadic_times(n)
    knots = [lo] + [t for t in grid if lo < t < hi] + [hi]
    knots = np.array(knots)
    cells = list(zip(knots[:-1], knots[1:]))
    speeds = []
    for (a, b) in cells:
        speeds.append(
            spaces.distance(path.space, path(a), path(b)) / (b - a)
        )

    beta = p - alpha * p  # > 0
    total = 0.0
    # diagonal cells: d = speed * (t - s) exactly
    for (a, b), v in zip(cells, speeds):
        L = b - a
        total += v**p * L ** (beta + 1.0) / (beta * (beta + 1.0))
    # off-diagonal ordered cell pairs
    for i in range(len(cells)):
        sa, sb = cells[i]
        for j in range(i + 1, len(cells)):
            ta, tb = cells[j]
            if j > i + 1:
                total += _loop_cell_pair_quad(path, sa, sb, ta, tb, alpha, p, gl_order)
                continue
            # adjacent: refine both cells geometrically toward the corner sb
            c = sb
            s_breaks = c - (c - sa) * 2.0 ** (-np.arange(corner_splits + 1))
            s_breaks = np.concatenate([[sa], s_breaks[1:], [c]])
            t_breaks = c + (tb - c) * 2.0 ** (-np.arange(corner_splits + 1))
            t_breaks = np.concatenate([[tb], t_breaks[1:], [c]])[::-1]
            for u0, u1 in zip(s_breaks[:-1], s_breaks[1:]):
                for v0, v1 in zip(t_breaks[:-1], t_breaks[1:]):
                    total += _loop_cell_pair_quad(
                        path, u0, u1, v0, v1, alpha, p, max(4, gl_order - 2)
                    )
    return 2.0 * total


def loop_grr_check(path, alpha, p, level=2, **quad):
    """Reference Garsia-Rodemich-Rumsey check, one interval at a time: a
    scalar distance and a full `frac_sobolev_energy` quadrature over (s, t)
    for every pair s < t of level-`level` dyadic times."""
    from wlift.norms import frac_sobolev_energy, grr_constant

    cbar = grr_constant(alpha, p)
    ts = dyadic_times(level)
    max_ratio, checked = 0.0, 0
    for i in range(len(ts)):
        for j in range(i + 1, len(ts)):
            s, t = ts[i], ts[j]
            d = spaces.distance(path.space, path(s), path(t))
            if d == 0.0:
                continue
            energy = frac_sobolev_energy(path, alpha, p, interval=(s, t), **quad)
            if energy <= 0.0:
                continue
            bound = cbar * (t - s) ** (alpha - 1.0 / p) * energy ** (1.0 / p)
            max_ratio = max(max_ratio, d / bound)
            checked += 1
    return {"max_ratio": max_ratio, "cbar": cbar, "pairs_checked": checked}


def loop_vertex_variation(space, breakpoints, q):
    """Reference vertex q-variation (q-th power) of one path: the full
    distance matrix of its breakpoints, then max over partitions of
    sum d^q, one column at a time."""
    D = spaces.distance_matrix(space, breakpoints, breakpoints)
    n = D.shape[0]
    Dq = D**q
    V = np.full(n, -np.inf)
    V[0] = 0.0
    for j in range(1, n):
        V[j] = np.max(V[:j] + Dq[:j, j])
    return float(V[-1])


def _loop_grid_distances(path, M):
    """The level-M dyadic times and the dense distance matrix of one path's
    points there."""
    ts = dyadic_times(M)
    X = path.eval_many(ts)
    return ts, spaces.distance_matrix(path.space, X, X)


def loop_holder(path, gamma, M):
    """Reference dyadic Hölder constant of one path: the max of
    d / |t - s|^gamma over the upper triangle of the dense matrix."""
    ts, D = _loop_grid_distances(path, M)
    iu, ju = np.triu_indices(len(ts), k=1)
    dt = ts[ju] - ts[iu]
    return float(np.max(D[iu, ju] / dt**gamma, initial=0.0))


def loop_modulus(path, delta, M):
    """Reference modulus of continuity of one path: the max of d over the
    upper triangle of the dense matrix where |t - s| <= delta."""
    ts, D = _loop_grid_distances(path, M)
    iu, ju = np.triu_indices(len(ts), k=1)
    sel = (ts[ju] - ts[iu]) <= delta + 1e-15
    if not np.any(sel):
        return 0.0
    return float(np.max(D[iu[sel], ju[sel]]))


@functools.lru_cache(maxsize=2)
def _loop_curve_distances(curve, M, p):
    """The level-M dyadic times of a curve of measures and the upper
    triangle of its W_p matrix there, one `wasserstein_distance` per pair
    (kept for the next reference call on the same curve)."""
    ts = dyadic_times(M)
    mus = [curve(t) for t in ts]
    D = np.zeros((len(ts), len(ts)))
    for i in range(len(ts)):
        for j in range(i + 1, len(ts)):
            D[i, j] = transport.wasserstein_distance(mus[i], mus[j], p)
    return ts, D


def loop_curve_holder(curve, gamma, M, p):
    """Reference dyadic W_p Hölder constant of a curve: the max of
    W_p / |t - s|^gamma over every grid pair."""
    ts, D = _loop_curve_distances(curve, M, p)
    iu, ju = np.triu_indices(len(ts), k=1)
    return float(np.max(D[iu, ju] / (ts[ju] - ts[iu]) ** gamma, initial=0.0))


def loop_curve_modulus(curve, delta, M, p):
    """Reference W_p modulus of continuity of a curve: the max of W_p over
    every grid pair with |t - s| <= delta."""
    ts, D = _loop_curve_distances(curve, M, p)
    iu, ju = np.triu_indices(len(ts), k=1)
    sel = (ts[ju] - ts[iu]) <= delta + 1e-15
    return float(np.max(D[iu[sel], ju[sel]], initial=0.0))


def loop_besov_energy(space, breakpoints, alpha, p):
    """Reference Besov energy of one level-n path, one scalar distance at a
    time: the double sum over scales m <= n of 2^{m(alpha p - 1)} S_m, plus
    the geometric tail 2^{n(alpha p - 1)} / (2^{p - alpha p} - 1) S_n."""
    n = (len(breakpoints) - 1).bit_length() - 1
    ap = alpha * p
    total = 0.0
    for m in range(n + 1):
        step = 2 ** (n - m)
        S = sum(spaces.distance(space, breakpoints[k], breakpoints[k + step]) ** p
                for k in range(0, 2**n, step))
        total += 2.0 ** (m * (ap - 1)) * S
    return total + 2.0 ** (n * (ap - 1)) / (2.0 ** (p - ap) - 1.0) * S


def loop_w1p_energy(space, breakpoints, p):
    """Reference W^{1,p} energy of one level-n path: sum of dt (d_i/dt)^p."""
    n = (len(breakpoints) - 1).bit_length() - 1
    dt = 2.0**-n
    return sum(dt * (spaces.distance(space, a, b) / dt) ** p
               for a, b in zip(breakpoints[:-1], breakpoints[1:]))
